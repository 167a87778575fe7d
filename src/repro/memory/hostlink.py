"""Capacity-mode device-memory model: placement plan + host link.

Bandwidth mode (the paper's flagship use case) assumes every line of the
working set is resident in device DRAM. Capacity mode — motivated by
Buddy Compression — instead checks the app's *stored* footprint against
a configurable device-memory budget: lines are placed in ascending
address order, each charged its stored size (compressed when the design
point compresses DRAM), and lines that do not fit *spill* to host
memory. Accesses to spilled lines bypass the GDDR5 controllers and
travel a :class:`HostLink` — a single reservation timeline with a long
fixed latency and a fraction of one DRAM channel's bandwidth, the
PCIe/NVLink regime — so capacity pressure turns into real latency and
bandwidth penalties inside the timing model rather than a footnote.

The placement is deterministic and computed once per run from the same
compression plane the hierarchy reads, so the capacity figures
(effective-capacity ratio, spill traffic) are measured on the exact
bytes the simulator moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.memory.timeline import Timeline


@dataclass(frozen=True)
class CapacityConfig:
    """Settings of the capacity model (content-addressed via RunSpec).

    device_bytes: device-memory budget the stored footprint must fit in.
    host_latency: fixed one-way cycles added to every host transfer
        (PCIe/NVLink round-trip seen from the memory partition).
    host_bw_scale: host-link bandwidth as a fraction of one DRAM
        channel (0.25 ~= a 16 GB/s link against a 64 GB/s channel).
    """

    device_bytes: int
    host_latency: float = 600.0
    host_bw_scale: float = 0.25

    def __post_init__(self) -> None:
        if self.device_bytes <= 0:
            raise ValueError("device_bytes must be positive")
        if self.host_latency < 0:
            raise ValueError("host_latency must be >= 0")
        if not 0.0 < self.host_bw_scale <= 1.0:
            raise ValueError("host_bw_scale must be in (0, 1]")


@dataclass(frozen=True)
class CapacityPlan:
    """Deterministic placement of an app's lines under a budget."""

    #: Global line addresses that did not fit on-device.
    spilled: frozenset[int]
    total_lines: int
    device_bytes: int
    #: Stored bytes actually placed on-device.
    resident_bytes: int
    #: Uncompressed footprint (total_lines * line_size).
    footprint_bytes: int
    #: Total stored footprint (what placement had to fit).
    stored_bytes: int
    line_size: int

    @property
    def spill_fraction(self) -> float:
        if not self.total_lines:
            return 0.0
        return len(self.spilled) / self.total_lines

    @property
    def effective_capacity_ratio(self) -> float:
        """Uncompressed bytes the budget effectively holds, per budget
        byte (Buddy Compression's capacity metric; 1.0 = no gain)."""
        resident_lines = self.total_lines - len(self.spilled)
        return (resident_lines * self.line_size) / self.device_bytes


def plan_capacity(
    extents: Iterable[tuple[int, int]],
    line_size: int,
    stored_size_of: Callable[[int], int],
    config: CapacityConfig,
) -> CapacityPlan:
    """Place every line of ``extents`` (ascending address order) until
    the budget is exhausted; the rest spill.

    ``stored_size_of`` maps a line address to its stored size — the
    plane-backed compressed size when the design compresses DRAM, the
    full line size otherwise.
    """
    spilled: list[int] = []
    used = 0
    total_lines = 0
    stored_total = 0
    for start, length in sorted(extents):
        for line in range(start, start + length):
            size = stored_size_of(line)
            total_lines += 1
            stored_total += size
            if used + size <= config.device_bytes:
                used += size
            else:
                spilled.append(line)
    return CapacityPlan(
        spilled=frozenset(spilled),
        total_lines=total_lines,
        device_bytes=config.device_bytes,
        resident_bytes=used,
        footprint_bytes=total_lines * line_size,
        stored_bytes=stored_total,
        line_size=line_size,
    )


@dataclass(frozen=True)
class CapacityModel:
    """What the hierarchy needs: the settings plus the computed plan."""

    config: CapacityConfig
    plan: CapacityPlan


@dataclass
class HostLinkStats:
    reads: int = 0
    writes: int = 0
    read_bursts: int = 0
    write_bursts: int = 0

    @property
    def total_bursts(self) -> int:
        return self.read_bursts + self.write_bursts


class HostLink:
    """The host interface: one serial bus behind a long fixed latency.

    Mirrors the DRAM controller's conservation contract: every burst
    reserves exactly ``burst_cycles`` on the bus, so
    ``stats.total_bursts * burst_cycles == bus.busy_time`` holds by
    construction (checked by ``repro check``).

    ``burst_cycles`` is quantized with ``ceil`` at construction: a
    non-divisor ``host_bw_scale`` (e.g. 0.3) would otherwise yield
    fractional burst cycles, whose repeated float accumulation drifts
    the conservation identity and charges sub-cycle bus occupancy the
    integer-cycle core never sees. Rounding up keeps the link
    conservatively no faster than the configured fraction.
    """

    def __init__(self, config: CapacityConfig, dram_burst_cycles: float) -> None:
        self.bus = Timeline()
        self.latency = config.host_latency
        self.burst_cycles = math.ceil(
            dram_burst_cycles / config.host_bw_scale
        )
        self.stats = HostLinkStats()

    def transfer(self, at: float, bursts: int, is_write: bool) -> float:
        """Move ``bursts`` line bursts across the link; returns the
        completion time of the transfer."""
        duration = bursts * self.burst_cycles
        start = self.bus.reserve(at + self.latency, duration)
        if is_write:
            self.stats.writes += 1
            self.stats.write_bursts += bursts
        else:
            self.stats.reads += 1
            self.stats.read_bursts += bursts
        return start + duration
