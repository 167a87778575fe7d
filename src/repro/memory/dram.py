"""GDDR5 memory-controller and DRAM-channel model.

Each controller owns 16 banks and one data bus. Requests pay row-buffer
timing (tCL on a row hit, tRP+tRCD+tCL on a conflict — Table 1's Hynix
GDDR5 parameters) on their bank and then occupy the data bus for one
reservation per burst. Bandwidth utilization — the paper's Figure 8
metric, "the fraction of total DRAM cycles that the DRAM data bus is
busy" — is the bus timeline's busy fraction.

Compression enters in two ways: compressed lines reserve fewer bursts,
and (Section 4.3.2) every access first consults the metadata cache;
an MD miss inserts an extra metadata fetch on the same channel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.config import DramTiming
from repro.memory.metadata import MetadataCache
from repro.memory.timeline import Timeline

#: DRAM row-buffer size in cache lines (2 KB row / 128 B line).
LINES_PER_ROW = 16


@dataclass
class DramStats:
    """Aggregate counters for one memory controller."""

    reads: int = 0
    writes: int = 0
    read_bursts: int = 0
    write_bursts: int = 0
    metadata_bursts: int = 0
    row_hits: int = 0
    row_misses: int = 0

    @property
    def total_bursts(self) -> int:
        return self.read_bursts + self.write_bursts + self.metadata_bursts

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


#: FR-FCFS approximation: a request counts as a row hit if its row was
#: served on the same bank within this many cycles. The reservation-based
#: model serves requests in arrival order, whereas a real FR-FCFS queue
#: reorders to batch same-row requests; the window recreates that
#: batching for the interleaved multi-stream traffic GPUs generate.
ROW_HIT_WINDOW = 256.0

#: Row-history entries tracked per bank (bounded like a real FR-FCFS
#: queue's reach).
MAX_TRACKED_ROWS = 8


class _Bank:
    __slots__ = ("rows", "ready_at")

    def __init__(self) -> None:
        # row -> last service time, insertion-ordered for pruning.
        self.rows: dict[int, float] = {}
        self.ready_at = 0.0


class MemoryController:
    """One GDDR5 channel: banks, a shared data bus and an MD cache.

    Args:
        mc_id: Channel index (used only for diagnostics).
        burst_cycles: Core cycles one 32 B burst occupies the data bus
            (derived from the configured peak bandwidth).
        timing: GDDR5 timing parameters.
        n_banks: Banks per channel.
        metadata_cache: MD cache, or ``None`` when the design stores
            data uncompressed (no metadata needed).
    """

    def __init__(
        self,
        mc_id: int,
        burst_cycles: float,
        timing: DramTiming,
        n_banks: int = 16,
        metadata_cache: MetadataCache | None = None,
    ) -> None:
        self.mc_id = mc_id
        self.burst_cycles = burst_cycles
        self.timing = timing
        # The derived row latencies, read on every access.
        self._row_hit = timing.row_hit_latency
        self._row_miss = timing.row_miss_latency
        self._row_empty = timing.row_empty_latency
        self.bus = Timeline()
        self.banks = [_Bank() for _ in range(n_banks)]
        self.metadata_cache = metadata_cache
        self.stats = DramStats()
        #: Observability layer (repro.obs.RunObservation); None = off.
        self.obs = None

    # ------------------------------------------------------------------
    def _bank_and_row(self, local_line: int) -> tuple[_Bank, int]:
        bank_index = (local_line // LINES_PER_ROW) % len(self.banks)
        row = local_line // (LINES_PER_ROW * len(self.banks))
        return self.banks[bank_index], row

    def _row_latency(self, bank: _Bank, row: int, at: float) -> int:
        last = bank.rows.get(row)
        if last is not None and at - last <= ROW_HIT_WINDOW:
            self.stats.row_hits += 1
            bank.rows[row] = at
            return self._row_hit
        self.stats.row_misses += 1
        latency = (
            self._row_empty if not bank.rows else self._row_miss
        )
        if last is not None:
            del bank.rows[row]
        bank.rows[row] = at
        if len(bank.rows) > MAX_TRACKED_ROWS:
            oldest = next(iter(bank.rows))
            del bank.rows[oldest]
        return latency

    def access(
        self, at: float, local_line: int, bursts: int, is_write: bool
    ) -> float:
        """Serve one line transfer; returns the data-ready time.

        ``local_line`` is the channel-local line index (global line
        address with the channel bits stripped by the caller), so row
        locality reflects the interleaving actually seen by this channel.
        """
        if bursts < 1:
            raise ValueError(f"bursts must be >= 1, got {bursts}")
        at = self._metadata_fetch(at, local_line)
        bank, row = self._bank_and_row(local_line)
        start = max(at, bank.ready_at)
        latency = self._row_latency(bank, row, start)
        transfer = bursts * self.burst_cycles
        # Column-access latency pipelines with data movement (the next CAS
        # issues while earlier data is still on the bus), so the bus is
        # reserved from the bank-ready point and the row latency only
        # extends this request's completion time.
        bus_start = self.bus.reserve(start, transfer)
        done = bus_start + transfer + latency
        # Bank occupancy throttles throughput: back-to-back column accesses
        # on an open row are tCCD apart; a row change holds the bank for
        # the activate-to-activate window (~tRC); writes add recovery.
        row_hit = latency == self._row_hit
        hold = self.timing.tCDLR if row_hit else self.timing.tRC
        bank.ready_at = start + hold + (self.timing.tWR if is_write else 0)
        if is_write:
            self.stats.writes += 1
            self.stats.write_bursts += bursts
        else:
            self.stats.reads += 1
            self.stats.read_bursts += bursts
        if self.obs is not None:
            self.obs.record_dram(self.mc_id, bursts, is_write,
                                 bus_start - at)
        return done

    def _metadata_fetch(self, at: float, local_line: int) -> float:
        """Consult the MD cache; a miss fetches metadata from DRAM first."""
        if self.metadata_cache is None:
            return at
        lookup = self.metadata_cache.lookup(local_line)
        if lookup.hit:
            return at
        self.stats.metadata_bursts += lookup.extra_bursts
        # Metadata lives in a dense reserved region (~0.2% of DRAM): one
        # 64 B entry per `lines_per_entry` data lines, entries striped
        # across banks so metadata fetches never pile onto one bank.
        entry = local_line // self.metadata_cache.lines_per_entry
        bank = self.banks[entry % len(self.banks)]
        row = (1 << 30) + entry // 32  # 32 entries per 2 KB row
        start = max(at, bank.ready_at)
        latency = self._row_latency(bank, row, start)
        transfer = lookup.extra_bursts * self.burst_cycles
        bus_start = self.bus.reserve(start, transfer)
        bank.ready_at = start + self.timing.tCDLR
        return bus_start + transfer + latency

    # ------------------------------------------------------------------
    def utilization(self, elapsed: float) -> float:
        """Busy fraction of this channel's data bus."""
        return self.bus.utilization(elapsed)
