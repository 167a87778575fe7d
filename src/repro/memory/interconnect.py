"""The SM <-> memory-partition crossbar.

Table 1: one crossbar per direction clocked at core frequency. Each
memory partition (MC) has one input port for requests and one output
port for replies; a port moves one 32-byte flit per cycle. Data payloads
occupy ``ceil(bytes / flit)`` consecutive cycles, so interconnect
compression (HW-BDI, CABA) directly shortens reply occupancy — this is
the effect that lets CABA/HW-BDI beat HW-BDI-Mem on interconnect-bound
applications like BFS (Section 6.1).
"""

from __future__ import annotations

from repro.memory.timeline import Timeline

#: Control-message size (a read request / write ack header).
CONTROL_BYTES = 8


class Crossbar:
    """Per-direction crossbar with one timeline per memory-partition port."""

    def __init__(
        self, n_mcs: int, latency: int = 16, flit_bytes: int = 32
    ) -> None:
        if n_mcs < 1:
            raise ValueError("need at least one memory controller")
        self.n_mcs = n_mcs
        self.latency = latency
        self.flit_bytes = flit_bytes
        self._request_ports = [Timeline() for _ in range(n_mcs)]
        self._reply_ports = [Timeline() for _ in range(n_mcs)]
        self.request_flits = 0
        self.reply_flits = 0

    def _flits(self, n_bytes: int) -> int:
        return -(-n_bytes // self.flit_bytes) or 1

    def send_request(self, mc: int, at: float, n_bytes: int = CONTROL_BYTES) -> float:
        """Send a request (or write data) towards MC ``mc``; returns the
        arrival time at the memory partition."""
        flits = self._flits(n_bytes)
        self.request_flits += flits
        start = self._request_ports[mc].reserve(at, float(flits))
        return start + flits + self.latency

    def send_reply(self, mc: int, at: float, n_bytes: int) -> float:
        """Send reply data from MC ``mc`` back to a core; returns the
        arrival time at the core."""
        flits = self._flits(n_bytes)
        self.reply_flits += flits
        start = self._reply_ports[mc].reserve(at, float(flits))
        return start + flits + self.latency

    def total_flits(self) -> int:
        return self.request_flits + self.reply_flits
