"""Unit tests for the crossbar interconnect."""

import pytest

from repro.memory.interconnect import CONTROL_BYTES, Crossbar


class TestRequests:
    def test_request_latency(self):
        xbar = Crossbar(n_mcs=2, latency=16, flit_bytes=32)
        arrival = xbar.send_request(0, at=0.0)
        assert arrival == pytest.approx(0.0 + 1 + 16)

    def test_write_data_takes_multiple_flits(self):
        xbar = Crossbar(n_mcs=2, latency=16, flit_bytes=32)
        arrival = xbar.send_request(0, at=0.0, n_bytes=128)
        assert arrival == pytest.approx(0.0 + 4 + 16)

    def test_ports_are_independent(self):
        xbar = Crossbar(n_mcs=2, latency=0, flit_bytes=32)
        a = xbar.send_request(0, 0.0, 128)
        b = xbar.send_request(1, 0.0, 128)
        assert a == b  # different ports do not contend

    def test_same_port_contends(self):
        xbar = Crossbar(n_mcs=1, latency=0, flit_bytes=32)
        first = xbar.send_request(0, 0.0, 128)
        second = xbar.send_request(0, 0.0, 128)
        assert second == first + 4


class TestReplies:
    def test_compressed_reply_is_faster_under_contention(self):
        xbar = Crossbar(n_mcs=1, latency=16, flit_bytes=32)
        xbar.send_reply(0, 0.0, 128)
        full = xbar.send_reply(0, 0.0, 128)
        xbar2 = Crossbar(n_mcs=1, latency=16, flit_bytes=32)
        xbar2.send_reply(0, 0.0, 32)
        compressed = xbar2.send_reply(0, 0.0, 32)
        assert compressed < full

    def test_flit_accounting(self):
        xbar = Crossbar(n_mcs=1, latency=0, flit_bytes=32)
        xbar.send_request(0, 0.0, CONTROL_BYTES)
        xbar.send_reply(0, 0.0, 128)
        assert xbar.request_flits == 1
        assert xbar.reply_flits == 4
        assert xbar.total_flits() == 5

    def test_minimum_one_flit(self):
        xbar = Crossbar(n_mcs=1, latency=0)
        xbar.send_reply(0, 0.0, 1)
        assert xbar.reply_flits == 1

    def test_bad_mc_count(self):
        with pytest.raises(ValueError):
            Crossbar(n_mcs=0)
