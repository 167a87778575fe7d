"""RunCache's local-directory store: the on-disk contract.

Round-trips, keep-existing semantics, corrupt-entry-as-miss, concurrent
same-key writers, the historical ``<root>/<stamp>/<key>.pkl`` layout with
its pickle bytes, and the age-gated ``.tmp`` sweep.
"""

import os
import pickle
import threading
import time
from dataclasses import dataclass

import pytest

from repro.harness.cache import RunCache


@dataclass(frozen=True)
class _Spec:
    """Duck-typed stand-in for RunSpec (the cache only calls
    ``canonical``)."""

    name: str

    def canonical(self) -> str:
        return f"spec:{self.name}"


@dataclass
class _Result:
    payload: str
    raw: object = None


@pytest.fixture(params=["local"])
def cache(request, tmp_path):
    return RunCache(root=tmp_path / "cache", stamp="stampA")


class TestConformance:
    def test_put_keeps_existing_unless_overwrite(self, cache):
        spec = _Spec("k1")
        cache.put(spec, _Result("first"))
        cache.put(spec, _Result("second"))
        assert cache.get(spec).payload == "first"

    def test_corrupt_entry_reads_as_miss_through_runcache(self, cache):
        """Garbage bytes in the store must surface as a miss."""
        spec = _Spec("corrupt")
        path = cache._path(cache.key(spec))
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\x80not a pickle")
        assert cache.get(spec) is None

    def test_runcache_round_trip_over_backend(self, cache):
        spec = _Spec("rt")
        cache.put(spec, _Result("hello"))
        assert cache.get(spec).payload == "hello"
        cache.put_plane("feedf00d", {"plane": 1})
        assert cache.get_plane("feedf00d") == {"plane": 1}

    def test_concurrent_writers_same_key_keep_entry_valid(self, cache):
        """N writers race onto one fresh key per round (atomic replace /
        last-writer-wins): the surviving entry must be one of the
        complete payloads, never an interleaving."""
        payloads = [f"writer-{i}" * 64 for i in range(4)]
        for round_ in range(10):
            spec = _Spec(f"contested-{round_}")
            barrier = threading.Barrier(len(payloads))
            errors = []

            def write(data: str) -> None:
                try:
                    barrier.wait(timeout=30.0)
                    cache.put(spec, _Result(data))
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)

            threads = [threading.Thread(target=write, args=(p,))
                       for p in payloads]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert cache.get(spec).payload in payloads


class TestLocalLayout:
    """Existing cache directories must keep reading: the paths and the
    pickle bytes are the on-disk format."""

    def test_layout_and_bytes_unchanged(self, tmp_path):
        cache = RunCache(root=tmp_path, stamp="stampA")
        spec, result = _Spec("layout"), _Result("payload")
        cache.put(spec, result)
        run = tmp_path / "stampA" / f"{cache.key(spec)}.pkl"
        assert run.read_bytes() == pickle.dumps(
            result, protocol=pickle.HIGHEST_PROTOCOL)
        cache.put_plane("cafe", {"p": 2})
        plane = tmp_path / "stampA" / "planes" / "cafe.pkl"
        assert plane.read_bytes() == pickle.dumps(
            {"p": 2}, protocol=pickle.HIGHEST_PROTOCOL)
        assert cache.get_plane("cafe") == {"p": 2}
        assert cache.trace_dir() == tmp_path / "stampA" / "traces"

    def test_sweep_removes_only_old_tmp(self, tmp_path):
        cache = RunCache(root=tmp_path, stamp="s")
        spec = _Spec("keep")
        cache.put(spec, _Result("data"))
        stale = tmp_path / "s" / "orphan.tmp"
        stale.write_bytes(b"half a write")
        ancient = time.time() - 7200
        os.utime(stale, (ancient, ancient))
        young = tmp_path / "s" / "inflight.tmp"
        young.write_bytes(b"mid write")
        assert cache.sweep_tmp(max_age=3600) == 1
        assert not stale.exists()
        assert young.exists()
        assert cache.get(spec).payload == "data"
