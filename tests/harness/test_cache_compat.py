"""Compatibility and robustness tests for the persistent run cache.

``repro cache info`` must work on whatever it finds on disk: cache
directories written before the planes/traces layout existed, leftover
temp files from killed workers, and plain garbage a user dropped in the
directory. It must also report trace artifacts, ``put`` must keep an
existing entry, and run and plane entries with the same key must not
collide.
"""

import os
import pickle
import time
from dataclasses import dataclass

import pytest

from repro.cli import main
from repro.harness.cache import RunCache, compute_stamp


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


@pytest.fixture
def cache(tmp_path):
    return RunCache(root=tmp_path / "cache", stamp="stampA")


class TestInfoTolerance:
    def test_empty_root(self, cache):
        info = cache.info()
        assert info["entries"] == 0
        assert info["trace_entries"] == 0

    def test_pre_planes_layout(self, cache):
        """Old caches stored run pickles without planes/ or traces/
        subdirectories — and the oldest stored them directly in root."""
        legacy_stamp = cache.root / "oldstamp"
        legacy_stamp.mkdir(parents=True)
        (legacy_stamp / ("a" * 64)).with_suffix(".pkl").write_bytes(
            pickle.dumps({"legacy": True})
        )
        (cache.root / "rootlevel.pkl").write_bytes(pickle.dumps(1))
        info = cache.info()
        assert info["entries"] == 0
        assert info["stale_entries"] == 2
        assert info["trace_entries"] == 0

    def test_unexpected_files_are_ignored_not_fatal(self, cache):
        stamp_dir = cache.root / cache.stamp
        stamp_dir.mkdir(parents=True)
        (stamp_dir / "leftover.tmp").write_bytes(b"partial write")
        (cache.root / "README.txt").write_text("hands off")
        (stamp_dir / "nested").mkdir()
        info = cache.info()
        assert info["entries"] == 0
        assert info["stale_entries"] == 0
        assert info["tmp_entries"] == 1
        assert info["tmp_bytes"] > 0

    def test_tmp_files_never_count_as_plane_or_trace_entries(self, cache):
        """A killed worker's atomic-write leftover in planes/ or traces/
        is a tmp entry, not a plane/trace entry."""
        planes = cache.root / cache.stamp / "planes"
        planes.mkdir(parents=True)
        (planes / "tmpabc123.tmp").write_bytes(b"half a plane")
        (planes / ("b" * 64 + ".pkl")).write_bytes(pickle.dumps(1))
        traces = cache.trace_dir()
        traces.mkdir(parents=True)
        (traces / "tmpdef456.tmp").write_bytes(b"half a trace")
        info = cache.info()
        assert info["plane_entries"] == 1
        assert info["trace_entries"] == 0
        assert info["tmp_entries"] == 2

    def test_counts_trace_artifacts(self, cache):
        traces = cache.trace_dir()
        traces.mkdir(parents=True)
        (traces / "PVC-CABA-BDI.json").write_text("{}\n")
        (traces / "PVC-CABA-BDI.csv").write_text("kind,name\n")
        stale = cache.root / "oldstamp" / "traces"
        stale.mkdir(parents=True)
        (stale / "old.json").write_text("{}\n")
        info = cache.info()
        assert info["trace_entries"] == 2
        assert info["stale_trace_entries"] == 1
        assert info["trace_bytes"] > 0

    def test_cli_cache_info_reports_traces(self, cache, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache.root))
        traces = cache.trace_dir()
        traces.mkdir(parents=True)
        (traces / "t.json").write_text("{}\n")
        monkeypatch.setattr("repro.harness.cache.version_stamp",
                            lambda: cache.stamp)
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "trace files   : 1" in out
        assert "trace size" in out


class TestClear:
    def test_clear_removes_traces_too(self, cache):
        traces = cache.trace_dir()
        traces.mkdir(parents=True)
        (traces / "t.json").write_text("{}\n")
        stamp_dir = cache.root / cache.stamp
        (stamp_dir / "run.pkl").write_bytes(pickle.dumps(1))
        assert cache.clear() == 2
        assert not list(cache.root.rglob("*"))

    def test_clear_removes_tmp_leftovers(self, cache):
        stamp_dir = cache.root / cache.stamp
        stamp_dir.mkdir(parents=True)
        (stamp_dir / "tmpzzz.tmp").write_bytes(b"x")
        assert cache.clear() == 1
        assert not list(cache.root.rglob("*"))


class TestSweepTmp:
    def test_sweep_removes_only_tmp_files(self, cache):
        stamp_dir = cache.root / cache.stamp
        planes = stamp_dir / "planes"
        planes.mkdir(parents=True)
        (stamp_dir / "run.pkl").write_bytes(pickle.dumps(1))
        (stamp_dir / "tmpaaa.tmp").write_bytes(b"x")
        (planes / "tmpbbb.tmp").write_bytes(b"y")
        stale = cache.root / "oldstamp"
        stale.mkdir()
        (stale / "tmpccc.tmp").write_bytes(b"z")
        assert cache.sweep_tmp(max_age=0.0) == 3
        assert (stamp_dir / "run.pkl").exists()
        assert cache.info()["tmp_entries"] == 0

    def test_sweep_skips_young_tmp_files_by_default(self, cache):
        """The race regression: a just-created .tmp is an atomic write
        a live worker is about to os.replace — the default sweep must
        leave it alone instead of eating the write."""
        stamp_dir = cache.root / cache.stamp
        stamp_dir.mkdir(parents=True)
        young = stamp_dir / "tmpinflight.tmp"
        young.write_bytes(b"mid-write")
        assert cache.sweep_tmp() == 0
        assert young.exists()

    def test_sweep_removes_tmp_files_older_than_threshold(self, cache):
        stamp_dir = cache.root / cache.stamp
        stamp_dir.mkdir(parents=True)
        old = stamp_dir / "tmporphan.tmp"
        old.write_bytes(b"orphaned")
        ancient = time.time() - 7200.0
        os.utime(old, (ancient, ancient))
        young = stamp_dir / "tmpfresh.tmp"
        young.write_bytes(b"mid-write")
        assert cache.sweep_tmp() == 1
        assert not old.exists()
        assert young.exists()

    def test_info_reports_young_tmp_entries(self, cache):
        stamp_dir = cache.root / cache.stamp
        stamp_dir.mkdir(parents=True)
        old = stamp_dir / "tmporphan.tmp"
        old.write_bytes(b"orphaned")
        ancient = time.time() - 7200.0
        os.utime(old, (ancient, ancient))
        (stamp_dir / "tmpfresh.tmp").write_bytes(b"mid-write")
        info = cache.info()
        assert info["tmp_entries"] == 2
        assert info["tmp_young_entries"] == 1
        assert info["tmp_age_threshold"] == pytest.approx(3600.0)

    def test_sweep_max_age_zero_sweeps_fresh_files(self, cache):
        stamp_dir = cache.root / cache.stamp
        stamp_dir.mkdir(parents=True)
        (stamp_dir / "tmpq.tmp").write_bytes(b"x")
        assert cache.sweep_tmp(max_age=0) == 1

    def test_sweep_on_missing_root_is_zero(self, tmp_path):
        assert RunCache(root=tmp_path / "nope", stamp="s").sweep_tmp() == 0

    def test_cli_cache_sweep(self, cache, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache.root))
        stamp_dir = cache.root / cache.stamp
        stamp_dir.mkdir(parents=True)
        (stamp_dir / "tmpq.tmp").write_bytes(b"x")
        ancient = time.time() - 7200.0
        os.utime(stamp_dir / "tmpq.tmp", (ancient, ancient))
        assert main(["cache", "sweep"]) == 0
        assert "swept 1" in capsys.readouterr().out
        assert not (stamp_dir / "tmpq.tmp").exists()

    def test_cli_cache_sweep_reports_kept_young_files(self, cache,
                                                      monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache.root))
        stamp_dir = cache.root / cache.stamp
        stamp_dir.mkdir(parents=True)
        (stamp_dir / "tmpq.tmp").write_bytes(b"x")
        assert main(["cache", "sweep"]) == 0
        out = capsys.readouterr().out
        assert "swept 0" in out
        assert "kept 1 young" in out
        assert "older than 3600s" in out
        assert (stamp_dir / "tmpq.tmp").exists()

    def test_cli_cache_info_reports_tmp(self, cache, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache.root))
        stamp_dir = cache.root / cache.stamp
        stamp_dir.mkdir(parents=True)
        (stamp_dir / "tmpq.tmp").write_bytes(b"x")
        assert main(["cache", "info"]) == 0
        assert "tmp leftovers : 1" in capsys.readouterr().out


class TestVersionStamp:
    """The stamp must hash package-relative paths: a module moved
    between subpackages with unchanged content is a code change."""

    @staticmethod
    def _tree(root, files):
        pkg = root / "pkg"
        for rel, content in files.items():
            path = pkg / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
        return pkg

    def test_identical_trees_share_a_stamp(self, tmp_path):
        files = {"a/__init__.py": "", "a/mod.py": "X = 1\n"}
        one = self._tree(tmp_path / "one", files)
        two = self._tree(tmp_path / "two", files)
        assert compute_stamp(one) == compute_stamp(two)

    def test_moving_a_module_changes_the_stamp(self, tmp_path):
        common = {"a/__init__.py": "", "b/__init__.py": ""}
        one = self._tree(tmp_path / "one", {**common, "a/mod.py": "X = 1\n"})
        two = self._tree(tmp_path / "two", {**common, "b/mod.py": "X = 1\n"})
        assert compute_stamp(one) != compute_stamp(two)

    def test_content_change_changes_the_stamp(self, tmp_path):
        one = self._tree(tmp_path / "one", {"a/mod.py": "X = 1\n"})
        two = self._tree(tmp_path / "two", {"a/mod.py": "X = 2\n"})
        assert compute_stamp(one) != compute_stamp(two)


class TestPutOverwrite:
    def test_default_put_keeps_existing_entry(self, cache):
        spec = _Spec("spec")
        cache.put(spec, _Result("first"))
        cache.put(spec, _Result("second"))
        assert cache.get(spec).payload == "first"


class TestLayout:
    """Run and plane entries live in separate directories under one
    stamp (the byte layout is pinned in ``test_cache_backends``)."""

    def test_run_and_plane_with_same_key_do_not_collide(self, cache):
        spec = _Spec("shared")
        key = cache.key(spec)
        cache.put(spec, _Result("run"))
        assert cache.get_plane(key) is None
        cache.put_plane(key, {"plane": 1})
        assert cache.get(spec).payload == "run"
        assert cache.get_plane(key) == {"plane": 1}
