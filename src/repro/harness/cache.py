"""Persistent, content-addressed run cache.

Every ``(app, design, config, scale, params)`` run of the simulator is
fully deterministic, so its :class:`~repro.harness.runner.RunResult` can
be reused across processes and CI runs. The cache keys each run by a
SHA-256 over

* the canonical ``repr`` of the run spec (all spec components are frozen
  dataclasses with stable reprs), and
* a *version stamp*: a hash of the source of every module in the
  ``repro`` package.

The stamp makes invalidation automatic — any change to the simulator,
the compressors, the workload generators or the energy model produces a
different stamp, so stale entries are simply never looked up again
(``repro cache clear`` removes them from disk).

Layout: one pickle per run under ``<root>/<stamp>/<key>.pkl``, with
compression planes in ``planes/`` and exported trace artifacts in
``traces/`` beside them. Writes are atomic (temp file + rename), so
concurrent workers of the parallel engine can share one cache directory
safely; ``repro cache sweep`` removes temp files orphaned by killed
workers once they are older than :data:`DEFAULT_TMP_AGE` (an hour).

Knobs (also documented in README.md):

* ``REPRO_CACHE_DIR`` — cache root (default ``~/.cache/repro-caba``).
* ``REPRO_CACHE`` — on/off (:mod:`repro.knobs`; default on); off
  disables the persistent cache entirely.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from pathlib import Path

from repro.knobs import env_flag

#: Bump manually on cache-format changes (key scheme, pickle layout).
#: 2: stamp hashes package-relative paths, not bare file names (a module
#:    moved between subpackages with unchanged content now restamps).
CACHE_FORMAT = 2

_version_stamp: str | None = None


def compute_stamp(package_root: Path) -> str:
    """Stamp of one package tree: every ``*.py`` hashed with its
    package-relative posix path. Bare names would make each
    ``__init__.py`` contribute identically and miss moves between
    subpackages."""
    digest = hashlib.sha256(f"format:{CACHE_FORMAT}".encode())
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root.parent).as_posix()
        digest.update(rel.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def version_stamp() -> str:
    """Hash of the whole ``repro`` package source (computed once)."""
    global _version_stamp
    if _version_stamp is None:
        package_root = Path(__file__).resolve().parent.parent
        _version_stamp = compute_stamp(package_root)
    return _version_stamp


def cache_enabled() -> bool:
    """Whether ``REPRO_CACHE`` (read now; default on) allows the
    persistent cache."""
    return env_flag("REPRO_CACHE", default=True)


#: Minimum age (seconds) a ``.tmp`` file must reach before ``sweep_tmp``
#: may remove it. An in-flight atomic write is only milliseconds old;
#: an orphan from a killed worker ages indefinitely, so an hour cleanly
#: separates the two.
DEFAULT_TMP_AGE = 3600.0


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-caba"


class RunCache:
    """On-disk store of raw-free :class:`RunResult` pickles."""

    def __init__(self, root: Path | str | None = None,
                 stamp: str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stamp = stamp if stamp is not None else version_stamp()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def key(self, spec) -> str:
        """Content address of one run spec under the current stamp."""
        payload = f"{self.stamp}|{spec.canonical()}"
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / self.stamp / f"{key}.pkl"

    def _plane_path(self, key: str) -> Path:
        """Planes live in a subdirectory so ``info`` can report them
        separately from run entries."""
        return self.root / self.stamp / "planes" / f"{key}.pkl"

    def trace_dir(self) -> Path:
        """Default output directory for exported trace artifacts
        (``repro trace``); lives under the stamp so stale traces are
        reported and cleared alongside stale run entries."""
        return self.root / self.stamp / "traces"

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @staticmethod
    def _load(path: Path):
        """Read-and-unpickle. A missing, truncated or corrupted entry
        must read as a miss, never take the run down; ``pickle.loads``
        on garbage bytes can raise nearly any exception type, not just
        PickleError — so the catch stays this broad deliberately."""
        try:
            return pickle.loads(path.read_bytes())
        except Exception:
            return None

    def get(self, spec):
        """Cached RunResult for ``spec``, or None."""
        return self._load(self._path(self.key(spec)))

    def put(self, spec, result) -> None:
        """Persist ``result`` (which must not carry ``raw`` state); an
        existing entry is left untouched."""
        if result.raw is not None:
            raise ValueError("refusing to persist a RunResult with raw "
                             "simulation state; strip it first")
        self._write_atomic(self._path(self.key(spec)), result)

    def get_plane(self, key: str):
        """Cached :class:`CompressionPlane` for ``key``, or None.

        Plane keys are already content addresses (see
        :func:`repro.memory.plane.plane_key`); combined with the
        stamp directory they invalidate on any source change.
        """
        return self._load(self._plane_path(key))

    def put_plane(self, key: str, plane) -> None:
        """Persist one compression plane under the current stamp."""
        self._write_atomic(self._plane_path(key), plane)

    @staticmethod
    def _write_atomic(path: Path, obj) -> None:
        """Pickle ``obj`` to a temp file beside ``path`` and rename it
        into place, so readers never observe a partial entry. An
        existing entry is kept."""
        if path.exists():
            return
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def info(self) -> dict:
        """Entry counts and sizes: run, plane and trace entries are
        reported separately, each split current-stamp vs. stale.

        Robust against cache directories written by older versions (or
        by hand): unexpected files are counted by where they sit, never
        crashed on — a cache dir predating the planes/traces layout, a
        leftover ``.tmp`` from a killed worker, or a file race (deleted
        between listing and ``stat``) all read as best-effort numbers.
        """
        current = stale = 0
        plane_current = plane_stale = 0
        trace_current = trace_stale = 0
        tmp_entries = tmp_young = 0
        total_bytes = plane_bytes = trace_bytes = tmp_bytes = 0
        now = time.time()
        if self.root.exists():
            for path in self.root.rglob("*"):
                try:
                    if not path.is_file():
                        continue
                    stat = path.stat()
                    size = stat.st_size
                except OSError:
                    continue  # racing deletion / unreadable entry
                if path.suffix == ".tmp":
                    # Leftover atomic-write temp from a killed worker:
                    # never a real plane/trace/run entry, whatever
                    # directory it sits in. Files younger than the
                    # sweep threshold may still belong to a live
                    # worker, so 'cache sweep' skips them.
                    tmp_entries += 1
                    tmp_bytes += size
                    if now - stat.st_mtime < DEFAULT_TMP_AGE:
                        tmp_young += 1
                    continue
                try:
                    in_stamp = (
                        path.relative_to(self.root).parts[0] == self.stamp
                    )
                except (ValueError, IndexError):
                    in_stamp = False
                parent = path.parent.name
                if parent == "planes":
                    plane_bytes += size
                    if in_stamp:
                        plane_current += 1
                    else:
                        plane_stale += 1
                elif parent == "traces":
                    trace_bytes += size
                    if in_stamp:
                        trace_current += 1
                    else:
                        trace_stale += 1
                elif path.suffix == ".pkl":
                    total_bytes += size
                    if in_stamp:
                        current += 1
                    else:
                        stale += 1
        return {
            "root": str(self.root),
            "stamp": self.stamp,
            "entries": current,
            "stale_entries": stale,
            "total_bytes": total_bytes,
            "plane_entries": plane_current,
            "stale_plane_entries": plane_stale,
            "plane_bytes": plane_bytes,
            "trace_entries": trace_current,
            "stale_trace_entries": trace_stale,
            "trace_bytes": trace_bytes,
            "tmp_entries": tmp_entries,
            "tmp_bytes": tmp_bytes,
            #: Tmp files younger than the sweep age threshold: possible
            #: in-flight atomic writes that ``sweep_tmp`` will skip.
            "tmp_young_entries": tmp_young,
            "tmp_age_threshold": DEFAULT_TMP_AGE,
        }

    def sweep_tmp(self, max_age: float = DEFAULT_TMP_AGE) -> int:
        """Remove leftover ``.tmp`` files (interrupted atomic writes
        from killed workers, any stamp); returns the number removed.

        Only files older than ``max_age`` seconds (mtime-based; default
        :data:`DEFAULT_TMP_AGE`, 1 hour) are removed. A younger temp
        file is an atomic write a live worker is about to
        ``os.replace`` — sweeping it would make that replace fail and
        cost a re-simulation — so it is skipped and reported as a young
        entry by :meth:`info`.
        """
        if not self.root.exists():
            return 0
        removed = 0
        now = time.time()
        for path in self.root.rglob("*.tmp"):
            try:
                stat = path.stat()
                if not path.is_file():
                    continue
                if now - stat.st_mtime < max_age:
                    continue  # young: likely an in-flight atomic write
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def clear(self) -> int:
        """Delete every cached entry and trace artifact (all stamps);
        returns the number of files removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.rglob("*"):
            if not path.is_file():
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        subdirs = [p for p in self.root.rglob("*") if p.is_dir()]
        for sub in sorted(subdirs, key=lambda p: len(p.parts), reverse=True):
            try:
                sub.rmdir()
            except OSError:
                pass
        return removed


_default_cache: RunCache | None = None


def get_cache() -> RunCache | None:
    """Process-wide cache handle, or None when disabled."""
    global _default_cache
    if not cache_enabled():
        return None
    if _default_cache is None:
        _default_cache = RunCache()
    return _default_cache


def reset_cache_handle() -> None:
    """Drop the memoized handle (re-reads env vars on next use)."""
    global _default_cache
    _default_cache = None
