"""Assist-warp subroutine generation (Section 4.1).

Maps each compression algorithm's compress/decompress routine onto a
short SIMT instruction sequence that executes through the regular GPU
pipelines. The sequences follow the paper's descriptions:

* **BDI decompression** is a masked vector addition: load the compressed
  words, split base and deltas, add in parallel across the 32-lane ALU
  (one pass per 32 words — Section 4.1.2 footnote 1), fix the active
  mask for implicit-zero-base lanes, write the uncompressed line back to
  the L1. A separate subroutine is stored per BDI encoding.
* **BDI compression** tests candidate encodings, using a global
  predicate register to AND-reduce the per-lane "fits" predicates; the
  homogeneous-data observation (Section 4.1.2) lets it test few
  encodings.
* **FPC** has variable-length, serially parsed symbols, which SIMT
  lanes handle poorly: its subroutines walk word groups with
  shift/select/merge steps, making them the longest — this is why
  CABA-FPC trails CABA-BDI in the paper (Section 6.3) despite similar
  compression ratios.
* **C-Pack** decompresses mostly in parallel once the (line-local)
  dictionary entries, hoisted to the line head by the CABA adaptation
  (Section 4.1.3), are loaded.

The instruction *counts* are the modelling contract here; they determine
how many issue slots, ALU cycles and LSU slots each assist warp steals,
from which CABA's overhead relative to dedicated hardware emerges.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.gpu.isa import (
    ASSIST_REG_BASE,
    AssistProgram,
    Instr,
    MemSpace,
    OpKind,
    reg_mask,
)

#: Number of SIMT lanes available to one assist warp.
WARP_LANES = 32

#: Per-thread register demand of each algorithm's subroutines
#: (added to the per-block requirement, Section 3.2.2).
REGISTER_DEMAND = {
    "bdi": 4,
    "fpc": 6,
    "cpack": 7,
    "bestofall": 7,
}

_R = ASSIST_REG_BASE  # first assist register slot


def _alu(dst: int, src: int, latency: int = 1, tag: str = "alu") -> Instr:
    return Instr(
        OpKind.ALU,
        latency=latency,
        dst_mask=reg_mask(_R + dst),
        src_mask=reg_mask(_R + src),
        tag=tag,
    )


def _move_live_in(tag: str = "move_livein") -> Instr:
    """Copy live-in data (the line address) from a parent register
    (Section 3.4: MOVE instructions copy live-ins at assist start)."""
    return Instr(
        OpKind.ALU,
        latency=1,
        dst_mask=reg_mask(_R + 0),
        src_mask=reg_mask(0),
        tag=tag,
    )


def _l1_load(dst: int, src: int, tag: str = "l1_load") -> Instr:
    return Instr(
        OpKind.LOAD,
        dst_mask=reg_mask(_R + dst),
        src_mask=reg_mask(_R + src),
        space=MemSpace.LOCAL_L1,
        tag=tag,
    )


def _l1_store(src: int, tag: str = "l1_store") -> Instr:
    return Instr(
        OpKind.STORE,
        latency=1,
        src_mask=reg_mask(_R + src),
        space=MemSpace.LOCAL_L1,
        tag=tag,
    )


def _program(name: str, body: Iterable[Instr], demand: int) -> AssistProgram:
    return AssistProgram(body=tuple(body), name=name, register_demand=demand)


# ----------------------------------------------------------------------
# BDI
# ----------------------------------------------------------------------
def bdi_decompress(encoding: str, line_size: int = 128) -> AssistProgram:
    """Decompression subroutine for one BDI encoding."""
    demand = REGISTER_DEMAND["bdi"]
    if encoding == "ZEROS":
        body = [
            _move_live_in(),
            _alu(2, 0, tag="gen_zero"),
            _l1_store(2, tag="store_line"),
        ]
        return _program("bdi_dec_ZEROS", body, demand)
    if encoding == "REPEAT":
        body = [
            _move_live_in(),
            _l1_load(1, 0, tag="load_value"),
            _alu(2, 1, tag="broadcast"),
            _l1_store(2, tag="store_line"),
        ]
        return _program("bdi_dec_REPEAT", body, demand)

    base_bytes = int(encoding[1])  # e.g. "B8D1" -> 8
    n_words = line_size // base_bytes
    passes = math.ceil(n_words / WARP_LANES)
    body: list[Instr] = [
        _move_live_in(),
        _l1_load(1, 0, tag="load_compressed"),
        _alu(3, 1, tag="set_active_mask"),
    ]
    for _ in range(passes):
        body.append(_alu(2, 1, tag="extract_deltas"))
        body.append(_alu(4, 2, latency=4, tag="add_base"))
        body.append(_l1_store(4, tag="store_uncompressed"))
    return _program(f"bdi_dec_{encoding}", body, demand)


def bdi_compress(line_size: int = 128, encodings_tested: int = 2) -> AssistProgram:
    """BDI compression: test encodings, AND-reduce fit predicates, pack.

    ``encodings_tested`` defaults to 2, reflecting the homogeneous-data
    observation that most lines of an application reuse one encoding.
    """
    body: list[Instr] = [
        _move_live_in(),
        _l1_load(1, 0, tag="load_line"),
    ]
    for i in range(encodings_tested):
        body.append(_alu(2, 1, tag=f"deltas_{i}"))
        body.append(_alu(3, 2, tag=f"fits_predicate_{i}"))
        body.append(_alu(4, 3, tag=f"global_predicate_{i}"))
        body.append(_alu(5, 4, tag=f"select_{i}"))
    body.append(_alu(6, 5, tag="pack_metadata"))
    body.append(_alu(7, 6, tag="pack_deltas"))
    body.append(_l1_store(7, tag="store_compressed"))
    return _program("bdi_comp", body, REGISTER_DEMAND["bdi"])


# ----------------------------------------------------------------------
# FPC
# ----------------------------------------------------------------------
def fpc_decompress(line_size: int = 128) -> AssistProgram:
    """FPC decompression: serial variable-length parse over word groups."""
    groups = max(1, line_size // 16)  # 4 words of 4 B per group
    body: list[Instr] = [
        _move_live_in(),
        _l1_load(1, 0, tag="load_compressed"),
    ]
    for g in range(groups):
        body.append(_alu(2, 1, tag=f"shift_prefixes_{g}"))
        body.append(_alu(3, 2, tag=f"select_pattern_{g}"))
        body.append(_alu(4, 3, tag=f"expand_merge_{g}"))
    body.append(_l1_store(4, tag="store_low_half"))
    body.append(_l1_store(4, tag="store_high_half"))
    return _program("fpc_dec", body, REGISTER_DEMAND["fpc"])


def fpc_compress(line_size: int = 128) -> AssistProgram:
    """FPC compression: classify each word group, pack variable symbols."""
    groups = max(1, line_size // 16)
    body: list[Instr] = [
        _move_live_in(),
        _l1_load(1, 0, tag="load_line"),
    ]
    for g in range(groups):
        body.append(_alu(2, 1, tag=f"classify_{g}"))
        body.append(_alu(3, 2, tag=f"encode_{g}"))
        body.append(_alu(4, 3, tag=f"prefix_scan_{g}"))
        body.append(_alu(5, 4, tag=f"pack_{g}"))
    body.append(_alu(6, 5, tag="finalize_sizes"))
    body.append(_alu(7, 6, tag="write_metadata"))
    body.append(_l1_store(7, tag="store_compressed"))
    return _program("fpc_comp", body, REGISTER_DEMAND["fpc"])


# ----------------------------------------------------------------------
# C-Pack
# ----------------------------------------------------------------------
def cpack_decompress(line_size: int = 128) -> AssistProgram:
    """C-Pack decompression: load head-of-line dictionary, then mostly
    parallel per-word pattern expansion."""
    groups = max(1, line_size // 32)  # 8 words per group
    body: list[Instr] = [
        _move_live_in(),
        _l1_load(1, 0, tag="load_compressed"),
        _alu(2, 1, tag="load_dictionary"),
        _alu(3, 2, tag="index_dictionary"),
        _alu(4, 3, tag="decode_prefixes"),
        _alu(5, 4, tag="gather_entries"),
    ]
    for g in range(groups):
        body.append(_alu(6, 5, tag=f"expand_{g}"))
        body.append(_alu(7, 6, tag=f"merge_{g}"))
    body.append(_l1_store(7, tag="store_line"))
    return _program("cpack_dec", body, REGISTER_DEMAND["cpack"])


def cpack_compress(line_size: int = 128) -> AssistProgram:
    """C-Pack compression: dictionary build + per-word match/encode."""
    groups = max(1, line_size // 32)
    body: list[Instr] = [
        _move_live_in(),
        _l1_load(1, 0, tag="load_line"),
        _alu(2, 1, tag="init_dictionary"),
    ]
    for g in range(groups):
        body.append(_alu(3, 2, tag=f"match_{g}"))
        body.append(_alu(4, 3, tag=f"encode_{g}"))
        body.append(_alu(5, 4, tag=f"update_dict_{g}"))
    body.append(_alu(6, 5, tag="pack"))
    body.append(_alu(7, 6, tag="write_metadata"))
    body.append(_l1_store(7, tag="store_compressed"))
    return _program("cpack_comp", body, REGISTER_DEMAND["cpack"])


# ----------------------------------------------------------------------
# Library
# ----------------------------------------------------------------------
#: Built programs shared across library instances. Every run constructs
#: a fresh SubroutineLibrary, but programs are immutable and depend only
#: on (line_size, task, algorithm, encoding) — memoizing at module level
#: removes program construction from the per-run cost entirely.
_PROGRAM_CACHE: dict[tuple[int, str, str, str], AssistProgram] = {}


class SubroutineLibrary:
    """Builds and caches assist programs per (task, algorithm, encoding).

    ``decompression`` dispatches on the encoding the hierarchy reports
    for the arriving line; BestOfAll encodings carry an ``algo:`` prefix
    and use the winning component's subroutine.
    """

    def __init__(self, line_size: int = 128) -> None:
        self.line_size = line_size
        self._cache = _PROGRAM_CACHE

    def register_demand(self, algorithm: str) -> int:
        """Per-thread registers the compiler must provision (Sec. 3.2.2)."""
        try:
            return REGISTER_DEMAND[algorithm]
        except KeyError:
            raise ValueError(f"unknown algorithm {algorithm!r}")

    def decompression(self, algorithm: str, encoding: str) -> AssistProgram:
        if algorithm == "bestofall" and ":" in encoding:
            algorithm, encoding = encoding.split(":", 1)
        key = (self.line_size, "dec", algorithm, encoding)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._build_decompression(algorithm, encoding)
            self._cache[key] = cached
        return cached

    def compression(self, algorithm: str) -> AssistProgram:
        key = (self.line_size, "comp", algorithm, "")
        cached = self._cache.get(key)
        if cached is None:
            cached = self._build_compression(algorithm)
            self._cache[key] = cached
        return cached

    def _build_decompression(self, algorithm: str, encoding: str) -> AssistProgram:
        if algorithm == "bdi":
            return bdi_decompress(encoding, self.line_size)
        if algorithm == "fpc":
            return fpc_decompress(self.line_size)
        if algorithm == "cpack":
            return cpack_decompress(self.line_size)
        raise ValueError(f"no decompression subroutine for {algorithm!r}")

    def _build_compression(self, algorithm: str) -> AssistProgram:
        if algorithm == "bdi":
            return bdi_compress(self.line_size)
        if algorithm == "fpc":
            return fpc_compress(self.line_size)
        if algorithm == "cpack":
            return cpack_compress(self.line_size)
        if algorithm == "bestofall":
            # Idealized selection (Section 6.3): pay the cheapest
            # single-algorithm compression subroutine.
            return bdi_compress(self.line_size)
        raise ValueError(f"no compression subroutine for {algorithm!r}")
