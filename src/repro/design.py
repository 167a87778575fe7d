"""Design points evaluated by the paper (Section 6).

A :class:`DesignPoint` says *where* data is compressed in the hierarchy
and *who* pays the compression/decompression cost:

* ``Base`` — no compression anywhere.
* ``HW-<algo>-Mem`` — dedicated hardware at the memory controller; only
  the DRAM link transfers compressed data (after Sathish et al. [72]).
* ``HW-<algo>`` — dedicated hardware at the cores; DRAM, L2 and the
  interconnect all carry compressed data (L1 stays uncompressed).
* ``CABA-<algo>`` — the paper's proposal: same compressed placement as
  ``HW-<algo>``, but compression and decompression run as assist warps
  through the regular pipelines.
* ``Ideal-<algo>`` — compressed everywhere CABA compresses, with zero
  latency/energy overhead and a perfect metadata path.

Section 6.5 additionally evaluates *cache* compression: ``l1_tag_mult``
and ``l2_tag_mult`` extend the L1/L2 tag stores (2x/4x) so compressed
lines increase effective capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class DesignPoint:
    """One compression design evaluated by the harness."""

    name: str
    #: Compression algorithm registry name, or ``None`` for no compression.
    algorithm: str | None = None
    #: DRAM link transfers compressed data.
    compress_dram: bool = False
    #: Interconnect and L2 hold/transfer compressed data.
    compress_interconnect: bool = False
    #: Who decompresses: ``none`` | ``mc`` | ``core_hw`` | ``core_assist``.
    decompress_at: str = "none"
    #: Who compresses stores: ``none`` | ``mc_hw`` | ``core_hw`` | ``core_assist``.
    compress_at: str = "none"
    #: Zero-overhead idealization (Ideal-BDI).
    ideal: bool = False
    #: Tag-store multiplier for compressed caches (Fig. 13); 1 = normal.
    l1_tag_mult: int = 1
    l2_tag_mult: int = 1
    #: Section 6.5 selective-compression option: keep the L2 (and the
    #: interconnect replies it serves) uncompressed so L2 hits skip
    #: decompression entirely; only DRAM fills pay it. Helps apps with
    #: high L2 hit rates (e.g. RAY).
    l2_store_uncompressed: bool = False

    def __post_init__(self) -> None:
        valid_decompress = {"none", "mc", "core_hw", "core_assist"}
        valid_compress = {"none", "mc_hw", "core_hw", "core_assist"}
        if self.decompress_at not in valid_decompress:
            raise ValueError(f"bad decompress_at: {self.decompress_at!r}")
        if self.compress_at not in valid_compress:
            raise ValueError(f"bad compress_at: {self.compress_at!r}")
        if self.compression_enabled and self.algorithm is None:
            raise ValueError(f"{self.name}: compression without an algorithm")
        if self.l1_tag_mult < 1 or self.l2_tag_mult < 1:
            raise ValueError("tag multipliers must be >= 1")

    # ------------------------------------------------------------------
    @property
    def compression_enabled(self) -> bool:
        return self.compress_dram or self.compress_interconnect

    @property
    def uses_assist_warps(self) -> bool:
        return "core_assist" in (self.decompress_at, self.compress_at)

    @property
    def l1_compressed(self) -> bool:
        """Whether the L1 stores compressed data (Fig. 13 designs only)."""
        return self.l1_tag_mult > 1

    @property
    def needs_metadata(self) -> bool:
        """The MD cache is needed whenever DRAM holds compressed lines,
        except in the zero-overhead ideal design."""
        return self.compress_dram and not self.ideal

# ----------------------------------------------------------------------
# Factory functions for the paper's named designs
# ----------------------------------------------------------------------
_ALGO_SUFFIX = {"bdi": "BDI", "fpc": "FPC", "cpack": "CPack",
                "bestofall": "BestOfAll"}


def _suffix(algorithm: str) -> str:
    return _ALGO_SUFFIX.get(algorithm, algorithm)


def base() -> DesignPoint:
    """The uncompressed baseline."""
    return DesignPoint(name="Base")


def hw_mem(algorithm: str = "bdi") -> DesignPoint:
    """Hardware memory-bandwidth-only compression (HW-BDI-Mem)."""
    return DesignPoint(
        name=f"HW-{_suffix(algorithm)}-Mem",
        algorithm=algorithm,
        compress_dram=True,
        compress_interconnect=False,
        decompress_at="mc",
        compress_at="mc_hw",
    )


def hw(algorithm: str = "bdi") -> DesignPoint:
    """Hardware interconnect + memory compression (HW-BDI)."""
    return DesignPoint(
        name=f"HW-{_suffix(algorithm)}",
        algorithm=algorithm,
        compress_dram=True,
        compress_interconnect=True,
        decompress_at="core_hw",
        compress_at="core_hw",
    )


def caba(algorithm: str = "bdi") -> DesignPoint:
    """The paper's CABA design: assist warps do the work."""
    return DesignPoint(
        name=f"CABA-{_suffix(algorithm)}",
        algorithm=algorithm,
        compress_dram=True,
        compress_interconnect=True,
        decompress_at="core_assist",
        compress_at="core_assist",
    )


def ideal(algorithm: str = "bdi") -> DesignPoint:
    """Compression with no latency/energy overhead (Ideal-BDI)."""
    return DesignPoint(
        name=f"Ideal-{_suffix(algorithm)}",
        algorithm=algorithm,
        compress_dram=True,
        compress_interconnect=True,
        decompress_at="core_hw",
        compress_at="core_hw",
        ideal=True,
    )


def caba_l2_uncompressed(algorithm: str = "bdi") -> DesignPoint:
    """Section 6.5's per-application knob: CABA with an uncompressed L2.

    Data stays compressed in DRAM only; a decompression assist warp runs
    once per DRAM fill and the expanded line is what the L2 and the
    interconnect carry afterwards."""
    point = caba(algorithm)
    return replace(
        point,
        name=f"CABA-{_suffix(algorithm)}-L2U",
        l2_store_uncompressed=True,
    )


def caba_cache(level: str, tag_mult: int, algorithm: str = "bdi") -> DesignPoint:
    """Fig. 13 cache-compression variants: CABA-L1-2x/-4x, CABA-L2-2x/-4x."""
    if level not in ("l1", "l2"):
        raise ValueError(f"level must be 'l1' or 'l2', got {level!r}")
    point = caba(algorithm)
    return replace(
        point,
        name=f"CABA-{level.upper()}-{tag_mult}x",
        l1_tag_mult=tag_mult if level == "l1" else 1,
        l2_tag_mult=tag_mult if level == "l2" else 1,
    )


def figure7_designs(algorithm: str = "bdi") -> tuple[DesignPoint, ...]:
    """The five Figures 7-9 designs in presentation order: Base,
    HW-Mem, HW, CABA and Ideal, each compressed with ``algorithm``."""
    return (base(), hw_mem(algorithm), hw(algorithm), caba(algorithm),
            ideal(algorithm))
