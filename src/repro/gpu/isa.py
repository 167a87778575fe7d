"""SIMT instruction and program representation.

The simulator is trace-driven at warp granularity: every warp executes a
:class:`Program`, a compact static loop body whose memory instructions
carry an address-generator callback evaluated per (warp, iteration). This
mirrors how the paper's workloads exercise the machine — what matters for
bottleneck behaviour is the mix of ALU/SFU/memory operations, their
dependences, and the addresses they touch, not scalar semantics.

Registers are abstract slots 0..63 per warp context. Slots 0..31 belong to
the parent warp; slots 32..63 are the statically provisioned assist-warp
registers (Section 3.2.2 of the paper: assist warps share the parent's
register context, with their requirement added to the per-block register
count). Dependences are tracked through bitmasks for speed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence

#: First register slot reserved for assist-warp use.
ASSIST_REG_BASE = 32


class OpKind(enum.IntEnum):
    """Instruction classes the pipelines distinguish."""

    ALU = 0  # integer/FP pipeline
    SFU = 1  # special function unit (long latency, low throughput)
    LOAD = 2  # global/shared load through the LSU
    STORE = 3  # global/shared store through the LSU
    SYNC = 4  # block-wide barrier
    NOP = 5  # consumes an issue slot only
    MEMO = 6  # memoizable-region marker (Section 7.1 extension)


class MemSpace(enum.IntEnum):
    """Address spaces a memory instruction may target."""

    GLOBAL = 0  # through L1/L2/DRAM
    SHARED = 1  # on-chip scratchpad, fixed latency
    LOCAL_L1 = 2  # assist-warp accesses that terminate at the L1 (e.g.
    # reading a compressed fill or writing the decompressed line back)


#: Address generator: (warp_linear_index, iteration) -> line addresses.
AddressFn = Callable[[int, int], Sequence[int]]


def reg_mask(*regs: int) -> int:
    """Bitmask over register slots, used for dependence checks."""
    mask = 0
    for reg in regs:
        if not 0 <= reg < 64:
            raise ValueError(f"register slot out of range: {reg}")
        mask |= 1 << reg
    return mask


@dataclass(frozen=True)
class Instr:
    """One static instruction in a warp program.

    Attributes:
        kind: Pipeline class.
        latency: Cycles from issue to writeback (result availability).
        dst_mask: Registers written (bitmask).
        src_mask: Registers read (bitmask).
        space: Address space for LOAD/STORE.
        addr_fn: Address generator for GLOBAL memory instructions;
            ``None`` for non-memory ops and fixed-latency spaces.
        tag: Debug label.
        meta: Kind-specific payload (MEMO: length of the memoizable
            region that follows the marker).
    """

    kind: OpKind
    latency: int = 1
    dst_mask: int = 0
    src_mask: int = 0
    space: MemSpace = MemSpace.GLOBAL
    addr_fn: AddressFn | None = None
    tag: str = ""
    meta: int = 0


def alu(latency: int = 4, dst: int = 1, src: int = 0, tag: str = "alu") -> Instr:
    """An ALU instruction writing register ``dst`` and reading ``src``."""
    return Instr(
        OpKind.ALU,
        latency=latency,
        dst_mask=reg_mask(dst),
        src_mask=reg_mask(src),
        tag=tag,
    )


def sfu(latency: int = 20, dst: int = 2, src: int = 1, tag: str = "sfu") -> Instr:
    """A special-function-unit instruction (e.g. transcendental)."""
    return Instr(
        OpKind.SFU,
        latency=latency,
        dst_mask=reg_mask(dst),
        src_mask=reg_mask(src),
        tag=tag,
    )


def load(
    addr_fn: AddressFn,
    dst: int = 3,
    src: int = 0,
    space: MemSpace = MemSpace.GLOBAL,
    tag: str = "load",
) -> Instr:
    """A load whose completion time the memory hierarchy decides."""
    return Instr(
        OpKind.LOAD,
        latency=0,
        dst_mask=reg_mask(dst),
        src_mask=reg_mask(src),
        space=space,
        addr_fn=addr_fn,
        tag=tag,
    )


def store(
    addr_fn: AddressFn,
    src: int = 3,
    space: MemSpace = MemSpace.GLOBAL,
    tag: str = "store",
) -> Instr:
    """A store; retires without waiting for the memory acknowledgement."""
    return Instr(
        OpKind.STORE,
        latency=1,
        dst_mask=0,
        src_mask=reg_mask(src),
        space=space,
        addr_fn=addr_fn,
        tag=tag,
    )


def sync(tag: str = "sync") -> Instr:
    """A block-wide barrier."""
    return Instr(OpKind.SYNC, latency=1, tag=tag)


@dataclass(frozen=True)
class Program:
    """A static loop body executed ``iterations`` times by each warp.

    The same ``Program`` object is shared by every warp of a kernel; the
    per-warp dynamic behaviour comes from the address generators, which
    receive the warp's linear index.
    """

    body: tuple[Instr, ...]
    iterations: int = 1
    name: str = "program"

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("a program needs at least one instruction")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    def __len__(self) -> int:
        return len(self.body) * self.iterations


@dataclass(frozen=True)
class AssistProgram:
    """A short assist-warp subroutine held in the Assist Warp Store.

    Unlike parent programs these never loop; ``register_demand`` is the
    number of architectural registers the compiler must provision per
    warp hosting this subroutine (Section 3.2.2).
    """

    body: tuple[Instr, ...]
    name: str
    register_demand: int = 4
    # Active-mask width: how many SIMT lanes the subroutine really needs
    # (Section 3.4's static lane enable/disable).
    lanes: int = 32
    #: Per-pc producers: for each register the instruction at ``pc``
    #: reads or writes, the closest earlier instruction that writes it.
    #: Assist warps run straight through once and block on a pending
    #: write (RAW and WAW), so the instruction may issue once every
    #: producer has released its destination (``SM.try_issue_assist``).
    deps: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("an assist subroutine needs at least one instruction")
        if not 1 <= self.lanes <= 32:
            raise ValueError(f"lanes must be in [1, 32], got {self.lanes}")
        deps = []
        writer: dict[int, int] = {}  # register bit -> latest writer pc
        for pc, instr in enumerate(self.body):
            need = instr.src_mask | instr.dst_mask
            deps.append(tuple(sorted(
                {j for bit, j in writer.items() if need & bit}
            )))
            dst = instr.dst_mask
            while dst:
                bit = dst & -dst
                writer[bit] = pc
                dst ^= bit
        object.__setattr__(self, "deps", tuple(deps))

    def __len__(self) -> int:
        return len(self.body)
