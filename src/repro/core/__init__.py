"""The CABA framework: assist-warp generation, management and scheduling.

This package is the paper's primary contribution — the Core-Assisted
Bottleneck Acceleration machinery of Section 3 — plus the compression
subroutines of Section 4 and the extension applications of Section 7
(memoization, prefetching).
"""

from repro.core.aws import AssistWarpStore, AwsCapacityError, StoredSubroutine
from repro.core.base import AssistController
from repro.core.memoization import (
    MemoParams,
    MemoStats,
    MemoizationController,
    memo_lookup_program,
    memo_result_load_program,
    memo_store_program,
)
from repro.core.prefetch import (
    PrefetchController,
    PrefetchParams,
    PrefetchStats,
    prefetch_program,
)
from repro.core.controller import ActiveAssistWarp, CabaController, CabaStats
from repro.core.params import CabaParams
from repro.core.subroutines import (
    REGISTER_DEMAND,
    SubroutineLibrary,
    bdi_compress,
    bdi_decompress,
    cpack_compress,
    cpack_decompress,
    fpc_compress,
    fpc_decompress,
)

__all__ = [
    "ActiveAssistWarp",
    "AssistController",
    "MemoParams",
    "MemoStats",
    "MemoizationController",
    "PrefetchController",
    "PrefetchParams",
    "PrefetchStats",
    "memo_lookup_program",
    "memo_result_load_program",
    "memo_store_program",
    "prefetch_program",
    "AssistWarpStore",
    "AwsCapacityError",
    "CabaController",
    "CabaParams",
    "CabaStats",
    "REGISTER_DEMAND",
    "StoredSubroutine",
    "SubroutineLibrary",
    "bdi_compress",
    "bdi_decompress",
    "cpack_compress",
    "cpack_decompress",
    "fpc_compress",
    "fpc_decompress",
]
