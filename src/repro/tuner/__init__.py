"""The SMAT auto-tuner core (Figures 4 and 7)."""

from repro.tuner.config import (
    DEFAULT_CONFIDENCE_THRESHOLD,
    FALLBACK_CANDIDATES,
    SmatConfig,
)
from repro.tuner.interface import (
    default_smat,
    reset_default_smat,
    smat_dcsr_spmv,
    smat_scsr_spmv,
)
from repro.tuner.runtime import Decision, decide, rule_matches_lazy
from repro.tuner.scoreboard import (
    NEGLECT_GAP,
    PerformanceTable,
    ScoreboardResult,
    run_scoreboard,
)
from repro.tuner.search import (
    KernelSearchResult,
    probe_matrix,
    search_kernels,
)
from repro.tuner.online import OnlineSmat
from repro.tuner.plan import Plan, Tuner
from repro.tuner.smat import (
    SMAT,
    build_training_dataset,
    label_matrix,
)

__all__ = [
    "DEFAULT_CONFIDENCE_THRESHOLD",
    "Decision",
    "OnlineSmat",
    "FALLBACK_CANDIDATES",
    "KernelSearchResult",
    "NEGLECT_GAP",
    "PerformanceTable",
    "Plan",
    "SMAT",
    "ScoreboardResult",
    "SmatConfig",
    "Tuner",
    "build_training_dataset",
    "decide",
    "default_smat",
    "label_matrix",
    "probe_matrix",
    "reset_default_smat",
    "rule_matches_lazy",
    "run_scoreboard",
    "search_kernels",
    "smat_dcsr_spmv",
    "smat_scsr_spmv",
]
