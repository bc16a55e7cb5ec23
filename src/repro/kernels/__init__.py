"""The SpMV kernel library (Figure 4).

Importing this package registers every implementation.  The tuner's kernel
search (:mod:`repro.tuner.search`) measures them all once per architecture
and scores the strategies with the scoreboard algorithm.
"""

# Importing the kernel modules runs their @register_kernel decorators.
from repro.kernels import coo_kernels  # noqa: F401
from repro.kernels import csr_kernels  # noqa: F401
from repro.kernels import dia_kernels  # noqa: F401
from repro.kernels import ell_kernels  # noqa: F401
from repro.kernels import spmm  # noqa: F401
from repro.kernels.backends import (
    DEFAULT_BACKEND,
    GenericBackend,
    KernelBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.kernels.base import (
    Kernel,
    find_kernel,
    kernels_for,
    register_kernel,
    total_kernel_count,
)
from repro.kernels.codegen import (
    CodegenBackend,
    GeneratedKernel,
    codegen_stats,
    generate_kernel,
    reset_codegen_stats,
)
from repro.kernels.spmm import (
    register_spmm,
    spmm_fallback,
    spmm_formats,
    spmm_kernel_for,
    supports_spmm,
)
from repro.kernels.strategies import (
    BASELINE,
    Strategy,
    StrategySet,
    describe,
    strategy_set,
)

__all__ = [
    "BASELINE",
    "CodegenBackend",
    "DEFAULT_BACKEND",
    "GeneratedKernel",
    "GenericBackend",
    "Kernel",
    "KernelBackend",
    "Strategy",
    "StrategySet",
    "backend_names",
    "codegen_stats",
    "describe",
    "find_kernel",
    "generate_kernel",
    "get_backend",
    "kernels_for",
    "register_backend",
    "register_kernel",
    "reset_codegen_stats",
    "register_spmm",
    "spmm_fallback",
    "spmm_formats",
    "spmm_kernel_for",
    "strategy_set",
    "supports_spmm",
    "total_kernel_count",
]
