"""Comparator systems: MKL-style library, brute-force search, clSpMV-style."""

from repro.baselines.brute_force import BruteForceResult, brute_force_search
from repro.baselines.clspmv_like import ClSpmvModel, train_clspmv
from repro.baselines.mkl_like import (
    MKL_KERNEL_GAP,
    MKL_MEASURED_FORMATS,
    mkl_best_time,
    mkl_xcoogemv,
    mkl_xcsrgemv,
    mkl_xdiagemv,
    mkl_xellgemv,
)

__all__ = [
    "BruteForceResult",
    "ClSpmvModel",
    "MKL_KERNEL_GAP",
    "MKL_MEASURED_FORMATS",
    "brute_force_search",
    "mkl_best_time",
    "mkl_xcoogemv",
    "mkl_xcsrgemv",
    "mkl_xdiagemv",
    "mkl_xellgemv",
    "train_clspmv",
]
