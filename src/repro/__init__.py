"""SMAT — an input adaptive auto-tuner for sparse matrix-vector multiplication.

Reproduction of Li, Tan, Chen, Sun (PLDI 2013).  The public API mirrors the
paper's unified interface: build (or load) a model offline with
:class:`repro.tuner.SMAT`, then call ``smat_spmv`` / ``SMAT.spmv`` with any
CSR matrix — format selection and kernel selection happen automatically.
"""

from repro.errors import (
    BackpressureError,
    ConversionError,
    FormatError,
    KernelError,
    LearningError,
    ServeError,
    SmatError,
    SolverError,
    TuningError,
)
from repro.formats import (
    COOMatrix,
    CSRMatrix,
    DIAMatrix,
    ELLMatrix,
    SparseMatrix,
    convert,
)
from repro.types import BASIC_FORMATS, FormatName, Precision


def __getattr__(name: str):
    """Lazy top-level access to the heavier subsystems.

    ``repro.SMAT``, ``repro.AMGSolver`` etc. import their subpackages on
    first use so that ``import repro`` stays cheap for format-only users.
    """
    lazy = {
        "SMAT": ("repro.tuner", "SMAT"),
        "SmatConfig": ("repro.tuner", "SmatConfig"),
        "smat_scsr_spmv": ("repro.tuner", "smat_scsr_spmv"),
        "smat_dcsr_spmv": ("repro.tuner", "smat_dcsr_spmv"),
        "AMGSolver": ("repro.amg", "AMGSolver"),
        "ServingEngine": ("repro.serve", "ServingEngine"),
        "ServeConfig": ("repro.serve", "ServeConfig"),
        "PlanCache": ("repro.serve", "PlanCache"),
        "MetricsRegistry": ("repro.serve", "MetricsRegistry"),
        "SimulatedBackend": ("repro.machine", "SimulatedBackend"),
        "WallClockBackend": ("repro.machine", "WallClockBackend"),
        "Tracer": ("repro.obs", "Tracer"),
        "Span": ("repro.obs", "Span"),
        "overhead_report": ("repro.obs", "overhead_report"),
        "extract_features": ("repro.features", "extract_features"),
        "generate_collection": ("repro.collection", "generate_collection"),
        "representatives": ("repro.collection", "representatives"),
    }
    if name in lazy:
        import importlib

        module, attr = lazy[name]
        return getattr(importlib.import_module(module), attr)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


from repro.util.version import package_version

__version__ = package_version()

__all__ = [
    "BASIC_FORMATS",
    "BackpressureError",
    "COOMatrix",
    "CSRMatrix",
    "ConversionError",
    "DIAMatrix",
    "ELLMatrix",
    "FormatError",
    "FormatName",
    "KernelError",
    "LearningError",
    "Precision",
    "ServeError",
    "SmatError",
    "SolverError",
    "SparseMatrix",
    "TuningError",
    "convert",
    "__version__",
]
