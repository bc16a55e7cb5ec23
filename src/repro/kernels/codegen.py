"""The ``codegen`` kernel backend: per-matrix specialized SpMV kernels.

:mod:`repro.kernels.templates` emits the source of one kernel function per
plan with the matrix's structural constants folded in; this module owns
everything after the emit:

* **Compile cache.**  Sources are keyed by their SHA-256 digest; two
  structurally identical matrices emit byte-identical source and share
  one compiled code object (the per-matrix ``aux`` arrays are bound into
  each kernel's closure instead).  The cache is lock-guarded — concurrent
  cold builds of the same structure compile exactly once — and metered
  (:func:`codegen_stats`) so tests can prove a hit skipped recompilation.
* **Synthetic filenames.**  Compiled code objects carry
  ``<repro-codegen:HASH>`` filenames, registered with :mod:`linecache`
  so tracebacks show the generated lines.  ``scripts/measure_coverage.py``
  recognizes the prefix and reports exec-compiled frames explicitly
  instead of silently dropping them.
* **Beat-or-keep-generic policy.**  :meth:`CodegenBackend.specialize`
  audits the generated kernel against the tuner's generic choice on the
  actual matrix (``np.allclose``) and times both; the generated kernel is
  returned only when it agrees *and* wins.  Every other outcome — no
  template, unroll ceiling exceeded, audit mismatch, slower — silently
  keeps the generic kernel.  There is no regression path.  The audit
  runs at most once per plan build: the serving engine skips its own pass
  when the tuner already ran the backend, and re-specializes a plan whose
  structure a delta changed, since the folded constants no longer hold.
"""

from __future__ import annotations

import hashlib
import linecache
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict

import numpy as np

from repro.errors import CodegenError
from repro.formats.base import SparseMatrix
from repro.kernels import templates
from repro.kernels.backends import KernelBackend, register_backend
from repro.kernels.base import Kernel
from repro.kernels.strategies import Strategy

#: Filename prefix of every exec-compiled kernel (coverage attribution key).
GENERATED_FILE_PREFIX = "<repro-codegen:"

#: Timed probe repetitions per kernel in the beat-or-keep audit.
PROBE_REPEATS = 2


def overhead_units() -> float:
    """Projected beat-or-keep specialization cost in CSR-SpMV units.

    Delegates to :func:`repro.machine.costmodel.codegen_overhead_units`
    so the budgeted cascade charges specialization with the same unit
    model it uses for conversions and measurements.
    """
    from repro.machine.costmodel import codegen_overhead_units

    return codegen_overhead_units(PROBE_REPEATS)


@dataclass
class _Compiled:
    """One cached compile: the shared code object's ``spmv`` function."""

    source: str
    fn: Callable[..., np.ndarray]


_CACHE: Dict[str, _Compiled] = {}
_LOCK = threading.Lock()
_STATS = {"compiles": 0, "cache_hits": 0}


def codegen_stats() -> Dict[str, int]:
    """Compile-cache meters (``compiles``, ``cache_hits``, sources held)."""
    with _LOCK:
        stats = dict(_STATS)
        stats["cached_sources"] = len(_CACHE)
    return stats


def reset_codegen_stats(clear_cache: bool = False) -> None:
    """Zero the meters (tests); optionally drop the compiled sources too."""
    with _LOCK:
        _STATS["compiles"] = 0
        _STATS["cache_hits"] = 0
        if clear_cache:
            _CACHE.clear()


def _compile(source: str) -> tuple:
    """Compile ``source`` once per digest; returns ``(digest, entry)``."""
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    with _LOCK:
        entry = _CACHE.get(digest)
        if entry is not None:
            _STATS["cache_hits"] += 1
            return digest, entry
        filename = f"{GENERATED_FILE_PREFIX}{digest[:12]}>"
        try:
            code = compile(source, filename, "exec")
        except SyntaxError as exc:  # defensive: emitters own the source
            raise CodegenError(
                f"generated source failed to compile: {exc}\n{source}"
            ) from exc
        namespace: Dict[str, object] = {"np": np}
        exec(code, namespace)
        fn = namespace["spmv"]
        linecache.cache[filename] = (
            len(source),
            None,
            source.splitlines(True),
            filename,
        )
        entry = _Compiled(source=source, fn=fn)
        _CACHE[digest] = entry
        _STATS["compiles"] += 1
        return digest, entry


@dataclass(frozen=True)
class GeneratedKernel(Kernel):
    """A compiled per-matrix kernel; carries its source for diagnostics."""

    source: str = field(default="", compare=False, repr=False)
    source_hash: str = ""

    @property
    def name(self) -> str:
        return f"{self.format_name.value}/codegen[{self.source_hash[:8]}]"


#: Strategy fingerprint of generated kernels: they vectorize across the
#: structure and unroll the per-structure loops into the source.
GENERATED_STRATEGIES = frozenset({Strategy.VECTORIZE, Strategy.UNROLL})


def generate_kernel(matrix: SparseMatrix) -> GeneratedKernel:
    """Emit, compile, and bind a specialized kernel for ``matrix``.

    This is the raw generation API — no correctness audit, no timing
    policy.  The differential test sweep calls it directly so that every
    template is gated bitwise before the serving policy ever sees it.
    Raises :class:`CodegenError` when no template covers the matrix.
    """
    generated = templates.emit(matrix)
    digest, entry = _compile(generated.source)
    fn = entry.fn
    aux = generated.aux

    def bound(m: SparseMatrix, x: np.ndarray) -> np.ndarray:
        return fn(m, x, aux)

    return GeneratedKernel(
        format_name=matrix.format_name,
        strategies=GENERATED_STRATEGIES,
        fn=bound,
        source=generated.source,
        source_hash=digest,
    )


def _probe_operand(matrix: SparseMatrix) -> np.ndarray:
    """Deterministic dyadic ramp — exact under reordering, no RNG state."""
    ramp = (np.arange(matrix.n_cols, dtype=np.int64) % 13) - 6
    return (ramp / 8.0).astype(matrix.dtype)


def _best_time(kernel: Kernel, matrix: SparseMatrix, x: np.ndarray) -> float:
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        kernel(matrix, x)
        best = min(best, time.perf_counter() - start)
    return best


class CodegenBackend(KernelBackend):
    """Beat-or-keep-generic wrapper around :func:`generate_kernel`."""

    name = "codegen"

    def specialize(self, matrix: SparseMatrix, base: Kernel) -> Kernel:
        try:
            generated = generate_kernel(matrix)
        except CodegenError:
            return base
        x = _probe_operand(matrix)
        try:
            y_generated = generated(matrix, x)
            y_base = base(matrix, x)
        except Exception:
            return base
        if y_generated.shape != y_base.shape or not np.allclose(
            y_generated, y_base, rtol=1e-9, atol=1e-12
        ):
            # Templates are differentially gated, so a mismatch here means
            # an assumption broke in the field: keep the audited kernel.
            return base
        if _best_time(generated, matrix, x) < _best_time(base, matrix, x):
            return generated
        return base

    def overhead_units(self, matrix: SparseMatrix) -> float:
        return overhead_units()


register_backend(CodegenBackend())
