"""Kernel optimization strategies (Section 5.2).

The paper's kernel library arranges "up to 24" implementations, each indexed
by the set of optimization strategies it uses (SIMDization, blocking,
prefetch, threading, ...).  The scoreboard algorithm then scores individual
strategies by comparing implementations that differ in exactly one of them.

In this Python reproduction the strategies map onto real implementation
techniques available to NumPy code:

* ``VECTORIZE`` — bulk array operations instead of Python-level loops
  (the stand-in for SIMDization; by far the largest effect, as in the paper).
* ``ROW_BLOCK`` — process the matrix in row blocks sized to the last-level
  cache (cache blocking).
* ``UNROLL`` — manual unrolling of the short inner dimension (diagonals /
  packed columns), trading loop overhead for code size.
* ``PARALLEL`` — split rows across threads (threading policy).  The
  simulated machine model applies the thread-scaling factor; on the host
  each PARALLEL kernel does its work in one pass over all rows, usually by
  sharing its non-PARALLEL sibling's function, because replaying the split
  chunk after chunk in CPython only adds per-chunk overhead.  No kernel
  runs a thread pool of its own: the serving engine's worker threads are
  the host's concurrency.
* ``PREFETCH`` — software prefetch; a no-op in Python, included so the
  scoreboard demonstrably *discards* a strategy that shows no effect
  (the paper's "performance gap < 0.01 => neglect it" rule).
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Iterable


class Strategy(enum.Enum):
    """One kernel optimization technique."""

    VECTORIZE = "vectorize"
    ROW_BLOCK = "row_block"
    UNROLL = "unroll"
    PARALLEL = "parallel"
    PREFETCH = "prefetch"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


StrategySet = FrozenSet[Strategy]

#: The empty strategy set: the basic reference implementation.
BASELINE: StrategySet = frozenset()


def strategy_set(*strategies: Strategy) -> StrategySet:
    """Convenience constructor for a strategy set."""
    return frozenset(strategies)


def describe(strategies: Iterable[Strategy]) -> str:
    """Stable human-readable name for a strategy set, e.g. ``basic`` or
    ``parallel+vectorize``."""
    names = sorted(s.value for s in strategies)
    return "+".join(names) if names else "basic"


def span_attrs(format_name, strategies: Iterable[Strategy]) -> dict:
    """Span attributes identifying one kernel dispatch.

    Keeps the tracing vocabulary for kernels in one place: every
    ``kernel.execute`` span carries the format and the exact strategy
    set, so per-strategy latency can be sliced out of a trace the same
    way the scoreboard slices the offline performance table.
    """
    return {
        "format": format_name.value,
        "strategies": describe(strategies),
    }
