"""Decision logging and aggregate tuning statistics.

Applications that tune many operators (the AMG hierarchy, a time-stepping
code regenerating its Jacobian) want to know what the tuner has been doing:
which formats it picked, how often it fell back to measurement, and what
the accumulated decision overhead was.  ``DecisionLog`` collects
:class:`repro.tuner.Decision` objects and summarises them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.tuner.runtime import Decision
from repro.types import FormatName


@dataclass
class DecisionLog:
    """An append-only record of tuning decisions."""

    decisions: List[Decision] = field(default_factory=list)

    def record(self, decision: Decision) -> Decision:
        self.decisions.append(decision)
        return decision

    def __len__(self) -> int:
        return len(self.decisions)

    # ------------------------------------------------------------------
    def format_counts(self) -> Dict[FormatName, int]:
        return dict(Counter(d.format_name for d in self.decisions))

    def fallback_rate(self) -> float:
        if not self.decisions:
            return 0.0
        return sum(d.used_fallback for d in self.decisions) / len(
            self.decisions
        )

    def total_overhead_units(self) -> float:
        return sum(d.overhead_units for d in self.decisions)

    def mean_confidence(self) -> Optional[float]:
        if not self.decisions:
            return None
        return sum(d.confidence for d in self.decisions) / len(self.decisions)

    def describe(self) -> str:
        if not self.decisions:
            return "no decisions recorded"
        counts = self.format_counts()
        by_format = ", ".join(
            f"{fmt.value}: {count}"
            for fmt, count in sorted(
                counts.items(), key=lambda kv: (-kv[1], kv[0].value)
            )
        )
        return (
            f"{len(self.decisions)} decisions ({by_format}); "
            f"fallback rate {self.fallback_rate():.0%}; "
            f"total overhead {self.total_overhead_units():.1f} CSR-SpMVs; "
            f"mean confidence {self.mean_confidence():.2f}"
        )


class LoggingSmat:
    """A transparent wrapper recording every decision of an SMAT instance.

    >>> logged = LoggingSmat(smat)
    >>> logged.spmv(matrix, x)       # same API as SMAT
    >>> print(logged.log.describe())
    """

    def __init__(self, smat) -> None:
        self.smat = smat
        self.log = DecisionLog()

    def decide(self, matrix) -> Decision:
        return self.log.record(self.smat.decide(matrix))

    def prepare(self, matrix):
        from repro.tuner.smat import PreparedSpMV

        return PreparedSpMV(self.decide(matrix))

    def spmv(self, matrix, x):
        prepared = self.prepare(matrix)
        return prepared(x), prepared.decision

    def __getattr__(self, name: str):
        return getattr(self.smat, name)
