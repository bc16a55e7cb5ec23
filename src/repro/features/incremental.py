"""Incremental feature maintenance (Section 6 + the structure-churn path).

Two layers live here:

* :class:`LazyFeatures` — the two-step lazy extraction of Section 6: the
  runtime procedure checks the DIA and ELL rule groups first; those rules
  only reference step-one parameters, so the expensive power-law fit runs
  only when the decision actually reaches the COO rules.

* :class:`DeltaFeatures` — maintenance of the full Table 2 vector under
  structure churn.  Attaching does one ordinary extraction-priced scan;
  after that, each :class:`repro.formats.delta.DeltaEffect` updates the
  degree array in O(delta) and the diagonal census, true-diagonal count
  included, in O(touched offsets), and
  :meth:`DeltaFeatures.structure_snapshot` /
  :meth:`DeltaFeatures.powerlaw` reproduce
  :func:`repro.features.extract.extract_structure_features` and
  :func:`repro.features.extract.extract_powerlaw_feature` *exactly* —
  same formulas on the same integers, so parity is bitwise, not
  approximate (asserted in ``tests/test_delta_features.py``).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

import numpy as np

from repro.features.extract import (
    TRUE_DIAGONAL_THRESHOLD,
    extract_powerlaw_feature,
    extract_structure_features,
)
from repro.features.parameters import FEATURE_NAMES, FeatureVector
from repro.features.powerlaw import estimate_power_law_exponent
from repro.formats.csr import CSRMatrix
from repro.formats.delta import DeltaEffect
from repro.types import INDEX_DTYPE

#: Step-one parameters (everything except the power-law R).
STRUCTURE_PARAMS = frozenset(name for name in FEATURE_NAMES if name != "r")

#: Relative cost of each extraction step, in units of one CSR-SpMV.
#: Step one is a single fused pass over the index structure (~1 SpMV of
#: traffic); the power-law fit sorts the degree sequence and runs a
#: regression (~1.5 SpMVs for typical graph matrices, per our measurements
#: and consistent with the paper's "non-trivial time" remark).
STRUCTURE_COST_SPMV_UNITS = 1.0
POWERLAW_COST_SPMV_UNITS = 1.5


class LazyFeatures:
    """Feature vector materialised step by step.

    >>> lazy = LazyFeatures(matrix)          # nothing computed yet
    >>> lazy.get("ndiags")                   # runs step one only
    >>> lazy.get("r")                        # runs step two on demand
    >>> lazy.extraction_cost_spmv_units()    # what the accesses cost

    ``structure`` (and ``r``) seed the respective steps when a caller
    already holds exact values — the cascade's narrow-band census
    produces the full step-one set at bincount prices, and
    :meth:`DeltaFeatures.seed_lazy` supplies both steps from delta
    maintenance.  ``r_source`` seeds step two *by reference*: the
    callable is consulted only if a rule actually reads ``r`` (a format
    walk that never tests R should not pay for a degree sort, even a
    maintained one).  A seeded step never re-runs and never charges its
    cost: accounting is tied to extractions *this instance performed*,
    not to which fields happen to be populated.
    """

    def __init__(
        self,
        matrix: CSRMatrix,
        structure: Optional[dict] = None,
        r: Optional[float] = None,
        r_source: Optional[Callable[[], float]] = None,
    ) -> None:
        self._matrix = matrix
        self._structure: Optional[dict] = structure
        self._r: Optional[float] = r
        self._r_source = r_source
        # Charged only when the corresponding extraction actually runs
        # here — seeded values arrive pre-paid, and memoized re-reads
        # must not charge twice.
        self._structure_charged = False
        self._powerlaw_charged = False

    @property
    def structure_extracted(self) -> bool:
        return self._structure is not None

    @property
    def powerlaw_extracted(self) -> bool:
        return self._r is not None

    def get(self, name: str) -> float:
        """Value of one parameter, extracting its step lazily."""
        if name == "r":
            if self._r is None:
                if self._r_source is not None:
                    # Pre-paid by whoever maintains the source (delta
                    # feature upkeep) — materialise without charging.
                    self._r = float(self._r_source())
                else:
                    self._r = extract_powerlaw_feature(self._matrix)
                    self._powerlaw_charged = True
            return self._r
        if name not in STRUCTURE_PARAMS:
            raise KeyError(f"unknown feature parameter: {name}")
        if self._structure is None:
            self._structure = extract_structure_features(self._matrix)
            self._structure_charged = True
        return float(self._structure[name])

    def snapshot(self) -> FeatureVector:
        """Force full extraction and return the complete vector."""
        for step_trigger in ("m", "r"):
            self.get(step_trigger)
        assert self._structure is not None and self._r is not None
        return FeatureVector(r=self._r, **self._structure)

    def partial_snapshot(self) -> FeatureVector:
        """The vector as currently known; un-extracted R reported as inf
        (treated as missing by the rule evaluator)."""
        if self._structure is None:
            self.get("m")
        assert self._structure is not None
        r = self._r if self._r is not None else math.inf
        return FeatureVector(r=r, **self._structure)

    def extraction_cost_spmv_units(self) -> float:
        """Extraction work done so far, in units of one CSR-SpMV.

        Seeded steps were computed (and charged) elsewhere, so only the
        passes this instance actually ran count — once each, however
        many times their values are re-read.
        """
        cost = 0.0
        if self._structure_charged:
            cost += STRUCTURE_COST_SPMV_UNITS
        if self._powerlaw_charged:
            cost += POWERLAW_COST_SPMV_UNITS
        return cost


#: A census bump over more distinct offsets than this runs as NumPy
#: array operations; up to it, a Python loop is cheaper than their fixed
#: per-call cost (a banded matrix's delta touches a handful of offsets,
#: a 0.5%-of-nnz delta on a 20k-node graph about 140 per bump).
LOOP_BUMP_MAX_OFFSETS = 32


def _true_diagonals(
    offsets: np.ndarray, counts: np.ndarray, m: int, n: int
) -> int:
    """How many of ``offsets`` hold enough entries to be true diagonals.

    The expression of :func:`repro.features.extract._diagonal_census`,
    same IEEE division included, so a count kept up by summing this over
    touched offsets matches a fresh extraction bit for bit.
    """
    lengths = np.minimum(m, n - offsets) - np.maximum(0, -offsets)
    occupancy = counts / np.maximum(lengths, 1)
    return int(np.count_nonzero(occupancy >= TRUE_DIAGONAL_THRESHOLD))


class DeltaFeatures:
    """The Table 2 vector maintained under structure churn.

    The constructor pays one full scan (the same price as a cold
    extraction).  Every :meth:`apply` thereafter costs O(delta) for the
    degree array's two scatter-adds and O(touched offsets) for the
    diagonal census, which keeps its true-diagonal count current as the
    bumps land, so :meth:`structure_snapshot` reads Ndiags and the
    true-diagonal ratio without a pass over the census.  Only max_RD and
    var_RD stay O(m) NumPy passes over the degree array: no running sum
    of squares reproduces extraction's ``np.mean`` bit for bit.  No
    re-scan of the matrix ever happens, which is the whole point — the
    serving layer keeps one of these per live structure and re-decides
    formats from it at delta prices.
    """

    def __init__(self, matrix: CSRMatrix) -> None:
        m, n = matrix.shape
        self._shape = (int(m), int(n))
        self._degrees = matrix.row_degrees().astype(INDEX_DTYPE, copy=True)
        self._nnz = int(matrix.nnz)
        self._diag_counts: Dict[int, int] = {}
        #: Offsets whose occupancy clears ``TRUE_DIAGONAL_THRESHOLD``.
        self._n_true = 0
        if matrix.nnz:
            row_of = np.repeat(
                np.arange(matrix.n_rows, dtype=INDEX_DTYPE),
                matrix.row_degrees(),
            )
            offsets, counts = np.unique(
                matrix.indices - row_of, return_counts=True
            )
            self._diag_counts = dict(
                zip(offsets.tolist(), counts.tolist())
            )
            self._n_true = _true_diagonals(offsets, counts, m, n)

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def shape(self):
        return self._shape

    def apply(self, effect: DeltaEffect) -> None:
        """Fold one delta's effect in: O(len(effect)) work, plus one
        O(m) check that no row degree went negative."""
        if tuple(effect.shape) != self._shape:
            raise ValueError(
                f"delta effect for shape {effect.shape} applied to "
                f"features of shape {self._shape}"
            )
        if effect.removed_rows.size:
            np.subtract.at(self._degrees, effect.removed_rows, 1)
            self._bump(effect.removed_offsets(), -1)
            self._nnz -= int(effect.removed_rows.shape[0])
        if effect.added_rows.size:
            np.add.at(self._degrees, effect.added_rows, 1)
            self._bump(effect.added_offsets(), +1)
            self._nnz += int(effect.added_rows.shape[0])
        if self._degrees.size and int(self._degrees.min()) < 0:
            raise ValueError("delta effect drove a row degree negative")

    def _bump(self, offsets: np.ndarray, sign: int) -> None:
        uniq, counts = np.unique(offsets, return_counts=True)
        if uniq.shape[0] > LOOP_BUMP_MAX_OFFSETS:
            self._bump_arrays(uniq, sign * counts)
        else:
            self._bump_loop(uniq.tolist(), (sign * counts).tolist())

    def _bump_loop(self, offsets: list, changes: list) -> None:
        m, n = self._shape
        census = self._diag_counts
        for off, change in zip(offsets, changes):
            before = census.get(off, 0)
            after = before + change
            if after < 0:
                raise ValueError(
                    f"diagonal census for offset {off} went negative"
                )
            if after:
                census[off] = after
            else:
                del census[off]
            # Python's int / int is the same correctly rounded division
            # NumPy applies in _true_diagonals.
            length = max(min(m, n - off) - max(0, -off), 1)
            self._n_true += (
                after / length >= TRUE_DIAGONAL_THRESHOLD
            ) - (before / length >= TRUE_DIAGONAL_THRESHOLD)

    def _bump_arrays(self, offsets: np.ndarray, changes: np.ndarray) -> None:
        m, n = self._shape
        census = self._diag_counts
        keys = offsets.tolist()
        before = np.array([census.get(k, 0) for k in keys], dtype=np.int64)
        after = before + changes
        if int(after.min()) < 0:
            raise ValueError(
                f"diagonal census for offset {keys[int(np.argmin(after))]} "
                "went negative"
            )
        self._n_true += _true_diagonals(
            offsets, after, m, n
        ) - _true_diagonals(offsets, before, m, n)
        live = after > 0
        census.update(zip(offsets[live].tolist(), after[live].tolist()))
        for off in offsets[~live].tolist():
            del census[off]

    def structure_snapshot(self) -> dict:
        """The step-one dict, formula-for-formula identical to
        :func:`repro.features.extract._structure_features`."""
        from repro.util.stats import gini_like_variance

        m, n = self._shape
        nnz = self._nnz
        degrees = self._degrees

        aver_rd = nnz / m
        max_rd = int(degrees.max()) if degrees.size else 0
        var_rd = gini_like_variance(degrees, aver_rd)

        ndiags, n_true = self._diagonal_census()
        ntdiags_ratio = (n_true / ndiags) if ndiags else 0.0

        er_dia = nnz / (ndiags * m) if ndiags else 1.0
        er_ell = nnz / (max_rd * m) if max_rd else 1.0

        return {
            "m": int(m),
            "n": int(n),
            "ndiags": int(ndiags),
            "ntdiags_ratio": float(ntdiags_ratio),
            "nnz": int(nnz),
            "aver_rd": float(aver_rd),
            "max_rd": int(max_rd),
            "var_rd": float(var_rd),
            "er_dia": float(er_dia),
            "er_ell": float(er_ell),
        }

    def _diagonal_census(self) -> tuple:
        """(Ndiags, true diagonals), both maintained by :meth:`_bump`."""
        return len(self._diag_counts), self._n_true

    def powerlaw(self) -> float:
        """The step-two R from the maintained degree array — the same
        estimator :func:`extract_powerlaw_feature` runs on a fresh scan."""
        return estimate_power_law_exponent(self._degrees)

    def snapshot(self) -> FeatureVector:
        """The complete maintained vector."""
        return FeatureVector(r=self.powerlaw(), **self.structure_snapshot())

    def seed_lazy(self, matrix: CSRMatrix) -> LazyFeatures:
        """A fully-seeded :class:`LazyFeatures` over ``matrix``.

        Both steps arrive pre-paid from delta maintenance, so the
        instance charges zero extraction units no matter which
        parameters the rule walk reads.  Step two is seeded by
        reference: the maintained degree array is only sorted for the
        R estimate if a rule actually tests ``r``.
        """
        return LazyFeatures(
            matrix,
            structure=self.structure_snapshot(),
            r_source=self.powerlaw,
        )
