"""Incremental feature maintenance: exact parity with re-extraction.

:class:`DeltaFeatures` promises the *same* Table 2 vector a cold
re-extraction of the mutated matrix would produce — not an
approximation — because format decisions ride on these values.  The
parity assertions here are exact equality (``==``), never ``allclose``:
the maintained state holds the identical degree array and diagonal
census the extractor would rebuild, so every derived float must match
bit for bit.

Also covers the :class:`LazyFeatures` extraction-cost ledger (the
cascade's budget currency): each step charges exactly once, however
often its values are re-read, and seeded steps never charge at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collection import graphs
from repro.features.extract import (
    extract_features,
    extract_powerlaw_feature,
    extract_structure_features,
)
from repro.features import incremental
from repro.features.incremental import (
    POWERLAW_COST_SPMV_UNITS,
    STRUCTURE_COST_SPMV_UNITS,
    DeltaFeatures,
    LazyFeatures,
)
from repro.formats.csr import CSRMatrix
from repro.formats.delta import DeltaEffect, StructureDelta, apply_delta
from repro.types import INDEX_DTYPE

from tests.test_delta_formats import _random_delta
from tests.test_properties_differential import (
    _structure_for,
    with_dyadic_data,
)

#: Seeds for the parity sweep (one matrix family mix per seed).
PARITY_SEEDS = range(0, 48)


# ---------------------------------------------------------------------------
# DeltaFeatures parity
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", PARITY_SEEDS)
def test_single_delta_parity(seed: int) -> None:
    rng = np.random.default_rng(20_000 + seed)
    base = with_dyadic_data(_structure_for(seed), rng)
    kind = ("insert", "delete", "mixed")[seed % 3]
    delta = _random_delta(base, rng, kind)

    feats = DeltaFeatures(base)
    new_csr, effect = apply_delta(base, delta)
    feats.apply(effect)

    assert feats.snapshot() == extract_features(new_csr)


@pytest.mark.parametrize("seed", (7, 21, 33))
def test_delta_sequence_stays_exact(seed: int) -> None:
    """No drift over a chain of deltas — the maintained census is exact
    at every step, not just after one edit."""
    rng = np.random.default_rng(30_000 + seed)
    matrix = with_dyadic_data(_structure_for(seed), rng)
    feats = DeltaFeatures(matrix)
    for step in range(6):
        kind = ("insert", "delete", "mixed")[step % 3]
        delta = _random_delta(matrix, rng, kind)
        matrix, effect = apply_delta(matrix, delta)
        feats.apply(effect)
        assert feats.snapshot() == extract_features(matrix)
        assert feats.nnz == matrix.nnz

    # The maintained structure dict matches the extractor's key for key.
    assert feats.structure_snapshot() == extract_structure_features(matrix)
    assert feats.powerlaw() == extract_powerlaw_feature(matrix)


def test_shape_mismatch_rejected() -> None:
    base = _structure_for(1)
    feats = DeltaFeatures(base)
    wrong = DeltaEffect(
        shape=(base.n_rows + 1, base.n_cols),
        added_rows=np.zeros(0, dtype=INDEX_DTYPE),
        added_cols=np.zeros(0, dtype=INDEX_DTYPE),
        removed_rows=np.zeros(0, dtype=INDEX_DTYPE),
        removed_cols=np.zeros(0, dtype=INDEX_DTYPE),
        updated_rows=np.zeros(0, dtype=INDEX_DTYPE),
        updated_cols=np.zeros(0, dtype=INDEX_DTYPE),
    )
    with pytest.raises(ValueError):
        feats.apply(wrong)


def test_phantom_removal_rejected() -> None:
    """An effect that removes more entries from a row than it holds is
    corrupt input — the degree array must not silently go negative."""
    base = _structure_for(2)
    feats = DeltaFeatures(base)
    degrees = base.row_degrees()
    row = int(np.argmin(degrees))
    count = int(degrees[row]) + 1
    effect = DeltaEffect(
        shape=tuple(base.shape),
        added_rows=np.zeros(0, dtype=INDEX_DTYPE),
        added_cols=np.zeros(0, dtype=INDEX_DTYPE),
        removed_rows=np.full(count, row, dtype=INDEX_DTYPE),
        removed_cols=np.arange(count, dtype=INDEX_DTYPE),
        updated_rows=np.zeros(0, dtype=INDEX_DTYPE),
        updated_cols=np.zeros(0, dtype=INDEX_DTYPE),
    )
    with pytest.raises(ValueError):
        feats.apply(effect)


def test_seed_lazy_matches_and_charges_nothing() -> None:
    rng = np.random.default_rng(41)
    base = with_dyadic_data(_structure_for(10), rng)
    feats = DeltaFeatures(base)
    new_csr, effect = apply_delta(
        base, _random_delta(base, rng, "mixed")
    )
    feats.apply(effect)

    lazy = feats.seed_lazy(new_csr)
    reference = extract_features(new_csr)
    for name in ("m", "nnz", "aver_rd", "max_rd", "ndiags", "er_ell"):
        assert lazy.get(name) == getattr(reference, name)
    assert lazy.get("r") == reference.r
    # Every read above was pre-paid by delta maintenance.
    assert lazy.extraction_cost_spmv_units() == 0.0


# ---------------------------------------------------------------------------
# The maintained diagonal census across the true-diagonal line
# ---------------------------------------------------------------------------
def _coords_delta(inserts=(), deletes=()) -> StructureDelta:
    """A fixed delta from coordinate lists (inserted values 1.5)."""
    ins = np.asarray(inserts, dtype=INDEX_DTYPE).reshape(-1, 2)
    dels = np.asarray(deletes, dtype=INDEX_DTYPE).reshape(-1, 2)
    return StructureDelta(
        insert_rows=ins[:, 0].copy(),
        insert_cols=ins[:, 1].copy(),
        insert_vals=np.full(ins.shape[0], 1.5),
        delete_rows=dels[:, 0].copy(),
        delete_cols=dels[:, 1].copy(),
    )


def _from_coords(shape, coords) -> CSRMatrix:
    coords = np.asarray(coords, dtype=INDEX_DTYPE)
    return CSRMatrix.from_triplets(
        coords[:, 0], coords[:, 1], np.full(coords.shape[0], 0.75), shape
    )


#: 8x8 tridiagonal base: offsets -1, 0, +1, all true diagonals.
_SQUARE_BASE = [(i, i) for i in range(8)] + [
    (i, i + 1) for i in range(7)
] + [(i + 1, i) for i in range(7)]

#: (delta, (Ndiags, true diagonals) after it) on the square base.
_SQUARE_STEPS = (
    # Thin the main diagonal to 4/8 = 0.5: below the line.
    (_coords_delta(deletes=[(0, 0), (1, 1), (2, 2), (3, 3)]), (3, 2)),
    # Refill it to 5/8; the second insert sums into a survivor.
    (_coords_delta(inserts=[(0, 0), (4, 4)]), (3, 3)),
    # Empty offset -1 entirely.
    (_coords_delta(deletes=[(i + 1, i) for i in range(7)]), (2, 2)),
    # Open offset +3 at 3/5: exactly on the line, which counts as true.
    (_coords_delta(inserts=[(0, 3), (1, 4), (2, 5)]), (3, 3)),
    # Thin +3 to 2/5 and open both length-1 corner diagonals.
    (_coords_delta(inserts=[(0, 7), (7, 0)], deletes=[(2, 5)]), (5, 4)),
    # Close one corner; delete and re-insert the other.
    (_coords_delta(inserts=[(7, 0)], deletes=[(0, 7), (7, 0)]), (4, 3)),
)

#: 6x10 base: offsets 0 and +2 full (length 6), +5 at 3/5 (true),
#: -2 at 2/4 (not true).
_RECT_BASE = (
    [(i, i) for i in range(6)]
    + [(i, i + 2) for i in range(6)]
    + [(0, 5), (1, 6), (2, 7)]
    + [(2, 0), (3, 1)]
)

_RECT_STEPS = (
    # Thin +5 to 2/5.
    (_coords_delta(deletes=[(2, 7)]), (4, 2)),
    # Refill it at its last cell.
    (_coords_delta(inserts=[(4, 9)]), (4, 3)),
    # Empty offset -2.
    (_coords_delta(deletes=[(2, 0), (3, 1)]), (3, 3)),
    # Open both length-1 corners, (0, 9) and (5, 0).
    (_coords_delta(inserts=[(0, 9), (5, 0)]), (5, 5)),
    # Open +7 at 2/3 and thin the main diagonal to 3/6.
    (
        _coords_delta(
            inserts=[(0, 7), (1, 8)], deletes=[(0, 0), (1, 1), (2, 2)]
        ),
        (6, 5),
    ),
)


@pytest.fixture(params=["loop", "arrays"])
def bump_path(request, monkeypatch) -> str:
    """Run the test with every census bump on one of its two paths."""
    monkeypatch.setattr(
        incremental,
        "LOOP_BUMP_MAX_OFFSETS",
        10**9 if request.param == "loop" else -1,
    )
    return request.param


@pytest.mark.parametrize(
    "shape, base_coords, steps",
    [
        ((8, 8), _SQUARE_BASE, _SQUARE_STEPS),
        ((6, 10), _RECT_BASE, _RECT_STEPS),
    ],
    ids=["square", "rectangular"],
)
def test_census_tracks_the_true_diagonal_line(
    shape, base_coords, steps, bump_path
) -> None:
    """Each fixed delta moves a diagonal across the 0.6 occupancy line
    (or empties, opens, or touches a length-1 corner diagonal); the
    maintained count must agree with a fresh extraction every time."""
    matrix = _from_coords(shape, base_coords)
    feats = DeltaFeatures(matrix)
    assert feats.structure_snapshot() == extract_structure_features(matrix)
    for delta, (ndiags, n_true) in steps:
        matrix, effect = apply_delta(matrix, delta)
        feats.apply(effect)
        snapshot = feats.structure_snapshot()
        assert snapshot == extract_structure_features(matrix)
        assert snapshot["ndiags"] == ndiags
        assert snapshot["ntdiags_ratio"] == n_true / ndiags


@pytest.mark.parametrize("seed", (21, 40))
def test_both_bump_paths_stay_exact(seed: int, bump_path) -> None:
    """Random delta chains through the loop bump and the array bump."""
    rng = np.random.default_rng(31_000 + seed)
    matrix = with_dyadic_data(_structure_for(seed), rng)
    feats = DeltaFeatures(matrix)
    for step in range(6):
        kind = ("insert", "delete", "mixed")[step % 3]
        matrix, effect = apply_delta(matrix, _random_delta(matrix, rng, kind))
        feats.apply(effect)
        assert feats.snapshot() == extract_features(matrix)


class _NoIteration(dict):
    """A census mapping that refuses every whole-census read."""

    def _refuse(self, *args):
        raise AssertionError("the per-offset census was iterated")

    __iter__ = keys = items = values = _refuse


def test_snapshot_never_iterates_the_census() -> None:
    """After construction, folding deltas in (through both bump paths)
    and reading the step-one features touch the census one offset at a
    time, never as a whole."""
    rng = np.random.default_rng(43)
    matrix = with_dyadic_data(
        graphs.power_law_graph(300, exponent=2.2, seed=5), rng
    )
    feats = DeltaFeatures(matrix)
    feats._diag_counts = _NoIteration(feats._diag_counts)

    # One hole per offset on 64 offsets, and every entry of the first 40
    # rows: both bumps take the array path.
    holes = np.argwhere(matrix.to_dense() == 0.0)
    _, first = np.unique(holes[:, 1] - holes[:, 0], return_index=True)
    stored = np.argwhere(matrix.to_dense() != 0.0)
    matrix, effect = apply_delta(
        matrix,
        _coords_delta(inserts=holes[first[:64]], deletes=stored[stored[:, 0] < 40]),
    )
    bumped = [
        np.unique(offsets).size
        for offsets in (effect.added_offsets(), effect.removed_offsets())
    ]
    feats.apply(effect)
    # One insert: the loop path.
    hole = np.argwhere(matrix.to_dense() == 0.0)[0]
    matrix, effect = apply_delta(matrix, _coords_delta(inserts=[hole]))
    feats.apply(effect)

    expected = extract_structure_features(matrix)
    assert feats.structure_snapshot() == expected
    lazy = feats.seed_lazy(matrix)
    assert lazy.get("ndiags") == expected["ndiags"]
    assert lazy.get("ntdiags_ratio") == expected["ntdiags_ratio"]
    assert min(bumped) > incremental.LOOP_BUMP_MAX_OFFSETS


# ---------------------------------------------------------------------------
# LazyFeatures cost ledger
# ---------------------------------------------------------------------------
class TestExtractionCostLedger:
    def test_powerlaw_charged_exactly_once(self) -> None:
        matrix = _structure_for(12)
        lazy = LazyFeatures(matrix)
        assert lazy.extraction_cost_spmv_units() == 0.0
        first = lazy.get("r")
        assert (
            lazy.extraction_cost_spmv_units() == POWERLAW_COST_SPMV_UNITS
        )
        # Re-reads are memoized: same value, no second charge.
        assert lazy.get("r") == first
        assert lazy.get("r") == first
        assert (
            lazy.extraction_cost_spmv_units() == POWERLAW_COST_SPMV_UNITS
        )

    def test_both_steps_charge_once_each(self) -> None:
        matrix = _structure_for(13)
        lazy = LazyFeatures(matrix)
        lazy.get("ndiags")
        lazy.get("max_rd")
        lazy.get("r")
        lazy.get("aver_rd")
        lazy.get("r")
        assert lazy.extraction_cost_spmv_units() == (
            STRUCTURE_COST_SPMV_UNITS + POWERLAW_COST_SPMV_UNITS
        )

    def test_cascade_seeded_structure_never_charges(self) -> None:
        """A cascade-seeded instance arrives with step one pre-paid;
        reading any structure parameter — repeatedly — stays free, and
        only an actual power-law extraction ever charges."""
        matrix = _structure_for(14)
        structure = extract_structure_features(matrix)
        lazy = LazyFeatures(matrix, structure=structure)
        for _ in range(3):
            for name in structure:
                assert lazy.get(name) == float(structure[name])
        assert lazy.extraction_cost_spmv_units() == 0.0
        lazy.get("r")
        assert (
            lazy.extraction_cost_spmv_units() == POWERLAW_COST_SPMV_UNITS
        )

    def test_seeded_r_never_charges(self) -> None:
        matrix = _structure_for(15)
        lazy = LazyFeatures(matrix, r=2.5)
        assert lazy.get("r") == 2.5
        assert lazy.extraction_cost_spmv_units() == 0.0

    def test_r_source_consulted_lazily_and_never_charges(self) -> None:
        matrix = _structure_for(16)
        calls = []

        def source() -> float:
            calls.append(1)
            return 3.25

        lazy = LazyFeatures(matrix, r_source=source)
        assert calls == []  # not consulted until a rule reads r
        assert lazy.get("r") == 3.25
        assert lazy.get("r") == 3.25
        assert calls == [1]  # materialised once, then memoized
        assert lazy.extraction_cost_spmv_units() == 0.0

    def test_unknown_parameter_rejected(self) -> None:
        lazy = LazyFeatures(_structure_for(17))
        with pytest.raises(KeyError):
            lazy.get("sparsity_index")
