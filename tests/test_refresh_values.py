"""Differential tests of the value-refresh fast path (tier-2 plan reuse).

``SparseMatrix.refresh_values(csr)`` must be *indistinguishable* from
converting the churned CSR from scratch: same class, same structure
arrays, bitwise-identical ``to_dense``/``spmv`` products, identical
memory accounting.  The sweep reuses the structural families and dyadic
value discipline of ``tests/test_properties_differential.py`` — values
are exact multiples of 1/8, operands of 1/4, so any summation order
yields the identical bit pattern and a refresh that drops, duplicates,
or misplaces one entry fails loudly on some seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats.convert import convert
from repro.formats.csr import CSRMatrix
from repro.types import FormatName
from tests.test_properties_differential import (
    ALL_TARGETS,
    N_SEEDS,
    _structure_for,
    dyadic_operand,
    with_dyadic_data,
)


def _refresh_targets(csr):
    """(target, converted) for every format; no fill budget, no refusal."""
    return [
        (target, convert(csr, target, fill_budget=None)[0])
        for target in ALL_TARGETS + (FormatName.CSR,)
    ]


def _assert_same_matrix(refreshed, rebuilt, target, x) -> None:
    assert type(refreshed) is type(rebuilt), target
    assert refreshed.shape == rebuilt.shape, target
    assert refreshed.nnz == rebuilt.nnz, target
    assert np.array_equal(refreshed.to_dense(), rebuilt.to_dense()), target
    assert np.array_equal(refreshed.spmv(x), rebuilt.spmv(x)), target
    assert refreshed.memory_bytes() == rebuilt.memory_bytes(), target


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_refresh_bitwise_equals_reconvert(seed: int) -> None:
    rng = np.random.default_rng(seed + 60_000)
    base = with_dyadic_data(_structure_for(seed), rng)
    churned = with_dyadic_data(base, rng)
    x = dyadic_operand(rng, base.n_cols)
    for target, converted in _refresh_targets(base):
        refreshed = converted.refresh_values(churned)
        rebuilt, _ = convert(churned, target, fill_budget=None)
        _assert_same_matrix(refreshed, rebuilt, target, x)
        # The donor keeps its own values: refresh returns a new instance.
        assert np.array_equal(
            converted.to_dense(), base.to_dense()
        ), target
        # Second refresh exercises the cached scatter plan (first call
        # computes it, later calls reuse it) — still bitwise identical.
        churned2 = with_dyadic_data(base, rng)
        again = refreshed.refresh_values(churned2)
        rebuilt2, _ = convert(churned2, target, fill_budget=None)
        _assert_same_matrix(again, rebuilt2, target, x)


class TestRefreshValidation:
    def test_rejects_non_csr_source(self) -> None:
        base = _structure_for(0)
        coo, _ = convert(base, FormatName.COO, fill_budget=None)
        with pytest.raises(FormatError, match="CSR"):
            coo.refresh_values(coo)

    def test_rejects_shape_mismatch(self) -> None:
        base = _structure_for(0)
        other = CSRMatrix.from_dense(np.ones((3, 3)))
        dia, _ = convert(base, FormatName.DIA, fill_budget=None)
        with pytest.raises(FormatError, match="shape"):
            dia.refresh_values(other)

    def test_rejects_dtype_mismatch(self) -> None:
        base = _structure_for(0)
        other = CSRMatrix(
            base.ptr,
            base.indices,
            base.data.astype(np.float32),
            base.shape,
        )
        dia, _ = convert(base, FormatName.DIA, fill_budget=None)
        with pytest.raises(FormatError, match="dtype"):
            dia.refresh_values(other)

    def test_rejects_nnz_mismatch(self) -> None:
        rng = np.random.default_rng(3)
        base = with_dyadic_data(_structure_for(8), rng)
        if base.nnz < 2:
            pytest.skip("degenerate structure")
        smaller = CSRMatrix(
            np.minimum(base.ptr, base.nnz - 1),
            base.indices[: base.nnz - 1],
            base.data[: base.nnz - 1],
            base.shape,
        )
        dia, _ = convert(base, FormatName.DIA, fill_budget=None)
        # Prime the cached scatter plan with the true structure; the nnz
        # guard protects every *subsequent* refresh against a source that
        # no longer matches the plan.
        dia.refresh_values(base)
        with pytest.raises(FormatError):
            dia.refresh_values(smaller)


class TestRefreshSemantics:
    def test_structure_arrays_shared_not_copied(self) -> None:
        """Refresh reuses the donor's structure arrays outright — that is
        where the tier-2 memory and time savings come from."""
        rng = np.random.default_rng(5)
        base = with_dyadic_data(_structure_for(8), rng)
        churned = with_dyadic_data(base, rng)

        dia, _ = convert(base, FormatName.DIA, fill_budget=None)
        refreshed = dia.refresh_values(churned)
        assert refreshed.offsets is dia.offsets

        ell, _ = convert(base, FormatName.ELL, fill_budget=None)
        assert ell.refresh_values(churned).indices is ell.indices

        coo, _ = convert(base, FormatName.COO, fill_budget=None)
        refreshed_coo = coo.refresh_values(churned)
        assert refreshed_coo.rows is coo.rows
        assert refreshed_coo.cols is coo.cols

    def test_refresh_plan_cached_and_propagated(self) -> None:
        rng = np.random.default_rng(6)
        base = with_dyadic_data(_structure_for(8), rng)
        churned = with_dyadic_data(base, rng)
        for target in (FormatName.DIA, FormatName.ELL):
            operand, _ = convert(base, target, fill_budget=None)
            assert getattr(operand, "_refresh_plan", None) is None, target
            refreshed = operand.refresh_values(churned)
            plan = operand._refresh_plan
            assert plan is not None, target
            # The refreshed instance inherits the plan so chained
            # refreshes (the steady state of a value-churn workload)
            # never recompute it.
            assert refreshed._refresh_plan is plan, target

    def test_csr_refresh_is_a_value_copy(self) -> None:
        rng = np.random.default_rng(7)
        base = with_dyadic_data(_structure_for(3), rng)
        churned = with_dyadic_data(base, rng)
        refreshed = base.refresh_values(churned)
        assert refreshed.ptr is base.ptr
        assert refreshed.indices is base.indices
        assert np.array_equal(refreshed.data, churned.data)
        assert refreshed.data is not churned.data  # defensive copy
