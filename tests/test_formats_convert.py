"""Conversion tests: correctness, routing, cost accounting, fill guards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConversionError
from repro.formats import CSRMatrix, convert
from repro.formats.convert import (
    conversion_cost,
    coo_to_csr,
    csr_to_coo,
    csr_to_dia,
    csr_to_ell,
    dia_to_csr,
    ell_to_csr,
)
from repro.types import BASIC_FORMATS, FormatName
from tests.conftest import random_csr


class TestPairwiseConversions:
    def test_csr_coo_round_trip(self, paper_csr: CSRMatrix) -> None:
        coo, _ = csr_to_coo(paper_csr)
        back, _ = coo_to_csr(coo)
        np.testing.assert_array_equal(back.to_dense(), paper_csr.to_dense())

    def test_csr_dia_round_trip(self, paper_csr: CSRMatrix) -> None:
        dia, _ = csr_to_dia(paper_csr)
        back, _ = dia_to_csr(dia)
        np.testing.assert_array_equal(back.to_dense(), paper_csr.to_dense())

    def test_csr_ell_round_trip(self, paper_csr: CSRMatrix) -> None:
        ell, _ = csr_to_ell(paper_csr)
        back, _ = ell_to_csr(ell)
        np.testing.assert_array_equal(back.to_dense(), paper_csr.to_dense())

    def test_random_matrix_round_trips(self, rng) -> None:
        csr = random_csr(rng, n_rows=30, n_cols=30, density=0.15)
        for target in BASIC_FORMATS:
            out, _ = convert(csr, target, fill_budget=None)
            np.testing.assert_allclose(
                out.to_dense(), csr.to_dense(), err_msg=str(target)
            )


class TestGenericConvert:
    def test_identity_conversion_is_free(self, paper_csr: CSRMatrix) -> None:
        out, cost = convert(paper_csr, FormatName.CSR)
        assert out is paper_csr
        assert cost.touched_slots == 0
        assert cost.csr_spmv_units() == 0.0

    def test_any_to_any_via_csr(self, paper_csr: CSRMatrix) -> None:
        dia, _ = convert(paper_csr, FormatName.DIA)
        ell, cost = convert(dia, FormatName.ELL)
        np.testing.assert_array_equal(ell.to_dense(), paper_csr.to_dense())
        # The routed conversion accounts for both hops.
        assert cost.touched_slots > 0
        assert cost.source is FormatName.DIA
        assert cost.target is FormatName.ELL

    def test_spmv_identical_across_formats(self, rng) -> None:
        csr = random_csr(rng, n_rows=25, n_cols=31, density=0.1)
        x = rng.standard_normal(31)
        reference = csr.spmv(x)
        for target in BASIC_FORMATS:
            out, _ = convert(csr, target, fill_budget=None)
            np.testing.assert_allclose(
                out.spmv(x), reference, atol=1e-12, err_msg=str(target)
            )


class TestFillBudget:
    def test_dia_blowup_refused(self, rng) -> None:
        # A random matrix touches ~every diagonal: DIA would explode.
        csr = random_csr(rng, n_rows=60, n_cols=60, density=0.05)
        with pytest.raises(ConversionError, match="refusing"):
            csr_to_dia(csr, fill_budget=2.0)

    def test_ell_blowup_refused(self) -> None:
        dense = np.zeros((50, 50))
        dense[0, :] = 1.0  # one full row
        dense[np.arange(1, 50), 0] = 1.0
        csr = CSRMatrix.from_dense(dense)
        with pytest.raises(ConversionError, match="refusing"):
            csr_to_ell(csr, fill_budget=3.0)

    def test_budget_none_disables_guard(self, rng) -> None:
        csr = random_csr(rng, n_rows=40, n_cols=40, density=0.05)
        dia, _ = csr_to_dia(csr, fill_budget=None)
        np.testing.assert_allclose(dia.to_dense(), csr.to_dense())


class TestCostAccounting:
    def test_ell_cost_grows_with_padding(self) -> None:
        balanced = CSRMatrix.from_dense(np.eye(40))
        skewed_dense = np.eye(40)
        skewed_dense[0, :] = 1.0
        skewed = CSRMatrix.from_dense(skewed_dense)
        _, balanced_cost = csr_to_ell(balanced)
        _, skewed_cost = csr_to_ell(skewed, fill_budget=None)
        assert (
            skewed_cost.csr_spmv_units() > 3 * balanced_cost.csr_spmv_units()
        )

    def test_estimate_matches_actual_for_dia(self, paper_csr) -> None:
        estimated = conversion_cost(FormatName.CSR, FormatName.DIA, paper_csr)
        _, actual = csr_to_dia(paper_csr)
        assert estimated == pytest.approx(actual.csr_spmv_units())

    def test_estimate_matches_actual_for_ell(self, paper_csr) -> None:
        estimated = conversion_cost(FormatName.CSR, FormatName.ELL, paper_csr)
        _, actual = csr_to_ell(paper_csr)
        assert estimated == pytest.approx(actual.csr_spmv_units())

    def test_same_format_estimate_is_zero(self, paper_csr) -> None:
        assert conversion_cost(FormatName.CSR, FormatName.CSR, paper_csr) == 0.0
