"""Ruleset C-export tests."""

from __future__ import annotations

import pytest

from repro.collection import generate_collection
from repro.io.ruleset_export import export_ruleset_c
from repro.machine import INTEL_XEON_X5680, SimulatedBackend
from repro.tuner import SMAT
from repro.types import Precision


@pytest.fixture(scope="module")
def smat():
    backend = SimulatedBackend(INTEL_XEON_X5680, Precision.DOUBLE)
    return SMAT.train(
        generate_collection(scale=0.08, size_scale=0.4, seed=77),
        backend=backend,
    )


class TestRulesetExport:
    def test_c_export_structure(self, smat) -> None:
        code = export_ruleset_c(smat.model)
        assert "enum smat_format smat_decide" in code
        assert "typedef struct" in code
        assert "NTdiags_ratio" in code or "var_RD" in code
        # Every group with rules appears as a comment.
        for group in smat.model.grouped.groups:
            if group.rules:
                assert f"{group.format_name.value} group" in code

    def test_low_confidence_groups_return_measure(self, smat) -> None:
        code = export_ruleset_c(smat.model, confidence_threshold=1.1)
        # With an impossible threshold every rule routes to measurement.
        assert "SMAT_MEASURE" in code
        assert "return SMAT_DIA" not in code

    def test_infinite_thresholds_rendered(self, smat) -> None:
        code = export_ruleset_c(smat.model)
        assert "nan" not in code.lower().replace("infinity", "")

    def test_export_is_deterministic(self, smat) -> None:
        assert export_ruleset_c(smat.model) == export_ruleset_c(smat.model)
