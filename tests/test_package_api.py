"""Public-API surface tests: exports, lazy attributes, error hierarchy."""

from __future__ import annotations

import pytest

import repro
from repro.errors import (
    ConversionError,
    FormatError,
    KernelError,
    LearningError,
    SmatError,
    SolverError,
    TuningError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [FormatError, ConversionError, KernelError, LearningError,
         TuningError, SolverError],
    )
    def test_all_derive_from_smat_error(self, exc) -> None:
        assert issubclass(exc, SmatError)
        with pytest.raises(SmatError):
            raise exc("boom")

    def test_catching_base_covers_library_failures(self) -> None:
        from repro.formats import CSRMatrix

        with pytest.raises(SmatError):
            CSRMatrix(ptr=[0, 5], indices=[0], data=[1.0], shape=(1, 1))


class TestTopLevelApi:
    def test_version(self) -> None:
        assert repro.__version__ == "1.0.0"

    def test_eager_exports(self) -> None:
        assert repro.CSRMatrix is not None
        assert repro.FormatName.CSR.value == "CSR"
        assert len(repro.BASIC_FORMATS) == 4

    @pytest.mark.parametrize(
        "name",
        ["SMAT", "SmatConfig", "AMGSolver", "SimulatedBackend",
         "WallClockBackend", "extract_features", "generate_collection",
         "representatives", "smat_scsr_spmv", "smat_dcsr_spmv"],
    )
    def test_lazy_exports_resolve(self, name: str) -> None:
        assert getattr(repro, name) is not None

    def test_unknown_attribute(self) -> None:
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_a_thing

    def test_precision_helpers(self) -> None:
        from repro.types import Precision

        assert Precision.SINGLE.bytes_per_value == 4
        assert Precision.DOUBLE.bytes_per_value == 8
        assert Precision.from_dtype("float32") is Precision.SINGLE
        with pytest.raises(ValueError, match="dtype"):
            Precision.from_dtype("int32")
