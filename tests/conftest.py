"""Shared fixtures: small reference matrices used across the test suite."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.formats import CSRMatrix
from repro.tuner.config import SmatConfig


@pytest.fixture
def paper_dense() -> np.ndarray:
    """The 4x4 example matrix of the paper's Figure 2.

    ::

        [1 5 0 0]
        [0 2 6 0]
        [8 0 3 7]
        [0 9 0 4]
    """
    return np.array(
        [
            [1.0, 5.0, 0.0, 0.0],
            [0.0, 2.0, 6.0, 0.0],
            [8.0, 0.0, 3.0, 7.0],
            [0.0, 9.0, 0.0, 4.0],
        ]
    )


@pytest.fixture
def paper_csr(paper_dense: np.ndarray) -> CSRMatrix:
    return CSRMatrix.from_dense(paper_dense)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_csr(
    rng: np.random.Generator,
    n_rows: int = 40,
    n_cols: int = 37,
    density: float = 0.08,
    dtype: np.dtype = np.float64,
) -> CSRMatrix:
    """A helper (not a fixture) building a random CSR matrix."""
    dense = np.where(
        rng.random((n_rows, n_cols)) < density,
        rng.standard_normal((n_rows, n_cols)),
        0.0,
    ).astype(dtype)
    return CSRMatrix.from_dense(dense)


@pytest.fixture
def hash_calls(monkeypatch):
    """A one-item list counting SHA-256 passes: calls of the fingerprint
    module's hash helper (``repro.serve.fingerprint`` as an attribute
    names the function, so the module is imported by name)."""
    module = importlib.import_module("repro.serve.fingerprint")
    helper = module._structure_hash
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return helper(*args)

    monkeypatch.setattr(module, "_structure_hash", counting)
    return calls


class DecideOnlyTuner:
    """The :class:`~repro.tuner.plan.Tuner` attributes of a test tuner
    that only decides: no rule model (so a structure delta re-tunes),
    the default config, and a model that never hot-swaps."""

    model = None
    config = SmatConfig()
    model_epoch = 0


@pytest.fixture
def spmm_verdict(monkeypatch):
    """Force the engine's SpMM verdict for every plan and width.

    ``spmm_verdict(True)`` stacks every group of a plan that has a native
    SpMM kernel; ``spmm_verdict(False)`` serves every group request by
    request.  Nothing is measured while a verdict is forced.
    """
    from repro.tuner.plan import SpmmVerdicts

    def force(stack: bool) -> None:
        monkeypatch.setattr(
            SpmmVerdicts, "choose", lambda self, k: (stack, False)
        )

    return force
