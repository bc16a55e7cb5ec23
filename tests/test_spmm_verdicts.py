"""The SpMM crossover: a same-fingerprint group is stacked into one SpMM
only where the plan's measured verdict says SpMM beat k calls of its
serving kernel.

Products are checked bitwise on dyadic values (exact under any summation
order), so a routing path that drops, duplicates or reorders a member
cannot hide behind float tolerance.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.formats.convert import convert
from repro.formats.delta import StructureDelta
from repro.kernels import kernels_for
from repro.serve import ServeConfig, ServingEngine, fingerprint
from repro.tuner.plan import (
    VERDICT_SAMPLES,
    Plan,
    SpmmVerdicts,
    width_bucket,
)
from repro.tuner.runtime import Decision
from repro.types import FormatName

from tests.conftest import DecideOnlyTuner, random_csr
from tests.test_properties_differential import (
    dyadic_operand,
    with_dyadic_data,
)

NATIVE = ("CSR", "ELL", "DIA")
NON_NATIVE = ("COO",)
WIDTHS = (2, 4, 8, 32)


class FormatTuner(DecideOnlyTuner):
    """Decides one fixed format for every matrix, with that format's
    most-vectorized registry kernel."""

    def __init__(self, fmt: FormatName) -> None:
        self.fmt = fmt

    def decide(self, matrix, deadline=None):
        converted, _ = convert(matrix, self.fmt, fill_budget=None)
        return Decision(
            format_name=self.fmt,
            kernel=kernels_for(self.fmt)[-1],
            confidence=1.0,
            matched_rule=None,
            used_fallback=False,
            predicted_format=self.fmt,
            matrix=converted,
        )


class FailingTuner(DecideOnlyTuner):
    """Every build fails, so every request is served degraded."""

    def decide(self, matrix, deadline=None):
        raise RuntimeError("no plan for you")


def dyadic_case(rng, k: int, n: int = 90):
    matrix = with_dyadic_data(random_csr(rng, n_rows=n, n_cols=n), rng)
    return matrix, [dyadic_operand(rng, n) for _ in range(k)]


def serve_groups(engine, matrix, groups):
    """Submit each operand group as one burst and wait for it."""
    results = []
    for xs in groups:
        results.extend(f.result() for f in engine.submit_batch(matrix, xs))
    return results


def counters(engine):
    return engine.metrics.snapshot()["counters"]


#: One worker, so a burst is one group; codegen, so DIA and CSR plans
#: serve with compiled kernels as in the e2e benchmark.
CONFIG = ServeConfig(workers=1, max_batch_rhs=32, kernel_backend="codegen")


# ---------------------------------------------------------------------------
# The verdict table
# ---------------------------------------------------------------------------
class TestVerdicts:
    def test_width_buckets_are_powers_of_two(self) -> None:
        assert [width_bucket(k) for k in (2, 3, 4, 7, 8, 31, 32, 33)] == [
            2, 2, 4, 4, 8, 16, 32, 32
        ]

    def test_open_bucket_alternates_starting_stacked(self) -> None:
        verdicts = SpmmVerdicts()
        routes = [verdicts.choose(4) for _ in range(4)]
        assert routes == [(True, True), (False, True)] * 2

    def test_settles_on_the_lower_minimum(self) -> None:
        verdicts = SpmmVerdicts()
        for i in range(VERDICT_SAMPLES):
            verdicts.record(4, True, 2.0 + i)
            verdicts.record(5, False, 1.5 + i)
        assert verdicts.settled() == {4: False}
        assert verdicts.choose(6) == (False, False)
        # One fast stacked sample beats slower serial ones.
        verdicts = SpmmVerdicts()
        for stacked in (True, False) * VERDICT_SAMPLES:
            verdicts.record(8, stacked, 1.0 if stacked else 0.9)
        verdicts.record(8, True, 0.1)  # settled already: ignored
        assert verdicts.settled() == {8: False}

    def test_needs_samples_on_both_sides(self) -> None:
        verdicts = SpmmVerdicts()
        for _ in range(VERDICT_SAMPLES + 5):
            verdicts.record(2, True, 1.0)
        for _ in range(VERDICT_SAMPLES - 1):
            verdicts.record(2, False, 9.0)
        assert verdicts.settled() == {}
        verdicts.record(2, False, 9.0)
        assert verdicts.settled() == {2: True}

    def test_concurrent_choices_stay_balanced(self) -> None:
        """Workers share one plan's verdicts: an open bucket must hand
        out stacked and per-request routes in turn, whatever the
        interleaving (a lost update would skew the split)."""
        verdicts = SpmmVerdicts()
        routes = []
        lock = threading.Lock()

        def worker() -> None:
            mine = [verdicts.choose(8)[0] for _ in range(500)]
            with lock:
                routes.extend(mine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(routes) == 4000
        assert routes.count(True) == routes.count(False)


# ---------------------------------------------------------------------------
# Bitwise products on both paths
# ---------------------------------------------------------------------------
class TestBitwiseProducts:
    @pytest.mark.parametrize("stack", [True, False], ids=["stack", "serial"])
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("fmt", NATIVE + NON_NATIVE)
    def test_group_products_match_reference(
        self, rng, spmm_verdict, fmt, width, stack
    ) -> None:
        spmm_verdict(stack)
        matrix, xs = dyadic_case(rng, width)
        tuner = FormatTuner(FormatName[fmt])
        with ServingEngine(tuner, CONFIG) as engine:
            engine.spmv(matrix, xs[0])  # build the plan first
            results = serve_groups(engine, matrix, [xs])
            seen = counters(engine)
        for x, result in zip(xs, results):
            assert result.format_name is FormatName[fmt]
            assert np.array_equal(result.y, matrix.spmv(x, reference=True))
        stacked = stack and fmt in NATIVE
        assert seen["spmm_requests_batched"] == (width if stacked else 0)
        assert seen["spmm_groups_unstacked"] == (0 if stacked else 1)
        assert {r.batch_size for r in results} == {width if stacked else 1}


# ---------------------------------------------------------------------------
# Verdict lifecycle
# ---------------------------------------------------------------------------
class TestVerdictLifecycle:
    def _count_records(self, monkeypatch):
        calls = []
        record = SpmmVerdicts.record

        def counting(self, k, stacked, per_rhs):
            calls.append((width_bucket(k), stacked))
            record(self, k, stacked, per_rhs)

        monkeypatch.setattr(SpmmVerdicts, "record", counting)
        return calls

    def test_measured_at_most_once_per_plan_and_bucket(
        self, rng, monkeypatch
    ) -> None:
        calls = self._count_records(monkeypatch)
        matrix, xs = dyadic_case(rng, 8)
        with ServingEngine(FormatTuner(FormatName.CSR), CONFIG) as engine:
            serve_groups(engine, matrix, [xs[:4]] * 10 + [xs[:2]] * 10)
            plan = engine.cache.get(fingerprint(matrix))
            first = plan.verdicts.settled()
            serve_groups(engine, matrix, [xs[:4], xs[:5], xs[:3]] * 5)
            assert plan.verdicts.settled() == first
        assert set(first) == {2, 4}
        # Exactly VERDICT_SAMPLES timings per path and bucket, then none.
        for bucket in (2, 4):
            for stacked in (True, False):
                assert calls.count((bucket, stacked)) == VERDICT_SAMPLES

    def test_no_group_executes_twice(self, rng, monkeypatch) -> None:
        columns = []
        execute, spmm = Plan.__call__, Plan.spmm

        def counting_execute(self, x):
            columns.append(1)
            return execute(self, x)

        def counting_spmm(self, X):
            columns.append(X.shape[1])
            return spmm(self, X)

        monkeypatch.setattr(Plan, "__call__", counting_execute)
        monkeypatch.setattr(Plan, "spmm", counting_spmm)
        matrix, xs = dyadic_case(rng, 8)
        groups = [xs[:w] for w in (2, 4, 8, 3, 5)] * 4
        with ServingEngine(FormatTuner(FormatName.DIA), CONFIG) as engine:
            engine.spmv(matrix, xs[0])
            columns.clear()
            results = serve_groups(engine, matrix, groups)
            seen = counters(engine)
        assert sum(columns) == sum(len(g) for g in groups) == len(results)
        assert seen["spmm_requests_batched"] > 0
        assert seen["spmm_groups_unstacked"] > 0
        assert (
            seen["spmm_batches_total"] + seen["spmm_groups_unstacked"]
            == len(groups)
        )

    def test_refresh_inherits_and_delta_resets(self, rng) -> None:
        matrix, xs = dyadic_case(rng, 4)
        with ServingEngine(FormatTuner(FormatName.ELL), CONFIG) as engine:
            serve_groups(engine, matrix, [xs] * (2 * VERDICT_SAMPLES))
            donor = engine.cache.get(fingerprint(matrix))
            settled = donor.verdicts.settled()
            assert set(settled) == {4}
            # Tier-2 refresh: same structure, fresh values.
            churned = with_dyadic_data(matrix, rng)
            assert engine.spmv(churned, xs[0]).refreshed
            refreshed = engine.cache.get(fingerprint(churned))
            assert refreshed is not donor
            assert refreshed.verdicts.settled() == settled
            # A structure delta migrates the plan with fresh verdicts.
            hole = np.argwhere(churned.to_dense() == 0.0)[0]
            outcome = engine.apply_structure_delta(
                churned,
                StructureDelta(
                    insert_rows=hole[:1].astype(churned.ptr.dtype),
                    insert_cols=hole[1:].astype(churned.ptr.dtype),
                    insert_vals=np.array([0.5]),
                ),
            )
            migrated = engine.cache.get(outcome.fingerprint)
            assert migrated.verdicts.settled() == {}
            results = serve_groups(engine, outcome.matrix, [xs])
        for x, result in zip(xs, results):
            assert np.array_equal(
                result.y, outcome.matrix.spmv(x, reference=True)
            )

    @pytest.mark.parametrize("fmt", NON_NATIVE)
    def test_non_native_plans_never_stack(
        self, rng, spmm_verdict, fmt
    ) -> None:
        spmm_verdict(True)
        matrix, xs = dyadic_case(rng, 8)
        tuner = FormatTuner(FormatName[fmt])
        with ServingEngine(tuner, CONFIG) as engine:
            serve_groups(engine, matrix, [xs, xs[:2], xs[:5]])
            seen = counters(engine)
        assert seen["spmm_batches_total"] == 0
        assert seen["spmm_groups_unstacked"] == 3

    def test_degraded_plans_never_stack(self, rng, spmm_verdict) -> None:
        spmm_verdict(True)
        matrix, xs = dyadic_case(rng, 8)
        with ServingEngine(FailingTuner(), CONFIG) as engine:
            results = serve_groups(engine, matrix, [xs, xs[:3]])
            seen = counters(engine)
        assert all(r.degraded and r.batch_size == 1 for r in results)
        for x, result in zip(xs + xs[:3], results):
            assert np.array_equal(result.y, matrix.spmv(x, reference=True))
        assert seen["spmm_batches_total"] == 0
        assert seen["spmm_groups_unstacked"] == 2
