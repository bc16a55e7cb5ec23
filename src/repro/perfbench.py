"""Perf-regression benchmark: cold-path conversions, features, kernels.

``repro bench-perf`` (and the ``benchmarks/bench_perf_regression.py``
wrapper) time every cold-path operation the auto-tuner performs on a
plan-cache miss — format conversion, Table 2 feature extraction, the full
plan build — plus the per-format SpMV kernels, on a fixed synthetic suite.
Each vectorized operation is timed against its retained Python-loop
reference (:mod:`repro.formats.reference`, the ``*_basic`` kernels), and
the results land in ``BENCH_perf.json`` with the schema::

    op -> {median_s, loop_median_s, speedup_vs_python_loop}

so every subsequent PR has a perf trajectory to append to, and CI can
assert the vectorized cold path never regresses back to loop speed
(``--assert-speedup``).

Suites: ``smoke`` (sub-second, for tests) and ``quick`` (the medium
suite, the default, and the one CI runs).
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.collection import banded, generate_collection, graphs
from repro.features.extract import (
    extract_powerlaw_feature,
    extract_structure_features,
)
from repro.features.incremental import DeltaFeatures
from repro.formats import reference
from repro.formats.delta import (
    DeltaEffect,
    StructureDelta,
    apply_delta,
    patch_operand,
)
from repro.formats.convert import convert, csr_to_dia, csr_to_ell
from repro.formats.csr import CSRMatrix
from repro.kernels.base import find_kernel
from repro.kernels.spmm import csr_spmm, dia_spmm, ell_spmm
from repro.kernels.strategies import Strategy, strategy_set
from repro.machine import SimulatedBackend
from repro.machine import platform as machine_platform
from repro.serve.workload import evolving_graph_delta
from repro.tuner.runtime import _model_walk, cascade_select, full_select
from repro.tuner.smat import SMAT
from repro.types import INDEX_DTYPE, FormatName
from repro.util.timing import median_time

#: (n, n_diags) of the banded conversion/kernel matrix per suite, plus the
#: power-law node count for the feature-extraction case.
SUITE_SIZES = {
    "smoke": {"banded": (2_000, 5), "powerlaw": 1_500},
    "quick": {"banded": (25_000, 9), "powerlaw": 15_000},
}

#: The ops the acceptance gate checks: the two conversions whose loop
#: references blow up (PAPER §7.3's worst offenders — ELL/DIA are the
#: padded formats), the serving layer's value-refresh fast path, which
#: must stay well ahead of a full retune for the tier-2 plan cache to
#: pay for itself, the structure-churn delta path (incremental features
#: + in-place operand patch vs a cold retune, which additionally must be
#: bitwise-equal and re-decide the same format — see
#: ``mismatches``/``format_regressions`` in :func:`check_speedups`), and
#: the decision cascade's selection overhead vs an always-full feature
#: extraction (which additionally must choose the same formats — see
#: ``quality_regressions``). ``plan/graph_delta`` (the delta path with
#: its splice, on a power-law graph) is recorded but not held to the
#: floor: at the smoke size its speedup over a retune reads 1.3-1.9x,
#: below the 2x the tier-1 gate asks.  Its ``mismatches`` and
#: ``format_regressions`` are gated at 0 on every run.
GATED_OPS = (
    "convert/csr_to_ell",
    "convert/csr_to_dia",
    "plan/value_refresh",
    "plan/delta_update",
    "tune/cascade_overhead",
)

#: Each gated op records its speedup under one of these keys; the gate
#: accepts whichever is present.
SPEEDUP_KEYS = (
    "speedup_vs_python_loop",
    "speedup_vs_retune",
    "speedup_vs_full_extraction",
)

#: (n, n_diags) of the structure-delta benchmark matrix per suite.  The
#: shared smoke banded matrix is small enough that fixed per-call NumPy
#: overhead, not asymptotic work, dominates the O(delta) patch side —
#: the delta case gets its own floor size so the smoke gate measures
#: the algorithm rather than interpreter constants.  Quick reuses the
#: shared matrix.
DELTA_SIZES = {
    "smoke": (6_000, 5),
    "quick": (25_000, 9),
}

#: Structural edits per delta in the ``plan/graph_delta`` case, as a
#: share of the power-law graph's nnz (graph_churn's share).
GRAPH_DELTA_SHARE = 0.005

#: The decision-cascade benchmark corpus per suite: ``("band", n,
#: n_diags)`` builds a *contiguous* dense band (``spread`` pinned so the
#: occupied span equals max_RD — the shape the stage-0 interval walk
#: resolves without any census), ``("powerlaw", n, _)`` a power-law
#: graph whose wide diagonal span forces honest escalation to the full
#: extraction.  The model is trained once at a fixed seed so the rule
#: attributes the walk exercises are deterministic.
CASCADE_CORPUS = {
    "smoke": (("band", 6_000, 65), ("band", 4_000, 21), ("powerlaw", 1_500, 0)),
    "quick": (
        ("band", 20_000, 65),
        ("band", 15_000, 21),
        ("band", 30_000, 9),
        ("powerlaw", 10_000, 0),
    ),
}

#: Collection scale the cascade benchmark's throwaway model trains at:
#: big enough for the Figure 7 rule groups to form, small enough to keep
#: even the smoke suite fast.
CASCADE_TRAIN_SCALE = 0.02
CASCADE_TRAIN_SEED = 2013

#: RHS block widths timed by the SpMM section.
SPMM_BATCH_SIZES = (4, 16, 64)

#: The structured families the ``codegen`` kernel backend is benchmarked
#: on, each as its op and the format the suite's banded matrix is
#: converted to: generated (structure-folded) kernels vs the generic
#: vectorized registry kernels, on the same converted matrix.  Every
#: family must clear :data:`CODEGEN_SPEEDUP_FLOOR` — DIA's literal-bound
#: slice AXPYs skip the generic kernel's masked clip-gather planes.  Any
#: numeric mismatch between the generated and generic kernels fails the
#: gate outright, on every suite.  ``scripts/codegen_worst_source.py``
#: times the same families.
CODEGEN_OPS = {"codegen/dia_banded": FormatName.DIA}
CODEGEN_SPEEDUP_FLOOR = 1.3

#: Each codegen op interleaves this many (generated, generic) timing
#: trials and keeps each side's best median — see the loop in
#: :func:`run_suite` for why a single median is too noisy to gate on.
CODEGEN_TIMING_TRIALS = 5

#: The codegen speedup floor only applies at these suite scales; the
#: smoke suite's sub-millisecond matrices sit below the scale where a
#: specialized kernel can amortize its dispatch, so smoke runs check
#: correctness (zero mismatches) but not the floor.
CODEGEN_GATED_SUITES = ("quick",)

#: Fixed floors for the batched fast path, checked regardless of the
#: ``--assert-speedup`` value.  SpMM ops measure against k calls of the
#: *generic* vectorized SpMV (not a Python loop), so the generic floor
#: does not apply.  Nor do they say when serving should stack: a plan
#: often serves with a compiled kernel that k SpMM columns cannot beat,
#: so the engine measures that crossover per plan and width
#: (``tuner.plan.SpmmVerdicts``).  The one hard promise here is
#: that CSR at batch 64 amortises the operand traffic at least 3x.
SPMM_GATES = {"spmm/csr_b64": 3.0}


def _time(fn: Callable[[], object], repeats: int, warmup: int = 1) -> float:
    return median_time(fn, repeats=max(1, repeats), warmup=warmup)


def _churn_delta(
    matrix: CSRMatrix, rng: np.random.Generator, edits: int
) -> StructureDelta:
    """A degree-preserving edit batch for the delta-update benchmark.

    Each chosen row drops one stored entry and gains one just outside
    its occupied span (bandwidth drift — the shape of mesh-refinement
    churn), so row degrees — hence the ELL width — are unchanged and
    :func:`patch_operand` takes the in-place path rather than the
    rebuild fallback.  ``edits`` counts total coordinates touched
    (one delete plus one insert per row).
    """
    pairs = min(max(1, edits // 2), matrix.n_rows)
    rows = rng.choice(matrix.n_rows, size=pairs, replace=False)
    del_rows: List[int] = []
    del_cols: List[int] = []
    ins_rows: List[int] = []
    ins_cols: List[int] = []
    for row in rows.tolist():
        start, end = int(matrix.ptr[row]), int(matrix.ptr[row + 1])
        if end <= start:
            continue
        lo = int(matrix.indices[start])
        hi = int(matrix.indices[end - 1])
        if hi + 1 < matrix.n_cols:
            free = hi + 1
        elif lo > 0:
            free = lo - 1
        else:
            continue
        del_rows.append(row)
        del_cols.append(lo)
        ins_rows.append(row)
        ins_cols.append(free)
    return StructureDelta(
        insert_rows=np.asarray(ins_rows, dtype=INDEX_DTYPE),
        insert_cols=np.asarray(ins_cols, dtype=INDEX_DTYPE),
        insert_vals=rng.standard_normal(len(ins_rows)),
        delete_rows=np.asarray(del_rows, dtype=INDEX_DTYPE),
        delete_cols=np.asarray(del_cols, dtype=INDEX_DTYPE),
    )


def _inverse_delta(matrix: CSRMatrix, delta: StructureDelta) -> StructureDelta:
    """The delta that undoes ``delta`` on ``matrix``: re-insert what it
    deleted (with the stored values) and delete what it inserted.  Exact
    when every insertion lands in a hole, as
    :func:`repro.serve.workload.evolving_graph_delta` guarantees."""
    row_of = np.repeat(
        np.arange(matrix.n_rows, dtype=INDEX_DTYPE), matrix.row_degrees()
    )
    keys = row_of * matrix.n_cols + matrix.indices
    at = np.searchsorted(
        keys, delta.delete_rows * matrix.n_cols + delta.delete_cols
    )
    return StructureDelta(
        insert_rows=delta.delete_rows,
        insert_cols=delta.delete_cols,
        insert_vals=matrix.data[at],
        delete_rows=delta.insert_rows,
        delete_cols=delta.insert_cols,
    )


def _array_mismatches(a: object, b: object) -> int:
    """Array attributes of ``a`` that differ from ``b``'s in dtype or
    value (0 means bitwise-identical operands)."""
    theirs = vars(b)
    return sum(
        not (
            isinstance(theirs.get(name), np.ndarray)
            and mine.dtype == theirs[name].dtype
            and np.array_equal(mine, theirs[name])
        )
        for name, mine in vars(a).items()
        if isinstance(mine, np.ndarray)
    )


def run_suite(
    suite: str = "quick",
    repeats: int = 3,
    loop_repeats: int = 1,
    seed: int = 2013,
    kernel_backend: str = "codegen",
) -> Dict[str, object]:
    """Run one benchmark suite; returns the JSON-serializable report."""
    if suite not in SUITE_SIZES:
        raise ValueError(
            f"unknown suite {suite!r}; pick one of {sorted(SUITE_SIZES)}"
        )
    sizes = SUITE_SIZES[suite]
    n, n_diags = sizes["banded"]
    band = banded.banded_matrix(n, n_diags, seed=seed)
    power = graphs.power_law_graph(sizes["powerlaw"], exponent=2.2, seed=seed)
    x = np.ones(band.n_cols, dtype=band.dtype)

    ops: Dict[str, Dict[str, object]] = {}

    def record(
        name: str,
        vec: Callable[[], object],
        loop: Optional[Callable[[], object]] = None,
        **extra: object,
    ) -> None:
        entry: Dict[str, object] = {
            "median_s": _time(vec, repeats),
        }
        if loop is not None:
            loop_s = _time(loop, loop_repeats, warmup=0)
            entry["loop_median_s"] = loop_s
            entry["speedup_vs_python_loop"] = (
                loop_s / entry["median_s"] if entry["median_s"] > 0 else 0.0
            )
        entry.update(extra)
        ops[name] = entry

    # -- conversions (the cold path's dominant cost) --------------------
    record(
        "convert/csr_to_ell",
        lambda: csr_to_ell(band, fill_budget=None),
        lambda: reference.csr_to_ell_loop(band, fill_budget=None),
    )
    record(
        "convert/csr_to_dia",
        lambda: csr_to_dia(band, fill_budget=None),
        lambda: reference.csr_to_dia_loop(band, fill_budget=None),
    )

    # -- Table 2 feature pass -------------------------------------------
    record(
        "features/structure",
        lambda: extract_structure_features(power),
        lambda: reference.extract_structure_features_loop(power),
    )

    # -- full plan build: extraction + conversion (a serve cache miss) --
    record(
        "plan/build",
        lambda: (
            extract_structure_features(band),
            csr_to_dia(band, fill_budget=None),
        ),
        lambda: (
            reference.extract_structure_features_loop(band),
            reference.csr_to_dia_loop(band, fill_budget=None),
        ),
    )

    # -- value refresh: tier-2 cache fast path vs a full retune ---------
    # Same structure, fresh values: the serving engine's value-churn case.
    # The retune side is what a tier-1 miss without the structure index
    # pays — feature extraction plus the conversion all over again.
    dia_donor, _ = csr_to_dia(band, fill_budget=None)
    churned = CSRMatrix(
        band.ptr, band.indices, band.data * 1.25, band.shape
    )
    dia_donor.refresh_values(churned)  # prime the cached scatter plan
    refresh_s = _time(lambda: dia_donor.refresh_values(churned), repeats)
    retune_s = _time(
        lambda: (
            extract_structure_features(churned),
            csr_to_dia(churned, fill_budget=None),
        ),
        repeats,
    )
    ops["plan/value_refresh"] = {
        "median_s": refresh_s,
        "retune_median_s": retune_s,
        "speedup_vs_retune": (
            retune_s / refresh_s if refresh_s > 0 else 0.0
        ),
    }

    # -- decision cascade: stage-0 interval walk vs full extraction -----
    # Selection only (no conversion, no measurement): the cascade's
    # cheap-feature walk against the same model walked over eagerly
    # extracted features.  The gate also demands *identical* format
    # choices — the interval walk is only allowed to be fast because it
    # escalates whenever the bounds cannot prove the full walk's answer.
    smat = SMAT.train(
        generate_collection(
            seed=CASCADE_TRAIN_SEED,
            scale=CASCADE_TRAIN_SCALE,
            size_scale=0.2,
        ),
        backend=SimulatedBackend(machine_platform("intel")),
    )
    corpus = []
    for kind, size, diags in CASCADE_CORPUS[suite]:
        if kind == "band":
            corpus.append(
                banded.banded_matrix(
                    size, diags, seed=seed, spread=(diags - 1) // 2
                )
            )
        else:
            corpus.append(
                graphs.power_law_graph(size, exponent=2.2, seed=seed)
            )
    selections = [
        cascade_select(mx, smat.model, smat.config) for mx in corpus
    ]
    baseline = [full_select(mx, smat.model) for mx in corpus]
    cascade_s = _time(
        lambda: [
            cascade_select(mx, smat.model, smat.config) for mx in corpus
        ],
        repeats,
    )
    full_s = _time(
        lambda: [full_select(mx, smat.model) for mx in corpus], repeats
    )
    ops["tune/cascade_overhead"] = {
        "median_s": cascade_s,
        "full_median_s": full_s,
        "speedup_vs_full_extraction": (
            full_s / cascade_s if cascade_s > 0 else 0.0
        ),
        "stage0_rate": (
            sum(s.stage == "cheap" for s in selections) / len(corpus)
        ),
        "quality_regressions": sum(
            s.format_name != b.format_name
            for s, b in zip(selections, baseline)
        ),
        "corpus": len(corpus),
    }

    # -- structure delta: incremental migration vs a cold retune --------
    # The serving engine's structure-churn patch path *after* the CSR
    # splice: maintain the Table 2 features from the delta's effect,
    # re-decide the format on the maintained features, and patch the
    # converted operand's touched rows in place.  Every policy pays the
    # same splice (O(nnz) copies plus a search over the touched rows);
    # plan/graph_delta below times the path with it.  The retune side is
    # what the same post-splice step costs without the delta machinery —
    # full feature extraction, the power-law fit, and a from-scratch
    # reconversion.  The edit batch is
    # degree-preserving so the ELL width survives and the in-place patch
    # (not the rebuild fallback) is what gets timed; the timed loop
    # alternates the delta with its inverse, so every pass does exactly
    # one honest forward migration and the features never drift.
    churn_base = (
        band
        if (n, n_diags) == DELTA_SIZES[suite]
        else banded.banded_matrix(*DELTA_SIZES[suite], seed=seed)
    )
    delta = _churn_delta(
        churn_base,
        np.random.default_rng(seed + 17),
        max(8, churn_base.nnz // 1024),
    )
    ell_donor, _ = csr_to_ell(churn_base, fill_budget=None)
    delta_feats = DeltaFeatures(churn_base)
    delta_csr, delta_effect = apply_delta(churn_base, delta)
    inverse_effect = DeltaEffect(
        shape=delta_effect.shape,
        added_rows=delta_effect.removed_rows,
        added_cols=delta_effect.removed_cols,
        removed_rows=delta_effect.added_rows,
        removed_cols=delta_effect.added_cols,
        updated_rows=delta_effect.updated_rows,
        updated_cols=delta_effect.updated_cols,
    )
    patched = patch_operand(ell_donor, delta_csr, delta_effect)
    rebuilt, _ = csr_to_ell(delta_csr, fill_budget=None)
    mismatches = _array_mismatches(patched.matrix, rebuilt)
    delta_feats.apply(delta_effect)
    maintained_fmt, _, _ = _model_walk(
        smat.model, delta_feats.seed_lazy(delta_csr)
    )
    format_regressions = int(
        maintained_fmt != full_select(delta_csr, smat.model).format_name
    )
    delta_feats.apply(inverse_effect)

    migrations = (
        (delta_effect, delta_csr, ell_donor),
        (inverse_effect, churn_base, patched.matrix),
    )
    flip = [0]

    def _delta_path():
        effect, target_csr, donor = migrations[flip[0]]
        flip[0] ^= 1
        delta_feats.apply(effect)
        _model_walk(smat.model, delta_feats.seed_lazy(target_csr))
        return patch_operand(donor, target_csr, effect)

    delta_s = _time(_delta_path, repeats, warmup=2)
    delta_retune_s = _time(
        lambda: (
            extract_structure_features(delta_csr),
            extract_powerlaw_feature(delta_csr),
            csr_to_ell(delta_csr, fill_budget=None),
        ),
        repeats,
    )
    ops["plan/delta_update"] = {
        "median_s": delta_s,
        "retune_median_s": delta_retune_s,
        "speedup_vs_retune": (
            delta_retune_s / delta_s if delta_s > 0 else 0.0
        ),
        "edits": int(delta.size),
        "delta_ratio": float(
            delta_effect.structural_size / max(churn_base.nnz, 1)
        ),
        "policy": patched.mode,
        "mismatches": int(mismatches),
        "format_regressions": format_regressions,
    }

    # -- per-format SpMV: vectorized kernels vs the *_basic loops -------
    vec = strategy_set(Strategy.VECTORIZE)
    csr_fast = find_kernel(FormatName.CSR, vec)
    csr_slow = find_kernel(FormatName.CSR, strategy_set())
    record(
        "spmv/csr",
        lambda: csr_fast(band, x),
        lambda: csr_slow(band, x),
    )
    ell, _ = csr_to_ell(band, fill_budget=None)
    ell_fast = find_kernel(FormatName.ELL, vec)
    ell_slow = find_kernel(FormatName.ELL, strategy_set())
    record("spmv/ell", lambda: ell_fast(ell, x), lambda: ell_slow(ell, x))
    dia, _ = csr_to_dia(band, fill_budget=None)
    dia_fast = find_kernel(FormatName.DIA, vec)
    dia_slow = find_kernel(FormatName.DIA, strategy_set())
    record("spmv/dia", lambda: dia_fast(dia, x), lambda: dia_slow(dia, x))

    # -- codegen backend: generated kernels vs the generic registry -----
    # Each family converts the suite matrix to its format, generates the
    # specialized kernel (structure folded as literals), and times it
    # against the generic vectorized kernel on the same operand.  The
    # ``mismatches`` count is a correctness tripwire on top of the
    # 200-seed differential sweep in tests/test_codegen_differential.py.
    if kernel_backend == "generic":
        for name in CODEGEN_OPS:
            ops[name] = {"skipped": "kernel backend 'generic' selected"}
    else:
        from repro.kernels.codegen import generate_kernel

        vec = strategy_set(Strategy.VECTORIZE)
        for name, fmt in CODEGEN_OPS.items():
            converted, _ = convert(band, fmt, fill_budget=None)
            generic = find_kernel(fmt, vec)
            generated = generate_kernel(converted)
            xc = np.ones(converted.n_cols, dtype=converted.dtype)
            y_generic = generic(converted, xc)
            y_generated = generated(converted, xc)
            mismatches = int(np.sum(
                ~np.isclose(y_generated, y_generic, rtol=1e-9, atol=1e-12)
            ))
            # Interleaved best-of-trials: a single median per kernel is
            # noisy on shared runners, and the floor check compares two
            # absolute timings.  Alternating the two kernels and keeping
            # each one's best median cancels drift that would otherwise
            # skew whichever side happened to run during a busy slice.
            gen_trials, base_trials = [], []
            for _ in range(CODEGEN_TIMING_TRIALS):
                gen_trials.append(_time(
                    lambda k=generated, m=converted: k(m, xc), repeats
                ))
                base_trials.append(_time(
                    lambda k=generic, m=converted: k(m, xc), repeats
                ))
            gen_s = min(gen_trials)
            base_s = min(base_trials)
            ops[name] = {
                "median_s": gen_s,
                "generic_median_s": base_s,
                "speedup_vs_generic": base_s / gen_s if gen_s > 0 else 0.0,
                "mismatches": mismatches,
                "kernel": generated.name,
            }

    # -- SpMM: one multi-RHS pass vs k sequential SpMVs -----------------
    # The serving layer's batched fast path: the baseline is the *tuned*
    # vectorized SpMV run column by column, so the speedup isolates the
    # operand-traffic amortisation the batching buys, not loop overhead.
    rng = np.random.default_rng(seed)
    spmm_cases = (
        ("csr", band, csr_fast, csr_spmm),
        ("ell", ell, ell_fast, ell_spmm),
        ("dia", dia, dia_fast, dia_spmm),
    )
    for batch in SPMM_BATCH_SIZES:
        X = rng.standard_normal((band.n_cols, batch))
        for fmt, matrix, spmv_kernel, spmm_kernel in spmm_cases:

            def sequential(m=matrix, kern=spmv_kernel):
                Y = np.empty((m.n_rows, batch), dtype=m.dtype)
                for j in range(batch):
                    Y[:, j] = kern(m, X[:, j])
                return Y

            spmm_s = _time(
                lambda m=matrix, kern=spmm_kernel: kern(m, X), repeats
            )
            seq_s = _time(sequential, repeats)
            ops[f"spmm/{fmt}_b{batch}"] = {
                "median_s": spmm_s,
                "sequential_median_s": seq_s,
                "speedup_vs_sequential_spmv": (
                    seq_s / spmm_s if spmm_s > 0 else 0.0
                ),
                "batch": batch,
            }

    # -- structure delta, whole path: the splice included ---------------
    # What the serving engine pays for a patched delta on a power-law
    # graph: the CSR splice, folding the effect into maintained
    # features, the maintained-feature re-decision and the operand
    # patch.  The retune side is the same splice followed by a cold
    # extraction and a reconversion.  Unlike the banded delta_update
    # case, a graph has a diagonal census that grows with the matrix, so
    # a census or splice that scales with nnz shows here.  Deltas are
    # GRAPH_DELTA_SHARE of nnz and alternate with their inverse, so the
    # features never drift.  It runs after the SpMM section so its
    # allocations do not shift the gated SpMM timings.
    graph_fmt = cascade_select(power, smat.model, smat.config).format_name
    churn = max(2, int(GRAPH_DELTA_SHARE * power.nnz))
    graph_delta = evolving_graph_delta(
        power,
        np.random.default_rng(seed + 23),
        inserts=churn - churn // 2,
        deletes=churn // 2,
    )
    undo = _inverse_delta(power, graph_delta)
    graph_csr, graph_effect = apply_delta(power, graph_delta)
    restored, undo_effect = apply_delta(graph_csr, undo)
    graph_donor, _ = convert(power, graph_fmt, smat.config.fill_budget)
    graph_patched = patch_operand(graph_donor, graph_csr, graph_effect)
    graph_rebuilt, _ = convert(graph_csr, graph_fmt, smat.config.fill_budget)
    graph_feats = DeltaFeatures(power)
    graph_feats.apply(graph_effect)
    graph_redecided = cascade_select(
        graph_csr, smat.model, smat.config, features=graph_feats
    ).format_name
    graph_feats.apply(undo_effect)
    graph_ndiags = graph_feats.structure_snapshot()["ndiags"]
    graph_steps = (
        (power, graph_delta, graph_donor),
        (graph_csr, undo, graph_patched.matrix),
    )
    delta_steps = itertools.cycle(graph_steps)
    retune_steps = itertools.cycle(graph_steps)

    def _graph_delta_path():
        source, step, donor = next(delta_steps)
        new_csr, effect = apply_delta(source, step)
        graph_feats.apply(effect)
        cascade_select(new_csr, smat.model, smat.config, features=graph_feats)
        return patch_operand(donor, new_csr, effect)

    def _graph_retune_path():
        source, step, _ = next(retune_steps)
        new_csr, _ = apply_delta(source, step)
        return (
            extract_structure_features(new_csr),
            extract_powerlaw_feature(new_csr),
            convert(new_csr, graph_fmt, smat.config.fill_budget),
        )

    graph_s = _time(_graph_delta_path, repeats, warmup=2)
    graph_retune_s = _time(_graph_retune_path, repeats, warmup=2)
    ops["plan/graph_delta"] = {
        "median_s": graph_s,
        "retune_median_s": graph_retune_s,
        "speedup_vs_retune": (
            graph_retune_s / graph_s if graph_s > 0 else 0.0
        ),
        "edits": int(graph_delta.size),
        "ndiags": graph_ndiags,
        "format": graph_fmt.value,
        "policy": graph_patched.mode,
        "mismatches": _array_mismatches(graph_patched.matrix, graph_rebuilt)
        + _array_mismatches(restored, power),
        "format_regressions": int(
            graph_redecided
            != full_select(graph_csr, smat.model).format_name
        ),
    }

    return {
        "bench": "perf_regression",
        "suite": suite,
        "repeats": repeats,
        "matrix": {
            "banded": {"n": n, "n_diags": n_diags, "nnz": band.nnz},
            "powerlaw": {"n": sizes["powerlaw"], "nnz": power.nnz},
        },
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "ops": ops,
    }


def check_speedups(
    report: Dict[str, object], min_speedup: float
) -> List[str]:
    """Failure messages for gated ops below ``min_speedup`` (empty = pass)."""
    failures = []
    ops = report["ops"]
    for name in GATED_OPS:
        entry = ops.get(name)
        key = next(
            (k for k in SPEEDUP_KEYS if entry is not None and k in entry),
            None,
        )
        if key is None:
            failures.append(f"{name}: no speedup recorded")
            continue
        speedup = float(entry[key])
        if speedup < min_speedup:
            failures.append(
                f"{name}: {speedup:.1f}x < required {min_speedup:.1f}x"
            )
    delta = ops.get("plan/delta_update")
    if delta is not None:
        if int(delta.get("mismatches", 1)):
            failures.append(
                f"plan/delta_update: patched operand differs from the "
                f"from-scratch reconversion in "
                f"{int(delta.get('mismatches', 1))} arrays (the patch "
                "must be bitwise-equal)"
            )
        if int(delta.get("format_regressions", 1)):
            failures.append(
                "plan/delta_update: maintained features re-decide a "
                "different format than a full extraction of the mutated "
                "matrix"
            )
        if delta.get("policy") != "patched":
            failures.append(
                f"plan/delta_update: operand took the "
                f"'{delta.get('policy')}' path — the benchmark delta "
                "must exercise the in-place patch"
            )
    graph = ops.get("plan/graph_delta")
    if graph is not None:
        if int(graph.get("mismatches", 1)):
            failures.append(
                f"plan/graph_delta: {int(graph.get('mismatches', 1))} "
                "arrays differ between the patched and the reconverted "
                "operand, or between the base graph and its delta undone"
            )
        if int(graph.get("format_regressions", 1)):
            failures.append(
                "plan/graph_delta: maintained features re-decide a "
                "different format than a full extraction of the mutated "
                "graph"
            )
    cascade = ops.get("tune/cascade_overhead")
    if cascade is not None and int(cascade.get("quality_regressions", 1)):
        failures.append(
            f"tune/cascade_overhead: "
            f"{int(cascade.get('quality_regressions', 1))} format choices "
            "differ from full extraction (the cascade may only be fast, "
            "never wrong)"
        )
    for name, floor in SPMM_GATES.items():
        entry = ops.get(name)
        if entry is None or "speedup_vs_sequential_spmv" not in entry:
            failures.append(f"{name}: no speedup recorded")
            continue
        speedup = float(entry["speedup_vs_sequential_spmv"])
        if speedup < floor:
            failures.append(
                f"{name}: {speedup:.1f}x < required {floor:.1f}x "
                "(fixed SpMM floor)"
            )
    failures.extend(_check_codegen(report))
    return failures


def _check_codegen(report: Dict[str, object]) -> List[str]:
    """Gate the ``codegen/`` section: correctness always, floor at scale.

    A generated kernel that disagrees with the generic kernel fails on
    every suite.  Every structured family must clear the
    :data:`CODEGEN_SPEEDUP_FLOOR`, but only on
    :data:`CODEGEN_GATED_SUITES` — and only when the section was measured
    at all (``--kernel-backend generic`` records it skipped).
    """
    failures: List[str] = []
    ops = report["ops"]
    measured = {
        name: ops[name]
        for name in CODEGEN_OPS
        if name in ops and "skipped" not in ops[name]
    }
    if not measured:
        return failures
    for name, entry in measured.items():
        if int(entry.get("mismatches", 0)):
            failures.append(
                f"{name}: generated kernel disagrees with the generic "
                f"kernel on {entry['mismatches']} entries"
            )
    if report.get("suite") not in CODEGEN_GATED_SUITES:
        return failures
    for name, entry in measured.items():
        speedup = float(entry.get("speedup_vs_generic", 0.0))
        if speedup < CODEGEN_SPEEDUP_FLOOR:
            failures.append(
                f"{name}: {speedup:.2f}x < required "
                f"{CODEGEN_SPEEDUP_FLOOR:.1f}x over generic"
            )
    return failures


def format_report(report: Dict[str, object]) -> str:
    """Fixed-width text table of one benchmark report."""
    lines = [
        f"perf-regression suite '{report['suite']}' "
        f"(numpy {report['host']['numpy']}, "
        f"{report['host']['cpu_count']} cpu)",
        f"{'op':26s} {'median':>10s} {'loop ref':>10s} {'speedup':>9s}",
    ]
    for name, entry in report["ops"].items():
        if "skipped" in entry:
            lines.append(f"{name:26s} {'skipped':>10s}  ({entry['skipped']})")
            continue
        median = _fmt_seconds(float(entry["median_s"]))
        if "loop_median_s" in entry:
            loop = _fmt_seconds(float(entry["loop_median_s"]))
            speed = f"{float(entry['speedup_vs_python_loop']):.1f}x"
        elif "retune_median_s" in entry:
            loop = _fmt_seconds(float(entry["retune_median_s"]))
            speed = f"{float(entry['speedup_vs_retune']):.1f}x"
        elif "full_median_s" in entry:
            loop = _fmt_seconds(float(entry["full_median_s"]))
            speed = f"{float(entry['speedup_vs_full_extraction']):.1f}x"
        elif "sequential_median_s" in entry:
            loop = _fmt_seconds(float(entry["sequential_median_s"]))
            speed = f"{float(entry['speedup_vs_sequential_spmv']):.2f}x"
        elif "generic_median_s" in entry:
            loop = _fmt_seconds(float(entry["generic_median_s"]))
            speed = f"{float(entry['speedup_vs_generic']):.2f}x"
        else:
            loop, speed = "-", "-"
        lines.append(f"{name:26s} {median:>10s} {loop:>10s} {speed:>9s}")
    return "\n".join(lines)


def write_report(report: Dict[str, object], out: Path) -> None:
    """Write the report, keeping any ``serve/*`` sections already at ``out``.

    ``serve-bench --bench-json`` merges its serving numbers (``fan_in``,
    ``structure_churn``, any future section) into the same file; a
    bench-perf rerun must not drop any of them.  The merge is per key so
    a report that somehow carries its own ``serve`` entries wins over
    stale ones.
    """
    if out.exists():
        try:
            existing = json.loads(out.read_text())
        except (ValueError, OSError):
            existing = None
        if isinstance(existing, dict) and isinstance(
            existing.get("serve"), dict
        ):
            report = dict(report)
            serve = dict(existing["serve"])
            serve.update(report.get("serve") or {})
            report["serve"] = serve
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _fmt_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.2f}s"


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """Standalone entry point (used by benchmarks/bench_perf_regression.py)."""
    from repro.cli import main as cli_main

    return cli_main(["bench-perf"] + list(argv or sys.argv[1:]))
