"""Command-line interface: the offline pipeline and quick predictions.

``python -m repro <command>``:

* ``build-db``   — generate + label the synthetic collection into a JSONL
  feature database (the expensive offline measurement step),
* ``train``      — train the ruleset model from a feature database and save
  the reusable SMAT artifacts (model.json + kernels.json),
* ``predict``    — decide the format for a Matrix Market file (or a built-in
  demo matrix) with a saved model,
* ``evaluate``   — confusion matrix / per-class report of a saved model on
  a feature database,
* ``stats``      — domain and format-affinity distribution of a database,
* ``serve-bench``— replay a synthetic workload (popularity-skewed, value
  churn, same-matrix fan-in bursts or an evolving graph) through the
  ``repro.serve`` engine, verify every product and print the scoreboard
  (``--trace`` captures the replay as a Chrome trace; ``--bench-json``
  records a serving section into ``BENCH_perf.json``),
* ``trace``      — route one matrix through the serving engine with
  tracing on and print the span tree + per-stage overhead report,
* ``bench-perf`` — time the vectorized cold path (conversions, feature
  extraction, plan build, SpMV kernels) against the retained Python-loop
  references and write ``BENCH_perf.json``.

Every command prints what it did and where artifacts landed; all
randomness is seeded, so runs are reproducible.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.types import Precision


def build_parser() -> argparse.ArgumentParser:
    from repro.serve.faults import SITES
    from repro.util.version import package_version

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SMAT sparse SpMV auto-tuner (PLDI 2013 reproduction)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    db = sub.add_parser("build-db", help="generate + label the collection")
    db.add_argument("--out", type=Path, required=True,
                    help="output JSONL feature database")
    db.add_argument("--scale", type=float, default=0.1,
                    help="fraction of the 2376-matrix collection (default 0.1)")
    db.add_argument("--size-scale", type=float, default=0.5,
                    help="matrix size multiplier (default 0.5)")
    db.add_argument("--platform", default="intel", choices=["intel", "amd"])
    db.add_argument("--precision", default="double",
                    choices=["single", "double"])
    db.add_argument("--seed", type=int, default=2013)

    train = sub.add_parser("train", help="train a model from a database")
    train.add_argument("--db", type=Path, required=True)
    train.add_argument("--out", type=Path, required=True,
                       help="output directory for model.json/kernels.json")
    train.add_argument("--platform", default="intel",
                       choices=["intel", "amd"])
    train.add_argument("--min-leaf", type=int, default=8)
    train.add_argument("--max-depth", type=int, default=10)
    train.add_argument("--show-rules", action="store_true")

    predict = sub.add_parser("predict", help="decide a matrix's format")
    predict.add_argument("--model", type=Path, required=True)
    source = predict.add_mutually_exclusive_group(required=True)
    source.add_argument("--mtx", type=Path, help="Matrix Market file")
    source.add_argument(
        "--demo",
        choices=["banded", "uniform", "powerlaw", "random"],
        help="synthesize a demo matrix instead of reading one",
    )
    predict.add_argument("--platform", default="intel",
                         choices=["intel", "amd"])

    evaluate = sub.add_parser("evaluate", help="report model accuracy")
    evaluate.add_argument("--model", type=Path, required=True)
    evaluate.add_argument("--db", type=Path, required=True)

    stats = sub.add_parser("stats", help="database distribution summary")
    stats.add_argument("--db", type=Path, required=True)

    serve = sub.add_parser(
        "serve-bench",
        help="replay a synthetic workload through the serving engine",
    )
    serve.add_argument("--matrices", type=int, default=20,
                       help="distinct matrices in the pool (default 20)")
    serve.add_argument("--requests", type=int, default=400,
                       help="total SpMV requests to replay (default 400)")
    serve.add_argument("--clients", type=int, default=4,
                       help="concurrent client threads (default 4)")
    serve.add_argument("--workers", type=int, default=4,
                       help="engine worker threads (default 4)")
    serve.add_argument("--bench-json", type=Path, default=None,
                       metavar="PATH", dest="bench_json",
                       help="needs --fan-in or --structure-churn: merge a "
                            "serve/fan_in or serve/structure_churn section "
                            "into the BENCH_perf.json-style report at "
                            "PATH; --fan-in first replays an unbatched "
                            "baseline")
    serve.add_argument("--fan-in", type=int, default=None,
                       metavar="N", dest="fan_in",
                       help="fan-in mode: submit same-matrix bursts of N "
                            "requests each (--requests total, round-robin "
                            "over the pool), each burst stacked into one "
                            "SpMM where the plan's measured verdict says "
                            "SpMM wins; with --bench-json the same bursts are "
                            "also replayed unbatched for the throughput "
                            "ratio")
    serve.add_argument("--cache-entries", type=int, default=64,
                       help="plan-cache entry cap (default 64)")
    serve.add_argument("--train-scale", type=float, default=0.05,
                       help="training collection fraction (default 0.05)")
    serve.add_argument("--online", action="store_true",
                       help="serve through OnlineSmat (learn from fallbacks)")
    serve.add_argument("--online-retrain", action="store_true",
                       dest="online_retrain",
                       help="closed-loop mode (implies --online): force "
                            "execute-and-measure on every cold decision so "
                            "serve records accumulate fast, retrain every "
                            "few records, and require the engine to observe "
                            "a ruleset hot-swap mid-replay (exits non-zero "
                            "if no retrain or no swap happened)")
    serve.add_argument("--tune-budget", type=float, default=None,
                       metavar="UNITS", dest="tune_budget",
                       help="per-decision overhead budget in CSR-SpMV "
                            "units; enables the staged decision cascade "
                            "(cheap bounds -> full extraction -> "
                            "execute-and-measure -> CSR floor)")
    serve.add_argument("--value-churn", type=int, default=None,
                       metavar="N", dest="value_churn",
                       help="value-churn mode: serve N value updates per "
                            "matrix (same sparsity structure, fresh values, "
                            "each exactly once; --requests is ignored) to "
                            "exercise the structure-keyed plan-refresh fast "
                            "path")
    serve.add_argument("--no-structure-cache", action="store_true",
                       help="disable the tier-2 structure index (every "
                            "value update pays a full plan build; the "
                            "baseline for --value-churn comparisons)")
    serve.add_argument("--structure-churn", type=int, default=None,
                       metavar="N", dest="structure_churn",
                       help="structure-churn mode: stream one evolving "
                            "power-law graph through the engine for N "
                            "steps, each serving a burst of SpMVs and then "
                            "applying an edge insert/delete delta via the "
                            "plan-migration path (patch / refresh / retune; "
                            "--requests sets the total serve count, spread "
                            "over the steps)")
    serve.add_argument("--churn-nodes", type=int, default=600,
                       metavar="M", dest="churn_nodes",
                       help="needs --structure-churn: node count of the "
                            "evolving graph (default 600)")
    serve.add_argument("--churn-fraction", type=float, default=0.02,
                       metavar="F", dest="churn_fraction",
                       help="needs --structure-churn: per-step edge churn "
                            "as a fraction of current nnz (default 0.02; "
                            "small fractions exercise the in-place patch "
                            "policy, large ones force retunes)")
    serve.add_argument("--deadline", type=float, default=None,
                       help="end-to-end per-request deadline in seconds "
                            "(queue wait + plan build + execute)")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="retries for transient execute failures "
                            "(default 2)")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive plan-build failures that open a "
                            "fingerprint's circuit breaker (default 3)")
    serve.add_argument("--faults", action="append", default=None,
                       metavar="SPEC",
                       help="inject deterministic faults for chaos replay; "
                            "SPEC is 'SITE[,key=value...]' with SITE in "
                            "{" + ",".join(SITES) + "}, e.g. "
                            "'decide,rate=0.5,stop=20' or "
                            "'execute,kind=latency,latency=0.002'; "
                            "repeatable")
    serve.add_argument("--kernel-backend", default="generic",
                       choices=["generic", "codegen"],
                       help="kernel backend for plan builds (default "
                            "generic); codegen compiles a per-matrix "
                            "specialized kernel into each plan when it "
                            "beats the registry kernel")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed for probabilistic fault rules (default 0)")
    serve.add_argument("--trace", type=Path, default=None, metavar="OUT",
                       help="capture the replay with repro.obs and write a "
                            "Chrome trace-event JSON to OUT (open in "
                            "chrome://tracing or Perfetto); also prints the "
                            "per-stage overhead report")
    serve.add_argument("--platform", default="intel",
                       choices=["intel", "amd"])
    serve.add_argument("--seed", type=int, default=2013)

    trace = sub.add_parser(
        "trace",
        help="trace one matrix end to end through the serving engine",
    )
    trace.add_argument(
        "matrix",
        help="Matrix Market file, or a demo name "
             "(banded, uniform, powerlaw, random)",
    )
    trace.add_argument("--requests", type=int, default=3,
                       help="requests to serve for the same matrix "
                            "(default 3: cold build + cache hits)")
    trace.add_argument("--out", type=Path, default=None,
                       help="write a Chrome trace-event JSON here")
    trace.add_argument("--jsonl", type=Path, default=None,
                       help="write one span per line as JSONL here")
    trace.add_argument("--train-scale", type=float, default=0.05,
                       help="training collection fraction (default 0.05)")
    trace.add_argument("--platform", default="intel",
                       choices=["intel", "amd"])
    trace.add_argument("--seed", type=int, default=2013)

    bench = sub.add_parser(
        "bench-perf",
        help="perf-regression benchmark of the vectorized cold path",
    )
    bench.add_argument("--out", type=Path, default=Path("BENCH_perf.json"),
                       help="output JSON report (default BENCH_perf.json)")
    bench.add_argument("--suite", default="quick",
                       choices=["smoke", "quick"],
                       help="benchmark suite (default quick, the CI run)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="timed repeats per vectorized op (default 3)")
    bench.add_argument("--assert-speedup", type=float, default=None,
                       metavar="X",
                       help="exit 1 unless CSR->ELL and CSR->DIA conversion "
                            "beat the loop reference by at least Xx")
    bench.add_argument("--kernel-backend", default="codegen",
                       choices=["generic", "codegen"],
                       help="measure the codegen/ section (default codegen; "
                            "generic records the section as skipped)")
    bench.add_argument("--seed", type=int, default=2013)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "build-db": _cmd_build_db,
        "train": _cmd_train,
        "predict": _cmd_predict,
        "evaluate": _cmd_evaluate,
        "stats": _cmd_stats,
        "serve-bench": _cmd_serve_bench,
        "trace": _cmd_trace,
        "bench-perf": _cmd_bench_perf,
    }[args.command]
    return handler(args)


# ---------------------------------------------------------------------------

def _backend(platform_name: str, precision_name: str = "double"):
    from repro.machine import SimulatedBackend, platform

    return SimulatedBackend(
        platform(platform_name), Precision(precision_name)
    )


def _cmd_build_db(args: argparse.Namespace) -> int:
    from repro.collection import generate_collection
    from repro.features import extract_features
    from repro.io import FeatureDatabase, FeatureRecord
    from repro.tuner import search_kernels
    from repro.tuner.smat import label_matrix

    backend = _backend(args.platform, args.precision)
    kernels = search_kernels(backend)
    records = []
    for spec, matrix in generate_collection(
        seed=args.seed, scale=args.scale, size_scale=args.size_scale
    ):
        features = extract_features(matrix)
        label = label_matrix(matrix, features, kernels, backend)
        records.append(
            FeatureRecord(spec.name, spec.domain, features.with_label(label))
        )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    FeatureDatabase(args.out).write_all(records)
    print(f"labelled {len(records)} matrices -> {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.io import FeatureDatabase
    from repro.tuner import SMAT

    dataset = FeatureDatabase(args.db).to_dataset()
    if len(dataset) == 0:
        print(f"error: empty feature database {args.db}", file=sys.stderr)
        return 1
    backend = _backend(args.platform)
    smat = SMAT.from_dataset(
        dataset, backend=backend,
        min_leaf=args.min_leaf, max_depth=args.max_depth,
    )
    smat.save(args.out)
    print(
        f"trained on {len(dataset)} records "
        f"(training accuracy {smat.model.training_accuracy:.1%}); "
        f"saved to {args.out}"
    )
    if args.show_rules:
        print(smat.model.grouped.describe())
    return 0


def _demo_matrix(kind: str):
    from repro.collection import banded, graphs, random_sparse

    if kind == "banded":
        return banded.banded_matrix(4000, 7, seed=1)
    if kind == "uniform":
        return graphs.uniform_bipartite(5000, 5000, 3, seed=2)
    if kind == "powerlaw":
        return graphs.power_law_graph(6000, exponent=2.2, seed=3)
    return random_sparse.uniform_random(4000, 4000, 10.0, seed=4)


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.io import read_matrix_market
    from repro.tuner import SMAT

    backend = _backend(args.platform)
    smat = SMAT.load(args.model, backend=backend)
    if args.mtx is not None:
        matrix = read_matrix_market(args.mtx)
        source = str(args.mtx)
    else:
        matrix = _demo_matrix(args.demo)
        source = f"demo:{args.demo}"
    decision = smat.decide(matrix)
    path = "execute-and-measure" if decision.used_fallback else "model"
    print(f"matrix     : {source} ({matrix.n_rows}x{matrix.n_cols}, "
          f"{matrix.nnz} nnz)")
    print(f"prediction : {decision.predicted_format.value} "
          f"(confidence {decision.confidence:.2f}, via {path})")
    print(f"chosen     : {decision.format_name.value} "
          f"[{decision.kernel.name}]")
    print(f"overhead   : {decision.overhead_units:.1f} CSR-SpMVs")
    if decision.matched_rule is not None:
        print(f"rule       : {decision.matched_rule}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.io import FeatureDatabase
    from repro.learning.model import LearningModel
    from repro.learning.report import evaluate

    model = LearningModel.load(Path(args.model) / "model.json")
    dataset = FeatureDatabase(args.db).to_dataset()
    if len(dataset) == 0:
        print(f"error: empty feature database {args.db}", file=sys.stderr)
        return 1
    report = evaluate(model.predict_format, dataset)
    print(report.describe())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.io import FeatureDatabase

    db = FeatureDatabase(args.db)
    records = list(db)
    if not records:
        print(f"error: empty feature database {args.db}", file=sys.stderr)
        return 1
    formats = Counter(r.features.best_format.value for r in records)
    domains = Counter(r.domain for r in records)
    total = len(records)
    print(f"{total} records")
    print("format affinity:")
    for fmt, count in formats.most_common():
        print(f"  {fmt:5s} {count:5d} ({100 * count / total:.0f}%)")
    print("top domains:")
    for domain, count in domains.most_common(8):
        print(f"  {domain:35s} {count:5d}")
    return 0


def _serve_bench_refusal(args: argparse.Namespace) -> Optional[str]:
    """Why serve-bench refuses these flags, or None: one table of
    conflicts, dependencies and ranges."""

    def given(flag: str) -> bool:
        value = getattr(args, flag[2:].replace("-", "_"))
        return value is not None and value is not False

    for flag, others in (
        ("--structure-churn", ("--fan-in", "--value-churn", "--online")),
        ("--fan-in", ("--value-churn", "--online")),
    ):
        for other in others:
            if given(flag) and given(other):
                return f"{flag} cannot be combined with {other}"
    churn = given("--structure-churn")
    if given("--bench-json") and not (given("--fan-in") or churn):
        return "--bench-json needs --fan-in or --structure-churn"
    for flag, value, ok, bound in (
        ("--tune-budget", args.tune_budget, lambda v: v > 0, "> 0"),
        ("--fan-in", args.fan_in, lambda v: v >= 1, ">= 1"),
        ("--value-churn", args.value_churn, lambda v: v >= 2,
         ">= 2 (one base build plus at least one value update)"),
        ("--structure-churn", args.structure_churn, lambda v: v >= 2,
         ">= 2 (at least one delta between serve rounds)"),
        ("--churn-fraction", args.churn_fraction if churn else None,
         lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
        ("--churn-nodes", args.churn_nodes if churn else None,
         lambda v: v >= 16, ">= 16"),
    ):
        if value is not None and not ok(value):
            return f"{flag} ({value}) must be {bound}"
    # Only the popularity schedule covers every pool matrix.
    popularity = not (given("--fan-in") or given("--value-churn") or churn)
    if popularity and args.requests < args.matrices:
        return (f"--requests ({args.requests}) must be >= --matrices "
                f"({args.matrices}) so every matrix is requested at least "
                f"once")
    return None


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import os
    from contextlib import nullcontext
    from dataclasses import replace

    from repro import obs
    from repro.collection import generate_collection
    from repro.serve import (
        FaultPlan,
        ServeConfig,
        ServingEngine,
        build_matrix_pool,
        churn_schedule,
        evolving_graph_ops,
        fan_in_ops,
        popularity_schedule,
        replay,
        schedule_ops,
        value_churn_pool,
    )
    from repro.serve.workload import Burst
    from repro.tuner import SMAT, OnlineSmat

    if args.online_retrain:
        args.online = True
    refusal = _serve_bench_refusal(args)
    if refusal is not None:
        print(f"error: {refusal}", file=sys.stderr)
        return 1
    faults = None
    if args.faults:
        try:
            faults = FaultPlan.parse(args.faults, seed=args.fault_seed)
        except ValueError as exc:
            print(f"error: bad --faults spec: {exc}", file=sys.stderr)
            return 1

    print(f"training tuner (scale {args.train_scale}, {args.platform})...")
    tuner = SMAT.train(
        generate_collection(
            seed=args.seed, scale=args.train_scale, size_scale=0.4
        ),
        backend=_backend(args.platform),
    )
    overrides = {}
    if args.tune_budget is not None:
        overrides["tune_budget_units"] = args.tune_budget
    if args.kernel_backend != "generic":
        # Let the tuner specialize during decide() (budget-charged); the
        # engine's own backend pass is then a no-op that just counts.
        overrides["kernel_backend"] = args.kernel_backend
    if args.online_retrain:
        # Force every cold decision through execute-and-measure so the
        # replay generates labelled records fast, and retrain after a
        # handful of them — the point is to observe a hot-swap, not to
        # win the benchmark.
        overrides["confidence_threshold"] = 1.0
    tuner.config = replace(tuner.config, **overrides)
    if args.online_retrain:
        tuner = OnlineSmat(tuner, retrain_every=max(2, args.matrices // 4))
    elif args.online:
        tuner = OnlineSmat(tuner)

    if args.structure_churn is not None:
        steps = args.structure_churn
        serves = max(1, args.requests // steps)
        ops = evolving_graph_ops(
            args.churn_nodes, steps, serves, args.churn_fraction,
            seed=args.seed,
        )
    else:
        pool = build_matrix_pool(args.matrices, seed=args.seed)
        if args.fan_in is not None:
            bursts = max(1, args.requests // args.fan_in)
            ops = fan_in_ops(pool, bursts, args.fan_in, seed=args.seed)
        else:
            if args.value_churn is not None:
                pool = value_churn_pool(pool, args.value_churn, args.seed)
                schedule = churn_schedule(
                    args.matrices, args.value_churn, seed=args.seed
                )
            else:
                schedule = popularity_schedule(
                    args.matrices, args.requests, seed=args.seed
                )
            ops = schedule_ops(pool, schedule, args.clients, args.seed)
    total = sum(len(op.xs) for client in ops for op in client
                if isinstance(op, Burst))

    config = ServeConfig(
        workers=args.workers,
        cache_entries=args.cache_entries,
        default_deadline=args.deadline,
        max_retries=args.max_retries,
        breaker_threshold=args.breaker_threshold,
        structure_cache=not args.no_structure_cache,
        max_batch_rhs=args.fan_in or 1,
        kernel_backend=args.kernel_backend,
    )

    def run(engine, tracer=None):
        traced = nullcontext() if tracer is None else obs.installed(tracer)
        with traced, engine:
            return replay(engine, ops)

    # The --fan-in --bench-json baseline: the same ops on an engine that
    # never stacks a burst into an SpMM.
    baseline = None
    if args.bench_json is not None and args.fan_in is not None:
        print(f"replaying {total} requests on the unbatched baseline...")
        baseline = run(ServingEngine(
            tuner, replace(config, max_batch_rhs=1), faults=faults
        ))
        print(f"baseline   : {baseline.requests} requests in "
              f"{baseline.wall_seconds:.2f}s "
              f"({baseline.throughput_rps:.0f} req/s)")

    print(f"replaying {total} requests: clients {len(ops)}, "
          f"workers {args.workers}...")
    engine = ServingEngine(tuner, config, faults=faults)
    tracer = None
    if args.trace is not None:
        tracer = obs.Tracer(sink=obs.metrics_sink(engine.metrics))
    report = run(engine, tracer)
    if tracer is not None:
        from repro.obs.export import write_chrome_trace
        from repro.obs.report import overhead_report

        roots = tracer.roots()
        events = write_chrome_trace(roots, args.trace)
        print()
        print(overhead_report(roots).describe())
        print(f"wrote {events} trace events -> {args.trace}")

    counters = engine.metrics.snapshot()["counters"]

    def count(name: str) -> int:
        return int(counters.get(name, 0))

    print()
    print(engine.scoreboard())
    print()
    print(f"served     : {report.requests} requests "
          f"in {report.wall_seconds:.2f}s "
          f"({report.throughput_rps:.0f} req/s)")
    print(f"verified   : {report.requests - report.mismatches}/"
          f"{report.requests} products match the reference kernel")
    print(f"failed     : {len(report.errors)} requests, {report.dropped} "
          f"dropped without a reply")
    batches = count("spmm_batches_total")
    batched = count("spmm_requests_batched")
    unstacked = count("spmm_groups_unstacked")
    if args.fan_in is not None:
        print(f"batching   : {batches} SpMM batches covering {batched} "
              f"requests "
              f"(mean width {batched / batches if batches else 0.0:.1f}), "
              f"{unstacked} groups served per request")
    migrated = count("delta_patches") + count("delta_refreshes")
    if args.structure_churn is not None:
        print(f"deltas     : {count('deltas_applied')} applied — "
              f"{count('delta_patches')} patched in place, "
              f"{count('delta_refreshes')} operand-refreshed, "
              f"{count('delta_retunes')} retuned")
    if args.online:
        print(f"online     : {tuner.observations} fallback records, "
              f"{tuner.retrain_count} retrains")
    if args.online_retrain:
        print(f"hot-swap   : {count('ruleset_swaps')} ruleset swaps "
              f"observed by the engine (model epoch {tuner.model_epoch})")
    speedup = 1.0
    if baseline is not None:
        speedup = (report.throughput_rps / baseline.throughput_rps
                   if baseline.throughput_rps > 0 else 0.0)
        print(f"speedup    : {speedup:.2f}x throughput vs unbatched"
              f" (host has {os.cpu_count() or 1} cpu)")

    if args.bench_json is not None:
        section = {
            "mismatches": report.mismatches,
            "failed_requests": len(report.errors),
        }
        if args.fan_in is not None:
            name = "fan_in"
            section.update(
                fan_in=args.fan_in,
                bursts=bursts,
                requests=total,
                matrices=args.matrices,
                workers=args.workers,
                max_batch_rhs=args.fan_in,
                dropped_requests=report.dropped,
                spmm_batches_total=batches,
                spmm_requests_batched=batched,
                spmm_groups_unstacked=unstacked,
                batched_throughput_rps=report.throughput_rps,
                unbatched_throughput_rps=baseline.throughput_rps,
                speedup_vs_unbatched=speedup,
            )
        else:
            name = "structure_churn"
            section.update(
                nodes=args.churn_nodes,
                steps=steps,
                serves_per_step=serves,
                churn_fraction=args.churn_fraction,
                requests=report.requests,
                throughput_rps=report.throughput_rps,
                plans_invalidated=count("plans_invalidated"),
            )
            for key in ("deltas_applied", "delta_patches",
                        "delta_refreshes", "delta_retunes"):
                section[key] = count(key)
        _merge_bench_json(args.bench_json, name, section)
        print(f"wrote serve/{name} section -> {args.bench_json}")

    replays = [r for r in (baseline, report) if r is not None]
    mismatches = sum(r.mismatches for r in replays)
    dropped = sum(r.dropped for r in replays)
    errors = [exc for r in replays for exc in r.errors]
    failed = (f"{len(errors)} requests failed ({errors[0]!r})"
              if errors else "")
    # Under injected faults failed requests are the experiment, so they
    # are only a note.
    chaos = faults is not None
    if failed and chaos:
        print(f"note: {failed}", file=sys.stderr)
    churn = args.structure_churn is not None
    retrain = args.online_retrain
    problems = [message for broken, message in (
        (mismatches, f"{mismatches} product mismatches"),
        (dropped, f"{dropped} requests dropped without a reply"),
        (failed and not chaos, failed),
        # Whether a group is stacked into one SpMM is the plan's
        # measured verdict; what a fan-in burst must show is that its
        # requests reached a worker together.
        ((args.fan_in or 0) >= 2 and count("requests_batched") == 0,
         "batching enabled but no same-fingerprint group formed "
         "(requests_batched == 0)"),
        (churn and not report.deltas,
         "structure-churn replay applied zero deltas"),
        (churn and report.deltas and migrated == 0,
         "every delta fell back to a full retune — the patch/refresh "
         "migration path never succeeded"),
        # The closed loop only counts as demonstrated if a retrain
        # produced a new ruleset AND the running engine served at least
        # one decision under it mid-replay.
        (retrain and tuner.retrain_count == 0,
         "--online-retrain replay finished without a successful retrain "
         "(no ruleset was ever produced)"),
        (retrain and tuner.retrain_count and count("ruleset_swaps") == 0,
         "--online-retrain replay finished without the engine observing "
         "a ruleset hot-swap (retrained model never reached a live "
         "decision)"),
    ) if broken]
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _merge_bench_json(path: Path, name: str, section: dict) -> None:
    """Set ``serve.<name>`` in the JSON report at ``path``, creating or
    preserving whatever else (the bench-perf ops, other serve sections)
    is already there."""
    import json

    data: dict = {}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
        except (ValueError, OSError):
            loaded = None
        if isinstance(loaded, dict):
            data = loaded
    serve = data.setdefault("serve", {})
    if not isinstance(serve, dict):
        serve = data["serve"] = {}
    serve[name] = section
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _cmd_trace(args: argparse.Namespace) -> int:
    import numpy as np

    from repro import obs
    from repro.collection import generate_collection
    from repro.obs.export import write_chrome_trace, write_jsonl
    from repro.obs.report import overhead_report, render_tree
    from repro.serve import ServingEngine
    from repro.tuner import SMAT

    demo_kinds = ("banded", "uniform", "powerlaw", "random")
    if args.matrix in demo_kinds:
        matrix = _demo_matrix(args.matrix)
        source = f"demo:{args.matrix}"
    else:
        from repro.io import read_matrix_market

        path = Path(args.matrix)
        if not path.exists():
            print(
                f"error: {args.matrix!r} is neither a file nor one of "
                f"{', '.join(demo_kinds)}",
                file=sys.stderr,
            )
            return 1
        matrix = read_matrix_market(path)
        source = str(path)
    if args.requests < 1:
        print("error: --requests must be >= 1", file=sys.stderr)
        return 1

    backend = _backend(args.platform)
    print(f"training tuner (scale {args.train_scale}, {args.platform})...")
    tuner = SMAT.train(
        generate_collection(
            seed=args.seed, scale=args.train_scale, size_scale=0.4
        ),
        backend=backend,
    )

    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(matrix.n_cols)
    tracer = obs.Tracer()
    with obs.installed(tracer):
        with ServingEngine(tuner) as engine:
            tracer.sink = obs.metrics_sink(engine.metrics)
            for _ in range(args.requests):
                engine.spmv(matrix, x)
    roots = tracer.roots()

    print(f"\ntraced {len(roots)} request(s) for {source} "
          f"({matrix.n_rows}x{matrix.n_cols}, {matrix.nnz} nnz)\n")
    for root in roots:
        print(render_tree(root))
        print()
    print(overhead_report(roots).describe())
    if args.out is not None:
        events = write_chrome_trace(roots, args.out)
        print(f"wrote {events} trace events -> {args.out}")
    if args.jsonl is not None:
        lines = write_jsonl(roots, args.jsonl)
        print(f"wrote {lines} spans -> {args.jsonl}")
    return 0


def _cmd_bench_perf(args: argparse.Namespace) -> int:
    from repro import perfbench

    report = perfbench.run_suite(
        args.suite,
        repeats=args.repeats,
        seed=args.seed,
        kernel_backend=args.kernel_backend,
    )
    print(perfbench.format_report(report))
    perfbench.write_report(report, args.out)
    print(f"wrote {args.out}")
    if args.assert_speedup is not None:
        failures = perfbench.check_speedups(report, args.assert_speedup)
        if failures:
            for failure in failures:
                print(f"error: {failure}", file=sys.stderr)
            return 1
        spmm_gates = ", ".join(
            f"{name} >= {floor:.1f}x"
            for name, floor in perfbench.SPMM_GATES.items()
        )
        print(f"speedup gate passed (>= {args.assert_speedup:.1f}x on "
              + ", ".join(perfbench.GATED_OPS)
              + f"; {spmm_gates} vs sequential SpMV; codegen >= "
              + f"{perfbench.CODEGEN_SPEEDUP_FLOOR:.1f}x on "
              + ", ".join(perfbench.CODEGEN_OPS) + ")")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
