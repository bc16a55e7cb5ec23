"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 e2ebench/run.py --workload hot_bursts --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs one untraced timed phase and prints every end-to-end
metric.  ``--trace 1`` sets up once, runs the same untraced phase, then
swaps in the forwarding proxies and runs a traced phase of the same
length, and prints every per-layer metric (``trace.overhead`` is the
traced over the untraced median latency).  Every product is checked;
the last stdout line is one JSON object, and the exit code is non-zero
on any failed, refused or wrong op and on any ledger drift.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path

#: Thread-pool variables pinned to one thread before NumPy loads: the AMG
#: coarse solve calls LAPACK, and the benchmark's load must stay within
#: its two caller threads and the engine's two workers.
PINNED_POOLS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {root / 'src'}", file=sys.stderr)
        return 2
    for name in PINNED_POOLS:
        os.environ[name] = "1"
    sys.path[:0] = [str(root / "src"), str(root)]

    import numpy as np
    from repro.kernels import reset_codegen_stats

    from e2ebench import ledger, metrics
    from e2ebench.stats import Recorder, Tally
    from e2ebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    setup_times = []
    workload = None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        # Every set-up compiles its generated kernels from scratch, as a
        # fresh process would.
        reset_codegen_stats(clear_cache=True)
        workload = WORKLOADS[args.workload]()
        began = time.perf_counter()
        workload.build(args.seed)
        setup_times.append(time.perf_counter() - began)
    workload.references()

    plain = timed_phase(workload, args.seconds)
    phases = [plain]
    if args.trace:
        recorder = Recorder()
        workload.trace(recorder)
        traced = timed_phase(workload, args.seconds, recorder)
        phases.append(traced)
        values = metrics.per_layer(workload, plain, traced, recorder)
        table = metrics.PER_LAYER
        spans = write_spans(root, args, recorder)
    else:
        values = metrics.end_to_end(workload, setup_times, plain)
        table = metrics.END_TO_END
    workload.close()

    tally = Tally.merged(phase.tally for phase in phases)
    drift = [message for phase in phases for message in phase.drift]
    drift += ledger.check(root, args.workload, args.seed, plain.ledger)
    failed = tally.errors + len(drift)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(
        f"  host cpu_count {os.cpu_count()} nproc {len(os.sched_getaffinity(0))} "
        f"python {platform.python_version()} numpy {np.__version__}"
    )
    for index, phase in enumerate(phases):
        print(
            f"  phase {'traced' if index else 'untraced'}: {len(phase.op_done)} ops in "
            f"{phase.seconds:.2f} s over {phase.cycles} cycles, "
            f"{len(phase.latencies)} latency samples, "
            f"{len(phase.updates)} updates, error_rate "
            f"{phase.tally.error_rate:.3g}"
        )
        if phase.latencies:
            windows, kept = metrics.steady_windows(workload, phase)
            print(
                "    host steal by window: "
                + " ".join(
                    f"{100 * w.steal:.1f}%"
                    + ("" if any(w is k for k in kept) else "(set aside)")
                    for w in windows
                )
            )
    print(f"  ledger {json.dumps(plain.ledger, sort_keys=True)}")
    for message in tally.reasons + drift:
        print(f"  FAILED: {message}")
    if args.trace:
        print(f"  spans: {spans}")
    print("\n".join(metrics.describe(values, table)))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": tally.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": table[name][0]}
                    for name in table
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def timed_phase(workload, seconds: float, recorder=None):
    """One timed phase with the host's CPU steal sampled alongside."""
    from e2ebench.stats import StealSampler

    with StealSampler() as steal:
        phase = workload.run(seconds, recorder)
    phase.steal = steal
    return phase


def write_spans(root: Path, args, recorder) -> str:
    """Write the traced run's spans, one JSON object per line."""
    from e2ebench.ledger import OUT_DIR

    folder = root / OUT_DIR / "traces"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as out:
        for span in recorder.spans:
            out.write(json.dumps(span.to_dict()) + "\n")
    return f"{len(recorder.spans)} -> {path.relative_to(root)}"


if __name__ == "__main__":
    sys.exit(main())
