#!/usr/bin/env python
"""Dump the worst-ratio generated kernel's source as a CI artifact.

Runs the same structured families the ``codegen/`` perfbench section
measures (``perfbench.CODEGEN_OPS``), times each generated kernel
against the generic vectorized registry kernel, and writes a report
whose tail is the **full generated source** of the family with the
*lowest* speedup — the kernel closest to losing the beat-or-keep race.
When a codegen regression trips the perf gate, this artifact shows
exactly what the backend emitted, without anyone having to reproduce
the run.

Usage::

    PYTHONPATH=src python scripts/codegen_worst_source.py \
        [--out codegen_worst_source.txt] [--suite quick] [--repeats 3]

Exit status is 0 as long as every family generates and verifies; a
mismatch between a generated kernel and its generic counterpart exits 1
(the differential sweep should have caught it first).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.collection import banded
from repro.formats.convert import convert
from repro.kernels.base import find_kernel
from repro.kernels.codegen import generate_kernel
from repro.kernels.strategies import Strategy, strategy_set
from repro.perfbench import CODEGEN_OPS, SUITE_SIZES
from repro.util.timing import median_time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=Path("codegen_worst_source.txt")
    )
    parser.add_argument(
        "--suite", default="quick", choices=sorted(SUITE_SIZES)
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2013)
    args = parser.parse_args(argv)

    n, n_diags = SUITE_SIZES[args.suite]["banded"]
    band = banded.banded_matrix(n, n_diags, seed=args.seed)
    vectorize = strategy_set(Strategy.VECTORIZE)
    rows = []
    mismatched = False
    for name, fmt in CODEGEN_OPS.items():
        converted, _ = convert(band, fmt, fill_budget=None)
        generic = find_kernel(fmt, vectorize)
        generated = generate_kernel(converted)
        x = np.ones(converted.n_cols, dtype=converted.dtype)
        agree = np.allclose(
            generated(converted, x), generic(converted, x),
            rtol=1e-9, atol=1e-12,
        )
        mismatched = mismatched or not agree
        gen_s = median_time(
            lambda: generated(converted, x), repeats=args.repeats
        )
        base_s = median_time(
            lambda: generic(converted, x), repeats=args.repeats
        )
        rows.append({
            "family": name,
            "kernel": generated.name,
            "speedup": base_s / gen_s if gen_s > 0 else 0.0,
            "generated_s": gen_s,
            "generic_s": base_s,
            "agree": agree,
            "source": generated.source,
        })

    worst = min(rows, key=lambda r: r["speedup"])
    lines = [
        f"codegen worst-ratio report (suite {args.suite!r}, "
        f"seed {args.seed})",
        "",
        f"{'family':20s} {'speedup':>9s} {'generated':>12s} "
        f"{'generic':>12s}  verified",
    ]
    for row in rows:
        marker = " <-- worst" if row is worst else ""
        lines.append(
            f"{row['family']:20s} {row['speedup']:>8.2f}x "
            f"{row['generated_s'] * 1e6:>10.1f}us "
            f"{row['generic_s'] * 1e6:>10.1f}us  "
            f"{'yes' if row['agree'] else 'MISMATCH'}{marker}"
        )
    lines += [
        "",
        f"worst family: {row_name(worst)}",
        "--- generated source ---",
        worst["source"].rstrip(),
        "",
    ]
    args.out.write_text("\n".join(lines))
    print("\n".join(lines[: len(rows) + 3]))
    print(f"wrote {args.out}")
    if mismatched:
        print(
            "error: a generated kernel disagrees with its generic "
            "counterpart",
            file=sys.stderr,
        )
        return 1
    return 0


def row_name(row) -> str:
    return f"{row['family']} ({row['kernel']}, {row['speedup']:.2f}x)"


if __name__ == "__main__":
    sys.exit(main())
