"""Synthetic serving workloads and the one replay loop behind serve-bench.

A serving workload is characterised by two distributions: *which* matrices
recur (popularity — realistic traffic is heavily skewed, a few operators
take most calls) and *what* requests arrive (a fresh operand vector per
call).  ``build_matrix_pool`` draws structurally diverse matrices from the
repo's synthetic collection generators.  The builders turn a traffic shape
into one list of *ops* per client — same-matrix bursts (:class:`Burst`)
and structure deltas (:class:`Delta`) — and :func:`replay` runs those
lists from client threads, verifying every product against the reference
CSR kernel.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.collection import banded, graphs, grids, random_sparse
from repro.features.incremental import DeltaFeatures
from repro.formats.csr import CSRMatrix
from repro.formats.delta import StructureDelta, apply_delta
from repro.serve.engine import DeltaOutcome, ServeResult
from repro.types import INDEX_DTYPE


def build_matrix_pool(
    count: int, seed: int = 2013, size_scale: float = 1.0
) -> List[CSRMatrix]:
    """``count`` structurally diverse matrices (banded / grid / graph / random).

    Cycling through the four structure families makes the pool exercise
    every rule group of the model — DIA- and ELL-friendly operators as well
    as the CSR/COO default paths.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    pool: List[CSRMatrix] = []
    for i in range(count):
        kind = i % 4
        size = int((400 + 150 * (i // 4)) * size_scale)
        item_seed = int(rng.integers(0, 2**31 - 1))
        if kind == 0:
            bands = 3 + 2 * ((i // 4) % 4)
            pool.append(banded.banded_matrix(size, bands, seed=item_seed))
        elif kind == 1:
            side = max(8, int(np.sqrt(size)))
            pool.append(grids.laplacian_5pt(side))
        elif kind == 2:
            pool.append(
                graphs.power_law_graph(size, exponent=2.2, seed=item_seed)
            )
        else:
            pool.append(
                random_sparse.uniform_random(size, size, 6.0, seed=item_seed)
            )
    return pool


def value_churn_pool(
    pool: Sequence[CSRMatrix], updates: int, seed: int = 2013
) -> List[CSRMatrix]:
    """``updates`` value variants of every matrix, structure unchanged.

    Variant 0 is the original matrix; each later variant keeps the
    ``ptr``/``indices`` arrays and redraws the value array.  Serving the
    result exercises the engine's tier-2 fast path: every variant after
    the first misses the value-keyed cache but shares a resident plan's
    :class:`~repro.serve.fingerprint.StructureKey`, so the plan is
    value-refreshed instead of rebuilt.  This models the dominant churn
    in iterative solvers — Jacobians and preconditioners whose sparsity
    pattern is fixed while the entries change every step.
    """
    if updates < 1:
        raise ValueError(f"updates must be >= 1, got {updates}")
    rng = np.random.default_rng(seed)
    out: List[CSRMatrix] = []
    for matrix in pool:
        out.append(matrix)
        for _ in range(updates - 1):
            data = rng.standard_normal(matrix.nnz).astype(matrix.dtype)
            out.append(
                CSRMatrix(matrix.ptr, matrix.indices, data, matrix.shape)
            )
    return out


def churn_schedule(
    n_structures: int, updates: int, seed: int = 7
) -> List[int]:
    """A request order for a :func:`value_churn_pool`: every variant once.

    The base variant of each structure is scheduled before any of its
    value updates (so the full plan build is deterministic — the donor
    exists by the time its refreshes arrive even single-threaded); the
    updates themselves are shuffled across structures.
    """
    if n_structures < 1:
        raise ValueError(f"n_structures must be >= 1, got {n_structures}")
    if updates < 1:
        raise ValueError(f"updates must be >= 1, got {updates}")
    rng = np.random.default_rng(seed)
    bases = [i * updates for i in range(n_structures)]
    rng.shuffle(bases)
    rest = [
        i * updates + j
        for i in range(n_structures)
        for j in range(1, updates)
    ]
    rng.shuffle(rest)
    return [int(i) for i in bases + rest]


def popularity_schedule(
    n_matrices: int, n_requests: int, seed: int = 7, skew: float = 1.1
) -> List[int]:
    """A Zipf-like sequence of matrix indices, every matrix appearing once.

    The first ``n_matrices`` slots cover each matrix once (so cold misses
    are deterministic); the rest are drawn with probability ∝ rank^-skew.
    """
    if n_requests < n_matrices:
        raise ValueError(
            f"need >= {n_matrices} requests to cover every matrix, "
            f"got {n_requests}"
        )
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_matrices + 1, dtype=float)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    tail = rng.choice(n_matrices, size=n_requests - n_matrices, p=weights)
    schedule = list(range(n_matrices)) + [int(i) for i in tail]
    rng.shuffle(schedule)
    return schedule


@dataclass(frozen=True)
class Burst:
    """Operand vectors for one matrix, submitted together by one client.

    A width-1 burst is a plain request; a wider one reaches the engine in
    one ``submit_batch`` call, so it can execute as a single SpMM.
    """

    matrix: CSRMatrix
    xs: Tuple[np.ndarray, ...]


@dataclass(frozen=True)
class Delta:
    """An edge insert/delete step applied to ``matrix``, the structure
    current at that point of the client's op list."""

    matrix: CSRMatrix
    delta: StructureDelta


#: One step of a client's op list.
Op = Union[Burst, Delta]


def schedule_ops(
    pool: Sequence[CSRMatrix],
    schedule: Sequence[int],
    clients: int = 4,
    seed: int = 99,
) -> List[List[Op]]:
    """One single SpMV per ``schedule`` slot (a :func:`popularity_schedule`
    or :func:`churn_schedule` over ``pool``), split into ``clients``
    contiguous slices.  Every matrix keeps one fixed operand vector, so
    replays are bitwise reproducible."""
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(m.n_cols).astype(m.dtype) for m in pool]
    chunk = max(1, -(-len(schedule) // clients))
    return [
        [Burst(pool[i], (xs[i],)) for i in schedule[start : start + chunk]]
        for start in range(0, len(schedule), chunk)
    ]


def fan_in_ops(
    pool: Sequence[CSRMatrix],
    bursts: int,
    fan_in: int,
    seed: int = 99,
) -> List[List[Op]]:
    """One client's same-matrix bursts: ``bursts`` rounds of ``fan_in``
    fresh operand vectors each, round-robin over ``pool``.

    Whether the engine stacks a burst into one SpMM depends on its
    ``max_batch_rhs``; replaying the same ops against a batched and an
    unbatched engine isolates exactly what batching buys.
    """
    if bursts < 1:
        raise ValueError(f"bursts must be >= 1, got {bursts}")
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    rng = np.random.default_rng(seed)
    ops: List[Op] = []
    for burst in range(bursts):
        matrix = pool[burst % len(pool)]
        xs = tuple(
            rng.standard_normal(matrix.n_cols).astype(matrix.dtype)
            for _ in range(fan_in)
        )
        ops.append(Burst(matrix, xs))
    return [ops]


def evolving_graph_delta(
    matrix: CSRMatrix,
    rng: np.random.Generator,
    inserts: int,
    deletes: int,
) -> StructureDelta:
    """One edge insert/delete step of an evolving power-law graph.

    Deleted edges are drawn uniformly from the current edge set;
    inserted edges keep the degree skew by drawing target columns with
    probability density ∝ sqrt-inverted rank (``floor(u² · n)`` for
    uniform ``u`` — cheap preferential attachment), filtered against
    edges that already exist.  The delta is always valid against
    ``matrix``: deletions target live entries, insertions target holes.
    """
    m, n = matrix.shape
    degrees = matrix.row_degrees()
    row_of = np.repeat(np.arange(m, dtype=INDEX_DTYPE), degrees)
    keys = row_of * n + matrix.indices

    deletes = min(int(deletes), matrix.nnz)
    if deletes > 0:
        picks = rng.choice(matrix.nnz, size=deletes, replace=False)
        delete_rows = row_of[picks]
        delete_cols = matrix.indices[picks].astype(INDEX_DTYPE, copy=False)
    else:
        delete_rows = np.zeros(0, dtype=INDEX_DTYPE)
        delete_cols = np.zeros(0, dtype=INDEX_DTYPE)

    insert_rows: List[int] = []
    insert_cols: List[int] = []
    seen = set()
    attempts = 0
    while len(insert_rows) < inserts and attempts < inserts * 20:
        attempts += 1
        row = int(rng.integers(0, m))
        col = int(rng.random() ** 2 * n)
        key = row * n + col
        if key in seen:
            continue
        at = int(np.searchsorted(keys, key))
        if at < keys.shape[0] and int(keys[at]) == key:
            continue  # edge already present
        seen.add(key)
        insert_rows.append(row)
        insert_cols.append(col)
    count = len(insert_rows)
    return StructureDelta(
        insert_rows=np.asarray(insert_rows, dtype=INDEX_DTYPE),
        insert_cols=np.asarray(insert_cols, dtype=INDEX_DTYPE),
        insert_vals=rng.standard_normal(count).astype(matrix.dtype),
        delete_rows=delete_rows,
        delete_cols=delete_cols,
    )


def evolving_graph_ops(
    nodes: int = 600,
    steps: int = 20,
    serves_per_step: int = 8,
    delta_fraction: float = 0.02,
    seed: int = 2013,
) -> List[List[Op]]:
    """One client streaming an evolving power-law graph.

    The scenario the delta path exists for: one long-lived graph serving
    SpMV traffic (PageRank/HITS-style) while its edge set churns.  Each
    of the ``steps`` rounds serves ``serves_per_step`` single SpMVs
    against the current structure, then applies one
    :func:`evolving_graph_delta` sized at ``delta_fraction`` of the
    current nnz.  Each post-delta structure is spliced here, ahead of
    the replay, so every burst carries the matrix its products are
    checked against — a stale-plan hit after a delta shows up as a
    mismatch, not silence.  The base graph and every spliced structure
    are frozen (:meth:`CSRMatrix.frozen`), as the engine's own
    post-delta matrices are, so the engine hashes each one once.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if serves_per_step < 1:
        raise ValueError(
            f"serves_per_step must be >= 1, got {serves_per_step}"
        )
    if not 0.0 < delta_fraction <= 1.0:
        raise ValueError(
            f"delta_fraction must be in (0, 1], got {delta_fraction}"
        )
    rng = np.random.default_rng(seed)
    matrix = graphs.power_law_graph(
        nodes, exponent=2.2, seed=int(rng.integers(0, 2**31 - 1))
    ).frozen()
    ops: List[Op] = []
    for step in range(steps):
        for _ in range(serves_per_step):
            x = rng.standard_normal(matrix.n_cols).astype(matrix.dtype)
            ops.append(Burst(matrix, (x,)))
        if step == steps - 1:
            break  # final round serves only; no trailing unserved delta
        churn = max(2, int(delta_fraction * matrix.nnz))
        delta = evolving_graph_delta(
            matrix, rng, inserts=churn - churn // 2, deletes=churn // 2
        )
        ops.append(Delta(matrix, delta))
        matrix = apply_delta(matrix, delta)[0].frozen()
    return [ops]


@dataclass
class ReplayReport:
    """Outcome of one replay."""

    results: List[ServeResult]
    mismatches: int
    #: One entry per failed request — a burst refused at submit fails
    #: every request in it — and one per failed delta.
    errors: List[BaseException]
    wall_seconds: float
    deltas: List[DeltaOutcome] = field(default_factory=list)
    #: Requests and deltas that neither answered nor failed (a client
    #: thread died mid-list).
    dropped: int = 0

    @property
    def requests(self) -> int:
        return len(self.results)

    @property
    def throughput_rps(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.requests / self.wall_seconds

    @property
    def cache_hit_rate(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.cache_hit for r in self.results) / len(self.results)


def replay(
    target,
    clients: Sequence[Sequence[Op]],
    verify: bool = True,
) -> ReplayReport:
    """Run each client's op list on its own thread against ``target``.

    ``target`` is a :class:`~repro.serve.ServingEngine`.  A client runs
    its ops in order and waits for a burst's products before its next op,
    which is how real callers use a shared service.  A width-1 burst goes
    through ``submit``, a wider one through ``submit_batch``; a delta goes
    through ``apply_structure_delta`` with the run's one
    :class:`DeltaFeatures`, so post-delta re-decisions never re-extract.
    With ``verify`` every product is checked against the reference CSR
    kernel of its burst's matrix.
    """
    every_op = [op for ops in clients for op in ops]
    delta_ops = [op for op in every_op if isinstance(op, Delta)]
    features = DeltaFeatures(delta_ops[0].matrix) if delta_ops else None
    expected = len(delta_ops) + sum(
        len(op.xs) for op in every_op if isinstance(op, Burst)
    )
    results: List[List[ServeResult]] = [[] for _ in clients]
    deltas: List[List[DeltaOutcome]] = [[] for _ in clients]
    errors: List[List[BaseException]] = [[] for _ in clients]
    mismatch_counts = [0] * len(clients)

    def client(slot: int, ops: Sequence[Op]) -> None:
        # Failures are collected, not raised: the report decides pass/fail.
        for op in ops:
            if isinstance(op, Delta):
                try:
                    deltas[slot].append(
                        target.apply_structure_delta(
                            op.matrix, op.delta, features=features
                        )
                    )
                except Exception as exc:
                    errors[slot].append(exc)
                continue
            try:
                if len(op.xs) == 1:
                    futures = [target.submit(op.matrix, op.xs[0])]
                else:
                    futures = target.submit_batch(op.matrix, op.xs)
            except Exception as exc:
                errors[slot].extend([exc] * len(op.xs))
                continue
            for x, future in zip(op.xs, futures):
                try:
                    result = future.result()
                except Exception as exc:
                    errors[slot].append(exc)
                    continue
                results[slot].append(result)
                # allclose, not array_equal: the tuned (or batched) kernel
                # may sum in a different order than the reference CSR loop.
                # (Bitwise equality *does* hold against direct SMAT.spmv
                # calls, which run the same kernel — the stress test
                # asserts that.)
                if verify and not np.allclose(
                    result.y, op.matrix.spmv(x), atol=1e-9
                ):
                    mismatch_counts[slot] += 1

    threads = [
        threading.Thread(target=client, args=(slot, ops), daemon=True)
        for slot, ops in enumerate(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    report = ReplayReport(
        results=[r for bucket in results for r in bucket],
        mismatches=sum(mismatch_counts),
        errors=[e for bucket in errors for e in bucket],
        wall_seconds=wall,
        deltas=[d for bucket in deltas for d in bucket],
    )
    report.dropped = (
        expected - report.requests - len(report.deltas) - len(report.errors)
    )
    return report
