"""Synthetic serving workloads and the replay driver behind serve-bench.

A serving workload is characterised by two distributions: *which* matrices
recur (popularity — realistic traffic is heavily skewed, a few operators
take most calls) and *what* requests arrive (a fresh operand vector per
call).  ``build_matrix_pool`` draws structurally diverse matrices from the
repo's synthetic collection generators; ``replay`` pushes a popularity-
skewed request stream through a :class:`~repro.serve.ServingEngine` from
several client threads and verifies every product against the reference
CSR kernel.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.collection import banded, graphs, grids, random_sparse
from repro.features.incremental import DeltaFeatures
from repro.formats.csr import CSRMatrix
from repro.formats.delta import StructureDelta
from repro.serve.engine import DeltaOutcome, ServeResult, ServingEngine
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


@dataclass
class ReplayReport:
    """Outcome of one workload replay."""

    results: List[ServeResult]
    mismatches: int
    errors: List[BaseException]
    wall_seconds: float

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
    engine: ServingEngine,
    pool: Sequence[CSRMatrix],
    schedule: Sequence[int],
    clients: int = 4,
    seed: int = 99,
    verify: bool = True,
) -> ReplayReport:
    """Drive ``schedule`` through ``engine`` from ``clients`` threads.

    Each client owns a contiguous slice of the schedule and submits it
    synchronously (one outstanding request per client), which is how real
    callers use a shared engine.  With ``verify`` every result is checked
    against the reference CSR kernel.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    operands = _operands_for(pool, seed)
    import time

    slices = _split(schedule, clients)
    results: List[List[ServeResult]] = [[] for _ in slices]
    mismatch_counts = [0] * len(slices)
    errors: List[BaseException] = []
    errors_lock = threading.Lock()

    def client(slot: int, indices: Sequence[int]) -> None:
        for index in indices:
            matrix, x = pool[index], operands[index]
            try:
                result = engine.spmv(matrix, x)
            except BaseException as exc:  # collected, not raised: the
                with errors_lock:        # report decides pass/fail
                    errors.append(exc)
                continue
            results[slot].append(result)
            # allclose, not array_equal: the tuned kernel may sum in a
            # different order than the reference CSR loop.  (Bitwise
            # equality *does* hold against direct SMAT.spmv calls, which
            # run the same kernel — the stress test asserts that.)
            if verify and not np.allclose(
                result.y, matrix.spmv(x), atol=1e-9
            ):
                mismatch_counts[slot] += 1

    threads = [
        threading.Thread(target=client, args=(slot, indices), daemon=True)
        for slot, indices in enumerate(slices)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return ReplayReport(
        results=[r for bucket in results for r in bucket],
        mismatches=sum(mismatch_counts),
        errors=errors,
        wall_seconds=wall,
    )


def replay_fan_in(
    engine: ServingEngine,
    pool: Sequence[CSRMatrix],
    bursts: int,
    fan_in: int,
    seed: int = 99,
    verify: bool = True,
) -> ReplayReport:
    """Drive same-matrix request bursts through ``engine``.

    The fan-in workload: ``bursts`` rounds, each submitting ``fan_in``
    requests against *one* pool matrix (round-robin over the pool) in a
    single :meth:`~repro.serve.engine.ServingEngine.submit_batch` call —
    one caller's same-fingerprint burst.  Whether the engine actually
    stacks them into an SpMM depends on its ``max_batch_rhs``; running the
    same workload against a batched and an unbatched engine isolates
    exactly the batching speedup.  Operand vectors are drawn from a
    seeded generator, so two replays with the same seed see identical
    requests.
    """
    if bursts < 1:
        raise ValueError(f"bursts must be >= 1, got {bursts}")
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    rng = np.random.default_rng(seed)
    import time

    results: List[ServeResult] = []
    mismatches = 0
    errors: List[BaseException] = []
    started = time.perf_counter()
    for burst in range(bursts):
        matrix = pool[burst % len(pool)]
        xs = [
            rng.standard_normal(matrix.n_cols).astype(matrix.dtype)
            for _ in range(fan_in)
        ]
        try:
            futures = engine.submit_batch(matrix, xs)
        except BaseException as exc:  # collected, not raised: the
            errors.append(exc)       # report decides pass/fail
            continue
        for x, future in zip(xs, futures):
            try:
                result = future.result()
            except BaseException as exc:
                errors.append(exc)
                continue
            results.append(result)
            # allclose for the same reason as replay(): the batched
            # kernel and the reference loop may sum in different orders.
            if verify and not np.allclose(
                result.y, matrix.spmv(x), atol=1e-9
            ):
                mismatches += 1
    wall = time.perf_counter() - started
    return ReplayReport(
        results=results,
        mismatches=mismatches,
        errors=errors,
        wall_seconds=wall,
    )


@dataclass
class StructureChurnReport(ReplayReport):
    """A :class:`ReplayReport` plus the delta-migration ledger."""

    deltas: List[DeltaOutcome] = field(default_factory=list)

    @property
    def policy_counts(self) -> Dict[str, int]:
        counts = {"patch": 0, "refresh": 0, "retune": 0}
        for outcome in self.deltas:
            counts[outcome.policy] = counts.get(outcome.policy, 0) + 1
        return counts

    @property
    def delta_hits(self) -> int:
        """Deltas that avoided a full retune (patched or refreshed)."""
        counts = self.policy_counts
        return counts["patch"] + counts["refresh"]


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


def replay_structure_churn(
    engine: ServingEngine,
    nodes: int = 600,
    steps: int = 20,
    serves_per_step: int = 8,
    delta_fraction: float = 0.02,
    seed: int = 2013,
    verify: bool = True,
) -> StructureChurnReport:
    """Stream an evolving power-law graph through ``engine``.

    The scenario the delta path exists for: one long-lived graph serving
    SpMV traffic (PageRank/HITS-style) while its edge set churns.  Each
    of the ``steps`` rounds serves ``serves_per_step`` requests against
    the current structure, then applies one
    :func:`evolving_graph_delta` sized at ``delta_fraction`` of the
    current nnz via :meth:`~repro.serve.ServingEngine
    .apply_structure_delta`, with a :class:`DeltaFeatures` instance
    maintained across the whole run so re-decisions stay O(delta).
    Every served product is verified against the reference CSR kernel
    of the *current* structure — a stale-plan hit after a delta shows up
    as a mismatch, not silence.
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
    )
    features = DeltaFeatures(matrix)
    import time

    results: List[ServeResult] = []
    deltas: List[DeltaOutcome] = []
    mismatches = 0
    errors: List[BaseException] = []
    started = time.perf_counter()
    for step in range(steps):
        for _ in range(serves_per_step):
            x = rng.standard_normal(matrix.n_cols).astype(matrix.dtype)
            try:
                result = engine.spmv(matrix, x)
            except BaseException as exc:  # collected, not raised: the
                errors.append(exc)       # report decides pass/fail
                continue
            results.append(result)
            if verify and not np.allclose(
                result.y, matrix.spmv(x), atol=1e-9
            ):
                mismatches += 1
        if step == steps - 1:
            break  # final round serves only; no trailing unserved delta
        churn = max(2, int(delta_fraction * matrix.nnz))
        delta = evolving_graph_delta(
            matrix, rng, inserts=churn - churn // 2, deletes=churn // 2
        )
        try:
            outcome = engine.apply_structure_delta(
                matrix, delta, features=features
            )
        except BaseException as exc:
            errors.append(exc)
            continue
        deltas.append(outcome)
        matrix = outcome.matrix
    wall = time.perf_counter() - started
    return StructureChurnReport(
        results=results,
        mismatches=mismatches,
        errors=errors,
        wall_seconds=wall,
        deltas=deltas,
    )


def _operands_for(
    pool: Sequence[CSRMatrix], seed: int
) -> List[np.ndarray]:
    """One fixed operand vector per matrix (bitwise-reproducible replays)."""
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal(matrix.n_cols).astype(matrix.dtype)
        for matrix in pool
    ]


def _split(schedule: Sequence[int], parts: int) -> List[List[int]]:
    chunk = max(1, -(-len(schedule) // parts))
    slices = [
        list(schedule[i : i + chunk])
        for i in range(0, len(schedule), chunk)
    ]
    return slices or [[]]
