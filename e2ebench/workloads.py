"""The four closed-loop workloads.

Each workload has a *build* (the program's set-up: tuner training, input
generation, engine start and warm-up — timed as ``setup_s``), untimed
*references* for checking every output, and a timed *run* that always
ends on a whole cycle, so per-cycle counts repeat exactly for one seed:

* ``hot_bursts``  — a cycle is one round of 61 bursts (32 requests of
  each width 1, 2, 4, 8 and 32) by one caller;
* ``cold_mix``    — one pass over the permutation of 256 structures;
* ``graph_churn`` — one epoch: reset to the base graph, then 12 × (10
  reads + 1 structure delta);
* ``amg_solve``   — one pass over the right-hand-side pool.

Every matrix value and operand is dyadic (``k/4`` and small integers), so
any summation order — SpMM stacking and generated kernels included — is
exact, and served products are compared with ``np.array_equal``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.amg import AMGSolver, CsrEngine, SmatEngine
from repro.collection import generate_collection, graphs
from repro.collection.grids import laplacian_9pt
from repro.errors import BackpressureError
from repro.features.extract import extract_features
from repro.features.incremental import DeltaFeatures
from repro.formats.convert import convert
from repro.formats.csr import CSRMatrix
from repro.formats.delta import apply_delta
from repro.serve import (
    ServeConfig,
    ServingEngine,
    build_matrix_pool,
    evolving_graph_delta,
    fingerprint,
    structural_digest,
)
from repro.tuner import SMAT
from repro.tuner.config import SmatConfig
from repro.types import FormatName

from e2ebench.seams import TimedSpmvEngine, TunerProxy
from e2ebench.stats import (
    Recorder,
    StealSampler,
    Tally,
    mean,
    min_samples_for,
    self_times,
    windowed_samples_for,
)

#: The tuner is trained at start-up on the analytic (simulated) backend
#: from a fixed collection, so every workload seed is served by the same
#: model and format decisions are deterministic.
TRAIN_COLLECTION = {"seed": 2013, "scale": 0.1, "size_scale": 0.4}
SMAT_CONFIG = SmatConfig(tune_budget_units=32, kernel_backend="codegen")
SERVE_CONFIG = ServeConfig(
    workers=2,
    cache_entries=64,
    max_batch_rhs=32,
    batch_window=0.0,
    kernel_backend="codegen",
)

#: Formats the trained model classifies into; the per-format metrics.
FORMATS = ("CSR", "COO", "DIA", "ELL")
STAGES = ("cheap", "full", "measure", "floor")


def train_tuner() -> SMAT:
    return SMAT.train(generate_collection(**TRAIN_COLLECTION), config=SMAT_CONFIG)


def dyadic_values(count: int, rng: np.random.Generator) -> np.ndarray:
    """Nonzero multiples of 1/4 in [-2, 2]."""
    magnitude = rng.integers(1, 9, size=count) / 4.0
    return np.where(rng.random(count) < 0.5, -magnitude, magnitude)


def dyadic(matrix: CSRMatrix, rng: np.random.Generator) -> CSRMatrix:
    """``matrix``'s structure with dyadic values."""
    return CSRMatrix(
        matrix.ptr, matrix.indices, dyadic_values(matrix.nnz, rng), matrix.shape
    )


def dyadic_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(-4, 5, size=n).astype(np.float64)


def same_csr(a: CSRMatrix, b: CSRMatrix) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.ptr, b.ptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


# ---------------------------------------------------------------------------
# Per-phase records
# ---------------------------------------------------------------------------

class Served(NamedTuple):
    """One served request as the caller saw it, split by ServeResult."""

    latency: float
    submit: float
    queued: float
    plan: float
    execute: float
    format_name: str
    kernel_name: str
    batch_size: int
    cache_hit: bool
    refreshed: bool
    degraded: bool


class Updated(NamedTuple):
    """One ``apply_structure_delta`` as the caller saw it."""

    latency: float
    done: float
    engine_seconds: float
    policy: str
    redecision_stage: Optional[str]
    new_format: str


class Solved(NamedTuple):
    latency: float
    done: float
    cycles: int


@dataclass
class Phase:
    """What one timed phase measured."""

    seconds: float = 0.0
    #: Caller-side seconds of the ops the latency metrics cover, and the
    #: perf_counter() at which each completed.
    latencies: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    #: Completion time of every op — an RHS request, a read or a delta,
    #: or a solve; throughput counts these.
    op_done: List[float] = field(default_factory=list)
    #: Caller-side seconds of each ``apply_structure_delta``.
    updates: List[float] = field(default_factory=list)
    cycles: int = 0
    tally: Tally = field(default_factory=Tally)
    #: Counts that must repeat exactly for one seed (see ledger.py).
    ledger: Dict[str, object] = field(default_factory=dict)
    #: Failures that are not an op's: drift between cycles of one run.
    drift: List[str] = field(default_factory=list)
    requests: List[Served] = field(default_factory=list)
    deltas: List[Updated] = field(default_factory=list)
    solves: List[Solved] = field(default_factory=list)
    #: perf_counter() at the phase's start (spans before it are set-up's).
    started: float = 0.0
    #: Host steal sampled while the phase ran (set by the caller of run).
    steal: Optional[StealSampler] = None


class CallerLog:
    """One caller thread's ops: its tally, latencies and (traced) records."""

    def __init__(self, recorder: Optional[Recorder], proxy, ops) -> None:
        self.tally = Tally()
        self.latencies: List[float] = []
        self.done: List[float] = []
        self.requests: List[Served] = []
        self.recorder = recorder
        self.proxy = proxy
        self._ops = ops

    def serve(
        self,
        engine: ServingEngine,
        matrix: CSRMatrix,
        xs: Sequence[np.ndarray],
        refs: Sequence[np.ndarray],
    ) -> list:
        """Serve one same-matrix burst and wait for every product.

        Width 1 goes through ``submit``, wider bursts through
        ``submit_batch``.  Latency runs from entering the submit call to
        the moment the caller holds that request's result; the products
        are compared with their references after the burst's clock
        stopped.  Returns the ServeResults of the correct products.
        """
        width = len(xs)
        self.tally.attempted += width
        recorder = self.recorder
        if recorder is not None:
            ops = [next(self._ops) for _ in range(width)]
            sids = [recorder.new_id() for _ in range(width)]
            if self.proxy is not None:
                self.proxy.expect(matrix, ops[0], sids[0])
        start = time.perf_counter()
        try:
            if width == 1:
                futures = [engine.submit(matrix, xs[0])]
            else:
                futures = engine.submit_batch(matrix, xs)
        except BackpressureError as exc:
            self.tally.refused += width
            self.tally.note(f"refused at submit: {exc!r}")
            return []
        except Exception as exc:
            self.tally.failed += width
            self.tally.note(f"submit raised {exc!r}")
            return []
        submitted = time.perf_counter()
        outcomes = []
        for future in futures:
            try:
                result = future.result()
            except Exception as exc:
                outcomes.append((time.perf_counter(), exc))
            else:
                outcomes.append((time.perf_counter(), result))
        good = []
        for i, ((done, result), ref) in enumerate(zip(outcomes, refs)):
            if isinstance(result, Exception):
                self.tally.failed += 1
                self.tally.note(f"request failed: {result!r}")
                continue
            if not np.array_equal(result.y, ref):
                self.tally.wrong += 1
                self.tally.note(
                    f"{result.format_name.value} product via {result.kernel_name} "
                    f"differs from the CSR reference"
                )
                continue
            latency = done - start
            self.latencies.append(latency)
            self.done.append(done)
            good.append(result)
            if recorder is None:
                continue
            recorder.add("serve.request", start, done, None, ops[i], sid=sids[i])
            recorder.add("serve.submit", start, submitted, sids[i], ops[i])
            self.requests.append(
                Served(
                    latency=latency,
                    submit=submitted - start,
                    queued=result.queued_seconds,
                    plan=result.plan_seconds,
                    execute=result.execute_seconds,
                    format_name=result.format_name.value,
                    kernel_name=result.kernel_name,
                    batch_size=result.batch_size,
                    cache_hit=result.cache_hit,
                    refreshed=result.refreshed,
                    degraded=result.degraded,
                )
            )
        return good


def collect(phase: Phase, logs: Sequence[CallerLog]) -> None:
    """Merge the callers' logs into ``phase``; every served request is an op."""
    for log in logs:
        phase.tally = Tally.merged([phase.tally, log.tally])
        phase.latencies.extend(log.latencies)
        phase.done.extend(log.done)
        phase.requests.extend(log.requests)
    phase.op_done = list(phase.done)


def run_callers(bodies, seconds: float) -> None:
    """Run caller bodies on their own threads and wait for all of them."""
    errors: List[BaseException] = []

    def guarded(body):
        try:
            body()
        except BaseException as exc:  # reported below, on the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(body,), name=f"caller-{i}")
        for i, body in enumerate(bodies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120.0)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")
    if errors:
        raise errors[0]


def counter_values(engine: ServingEngine) -> Dict[str, float]:
    return dict(engine.metrics.snapshot()["counters"])


def stage_counts(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, int]:
    """Cold decisions per cascade stage between two counter snapshots."""
    names = {
        "cheap": "cascade_cheap_hits",
        "full": "cascade_full_hits",
        "measure": "cascade_measure_decisions",
        "floor": "cascade_floor_decisions",
    }
    return {
        stage: int(after.get(name, 0) - before.get(name, 0))
        for stage, name in names.items()
    }


def zipf_counts(total: int, n: int, skew: float) -> np.ndarray:
    """``total`` draws split over ranks 1..n in proportion to rank^-skew,
    rounded by largest remainder so the counts sum to ``total``."""
    weights = np.arange(1, n + 1, dtype=float) ** -skew
    expected = total * weights / weights.sum()
    counts = np.floor(expected).astype(int)
    short = total - int(counts.sum())
    counts[np.argsort(counts - expected, kind="stable")[:short]] += 1
    return counts


def per_cycle(counts: Dict[str, int], cycles: int) -> Dict[str, float]:
    return {key: counts[key] / cycles for key in sorted(counts)}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Interface of one benchmark workload."""

    name = "?"
    #: Equal windows the end-to-end figures are cut into (metrics.py).
    WINDOWS = 6
    #: Samples a reported p99 may rest on beyond it (metrics.per_layer).
    p99_min_beyond = 10

    @property
    def min_samples(self) -> int:
        """A run continues past ``--seconds`` until its steady windows
        give p99 ten samples beyond it (the traced run reports it)."""
        return windowed_samples_for(99, self.WINDOWS)

    def build(self, seed: int) -> None:
        raise NotImplementedError

    def references(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, recorder: Optional[Recorder] = None) -> Phase:
        raise NotImplementedError

    def trace(self, recorder: Recorder) -> None:
        """Swap in the traced seams before the traced phase."""
        raise NotImplementedError

    def layers(
        self, plain: Phase, traced: Phase, recorder: Recorder
    ) -> Dict[str, float]:
        """This workload's own per-layer split of the traced phase."""
        return {}

    def config(self) -> Dict[str, object]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class _Serving(Workload):
    """Shared plumbing of the three workloads served by ServingEngine."""

    engine: Optional[ServingEngine] = None
    proxy: Optional[TunerProxy] = None

    def build(self, seed: int) -> None:
        self.tuner = train_tuner()
        self.make_inputs(seed)
        self.engine = self.start(self.tuner)

    def start(self, tuner) -> ServingEngine:
        engine = ServingEngine(tuner, SERVE_CONFIG).start()
        self.warm(engine)
        return engine

    def trace(self, recorder: Recorder) -> None:
        self.close()
        self.proxy = TunerProxy(self.tuner, recorder)
        self.engine = self.start(self.proxy)

    def close(self) -> None:
        if self.engine is not None:
            self.engine.stop()
            self.engine = None

    def make_inputs(self, seed: int) -> None:
        raise NotImplementedError

    def warm(self, engine: ServingEngine) -> None:
        raise NotImplementedError

    def config(self) -> Dict[str, object]:
        return {
            "serve_config": {
                "workers": SERVE_CONFIG.workers,
                "cache_entries": SERVE_CONFIG.cache_entries,
                "max_batch_rhs": SERVE_CONFIG.max_batch_rhs,
                "batch_window": SERVE_CONFIG.batch_window,
                "kernel_backend": SERVE_CONFIG.kernel_backend,
            },
        }


class HotBursts(_Serving):
    name = "hot_bursts"
    POOL = 24
    #: build_matrix_pool size multiplier: roughly 8k-60k nnz per matrix.
    SIZE_SCALE = 8.0
    OPERANDS = 8
    #: Bursts of each width per round: every width carries 32 requests.
    BURSTS = {1: 32, 2: 16, 4: 8, 8: 4, 32: 1}
    #: Rounds per caller block; a run ends on whole blocks.
    ROUNDS = 16
    SKEW = 1.1
    CALLERS = 2

    def make_inputs(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        pool = build_matrix_pool(self.POOL, seed=seed, size_scale=self.SIZE_SCALE)
        self.pool = [dyadic(matrix, rng) for matrix in pool]
        self.xs = [
            [dyadic_vector(m.n_cols, rng) for _ in range(self.OPERANDS)]
            for m in self.pool
        ]
        self.rounds = [self.block(rng) for _ in range(self.CALLERS)]

    def block(self, rng: np.random.Generator) -> List[list]:
        """One caller's ``ROUNDS`` rounds of ``(target, width)`` bursts.

        Each width's targets follow Zipf(1.1) over the pool in exact
        expected proportions (largest remainder), dealt out in a seeded
        order: a random draw of 16 wide bursts would let the seed, not
        the program, decide how often the largest matrices set the tail.
        """
        dealt = {}
        for width, per_round in self.BURSTS.items():
            counts = zipf_counts(per_round * self.ROUNDS, self.POOL, self.SKEW)
            dealt[width] = iter(rng.permutation(np.repeat(np.arange(self.POOL), counts)))
        rounds = []
        for _ in range(self.ROUNDS):
            bursts = [
                (int(next(dealt[width])), width)
                for width, per_round in self.BURSTS.items()
                for _ in range(per_round)
            ]
            rounds.append([bursts[i] for i in rng.permutation(len(bursts))])
        return rounds

    def references(self) -> None:
        self.refs = [
            [m.spmv(x) for x in xs] for m, xs in zip(self.pool, self.xs)
        ]

    def warm(self, engine: ServingEngine) -> None:
        before = counter_values(engine)
        formats = Counter()
        for matrix, xs in zip(self.pool, self.xs):
            result = engine.submit(matrix, xs[0]).result()
            formats[result.format_name.value] += 1
            for future in engine.submit_batch(matrix, xs):
                future.result()
        self.setup_ledger = {
            "pool_format_count": dict(sorted(formats.items())),
            "pool_stage_count": stage_counts(before, counter_values(engine)),
        }

    def run(self, seconds: float, recorder: Optional[Recorder] = None) -> Phase:
        engine = self.engine
        ops = itertools.count()
        logs = [CallerLog(recorder, self.proxy, ops) for _ in range(self.CALLERS)]
        by_width = [Counter() for _ in range(self.CALLERS)]
        rounds_done = [0] * self.CALLERS
        start = time.perf_counter()
        deadline = start + seconds

        def caller(c: int) -> None:
            log = logs[c]
            slot = 0
            while True:
                for target, width in self.rounds[c][rounds_done[c] % self.ROUNDS]:
                    picks = [(slot + j) % self.OPERANDS for j in range(width)]
                    slot += width
                    log.serve(
                        engine,
                        self.pool[target],
                        [self.xs[target][p] for p in picks],
                        [self.refs[target][p] for p in picks],
                    )
                    by_width[c][width] += width
                rounds_done[c] += 1
                if rounds_done[c] % self.ROUNDS:
                    continue
                served = sum(len(log.latencies) for log in logs)
                if time.perf_counter() >= deadline and served >= self.min_samples:
                    return

        run_callers([lambda c=c: caller(c) for c in range(self.CALLERS)], seconds)
        phase = Phase(seconds=time.perf_counter() - start, started=start)
        phase.cycles = sum(rounds_done)
        widths = Counter()
        for counts in by_width:
            widths.update(counts)
        collect(phase, logs)
        phase.ledger = dict(self.setup_ledger)
        phase.ledger["ops_per_cycle_by_width"] = {
            str(w): widths[w] / phase.cycles for w in sorted(widths)
        }
        return phase

    def layers(self, plain, traced, recorder) -> Dict[str, float]:
        # Probe: every submit call hashes its matrix once; weight by calls.
        calls = Counter()
        for rounds in self.rounds:
            for round_ in rounds:
                for target, _ in round_:
                    calls[target] += 1
        seconds = {t: _timed(fingerprint, self.pool[t]) for t in calls}
        total = sum(calls.values())
        return {
            "fingerprint.ms": 1e3 * sum(seconds[t] * n for t, n in calls.items()) / total
        }

    def config(self) -> Dict[str, object]:
        return {
            **super().config(),
            "callers": self.CALLERS,
            "pool": f"build_matrix_pool({self.POOL}, size_scale={self.SIZE_SCALE})",
            "burst_widths": {str(w): n for w, n in self.BURSTS.items()},
            "popularity": "Zipf(1.1) in exact proportions per 16-round block",
        }


class ColdMix(_Serving):
    name = "cold_mix"
    #: About 4x SERVE_CONFIG.cache_entries: every plan is evicted before
    #: its structure recurs.
    STRUCTURES = 256
    COLLECTION = {"scale": 0.15, "size_scale": 0.4}
    #: Structures outside this nnz range are skipped; the rest are picked
    #: at evenly spaced nnz ranks, so every seed serves the same size mix.
    NNZ_RANGE = (1_000, 50_000)
    OPERANDS = 2
    CALLERS = 2

    def make_inputs(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        unique: Dict[str, CSRMatrix] = {}
        for _, matrix in generate_collection(seed=seed, **self.COLLECTION):
            unique.setdefault(structural_digest(matrix), matrix)
        low, high = self.NNZ_RANGE
        candidates = sorted(
            (m for m in unique.values() if low <= m.nnz <= high),
            key=lambda m: m.nnz,
        )
        if len(candidates) < self.STRUCTURES:
            raise RuntimeError(
                f"collection has {len(candidates)} distinct structures in "
                f"{self.NNZ_RANGE} nnz, fewer than {self.STRUCTURES}"
            )
        ranks = np.linspace(0, len(candidates) - 1, self.STRUCTURES).round()
        base = [candidates[int(i)] for i in ranks]
        #: (first request's values, second request's fresh values).
        self.variants = [(dyadic(m, rng), dyadic(m, rng)) for m in base]
        self.xs = [
            [dyadic_vector(m.n_cols, rng) for _ in range(self.OPERANDS)] for m in base
        ]
        self.order = [int(i) for i in rng.permutation(self.STRUCTURES)]

    def references(self) -> None:
        self.refs = [
            [[m.spmv(x) for x in xs] for m in pair]
            for pair, xs in zip(self.variants, self.xs)
        ]

    def warm(self, engine: ServingEngine) -> None:
        # One full cycle, so the codegen compile cache is warm.
        for s in self.order:
            for matrix in self.variants[s]:
                engine.submit(matrix, self.xs[s][0]).result()

    def run(self, seconds: float, recorder: Optional[Recorder] = None) -> Phase:
        engine = self.engine
        ops = itertools.count()
        logs = [CallerLog(recorder, self.proxy, ops) for _ in range(self.CALLERS)]
        lock = threading.Lock()
        cursor = [0]
        start = time.perf_counter()
        deadline = start + seconds
        # (structure, format) of each first request; flags of both.
        seen: List[list] = [[] for _ in range(self.CALLERS)]

        def take() -> Optional[int]:
            with lock:
                index = cursor[0]
                if index % self.STRUCTURES == 0 and index > 0:
                    served = sum(len(log.latencies) for log in logs)
                    if time.perf_counter() >= deadline and served >= self.min_samples:
                        return None
                cursor[0] = index + 1
                return index

        def caller(c: int) -> None:
            log = logs[c]
            while True:
                index = take()
                if index is None:
                    return
                cycle, pos = divmod(index, self.STRUCTURES)
                s = self.order[pos]
                p = cycle % self.OPERANDS
                for variant, matrix in enumerate(self.variants[s]):
                    good = log.serve(
                        engine, matrix, [self.xs[s][p]], [self.refs[s][variant][p]]
                    )
                    for result in good:
                        seen[c].append(
                            (s, variant, result.format_name.value,
                             result.cache_hit, result.refreshed)
                        )

        before = counter_values(engine)
        run_callers([lambda c=c: caller(c) for c in range(self.CALLERS)], seconds)
        phase = Phase(seconds=time.perf_counter() - start, started=start)
        stages = stage_counts(before, counter_values(engine))
        phase.cycles = cursor[0] // self.STRUCTURES
        collect(phase, logs)
        formats: Dict[int, set] = {}
        cold = Counter()
        flags = Counter()
        for records in seen:
            for s, variant, fmt, hit, refreshed in records:
                flags["tier1_hits"] += int(hit)
                flags["refreshes"] += int(refreshed)
                if variant == 0:
                    formats.setdefault(s, set()).add(fmt)
                    cold[fmt] += 1
        for s, fmts in sorted(formats.items()):
            if len(fmts) > 1:
                phase.drift.append(
                    f"structure {s} was served in {sorted(fmts)} across cycles"
                )
        phase.ledger = {
            "format_count_per_cycle": per_cycle(cold, phase.cycles),
            "stage_count_per_cycle": per_cycle(stages, phase.cycles),
            "serve_flags_per_cycle": per_cycle(flags, phase.cycles),
        }
        self.decided = {s: next(iter(f)) for s, f in formats.items()}
        return phase

    def layers(self, plain, traced, recorder) -> Dict[str, float]:
        # Probes: direct calls on every structure of the cycle.
        fill_budget = self.tuner.config.fill_budget
        hashes, extracts, converts = [], [], []
        for s, (first, fresh) in enumerate(self.variants):
            hashes.append(_timed(fingerprint, first))
            hashes.append(_timed(fingerprint, fresh))
            extracts.append(_timed(extract_features, first))
            fmt = FormatName(self.decided.get(s, "CSR"))
            converts.append(_timed(convert, first, fmt, fill_budget=fill_budget))
        return {
            "fingerprint.ms": 1e3 * float(np.mean(hashes)),
            "features.extract_ms": 1e3 * float(np.mean(extracts)),
            "formats.convert_ms": 1e3 * float(np.mean(converts)),
        }

    def config(self) -> Dict[str, object]:
        return {
            **super().config(),
            "callers": self.CALLERS,
            "structures": self.STRUCTURES,
            "collection": f"generate_collection(seed, scale={self.COLLECTION['scale']}, "
            f"size_scale={self.COLLECTION['size_scale']}): distinct structures of "
            f"{self.NNZ_RANGE[0]}-{self.NNZ_RANGE[1]} nnz at evenly spaced nnz ranks",
            "requests_per_structure": 2,
        }


class GraphChurn(_Serving):
    name = "graph_churn"
    #: About 3000 reads in a 15 s run: four windows keep p99 supported.
    WINDOWS = 4
    NODES = 20_000
    DELTAS = 12
    READS = 10
    #: Structural edits per delta as a share of nnz.
    CHURN = 0.005
    OPERANDS = 4

    def make_inputs(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        graph = graphs.power_law_graph(
            self.NODES, exponent=2.2, seed=int(rng.integers(0, 2**31 - 1))
        )
        self.matrices = [dyadic(graph, rng)]
        self.deltas = []
        for _ in range(self.DELTAS):
            current = self.matrices[-1]
            churn = max(2, int(self.CHURN * current.nnz))
            delta = evolving_graph_delta(
                current, rng, inserts=churn - churn // 2, deletes=churn // 2
            )
            delta = replace(
                delta, insert_vals=dyadic_values(delta.insert_vals.shape[0], rng)
            )
            self.deltas.append(delta)
            self.matrices.append(apply_delta(current, delta)[0])
        self.xs = [
            dyadic_vector(graph.n_cols, rng) for _ in range(self.OPERANDS)
        ]

    def references(self) -> None:
        self.refs = [[m.spmv(x) for x in self.xs] for m in self.matrices]

    def warm(self, engine: ServingEngine) -> None:
        engine.submit(self.matrices[0], self.xs[0]).result()

    def run(self, seconds: float, recorder: Optional[Recorder] = None) -> Phase:
        engine = self.engine
        proxy = self.proxy
        ops = itertools.count()
        log = CallerLog(recorder, proxy, ops)
        updates: List[Updated] = []
        epoch_ledgers: List[tuple] = []
        start = time.perf_counter()
        deadline = start + seconds
        epochs = 0
        base = self.matrices[0]
        while True:
            # Epoch reset, outside every op's clock: the base graph's
            # plan is rebuilt and the maintained features restart.
            engine.invalidate(base)
            warm = engine.submit(base, self.xs[0]).result()
            if not np.array_equal(warm.y, self.refs[0][0]):
                log.tally.wrong += 1
                log.tally.note("base graph product differs from the CSR reference")
            features = DeltaFeatures(base)
            current = base
            policies = []
            for i, delta in enumerate(self.deltas):
                for k in range(self.READS):
                    p = k % self.OPERANDS
                    log.serve(engine, current, [self.xs[p]], [self.refs[i][p]])
                log.tally.attempted += 1
                op = next(ops)
                sid = recorder.new_id() if recorder is not None else None
                if proxy is not None:
                    proxy.within(op, sid)
                began = time.perf_counter()
                try:
                    outcome = engine.apply_structure_delta(
                        current, delta, features=features
                    )
                except Exception as exc:
                    log.tally.failed += 1
                    log.tally.note(f"apply_structure_delta raised {exc!r}")
                    break
                finally:
                    if proxy is not None:
                        proxy.within(None, None)
                latency = time.perf_counter() - began
                if recorder is not None:
                    recorder.add(
                        "serve.apply_structure_delta",
                        began, began + latency, None, op, sid=sid,
                    )
                if not same_csr(outcome.matrix, self.matrices[i + 1]):
                    log.tally.wrong += 1
                    log.tally.note(f"delta {i} spliced a different matrix")
                    break
                updates.append(
                    Updated(
                        latency=latency,
                        done=began + latency,
                        engine_seconds=outcome.seconds,
                        policy=outcome.policy,
                        redecision_stage=outcome.redecision_stage,
                        new_format=outcome.new_format.value,
                    )
                )
                policies.append(
                    (outcome.policy, outcome.redecision_stage, outcome.new_format.value)
                )
                current = outcome.matrix
            epoch_ledgers.append((warm.format_name.value, tuple(policies)))
            epochs += 1
            if (
                time.perf_counter() >= deadline
                and len(log.latencies) >= self.min_samples
                and len(updates) >= min_samples_for(90)
            ) or log.tally.errors:
                break
        phase = Phase(seconds=time.perf_counter() - start, started=start)
        phase.cycles = epochs
        collect(phase, [log])
        phase.op_done += [u.done for u in updates]
        phase.updates = [u.latency for u in updates]
        phase.deltas = updates
        for index, entry in enumerate(epoch_ledgers[1:], start=1):
            if entry != epoch_ledgers[0]:
                phase.drift.append(f"epoch {index} migrated differently from epoch 0")
        first_format, first_policies = epoch_ledgers[0]
        phase.ledger = {
            "base_format": first_format,
            "policy_count_per_cycle": dict(Counter(p for p, _, _ in first_policies)),
            "redecision_count_per_cycle": dict(
                Counter(str(s) for _, s, _ in first_policies)
            ),
            "format_after_delta": [f for _, _, f in first_policies],
        }
        return phase

    def layers(self, plain, traced, recorder) -> Dict[str, float]:
        # Probes on the epoch's inputs, one direct call each: hashing per read,
        # splicing per delta, and extraction + conversion for the base
        # graph's rebuild and every delta the engine re-tuned.
        hashes = [_timed(fingerprint, m) for m in self.matrices[:-1]]
        splices = [
            _timed(apply_delta, m, d) for m, d in zip(self.matrices, self.deltas)
        ]
        fill_budget = self.tuner.config.fill_budget
        decided = [(self.matrices[0], str(traced.ledger["base_format"]))]
        for i, update in enumerate(traced.deltas[: self.DELTAS]):
            if update.policy == "retune":
                decided.append((self.matrices[i + 1], update.new_format))
        extracts = [_timed(extract_features, m) for m, _ in decided]
        converts = [
            _timed(convert, m, FormatName(f), fill_budget=fill_budget)
            for m, f in decided
        ]
        return {
            "fingerprint.ms": 1e3 * float(np.mean(hashes)),
            "delta.splice_ms": 1e3 * float(np.mean(splices)),
            "features.extract_ms": 1e3 * float(np.mean(extracts)),
            "formats.convert_ms": 1e3 * float(np.mean(converts)),
        }

    def config(self) -> Dict[str, object]:
        return {
            **super().config(),
            "callers": 1,
            "graph": f"power_law_graph({self.NODES}, exponent=2.2)",
            "deltas_per_cycle": self.DELTAS,
            "reads_per_delta": self.READS,
            "delta_share_of_nnz": self.CHURN,
            "delta_features": "maintained (DeltaFeatures)",
        }


class AmgSolve(Workload):
    name = "amg_solve"
    GRID = 120
    RHS = 20
    TOL = 1e-8
    #: Relative 2-norm distance allowed between the SMAT solve and the
    #: CsrEngine solve of the same right-hand side.  Both hierarchies are
    #: built by the same coarsening; only summation order differs.
    MATCH_TOL = 1e-9
    #: About 100 solves per run, too few to set a stolen half aside.
    WINDOWS = 1
    #: p99 of ~100 solves rests on one sample beyond it; latency_p90_ms
    #: is this workload's supported tail.
    p99_min_beyond = 1

    @property
    def min_samples(self) -> int:
        return min_samples_for(90)

    def build(self, seed: int) -> None:
        self.tuner = train_tuner()
        rng = np.random.default_rng(seed)
        self.matrix = laplacian_9pt(self.GRID)
        self.rhs = [rng.standard_normal(self.matrix.n_rows) for _ in range(self.RHS)]
        self.solver = self.hierarchy(SmatEngine(self.tuner))
        self.solver.solve(self.rhs[0], tol=self.TOL)
        self.clock = None

    def hierarchy(self, engine) -> AMGSolver:
        return AMGSolver(self.matrix, engine=engine, coarsen_method="rugeL")

    def references(self) -> None:
        """CsrEngine solves of the pool: the references every SMAT solve
        must match, timed for ``amg.speedup_vs_csr``."""
        csr = self.hierarchy(CsrEngine())
        self.ref_x = []
        self.csr_seconds = []
        for b in self.rhs:
            began = time.perf_counter()
            x, _ = csr.solve(b, tol=self.TOL)
            self.csr_seconds.append(time.perf_counter() - began)
            self.ref_x.append(x)

    def trace(self, recorder: Recorder) -> None:
        proxy = TunerProxy(self.tuner, recorder)
        engine = TimedSpmvEngine(SmatEngine(proxy), recorder)
        self.solver = self.hierarchy(engine)
        self.clock = engine.clock
        self.setup_decides = list(proxy.calls)

    def run(self, seconds: float, recorder: Optional[Recorder] = None) -> Phase:
        tally = Tally()
        solves: List[Solved] = []
        cycles_by_rhs: Dict[int, set] = {}
        start = time.perf_counter()
        deadline = start + seconds
        passes = 0
        op = 0
        while True:
            for k, b in enumerate(self.rhs):
                tally.attempted += 1
                sid = None
                if recorder is not None:
                    sid = recorder.new_id()
                    self.clock.parent, self.clock.op = sid, op
                began = time.perf_counter()
                try:
                    x, report = self.solver.solve(b, tol=self.TOL)
                except Exception as exc:
                    tally.failed += 1
                    tally.note(f"solve raised {exc!r}")
                    continue
                latency = time.perf_counter() - began
                if recorder is not None:
                    recorder.add("amg.solve", began, began + latency, None, op, sid=sid)
                op += 1
                residual = np.linalg.norm(b - self.matrix.spmv(x)) / np.linalg.norm(b)
                distance = np.linalg.norm(x - self.ref_x[k]) / np.linalg.norm(self.ref_x[k])
                if not (report.converged and residual < self.TOL and distance <= self.MATCH_TOL):
                    tally.wrong += 1
                    tally.note(
                        f"rhs {k}: converged {report.converged}, residual "
                        f"{residual:.3g}, distance to CsrEngine {distance:.3g}"
                    )
                    continue
                solves.append(Solved(latency, began + latency, report.iterations))
                cycles_by_rhs.setdefault(k, set()).add(report.iterations)
            passes += 1
            if (
                time.perf_counter() >= deadline and len(solves) >= self.min_samples
            ) or tally.errors:
                break
        phase = Phase(seconds=time.perf_counter() - start, started=start)
        phase.cycles = passes
        phase.tally = tally
        phase.latencies = [s.latency for s in solves]
        phase.done = [s.done for s in solves]
        phase.op_done = list(phase.done)
        phase.solves = solves
        for k, cycles in sorted(cycles_by_rhs.items()):
            if len(cycles) > 1:
                phase.drift.append(f"rhs {k} took {sorted(cycles)} V-cycles")
        phase.ledger = {
            "cycles_by_rhs": [min(cycles_by_rhs.get(k, {0})) for k in range(self.RHS)],
            "formats_by_level": [
                [row["a_format"], row["p_format"]]
                for row in self.solver.hierarchy.format_by_level()
            ],
        }
        return phase

    def layers(self, plain, traced, recorder) -> Dict[str, float]:
        """V-cycles, the SpMV share of each solve, and the CSR baseline."""
        selfs = self_times(recorder.spans)
        solves = [s for s in recorder.named("amg.solve") if s.start >= traced.started]
        busy = sum(s.duration for s in solves)
        cycles = sum(s.cycles for s in traced.solves)
        return {
            "amg.cycles": cycles / len(traced.solves),
            "amg.cycle_ms": 1e3 * busy / cycles,
            "amg.spmv_share": 1.0 - sum(selfs[s.sid] for s in solves) / busy,
            "amg.speedup_vs_csr": mean(self.csr_seconds) / mean(plain.latencies),
            "amg.setup_decide_ms": 1e3 * sum(c.seconds for c in self.setup_decides),
        }

    def config(self) -> Dict[str, object]:
        return {
            "smat_config": {
                "tune_budget_units": SMAT_CONFIG.tune_budget_units,
                "kernel_backend": SMAT_CONFIG.kernel_backend,
            },
            "engine": "SmatEngine (decision.kernel, not serving_kernel)",
            "problem": f"laplacian_9pt({self.GRID}), rugeL coarsening",
            "rhs_pool": self.RHS,
            "tolerance": self.TOL,
            "match_tolerance_vs_csr_engine": self.MATCH_TOL,
        }


def _timed(fn, *args, **kwargs) -> float:
    began = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - began


WORKLOADS = {w.name: w for w in (HotBursts, ColdMix, GraphChurn, AmgSolve)}
