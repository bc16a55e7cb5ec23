"""Deterministic fault injection for the serving engine.

A :class:`FaultPlan` wraps the seams where serving can fail — the tuner
decision (``decide``, which also converts the matrix), the tier-2 value
refresh (``refresh``), the kernel (``execute``) and the batched
multi-RHS pass (``spmm``) — and injects
exceptions and latency according to a
list of :class:`FaultRule` windows.  Determinism is the point: rules are
indexed by *per-site call counts* and probabilistic rules draw from one
seeded generator, never the wall clock, so a chaos replay (``serve-bench
--faults``) and the resilience test suite see the same faults on every
run.  (With a multi-threaded engine the interleaving of *sites* can vary;
rules with ``rate=1.0`` over a call-index window are exact regardless of
thread schedule, which is what the tests use.)

Injected failures come in two flavours:

* :class:`InjectedFault` — a :class:`~repro.errors.TransientError`, i.e.
  retry-eligible: this is how the retry/backoff path is exercised.
* :class:`InjectedFatalFault` — a plain :class:`~repro.errors.ServeError`
  that the retry policy refuses, exercising the fail-fast path.

``kind="latency"`` rules inject delay without failing, for deadline and
queue-pressure experiments.  The plan also owns the ``sleep`` callable
the engine uses for retry backoff, so tests can virtualize time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServeError, TransientError

#: The engine seams a rule may attach to.  ``codegen.compile`` fires on
#: the engine's kernel-specialization step during a cold plan build; the
#: engine absorbs the failure and serves the generic kernel (the one seam
#: whose faults must never degrade a request or feed the breaker).
SITES = ("decide", "refresh", "execute", "spmm", "codegen.compile")

#: What an injected fault does at its site.
KINDS = ("transient", "fatal", "latency")


class InjectedFault(TransientError):
    """A deliberately injected *transient* failure (retry-eligible)."""


class InjectedFatalFault(ServeError):
    """A deliberately injected non-retryable failure."""


@dataclass(frozen=True)
class FaultRule:
    """One injection window at one seam.

    The rule is live for per-site call indices ``start <= i < stop``
    (``stop=None`` means forever) and fires with probability ``rate``
    (seeded; ``rate=1.0`` fires deterministically).  ``latency`` seconds
    of delay are injected before the failure (or alone, for
    ``kind="latency"``).
    """

    site: str
    kind: str = "transient"
    rate: float = 1.0
    start: int = 0
    stop: Optional[int] = None
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"site must be one of {SITES}, got {self.site!r}"
            )
        if self.kind not in KINDS:
            raise ValueError(
                f"kind must be one of {KINDS}, got {self.kind!r}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.stop is not None and self.stop <= self.start:
            raise ValueError(
                f"stop ({self.stop}) must be > start ({self.start})"
            )
        if self.latency < 0.0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")

    def live_at(self, index: int) -> bool:
        return index >= self.start and (
            self.stop is None or index < self.stop
        )

    def describe(self) -> str:
        window = f"[{self.start}, {'∞' if self.stop is None else self.stop})"
        extra = f" +{self.latency * 1e3:g}ms" if self.latency else ""
        return f"{self.site}:{self.kind} rate={self.rate:g} {window}{extra}"


class FaultPlan:
    """A seeded, replayable set of fault rules plus injection accounting.

    Thread-safe: call counting and the RNG draw happen under one lock;
    the (optional) latency sleep and the raise happen outside it.
    """

    def __init__(
        self,
        rules: Sequence[FaultRule],
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.sleep = sleep
        self._lock = threading.Lock()
        self._rng = np.random.default_rng(seed)
        self._calls: Dict[str, int] = {site: 0 for site in SITES}
        self._injected: Dict[str, int] = {site: 0 for site in SITES}

    # ------------------------------------------------------------------
    def on_call(self, site: str) -> None:
        """Account one pass through ``site``; maybe delay, maybe raise."""
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r}")
        with self._lock:
            index = self._calls[site]
            self._calls[site] = index + 1
            firing: List[FaultRule] = []
            for rule in self.rules:
                if rule.site != site or not rule.live_at(index):
                    continue
                if rule.rate >= 1.0 or self._rng.random() < rule.rate:
                    firing.append(rule)
            if firing:
                self._injected[site] += 1
        latency = sum(rule.latency for rule in firing)
        if latency > 0.0:
            self.sleep(latency)
        for rule in firing:
            if rule.kind == "transient":
                raise InjectedFault(
                    f"injected transient fault at {site}[{index}]"
                )
            if rule.kind == "fatal":
                raise InjectedFatalFault(
                    f"injected fatal fault at {site}[{index}]"
                )

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, Dict[str, int]]:
        """Per-site ``{"calls": n, "injected": m}`` accounting."""
        with self._lock:
            return {
                site: {
                    "calls": self._calls[site],
                    "injected": self._injected[site],
                }
                for site in SITES
            }

    def describe(self) -> str:
        counts = self.counts()
        lines = ["fault plan:"]
        for rule in self.rules:
            lines.append(f"  {rule.describe()}")
        lines.append(
            "  injected "
            + ", ".join(
                f"{site} {c['injected']}/{c['calls']}"
                for site, c in counts.items()
            )
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    @classmethod
    def parse(
        cls, specs: Iterable[str], seed: int = 0
    ) -> "FaultPlan":
        """Build a plan from CLI specs.

        Each spec is a comma-separated list whose first item is the site
        and the rest ``key=value`` pairs, e.g. ``decide,rate=0.5,stop=20``
        or ``execute,kind=latency,latency=0.002``.
        """
        rules = []
        for spec in specs:
            parts = [p.strip() for p in spec.split(",") if p.strip()]
            if not parts:
                raise ValueError(f"empty fault spec {spec!r}")
            kwargs: Dict[str, object] = {"site": parts[0]}
            for part in parts[1:]:
                if "=" not in part:
                    raise ValueError(
                        f"expected key=value in fault spec, got {part!r}"
                    )
                key, value = part.split("=", 1)
                key = key.strip()
                value = value.strip()
                if key in ("rate", "latency"):
                    kwargs[key] = float(value)
                elif key in ("start", "stop"):
                    kwargs[key] = int(value)
                elif key == "kind":
                    kwargs[key] = value
                else:
                    raise ValueError(f"unknown fault-rule key {key!r}")
            rules.append(FaultRule(**kwargs))  # type: ignore[arg-type]
        return cls(rules, seed=seed)
