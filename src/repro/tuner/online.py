"""Online model improvement (Section 3's extensibility claim).

"It is also open to add new matrices and corresponding records into the
database to improve the prediction accuracy."  ``OnlineSmat`` implements
that loop: every execute-and-measure fallback already *measured* the true
best format of its input, so the outcome is a free labelled training
record.  The wrapper accumulates these records and retrains the ruleset
after every ``retrain_every`` new observations — the model sharpens exactly
in the regions where it was unsure.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from repro.features.extract import extract_features
from repro.features.parameters import FeatureVector
from repro.formats.csr import CSRMatrix
from repro.learning.dataset import TrainingDataset
from repro.learning.model import LearningModel, train_model
from repro.machine.measure import MeasurementBackend
from repro.tuner.config import SmatConfig
from repro.tuner.runtime import Decision
from repro.tuner.search import KernelSearchResult
from repro.tuner.smat import SMAT


class OnlineSmat:
    """An SMAT wrapper that learns from its own fallback measurements.

    Safe for concurrent use: the record store and the retrain trigger sit
    behind one lock, so threads sharing an instance (e.g. the workers of a
    :class:`repro.serve.ServingEngine`) can never corrupt the accumulated
    records or observe a half-built dataset.  The expensive parts — the
    decision itself and the feature extraction — run outside the lock; only
    the append/retrain critical section serializes.

    Each successful retrain (or externally pushed model, see
    :meth:`install_model`) bumps ``model_epoch``; serving layers snapshot
    the epoch to observe hot-swaps without comparing model objects.
    """

    def __init__(
        self,
        smat: SMAT,
        base_dataset: Optional[TrainingDataset] = None,
        retrain_every: int = 25,
        min_leaf: int = 8,
        max_depth: int = 10,
    ) -> None:
        if retrain_every < 1:
            raise ValueError(
                f"retrain_every must be >= 1, got {retrain_every}"
            )
        self.smat = smat
        self.base_records: List[FeatureVector] = (
            list(base_dataset.records) if base_dataset else []
        )
        self.new_records: List[FeatureVector] = []
        self.retrain_every = retrain_every
        self.min_leaf = min_leaf
        self.max_depth = max_depth
        self.retrain_count = 0
        #: Monotonic model version; bumped on every successful swap.
        self.model_epoch = 0
        #: Records appended since the last *successful* retrain.  A plain
        #: ``len(new_records) % retrain_every`` trigger only fires on exact
        #: multiples, so a retrain skipped for a single-class dataset
        #: would silently never be retried until the next boundary; this
        #: counter re-arms after ``retrain_every`` more records instead.
        self._records_since_retrain = 0
        #: Guards new_records and the retrain trigger; reentrant so a
        #: caller holding the lock can still read ``observations``.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def decide(self, matrix: CSRMatrix, deadline=None) -> Decision:
        decision = self.smat.decide(matrix, deadline=deadline)
        if decision.used_fallback and decision.measurements:
            # The fallback measured the candidates: its winner is a label.
            # The decision already snapshotted every feature on the way to
            # measuring, so extracting again would double the Table-3
            # extraction cost for nothing.
            features = (
                decision.features
                if decision.features is not None
                else extract_features(matrix)
            )
            best = min(
                decision.measurements,
                key=lambda fmt: decision.measurements[fmt],
            )
            with self._lock:
                self.new_records.append(features.with_label(best))
                self._records_since_retrain += 1
                if self._records_since_retrain >= self.retrain_every:
                    if self._retrain():
                        self._records_since_retrain = 0
        return decision

    # Prepared and one-shot products run exactly as SMAT's do, through
    # this tuner's own decide(), so their fallbacks are learned from too.
    prepare = SMAT.prepare
    spmv = SMAT.spmv

    # What the serving engine and the AMG engine read off a tuner, plus
    # the kernel choices, forwarded from the wrapped SMAT.
    @property
    def model(self) -> LearningModel:
        return self.smat.model

    @property
    def config(self) -> SmatConfig:
        return self.smat.config

    @property
    def kernels(self) -> KernelSearchResult:
        return self.smat.kernels

    @property
    def backend(self) -> MeasurementBackend:
        return self.smat.backend

    # ------------------------------------------------------------------
    def _retrain(self) -> bool:
        """Rebuild the model from all records; caller holds the lock.

        Returns True on a successful swap.  The model swap is a single
        attribute assignment, so concurrent ``decide`` calls running
        outside the lock see either the old or the new model, never a
        partial one; ``model_epoch`` is bumped *after* the swap so an
        observed epoch change guarantees the new model is visible.
        """
        records = tuple(self.base_records) + tuple(self.new_records)
        if not records:
            return False
        dataset = TrainingDataset(records)
        if len(dataset.class_counts()) < 2:
            return False  # nothing to learn from one class
        self.smat.model = train_model(
            dataset, min_leaf=self.min_leaf, max_depth=self.max_depth
        )
        self.retrain_count += 1
        self.model_epoch += 1
        return True

    def install_model(self, model: LearningModel) -> int:
        """Hot-swap an externally trained model.

        Returns the new epoch.  Does not count as a retrain — the
        training happened elsewhere.
        """
        with self._lock:
            self.smat.model = model
            self.model_epoch += 1
            return self.model_epoch

    @property
    def observations(self) -> int:
        """Fallback-derived records accumulated so far."""
        with self._lock:
            return len(self.new_records)

    def records_snapshot(self) -> Tuple[FeatureVector, ...]:
        """A consistent copy of the accumulated fallback records."""
        with self._lock:
            return tuple(self.new_records)
