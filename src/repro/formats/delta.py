"""Structure deltas: incremental edits to a CSR matrix and its operands.

SMAT's premise is that format choice follows structure, but real
workloads — dynamic graphs, AMG hierarchies under remeshing — mutate that
structure incrementally.  This module is the storage half of the delta
path: :func:`apply_delta` splices an edge insert/delete schedule into a
canonical CSR matrix without re-sorting the untouched entries, and
:func:`patch_operand` carries the same edit into an already-converted
operand (ELL, DIA, ...) in place of a from-scratch reconversion.

Two invariants anchor everything downstream:

* **Bitwise equality.**  A patched operand must be indistinguishable from
  ``convert(new_csr, fmt)`` — same arrays, same padding zeros, same
  dtypes.  The differential sweep in ``tests/test_delta_formats.py``
  asserts this across every format and 200 seeds, so the serving layer
  may treat "patched" and "rebuilt" plans as the same object.
* **Exact effect accounting.**  The :class:`DeltaEffect` returned with
  the new matrix lists exactly which stored entries appeared, vanished,
  or changed value — the O(delta) feed for
  :class:`repro.features.incremental.DeltaFeatures` and for the per-row
  operand patchers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import FormatError
from repro.formats.base import SparseMatrix
from repro.formats.convert import convert, csr_to_coo
from repro.formats.csr import CSRMatrix
from repro.formats.dia import DIAMatrix
from repro.formats.ell import ELLMatrix
from repro.types import INDEX_DTYPE, FormatName
from repro.util.arrays import distinct
from repro.util.events import EventCounter

#: Ticks once per in-place operand patch (rebuild fallbacks do not count;
#: they tick ``CONVERSION_EVENTS`` instead).  The serving layer reads this
#: meter to prove the migration policy actually avoided reconversions.
PATCH_EVENTS = EventCounter("operand_patches")


@dataclass(frozen=True)
class StructureDelta:
    """One batch of structural edits against a fixed-shape CSR matrix.

    Deletions name stored entries by coordinate and MUST exist in the
    base matrix (a missing coordinate raises :class:`FormatError` — a
    silent no-op would let the feature maintenance drift).  Insertions
    at a coordinate that survives deletion *sum* into the stored value,
    mirroring the duplicate-summing of :meth:`CSRMatrix.from_triplets`;
    a coordinate both deleted and inserted ends up holding exactly the
    inserted value.
    """

    insert_rows: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=INDEX_DTYPE)
    )
    insert_cols: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=INDEX_DTYPE)
    )
    insert_vals: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64)
    )
    delete_rows: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=INDEX_DTYPE)
    )
    delete_cols: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=INDEX_DTYPE)
    )

    @property
    def size(self) -> int:
        """Edit count: inserted plus deleted coordinates."""
        return int(self.insert_rows.shape[0] + self.delete_rows.shape[0])


@dataclass(frozen=True)
class DeltaEffect:
    """Exactly which stored entries a delta created, destroyed, or changed.

    ``added_*`` lists genuinely-new stored entries (insertions that did
    not collide with a surviving entry), ``removed_*`` lists entries that
    existed before and do not after, and ``updated_*`` lists entries that
    exist on both sides with a different value (insertion summed into a
    survivor).  Feature maintenance consumes added/removed (updates do
    not move any structural parameter); operand patchers consume all
    three.
    """

    shape: Tuple[int, int]
    added_rows: np.ndarray
    added_cols: np.ndarray
    removed_rows: np.ndarray
    removed_cols: np.ndarray
    updated_rows: np.ndarray
    updated_cols: np.ndarray

    @property
    def size(self) -> int:
        return int(
            self.added_rows.shape[0]
            + self.removed_rows.shape[0]
            + self.updated_rows.shape[0]
        )

    @property
    def structural_size(self) -> int:
        """Entries that appeared or vanished (what migration policy keys on)."""
        return int(self.added_rows.shape[0] + self.removed_rows.shape[0])

    def added_offsets(self) -> np.ndarray:
        """Diagonal offsets (col - row) of the genuinely-new entries."""
        return self.added_cols.astype(np.int64) - self.added_rows.astype(
            np.int64
        )

    def removed_offsets(self) -> np.ndarray:
        """Diagonal offsets (col - row) of the removed entries."""
        return self.removed_cols.astype(np.int64) - self.removed_rows.astype(
            np.int64
        )

    def touched_rows(self) -> np.ndarray:
        """Sorted distinct rows whose stored content changed in any way."""
        return distinct(
            np.concatenate(
                [self.added_rows, self.removed_rows, self.updated_rows]
            )
        )


def apply_delta(
    matrix: CSRMatrix, delta: StructureDelta
) -> Tuple[CSRMatrix, DeltaEffect]:
    """Splice a delta into a canonical CSR matrix without re-sorting it.

    Only the rows the delta touches are searched: their stored entries
    get ``row * n + col`` keys (already sorted, because the matrix is
    canonical), and deletions and insertions are binary searches into
    those keys.  Survivors and fresh entries are then written in one
    masked scatter per array, and two ``bincount`` calls move ``ptr``.
    Cost is O(nnz) in copies plus O(entries of the touched rows + delta
    log delta) in search, with no Python-level loop.
    """
    m, n = matrix.shape
    ins_rows = np.asarray(delta.insert_rows, dtype=INDEX_DTYPE)
    ins_cols = np.asarray(delta.insert_cols, dtype=INDEX_DTYPE)
    ins_vals = np.asarray(delta.insert_vals, dtype=matrix.dtype)
    del_rows = np.asarray(delta.delete_rows, dtype=INDEX_DTYPE)
    del_cols = np.asarray(delta.delete_cols, dtype=INDEX_DTYPE)
    for name, idx, bound in (
        ("insert_rows", ins_rows, m),
        ("insert_cols", ins_cols, n),
        ("delete_rows", del_rows, m),
        ("delete_cols", del_cols, n),
    ):
        if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= bound):
            raise FormatError(
                f"{name} out of range for shape {matrix.shape}"
            )
    if ins_rows.shape[0] != ins_cols.shape[0] or ins_rows.shape[0] != ins_vals.shape[0]:
        raise FormatError("insert rows/cols/vals must have equal lengths")
    if del_rows.shape[0] != del_cols.shape[0]:
        raise FormatError("delete rows/cols must have equal lengths")

    with obs.span(
        "delta.apply", nnz=int(matrix.nnz), edits=int(delta.size)
    ):
        return _apply_delta(matrix, ins_rows, ins_cols, ins_vals,
                            del_rows, del_cols)


def _row_keys(
    csr: CSRMatrix, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions and ``row * n + col`` keys of the stored entries of
    ``rows`` (sorted, distinct), both ascending: the search space of a
    row-local lookup."""
    starts = csr.ptr[rows]
    degrees = csr.ptr[rows + 1] - starts
    ends = np.cumsum(degrees)
    slots = np.arange(int(ends[-1]) if ends.size else 0, dtype=INDEX_DTYPE)
    slots += np.repeat(starts - (ends - degrees), degrees)
    keys = np.repeat(rows * np.int64(csr.n_cols), degrees)
    keys += csr.indices[slots]
    return slots, keys


def _apply_delta(matrix, ins_rows, ins_cols, ins_vals, del_rows, del_cols):
    m, n = matrix.shape
    span = np.int64(n)
    slots, keys = _row_keys(
        matrix, distinct(np.concatenate([ins_rows, del_rows]))
    )

    # -- deletions: binary-search each (deduplicated) coordinate ----------
    del_keys = distinct(del_rows.astype(np.int64) * span + del_cols)
    pos = np.searchsorted(keys, del_keys)
    valid = (pos < keys.shape[0]) & (keys[np.minimum(
        pos, max(keys.shape[0] - 1, 0)
    )] == del_keys) if keys.size else np.zeros(del_keys.shape[0], bool)
    if not np.all(valid):
        missing = del_keys[~valid][0] if del_keys.size else -1
        raise FormatError(
            f"delete targets a missing entry at "
            f"(row={int(missing // span)}, col={int(missing % span)})"
        )
    deleted = slots[pos]
    keep = np.ones(matrix.nnz, dtype=bool)
    keep[deleted] = False

    # -- insertions: sum duplicates among themselves, then merge ----------
    ins_keys = ins_rows.astype(np.int64) * span + ins_cols
    uniq_ins, inverse = np.unique(ins_keys, return_inverse=True)
    summed = np.zeros(uniq_ins.shape[0], dtype=matrix.dtype)
    np.add.at(summed, inverse, ins_vals)

    at = np.searchsorted(keys, uniq_ins)
    collide = np.zeros(uniq_ins.shape[0], dtype=bool)
    if keys.size:
        hit = np.minimum(at, keys.shape[0] - 1)
        collide = (keys[hit] == uniq_ins) & keep[slots[hit]]
    fresh_keys = uniq_ins[~collide]
    fresh_rows = (fresh_keys // span).astype(INDEX_DTYPE)
    fresh_cols = (fresh_keys % span).astype(INDEX_DTYPE)
    # Each fresh entry's slot in the new arrays: the old entries ahead of
    # it (its row's start plus its rank among the row's keys), less the
    # deleted ones among them, plus the fresh entries ahead of it (its
    # own rank, because fresh_keys is sorted).
    ahead = matrix.ptr[fresh_rows] + (
        np.searchsorted(keys, fresh_keys)
        - np.searchsorted(keys, fresh_rows * span)
    )
    ahead -= np.searchsorted(deleted, ahead)
    fresh_at = ahead + np.arange(fresh_keys.shape[0], dtype=INDEX_DTYPE)

    # -- move ptr, then write survivors and fresh entries in one scatter --
    removed_rows = (del_keys // span).astype(INDEX_DTYPE)
    ptr = np.empty(m + 1, dtype=INDEX_DTYPE)
    ptr[0] = 0
    np.cumsum(
        np.bincount(fresh_rows, minlength=m)
        - np.bincount(removed_rows, minlength=m),
        out=ptr[1:],
    )
    ptr[1:] += matrix.ptr[1:]
    survivor_slot = np.ones(int(ptr[-1]), dtype=bool)
    survivor_slot[fresh_at] = False
    survivors = matrix.data[keep]
    updated = slots[at[collide]]
    survivors[updated - np.searchsorted(deleted, updated)] += summed[collide]
    indices = np.empty(survivor_slot.shape[0], dtype=INDEX_DTYPE)
    data = np.empty(survivor_slot.shape[0], dtype=matrix.data.dtype)
    indices[survivor_slot] = matrix.indices[keep]
    data[survivor_slot] = survivors
    indices[fresh_at] = fresh_cols
    data[fresh_at] = summed[~collide]
    new_csr = CSRMatrix._from_validated(ptr, indices, data, (m, n))

    effect = DeltaEffect(
        shape=(m, n),
        added_rows=fresh_rows,
        added_cols=fresh_cols,
        removed_rows=removed_rows,
        removed_cols=(del_keys % span).astype(INDEX_DTYPE),
        updated_rows=(uniq_ins[collide] // span).astype(INDEX_DTYPE),
        updated_cols=(uniq_ins[collide] % span).astype(INDEX_DTYPE),
    )
    return new_csr, effect


@dataclass(frozen=True)
class PatchResult:
    """One patched (or rebuilt) operand plus how it was produced."""

    matrix: SparseMatrix
    #: ``"patched"`` — edited in O(delta rows) without reconversion;
    #: ``"rebuilt"`` — reconverted from the new CSR (fallback).
    mode: str


def patch_operand(
    operand: SparseMatrix,
    new_csr: CSRMatrix,
    effect: DeltaEffect,
) -> PatchResult:
    """Carry a structure delta into an already-converted operand.

    CSR adopts the new arrays directly; ELL and DIA are patched row- and
    coordinate-wise when their padded geometry survives the delta (same
    width, same diagonal set); every other format — and any geometry
    change — falls back to a from-scratch reconversion through CSR.
    Either way the result is bitwise-identical to
    ``convert(new_csr, operand.format_name)``.
    """
    fmt = operand.format_name
    if fmt is FormatName.CSR:
        PATCH_EVENTS.increment()
        return PatchResult(new_csr, "patched")
    if fmt is FormatName.COO:
        # The expansion is one repeat (plus two copies unless the new
        # CSR is frozen, whose arrays the COO shares) — already O(nnz)
        # with a constant far below any reconversion, so "patching" COO
        # is simply re-expanding the spliced CSR arrays.
        PATCH_EVENTS.increment()
        coo, _ = csr_to_coo(new_csr)
        return PatchResult(coo, "patched")
    if fmt is FormatName.ELL and isinstance(operand, ELLMatrix):
        patched = _patch_ell(operand, new_csr, effect)
        if patched is not None:
            PATCH_EVENTS.increment()
            return PatchResult(patched, "patched")
    if fmt is FormatName.DIA and isinstance(operand, DIAMatrix):
        patched = _patch_dia(operand, new_csr, effect)
        if patched is not None:
            PATCH_EVENTS.increment()
            return PatchResult(patched, "patched")
    rebuilt, _ = convert(new_csr, fmt, fill_budget=None)
    return PatchResult(rebuilt, "rebuilt")


def _patch_ell(
    operand: ELLMatrix, new_csr: CSRMatrix, effect: DeltaEffect
) -> Optional[ELLMatrix]:
    """Re-pack only the touched rows; None when the width changed.

    ELL slot positions depend only on each row's own entry order, so an
    untouched row's columns are already bitwise-correct; touched rows are
    zeroed and re-scattered exactly as :func:`csr_to_ell` would lay them
    out.
    """
    degrees = new_csr.row_degrees()
    max_rd = int(degrees.max()) if new_csr.n_rows and new_csr.nnz else 0
    if max_rd != operand.indices.shape[0]:
        return None
    touched = effect.touched_rows()
    indices = operand.indices.copy()
    data = operand.data.copy()
    if touched.size:
        indices[:, touched] = 0
        data[:, touched] = 0
        deg = degrees[touched]
        row_rep = np.repeat(touched, deg)
        starts = np.cumsum(deg) - deg
        slot = np.arange(row_rep.shape[0], dtype=INDEX_DTYPE) - np.repeat(
            starts, deg
        )
        src = np.repeat(new_csr.ptr[touched], deg) + slot
        indices[slot, row_rep] = new_csr.indices[src]
        data[slot, row_rep] = new_csr.data[src]
    return ELLMatrix._from_validated(
        indices, data, new_csr.shape, new_csr.nnz
    )


def _patch_dia(
    operand: DIAMatrix, new_csr: CSRMatrix, effect: DeltaEffect
) -> Optional[DIAMatrix]:
    """Overwrite only the touched coordinates; None when the diagonal set
    changed (a vanished or newborn diagonal reshapes the dense store)."""
    if not np.array_equal(new_csr.diagonal_offsets(), operand.offsets):
        return None
    rows = np.concatenate(
        [effect.added_rows, effect.removed_rows, effect.updated_rows]
    )
    cols = np.concatenate(
        [effect.added_cols, effect.removed_cols, effect.updated_cols]
    )
    data = operand.data.copy()
    if rows.size:
        diag_of = cols.astype(np.int64) - rows.astype(np.int64)
        diag_slot = np.searchsorted(operand.offsets, diag_of)
        # Final value at each touched coordinate: look it up among the
        # new CSR's entries of the touched rows (0 when the entry
        # vanished).  Removed coordinates may not exist any more, so the
        # lookup masks on an exact key match.
        span = np.int64(new_csr.n_cols)
        slots, keys = _row_keys(new_csr, distinct(rows))
        want = rows.astype(np.int64) * span + cols.astype(np.int64)
        pos = np.minimum(
            np.searchsorted(keys, want), max(keys.shape[0] - 1, 0)
        )
        values = np.zeros(want.shape[0], dtype=new_csr.dtype)
        if keys.size:
            hit = keys[pos] == want
            values[hit] = new_csr.data[slots[pos[hit]]]
        data[diag_slot, rows] = values
    return DIAMatrix._from_validated(
        operand.offsets.copy(), data, new_csr.shape
    )


def rebuild_operand(
    new_csr: CSRMatrix, fmt: FormatName
) -> SparseMatrix:
    """From-scratch reconversion (the reference the sweep compares against)."""
    rebuilt, _ = convert(new_csr, fmt, fill_budget=None)
    return rebuilt
