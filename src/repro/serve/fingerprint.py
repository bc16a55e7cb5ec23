"""Matrix fingerprints: cache keys for tuned SpMV plans.

SMAT's decision is a function of the matrix alone, so a serving layer can
key "decision + converted matrix" by a digest of the matrix.  The
fingerprint has two parts:

* cheap scalars (shape, nnz, dtype) that reject most non-matches without
  hashing anything, and
* a SHA-256 digest, truncated to 16 bytes, over the CSR arrays — the row
  pointer (structure), the column indices (pattern) and the value bytes.

Values are included deliberately: the cache stores the *converted matrix*,
so two matrices with identical structure but different values must not
collide (they would silently serve each other's products).

A request for a writeable matrix pays the hash at submit, so it is the
largest fixed cost of a cached request.  ``hashlib.sha256`` is OpenSSL's,
which uses the CPU's SHA extensions where present: about 1.1 GB/s on a
2-vCPU SHA-NI host, against about 390 MB/s for BLAKE2b there (0.41 ms
against 1.17 ms for a 26,596-nnz matrix).  The arrays' own buffers are
fed to the hash, so a C-contiguous matrix is hashed without copying it.

A *frozen* matrix (:meth:`CSRMatrix.frozen`; ``is_frozen``) holds its
arrays in immutable ``bytes``, so its content cannot change after it is
hashed.  :func:`fingerprint` hashes such a matrix once and keeps the key
on it, next to the three array objects it hashed; later calls return
that key while the matrix still holds those same objects and is still
frozen (a deep copy or an unpickled copy carries the key along but owns
writeable arrays, so it is hashed again).  A memo hit costs a few
microseconds where hashing a 60,290-nnz power-law graph costs about
0.9 ms.  Writeable matrices are hashed on every call: an in-place
edit must change the key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.formats.csr import CSRMatrix

#: Digest size in bytes.  16 bytes (128 bits) makes accidental collisions
#: astronomically unlikely at any realistic cache population.
_DIGEST_SIZE = 16


def _structure_hash(ptr: np.ndarray, indices: np.ndarray) -> "hashlib._Hash":
    """SHA-256 state after the row pointer and the column indices."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ptr))
    h.update(np.ascontiguousarray(indices))
    return h


def _hex(h: "hashlib._Hash") -> str:
    return h.digest()[:_DIGEST_SIZE].hex()


@dataclass(frozen=True)
class StructureKey:
    """Tier-2 cache key: the identity of a sparsity *structure*.

    Two matrices share a StructureKey exactly when they have the same
    shape, dtype and ptr/indices arrays — the case where a cached tuning
    decision carries over and only the value arrays need refreshing.
    """

    shape: Tuple[int, int]
    nnz: int
    dtype: str
    digest: str

    def __str__(self) -> str:
        m, n = self.shape
        return f"{m}x{n}/{self.nnz}nnz/{self.dtype}/~{self.digest[:10]}"


@dataclass(frozen=True)
class Fingerprint:
    """A compact, hashable identity for one CSR matrix."""

    shape: Tuple[int, int]
    nnz: int
    dtype: str
    digest: str
    #: Structure-only digest (ptr + indices, no values); empty for
    #: fingerprints minted before the two-tier cache existed.
    structural: str = ""

    @property
    def structure_key(self) -> Optional[StructureKey]:
        """The tier-2 key this fingerprint belongs under, if known."""
        if not self.structural:
            return None
        return StructureKey(self.shape, self.nnz, self.dtype, self.structural)

    def __str__(self) -> str:
        m, n = self.shape
        return f"{m}x{n}/{self.nnz}nnz/{self.dtype}/{self.digest[:10]}"


def fingerprint(matrix: CSRMatrix) -> Fingerprint:
    """Fingerprint a CSR matrix (one streaming pass over its arrays).

    The structural digest comes for free: it is read from the hash state
    after ptr and indices, before the value bytes are folded in, so one
    pass yields both the value-inclusive tier-1 key and the
    structure-only tier-2 key.  A frozen matrix is hashed once; its key
    is kept on it (see the module docstring).
    """
    ptr, indices, data = matrix.ptr, matrix.indices, matrix.data
    memo = matrix._fingerprint_memo
    if (
        memo is not None
        and memo[0] is ptr
        and memo[1] is indices
        and memo[2] is data
        and matrix.is_frozen
    ):
        return memo[3]
    h = _structure_hash(ptr, indices)
    structural = _hex(h)
    h.update(np.ascontiguousarray(data))
    key = Fingerprint(
        shape=matrix.shape,
        nnz=int(data.shape[0]),
        dtype=str(matrix.dtype),
        digest=_hex(h),
        structural=structural,
    )
    if matrix.is_frozen:
        matrix._fingerprint_memo = (ptr, indices, data, key)
    return key


def structural_digest(matrix: CSRMatrix) -> str:
    """Digest of the sparsity structure only (ptr + indices, no values).

    Two matrices with the same structural digest get the same tuning
    decision even when their values differ — the structure-keyed tier of
    the plan cache shares decisions across exactly this equivalence, and
    :func:`fingerprint` computes the identical digest as a by-product
    (``fingerprint(m).structural == structural_digest(m)``).
    """
    return _hex(_structure_hash(matrix.ptr, matrix.indices))
