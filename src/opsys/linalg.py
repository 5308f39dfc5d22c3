"""Dense complex linear algebra underneath the operator-system layer.

Rank and span decisions are made with a rank-revealing SVD and a *relative*
singular-value cutoff (``sigma_i > rel * sigma_max``), so they are invariant
under rescaling of the input.  Membership in a span with an HS-orthonormal
basis needs no SVD: it is a projection residual, :func:`span_residuals`.
Everything in this module is deterministic; randomized callers live elsewhere
and carry explicit seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Projection",
    "as_matrix",
    "as_vector",
    "hs_inner",
    "hs_norm",
    "span_residuals",
    "null_space",
    "numerical_rank",
    "rank_at",
    "stacked_singular_values",
    "span_orthonormalize",
    "projection_from_vectors",
    "hermitian_split",
    "pack_real",
    "unpack_real",
]


@dataclass(frozen=True)
class Tolerance:
    """Relative singular-value cutoffs used throughout.

    Parameters
    ----------
    rank_rel
        Cutoff used for ordinary rank and span decisions during search.
    cert_rel
        Stricter cutoff applied when a certificate is issued.  A dimension
        count that differs between the two cutoffs is treated as unresolved
        rather than silently trusted.
    """

    rank_rel: float = 1e-9
    cert_rel: float = 1e-11

    def __post_init__(self) -> None:
        if not (0.0 < self.cert_rel <= self.rank_rel < 1.0):
            raise ValueError(
                f"need 0 < cert_rel <= rank_rel < 1, got "
                f"rank_rel={self.rank_rel!r} cert_rel={self.cert_rel!r}"
            )


DEFAULT_TOL = Tolerance()

def as_matrix(a, n: int | None = None) -> np.ndarray:
    """Coerce ``a`` to a square complex128 array, validating shape and finiteness."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if n is not None and m.shape[0] != n:
        raise ValueError(f"expected a {n}x{n} matrix, got side {m.shape[0]}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(v, n: int | None = None) -> np.ndarray:
    """Coerce ``v`` to a 1-d complex128 array."""
    w = np.asarray(v, dtype=np.complex128).ravel()
    if n is not None and w.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}, got {w.shape[0]}")
    if not np.isfinite(w).all():
        raise ValueError("vector entries must be finite")
    return w


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product ``Tr(a @ b^*)``.

    Linear in ``a`` and conjugate-linear in ``b``; positive definite.
    """
    am = as_matrix(a)
    bm = as_matrix(b, am.shape[0])
    return complex(np.vdot(bm, am))


def hs_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=np.complex128)))


def span_residuals(basis: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """HS distance of each matrix in ``stack`` (any leading axes, flattened)
    from the span of the HS-orthonormal ``(d, n, n)`` stack ``basis``.  Non-finite
    input gives a non-finite residual, so ``resid <= cutoff`` fails closed."""
    flat = basis.reshape(basis.shape[0], -1)
    rows = np.reshape(stack, (-1, flat.shape[1]))
    return np.linalg.norm(rows - (rows @ flat.conj().T) @ flat, axis=1)


def null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal frame ``(n, n - rank)`` of the null space of the ``(m, n)`` array ``a``.

    The rank counts singular values above ``eps * max(m, n) * sigma_max``.  A
    tall or square ``a`` pays for singular values alone when its rank is full
    (an empty frame); otherwise one reduced SVD supplies the frame, with all
    n right singular vectors computed only for a wide ``a``.
    """
    m, n = a.shape
    cutoff = np.finfo(float).eps * max(m, n)
    if m >= n:
        s = np.linalg.svd(a, compute_uv=False)
        if np.count_nonzero(s > cutoff * s.max(initial=0.0)) == n:
            return np.zeros((n, 0), dtype=np.result_type(a, 1.0))
    _, s, vh = np.linalg.svd(a, full_matrices=m < n)
    return vh[np.count_nonzero(s > cutoff * s.max(initial=0.0)) :].conj().T


def _stack_flat(items: Sequence) -> np.ndarray:
    arrs = [np.asarray(x, dtype=np.complex128) for x in items]
    if not arrs:
        raise ValueError("rank of an empty collection is undefined")
    shape = arrs[0].shape
    for x in arrs[1:]:
        if x.shape != shape:
            raise ValueError(f"shape mismatch: {x.shape} vs {shape}")
    return np.stack([x.ravel() for x in arrs])


def stacked_singular_values(items: Sequence) -> np.ndarray:
    """Singular values of the matrix whose rows are the flattened ``items``."""
    return np.linalg.svd(_stack_flat(items), compute_uv=False)


def rank_at(singular_values: np.ndarray, rel: float) -> int:
    """Count singular values above ``rel * sigma_max``.  All-zero input has rank 0."""
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > rel * s[0]))


def numerical_rank(items: Sequence, tol: Tolerance = DEFAULT_TOL) -> int:
    """Dimension of the complex span of ``items`` (matrices or vectors).

    Uses the relative cutoff ``tol.rank_rel``; scaling every item by a common
    nonzero factor never changes the answer.
    """
    return rank_at(stacked_singular_values(items), tol.rank_rel)


def span_orthonormalize(items: Sequence, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis (Hilbert-Schmidt inner product) of span(items).

    The output is produced by a rank-revealing SVD rather than sequential
    Gram-Schmidt, so near-dependent inputs are handled stably.  It is
    deterministic for a fixed input ordering.  Length equals
    ``numerical_rank(items, tol)``; a list of zero matrices yields ``[]``.
    """
    stack = _stack_flat(items)
    shape = np.asarray(items[0]).shape
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    r = rank_at(s, tol.rank_rel)
    return [vh[i].reshape(shape) for i in range(r)]


@dataclass(frozen=True, eq=False)
class Projection:
    """Rank-``k`` orthogonal projection on C^n, stored as an orthonormal frame.

    ``frame`` has shape ``(n, k)`` with orthonormal columns; the projection
    matrix is ``frame @ frame^H``.  Compressions are reported in frame
    coordinates, i.e. as ``k x k`` matrices.
    """

    n: int
    k: int
    frame: np.ndarray

    def __post_init__(self) -> None:
        f = np.ascontiguousarray(self.frame, dtype=np.complex128)
        object.__setattr__(self, "frame", f)
        if self.k < 1:
            raise ValueError("rank-0 projections are not allowed")
        if f.shape != (self.n, self.k):
            raise ValueError(f"frame shape {f.shape} does not match (n, k)=({self.n}, {self.k})")
        gram = f.conj().T @ f
        if not np.linalg.norm(gram - np.eye(self.k)) <= 1e-8 * max(1, self.k):
            raise ValueError("frame columns are not orthonormal")

    @classmethod
    def from_frame(cls, frame) -> "Projection":
        f = np.asarray(frame, dtype=np.complex128)
        if f.ndim != 2:
            raise ValueError("frame must be a 2-d array of column vectors")
        return cls(f.shape[0], f.shape[1], f)

    @classmethod
    def coordinate(cls, n: int, indices: Iterable[int]) -> "Projection":
        """Projection onto the span of the given standard basis vectors."""
        idx = list(indices)
        frame = np.zeros((n, len(idx)), dtype=np.complex128)
        for col, i in enumerate(idx):
            frame[i, col] = 1.0
        return cls(n, len(idx), frame)

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.frame @ self.frame.conj().T

    def compress(self, a) -> np.ndarray:
        """Frame-coordinate compression ``frame^H @ a @ frame`` (a k x k matrix)."""
        return self.frame.conj().T @ as_matrix(a, self.n) @ self.frame

    def compress_stack(self, stack: np.ndarray) -> np.ndarray:
        """Compress a ``(m, n, n)`` stack to ``(m, k, k)`` with two matrix products.

        ``A_i F`` for all i is one product over the m·n rows of the stack,
        which reads it once and copies nothing; after a transpose of that
        small ``(m, n, k)`` result, one more product with ``F^H`` finishes
        every slice.
        """
        m, n, k = len(stack), self.n, self.k
        right = (stack.reshape(m * n, n) @ self.frame).reshape(m, n, k)
        both = self.frame.conj().T @ right.transpose(1, 0, 2).reshape(n, m * k)
        return both.reshape(k, m, k).transpose(1, 0, 2)


def projection_from_vectors(vectors: Sequence, tol: Tolerance = DEFAULT_TOL) -> Projection:
    """Projection onto span(vectors); rank is detected with ``tol.rank_rel``."""
    vecs = [as_vector(v) for v in vectors]
    rows = span_orthonormalize(vecs, tol)
    if not rows:
        raise ValueError("cannot build a projection from a zero span")
    frame = np.stack(rows, axis=1)
    return Projection(frame.shape[0], frame.shape[1], frame)


def hermitian_split(a) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian and anti-Hermitian parts: ``a = H + iK`` with both H, K Hermitian."""
    m = as_matrix(a)
    h = (m + m.conj().T) / 2.0
    k = (m - m.conj().T) / 2.0j
    return h, k


def pack_real(x: np.ndarray) -> np.ndarray:
    """Real vector ``[Re x, Im x]`` of a complex array, each half row-major."""
    return np.concatenate([x.real.ravel(), x.imag.ravel()])


def unpack_real(xr: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`pack_real`: the complex array of ``shape``."""
    half = xr.shape[0] // 2
    return (xr[:half] + 1j * xr[half:]).reshape(shape)
