"""Operator systems: unital, adjoint-closed subspaces of M_n, plus certification.

An operator system is stored as a Hilbert-Schmidt-orthonormal basis stack of
shape ``(dim, n, n)``.  The identity always lies in the span and the span is
closed under adjoints; both invariants are checked at construction time.
Span membership (these invariants, ``contains``, and the algebra, bimodule and
tensor-factor checks of ``quantum_graphs``) is decided in one place: the
projection residual ``linalg.span_residuals``, compared with a cutoff.

One certifier decides every verdict.  It compares the compression ``P V P``
with the compression of a scalar side ``S``: span{I_n} for a plain system
(:func:`certify`) and the commutant M' for a quantum graph over an algebra M
(``quantum_graphs.generalized_certify``).  A clique means ``dim(P V P)`` is
the maximal ``k^2``; an anticlique means ``P V P = P S P``, i.e. the two
compressions and their joint span have one dimension.  Each of the three
dimensions is computed at the search cutoff ``rank_rel`` and again at the
stricter ``cert_rel``, and the certificate records the ``cert_rel`` counts.
If any count differs between the cutoffs the verdict is ``Kind.NEITHER``
with an explanatory trace entry, never a silently shaky certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Projection,
    Tolerance,
    as_matrix,
    as_vector,
    hermitian_split,
    pack_real,
    rank_at,
    span_orthonormalize,
    span_residuals,
    unpack_real,
)

__all__ = [
    "OperatorSystem",
    "Kind",
    "Certificate",
    "from_span",
    "compress_system",
    "certify",
    "orbit_dim",
    "hermitian_basis",
    "derive_seed",
    "derive_rng",
    "random_hermitian",
    "haar_unitary",
    "random_system",
    "random_diagonal_system",
    "random_projection",
]

_GRAM_TOL = 1e-10
_CLOSURE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class OperatorSystem:
    """Adjoint-closed unital subspace of M_n with an HS-orthonormal basis."""

    n: int
    basis: np.ndarray  # (dim, n, n)

    def __post_init__(self) -> None:
        b = np.ascontiguousarray(self.basis, dtype=np.complex128)
        object.__setattr__(self, "basis", b)
        if b.ndim != 3 or b.shape[1:] != (self.n, self.n):
            raise ValueError(f"basis stack must have shape (dim, {self.n}, {self.n})")
        d = b.shape[0]
        if not 1 <= d <= self.n * self.n:
            raise ValueError(f"dimension {d} is impossible in M_{self.n}")
        # Each check is written as ``not (x <= tol)`` so that NaN fails it.
        flat = b.reshape(d, -1)
        gram = flat @ flat.conj().T
        if not np.linalg.norm(gram - np.eye(d)) <= _GRAM_TOL * d:
            raise ValueError("basis is not HS-orthonormal")
        eye = np.eye(self.n, dtype=np.complex128)
        if not span_residuals(b, eye)[0] <= _CLOSURE_TOL * np.sqrt(self.n):
            raise ValueError("identity does not lie in the span")
        if not span_residuals(b, b.conj().transpose(0, 2, 1)).max() <= _CLOSURE_TOL:
            raise ValueError("span is not closed under adjoints")

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    def contains(self, a, rel: float = 1e-9) -> bool:
        m = as_matrix(a, self.n)
        return bool(span_residuals(self.basis, m)[0] <= rel * max(np.linalg.norm(m), 1e-300))


class Kind(str, Enum):
    CLIQUE = "clique"
    ANTICLIQUE = "anticlique"
    NEITHER = "neither"


@dataclass(frozen=True, eq=False)
class Certificate:
    """Outcome of certifying one projection against one operator system.

    ``compressed_dim`` is dim(P V P) at the certification cutoff ``cert_rel``.
    ``commutant_dim`` is the dimension, at the same cutoff, of the compressed
    scalar side of the anticlique comparison: 1 for plain operator systems
    (the compression must be the scalars), and dim(P M' P) when certifying
    against a quantum graph on an algebra M, where the anticlique condition
    is P V P = P M' P.
    """

    projection: Projection
    kind: Kind
    compressed_dim: int
    k: int
    tol: Tolerance
    seed: int | None = None
    trace: tuple[str, ...] = ()
    commutant_dim: int = 1

    def __post_init__(self) -> None:
        if self.projection.k != self.k:
            raise ValueError(f"projection has rank {self.projection.k}, expected k = {self.k}")
        if self.kind is Kind.CLIQUE and self.compressed_dim != self.k * self.k:
            raise ValueError("clique certificates require compressed_dim == k^2")
        if self.kind is Kind.ANTICLIQUE and self.compressed_dim != self.commutant_dim:
            raise ValueError(
                "anticlique certificates require compressed_dim == commutant_dim"
            )


def from_span(matrices, n: int, tol: Tolerance = DEFAULT_TOL) -> OperatorSystem:
    """Smallest operator system containing ``matrices``: adjoin I_n and adjoints, orthonormalize."""
    mats = [as_matrix(m, n) for m in matrices]
    closed = [np.eye(n, dtype=np.complex128)]
    closed.extend(mats)
    closed.extend(m.conj().T for m in mats)
    basis = span_orthonormalize(closed, tol)
    return OperatorSystem(n, np.stack(basis))


def compress_system(v: OperatorSystem, p: Projection, tol: Tolerance = DEFAULT_TOL) -> OperatorSystem:
    """The operator system ``P V P`` in frame coordinates (lives in M_k).

    Contains I_k automatically because ``P I_n P`` compresses to the identity.
    """
    if p.n != v.n:
        raise ValueError(f"projection on C^{p.n} cannot compress a system in M_{v.n}")
    comp = p.compress_stack(v.basis)
    basis = span_orthonormalize(list(comp), tol)
    return OperatorSystem(p.k, np.stack(basis))


def _certify_against(
    v: OperatorSystem,
    scalars: np.ndarray,
    p: Projection,
    k: int,
    tol: Tolerance,
    seed: int | None,
    trace: tuple[str, ...],
) -> Certificate:
    """The dual-cutoff verdict described in the module docstring.

    ``scalars`` is an HS-orthonormal stack spanning the scalar side S.
    """
    if p.n != v.n:
        raise ValueError(f"projection on C^{p.n} does not act on M_{v.n}")
    if p.k != k:
        raise ValueError(f"projection has rank {p.k}, expected {k}")
    rows_v = p.compress_stack(v.basis).reshape(v.dim, k * k)
    rows_s = p.compress_stack(scalars).reshape(scalars.shape[0], k * k)
    dims = []
    for rows in (rows_v, rows_s, np.concatenate([rows_v, rows_s])):
        s = np.linalg.svd(rows, compute_uv=False)
        dims.append((rank_at(s, tol.rank_rel), rank_at(s, tol.cert_rel)))
    (_, d_v), (_, d_s), (_, d_joint) = dims
    notes = tuple(trace)
    if any(search != cert for search, cert in dims):
        kind = Kind.NEITHER
        pairs = ", ".join(f"{name} {a}/{b}" for name, (a, b) in zip(("PVP", "PSP", "joint"), dims))
        notes += (f"tolerance-ambiguous compression, dims at rank_rel/cert_rel: {pairs}",)
    elif d_v == k * k:
        kind = Kind.CLIQUE
    elif d_v == d_s == d_joint:
        kind = Kind.ANTICLIQUE
    else:
        kind = Kind.NEITHER
    return Certificate(p, kind, d_v, k, tol, seed, notes, commutant_dim=d_s)


def certify(
    v: OperatorSystem,
    p: Projection,
    k: int,
    tol: Tolerance = DEFAULT_TOL,
    *,
    seed: int | None = None,
    trace: tuple[str, ...] = (),
) -> Certificate:
    """Certify ``p`` against ``v``: clique iff dim(PVP) = k^2, anticlique iff PVP = C·I_k.

    The scalar side is span{I_n}.  Dimensions are computed at both
    ``tol.rank_rel`` and ``tol.cert_rel``; if the counts disagree the
    certificate is downgraded to ``Kind.NEITHER`` with a trace note.
    """
    scalars = np.eye(v.n, dtype=np.complex128)[None] / np.sqrt(v.n)
    return _certify_against(v, scalars, p, k, tol, seed, trace)


def orbit_dim(v: OperatorSystem, vec, tol: Tolerance = DEFAULT_TOL) -> int:
    """Dimension of the orbit ``{A x : A in V}`` of a nonzero vector ``x``."""
    x = as_vector(vec, v.n)
    if np.linalg.norm(x) == 0.0:
        raise ValueError("orbit of the zero vector is undefined")
    orbit = np.einsum("mij,j->mi", v.basis, x, optimize=True)
    s = np.linalg.svd(orbit, compute_uv=False)
    return rank_at(s, tol.rank_rel)


def hermitian_basis(v: OperatorSystem) -> np.ndarray:
    """Real-orthonormal Hermitian basis of the Hermitian part of ``v``.

    The first element is ``I/sqrt(n)``; the rest are traceless.  For an
    operator system the real dimension of the Hermitian part equals
    ``v.dim``, so the stack has shape ``(v.dim, n, n)`` in the generic case.

    Only the span is determined, not the traceless elements themselves.  The
    SVD input holds the Hermitian parts of the real-orthonormal basis
    {B_a, -i·B_a} of V with the identity direction removed: an orthogonal
    projection onto the traceless Hermitian part of V, written in that
    basis.  Its ``v.dim - 1`` nonzero singular values are therefore all 1,
    and LAPACK returns an arbitrary rotation of the basis within the span.
    """
    n = v.n
    flat = np.stack([pack_real(h) for a in v.basis for h in hermitian_split(a)])
    ident = np.eye(n, dtype=np.complex128) / np.sqrt(n)
    iflat = pack_real(ident)
    flat = flat - np.outer(flat @ iflat, iflat)
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    r = rank_at(s, DEFAULT_TOL.rank_rel)
    return np.stack([ident] + [unpack_real(row, (n, n)) for row in vh[:r]])


def derive_seed(seed: int, *key: int) -> int:
    """Stable derived seed for a sub-search, distinct per key path."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1)[0])


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator seeded by :func:`derive_seed`."""
    return np.random.default_rng(derive_seed(seed, *key))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """GUE-style random Hermitian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2.0


def _haar_frame(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Haar-distributed isometry C^k -> C^n via phase-fixed QR of a Ginibre matrix."""
    z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary."""
    return _haar_frame(rng, n, n)


def random_system(n: int, d: int, seed: int) -> OperatorSystem:
    """Operator system of dimension exactly ``d``: span{I} plus d-1 random Hermitians.

    Deterministic given ``seed``.  Requires ``1 <= d <= n^2``.
    """
    if not 1 <= d <= n * n:
        raise ValueError(f"dimension {d} is impossible in M_{n}")
    rng = np.random.default_rng(seed)
    for _ in range(32):
        mats = [random_hermitian(rng, n) for _ in range(d - 1)]
        sys = from_span(mats, n)
        if sys.dim == d:
            return sys
    raise RuntimeError(f"could not draw a dimension-{d} system in M_{n}")


def random_diagonal_system(n: int, d: int, seed: int) -> OperatorSystem:
    """Operator system inside the diagonal algebra D_n with dimension exactly ``d``."""
    if not 1 <= d <= n:
        raise ValueError(f"a diagonal system in M_{n} has dimension between 1 and {n}")
    rng = np.random.default_rng(seed)
    for _ in range(32):
        mats = [np.diag(rng.standard_normal(n)).astype(np.complex128) for _ in range(d - 1)]
        sys = from_span(mats, n)
        if sys.dim == d:
            return sys
    raise RuntimeError(f"could not draw a dimension-{d} diagonal system in M_{n}")


def random_projection(n: int, k: int, seed: int) -> Projection:
    """Random rank-``k`` projection (Haar frame), deterministic given ``seed``."""
    if not 1 <= k <= n:
        raise ValueError(f"rank {k} is impossible in C^{n}")
    return Projection(n, k, _haar_frame(np.random.default_rng(seed), n, k))
