"""The clique-or-anticlique dichotomy search.

Three layers: the diagonal trichotomy (clique by coordinate selection,
anticlique by the low-dimension extractor, or an honest Neither), the
phase-1 search for vectors with small orbits whose accumulated compression
is diagonal, and the phase-2 chain construction feeding the staircase
clique machinery.  Each stage of ``find`` and each route of
``quantum_graphs.general_find`` yields candidate projections; one loop,
:func:`_first_certified`, re-certifies them and decides when to return.  At
the guaranteed ambient scale one branch always fires; at desk scale Neither
is a legitimate, fully traced outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Collection, Generator, Iterator, Sequence

import numpy as np

from .constructions import _diagonal_clique_frame, anticlique_lowdim, blocks2_clique
from .errors import SearchBudgetError
from .linalg import DEFAULT_TOL, Projection, Tolerance, as_vector, null_space
from .systems import (
    Certificate,
    Kind,
    OperatorSystem,
    certify,
    compress_system,
    derive_rng,
    derive_seed,
    from_span,
    orbit_dim,
    random_projection,
)

__all__ = [
    "SearchParams",
    "diagonal_route",
    "phase1_vector_search",
    "phase2_chain",
    "find_clique_or_anticlique",
]


@dataclass(frozen=True)
class SearchParams:
    """Thresholds steering the two-phase search.

    The guaranteed-scale values are enormous (the ambient dimension that
    makes them sufficient is 8k^11); desk-scale runs override them freely —
    the pipeline structure is unchanged, only the budgets shrink.
    """

    orbit_threshold: int
    phase1_steps: int
    phase2_steps: int
    retry_budget: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("orbit_threshold", "phase1_steps", "phase2_steps", "retry_budget"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @classmethod
    def for_k(cls, k: int, seed: int = 0, retry_budget: int = 16) -> "SearchParams":
        """Guaranteed-scale thresholds: orbit cutoff 8k^8, k^3 phase-1 steps, 2k^4 chain steps."""
        if k < 1:
            raise ValueError("need k >= 1")
        return cls(8 * k**8, k**3, 2 * k**4, retry_budget, seed)


# ---------------------------------------------------------------------------
# diagonal trichotomy
# ---------------------------------------------------------------------------


def _diagonal_stack(v: OperatorSystem) -> np.ndarray:
    """Diagonals of the basis, erroring on any off-diagonal support."""
    scale = max(float(np.abs(v.basis).max()), 1e-300)
    for idx, a in enumerate(v.basis):
        off = a - np.diag(np.diagonal(a))
        if np.abs(off).max() > 1e-8 * scale:
            raise ValueError(f"basis element {idx} is not diagonal")
    return np.stack([np.diagonal(a) for a in v.basis])


def diagonal_route(
    v: OperatorSystem, k: int, tol: Tolerance = DEFAULT_TOL, seed: int = 0
) -> Certificate:
    """Clique or anticlique for a system of diagonal matrices.

    If dim(V) >= k^2+k-1 a clique is produced by selecting coordinates on
    which the diagonals stay independent and running the diagonal clique
    construction there; if dim(V) <= (n-k)/(k-1) the low-dimension
    anticlique extractor applies.  For n >= k^3-k+1 one branch always holds;
    below that the result may honestly be Neither, with a trace.
    """
    n = v.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k = {k}")
    diags = _diagonal_stack(v)
    d = v.dim
    m = k * k + k - 1
    trace: list[str] = []
    if d >= m:
        frame = _diagonal_clique_frame(diags, k, tol)
        if frame is None:
            trace.append("no well-conditioned coordinate subset of size k^2+k-1")
        else:
            cert = certify(v, Projection.from_frame(frame), k, tol, seed=seed)
            if cert.kind is Kind.CLIQUE:
                return cert
            trace.append("clique branch failed to certify despite dim >= k^2+k-1")
    if k >= 2 and d * (k - 1) <= n - k:
        try:
            return anticlique_lowdim(v, k, seed=seed, tol=tol)
        except SearchBudgetError as exc:
            trace.append(f"anticlique branch exhausted: {exc}")
    else:
        if d < m:
            trace.append(
                f"neither branch applies: dim {d} in {m - 1}..{n} gap for n = {n}, k = {k}"
            )
    p = Projection.coordinate(n, range(k))
    return certify(v, p, k, tol, seed=seed, trace=tuple(trace))


# ---------------------------------------------------------------------------
# phase 1: small-orbit vectors
# ---------------------------------------------------------------------------


def _orbit_orthocomplement(v: OperatorSystem, vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Orthonormal frame of the joint orthocomplement of the orbits V·v_j."""
    n = v.n
    if not vectors:
        return np.eye(n, dtype=np.complex128)
    rows = []
    for w in vectors:
        rows.append(np.einsum("mij,j->mi", v.basis, w, optimize=True))
    stacked = np.concatenate(rows, axis=0)
    return null_space(stacked.conj())


def phase1_vector_search(
    v: OperatorSystem, existing: Sequence[np.ndarray], threshold: int, seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray | None:
    """Unit vector orthogonal to all existing orbits with orbit dimension < threshold.

    Candidates come, in this order, from eigenvectors of three random
    Hermitian elements of V compressed to the orthocomplement of the
    existing orbits, the smallest right singular vectors of the stacked
    orbit map, and seeded random draws; the first candidate whose full orbit
    dimension is below the threshold wins, and later candidates are never
    computed.  Each Hermitian element is the Hermitian part (Z + Z*)/2 of
    Z = sum_a g_a B_a, with B_a the HS-orthonormal basis of V and g_a
    independent standard complex Gaussians.  Because {B_a, i·B_a} is a
    real-orthonormal basis of V and V is closed under adjoints, (Z + Z*)/2
    is a standard Gaussian in the real space of Hermitian elements of V:
    the law of Gaussian weights on a real-orthonormal Hermitian basis, with
    no such basis built.  ``None`` means no candidate qualified — a
    legitimate outcome, not an error.
    """
    frame = _orbit_orthocomplement(v, [as_vector(w, v.n) for w in existing])
    return _phase1_search(v, frame, threshold, seed, tol)


def _phase1_candidates(
    v: OperatorSystem, frame: np.ndarray, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Phase-1 candidate directions in frame coordinates, generated on demand."""
    d, f = v.dim, frame.shape[1]
    p = Projection.from_frame(frame)
    flat = v.basis.reshape(d, -1)
    for _ in range(3):
        g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        zc = p.compress((g @ flat).reshape(v.n, v.n))
        _, vecs = np.linalg.eigh((zc + zc.conj().T) / 2)
        yield from vecs.T

    stacked = np.concatenate([a @ frame for a in v.basis], axis=0)
    _, _, vh = np.linalg.svd(stacked, full_matrices=False)
    for row in vh[max(0, vh.shape[0] - 3) :][::-1]:
        yield row.conj()

    for _ in range(8):
        z = rng.standard_normal(f) + 1j * rng.standard_normal(f)
        yield z / np.linalg.norm(z)


def _phase1_search(
    v: OperatorSystem, frame: np.ndarray, threshold: int, seed: int, tol: Tolerance
) -> np.ndarray | None:
    """:func:`phase1_vector_search` inside a precomputed orthocomplement ``frame``."""
    if frame.shape[1] == 0:
        return None
    # an orbit spans at most min(n, dim V) directions: above that the
    # threshold cannot reject, and the first nonzero candidate wins unmeasured
    accept_all = threshold > min(v.n, v.dim)
    for c in _phase1_candidates(v, frame, derive_rng(seed, 0)):
        x = frame @ c
        norm = np.linalg.norm(x)
        if norm < 1e-12:
            continue
        x = x / norm
        if accept_all or orbit_dim(v, x, tol) < threshold:
            return x
    return None


# ---------------------------------------------------------------------------
# phase 2: chains
# ---------------------------------------------------------------------------


def _forbidden_rows(ws: Sequence[np.ndarray], chain: Sequence[np.ndarray]) -> np.ndarray:
    """Constraint rows: the next vector must be orthogonal to all of these."""
    rows = [w.conj() for w in ws]
    for b in chain:
        for w in ws:
            rows.append((b @ w).conj())
            rows.append((b.conj().T @ w).conj())
    return np.stack(rows)


def phase2_chain(
    v: OperatorSystem, steps: int, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> tuple[list[np.ndarray], list[np.ndarray], list[str]]:
    """Grow a chain A_r with w_{r+1} proportional to A_r·w_r, each new vector
    orthogonal to the span of all previous w_j, A_i·w_j and A_i*·w_j.

    Returns (vectors, chain matrices, notes).  The chain stops early when the
    orthogonality constraints leave no direction with a nonzero image — at
    desk scale that is the usual outcome and is recorded in the notes.
    """
    rng = derive_rng(seed, 0)
    z = rng.standard_normal(v.n) + 1j * rng.standard_normal(v.n)
    return _phase2_chain(v, z / np.linalg.norm(z), steps, tol)


def _phase2_chain(
    v: OperatorSystem, w0: np.ndarray, steps: int, tol: Tolerance
) -> tuple[list[np.ndarray], list[np.ndarray], list[str]]:
    """:func:`phase2_chain` from the unit start vector ``w0``."""
    ws: list[np.ndarray] = [w0]
    chain: list[np.ndarray] = []
    notes: list[str] = []
    for r in range(steps):
        wr = ws[-1]
        m = np.stack([a @ wr for a in v.basis], axis=1)  # columns A_a w_r
        cons = _forbidden_rows(ws, chain) @ m
        null = null_space(cons)
        if null.shape[1] == 0:
            notes.append(f"chain stalled at step {r + 1}: constraints have no solution")
            break
        _, s, vh = np.linalg.svd(m @ null, full_matrices=False)
        if s[0] <= 1e-10:
            notes.append(f"chain stalled at step {r + 1}: feasible images all vanish")
            break
        coeff = null @ vh[0].conj()
        a_mat = np.einsum("a,aij->ij", coeff, v.basis, optimize=True)
        y = a_mat @ wr
        chain.append(a_mat)
        ws.append(y / np.linalg.norm(y))
    return ws, chain, notes


def _padding_vectors(
    v: OperatorSystem, ws: list[np.ndarray], chain: list[np.ndarray], count: int
) -> list[np.ndarray] | None:
    """Extra orthonormal vectors on which every chain matrix acts invisibly."""
    extras: list[np.ndarray] = []
    for _ in range(count):
        rows = _forbidden_rows(ws + extras, chain)
        null = null_space(rows)
        if null.shape[1] == 0:
            return None
        extras.append(null[:, 0])
    return extras


def find_clique_or_anticlique(
    v: OperatorSystem, k: int, params: SearchParams | None = None, tol: Tolerance = DEFAULT_TOL
) -> Certificate:
    """Top-level dichotomy search: phase 1, phase 2, then certified probes.

    Each stage yields candidate projections and one loop re-certifies them
    against the original system, returning the first verdict its stage asked
    for: nothing is trusted from the search itself.  The last candidate takes
    any verdict, so Neither comes with a trace of what each stage did.
    """
    if params is None:
        params = SearchParams.for_k(k)
    n = v.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k = {k}")
    if k == 1:
        # dim(P V P) = 1 = k^2 for every rank-1 projection: I compresses to it.
        return certify(v, Projection.coordinate(n, [0]), 1, tol, seed=params.seed)
    trace: list[str] = []
    check = partial(certify, v, tol=tol, seed=params.seed)
    return _first_certified(_find_candidates(v, k, params, tol, trace), check, trace)


# A candidate: (projection, the verdicts that end the search, notes for its
# certificate only).  Stages write their other notes to the shared trace;
# code after a ``yield`` runs only when that candidate failed.
_Candidate = tuple[Projection, Collection[Kind], tuple[str, ...]]
_DECIDED = (Kind.CLIQUE, Kind.ANTICLIQUE)
_ANY = tuple(Kind)


def _first_certified(
    candidates: Iterator[_Candidate], check: Callable[..., Certificate], trace: list[str]
) -> Certificate:
    """The first candidate whose verdict under ``check(p, p.k, trace=...)`` it wants."""
    for p, wanted, notes in candidates:
        cert = check(p, p.k, trace=(*trace, *notes))
        if cert.kind in wanted:
            return cert
    raise AssertionError("the last candidate must accept every verdict")


def _find_candidates(
    v: OperatorSystem, k: int, params: SearchParams, tol: Tolerance, trace: list[str],
    start: np.ndarray | None = None,
) -> Iterator[_Candidate]:
    """The stages of :func:`find_clique_or_anticlique`; ``start`` goes to phase 2."""
    frame = yield from _phase1_stage(v, k, params, tol, trace)
    yield from _phase2_stage(v, k, params, tol, trace, frame, start)
    for t in range(params.retry_budget):
        p = random_projection(v.n, k, derive_seed(params.seed, 3, t))
        yield p, _DECIDED, (f"probe {t} certified",)
    trace.append(f"probes: {params.retry_budget} random projections certified neither")
    yield Projection.coordinate(v.n, range(k)), _ANY, ()


def _phase1_stage(
    v: OperatorSystem, k: int, params: SearchParams, tol: Tolerance, trace: list[str]
) -> Generator[_Candidate, None, np.ndarray]:
    """Collect small-orbit vectors, propose the diagonal route's lifted frame, and
    return the orbits' orthocomplement for phase 2: one null space per vector set."""
    vectors: list[np.ndarray] = []
    frame = _orbit_orthocomplement(v, vectors)
    while len(vectors) < params.phase1_steps:
        vec = _phase1_search(
            v, frame, params.orbit_threshold, derive_seed(params.seed, 1, len(vectors)), tol
        )
        if vec is None:
            trace.append(f"phase 1: stalled after {len(vectors)} vectors")
            break
        vectors.append(vec)
        frame = _orbit_orthocomplement(v, vectors)
    else:
        trace.append(f"phase 1: collected all {len(vectors)} vectors")
    if not vectors:
        return frame
    s = len(vectors)
    if s == 1 < k:  # a 1 x 1 compression is diagonal; one vector is too few
        trace.append(f"phase 1: only 1 vectors for rank {k}")
        return frame

    w = np.stack(vectors, axis=1)
    comp = Projection.from_frame(w).compress_stack(v.basis)
    diag_entries = np.diagonal(comp, axis1=1, axis2=2)
    off = comp - np.einsum("ma,ab->mab", diag_entries, np.eye(s))
    off_resid = float(np.abs(off).max())
    scale = max(float(np.abs(comp).max()), 1e-300)
    if off_resid > 1e-8 * scale:
        trace.append(f"phase 1: compression not diagonal (residual {off_resid:.2e})")
    elif s < k:
        trace.append(f"phase 1: only {s} vectors for rank {k}")
    else:
        sub = from_span([np.diag(row) for row in diag_entries], s, tol)
        try:
            route = diagonal_route(sub, k, tol, seed=derive_seed(params.seed, 1, 10_000))
        except (ValueError, SearchBudgetError) as exc:
            trace.append(f"phase 1: diagonal route failed: {exc}")
        else:
            if route.kind is Kind.NEITHER:
                trace.append("phase 1: diagonal route returned neither")
            else:
                yield Projection.from_frame(w @ route.projection.frame), _DECIDED, ()
                trace.append("phase 1: lifted certificate failed re-certification")
    return frame


def _phase2_stage(
    v: OperatorSystem, k: int, params: SearchParams, tol: Tolerance, trace: list[str],
    frame: np.ndarray, start: np.ndarray | None,
) -> Iterator[_Candidate]:
    """Chain inside ``frame`` from ``start`` (None: a seeded draw) to a staircase clique."""
    m_chain = k**4 + k**3
    n_amb = m_chain + k - 1
    if frame.shape[1] == v.n:
        residual = v
    elif frame.shape[1] >= n_amb:
        residual = compress_system(v, Projection.from_frame(frame), tol)
    else:
        trace.append(
            f"phase 2: residual subspace dimension {frame.shape[1]} below chain ambient {n_amb}"
        )
        return
    steps = min(params.phase2_steps, m_chain)
    if start is None:
        ws, chain, notes = phase2_chain(residual, steps, derive_seed(params.seed, 2), tol)
    else:
        ws, chain, notes = _phase2_chain(residual, start, steps, tol)
    trace.extend(f"phase 2: {note}" for note in notes)
    if len(chain) < m_chain:
        trace.append(f"phase 2: chain reached {len(chain)} of {m_chain} matrices")
        return
    extras = _padding_vectors(residual, ws, chain, n_amb - len(ws))
    if extras is None:
        trace.append("phase 2: no padding coordinates available")
        return
    iso = Projection.from_frame(np.stack(list(ws) + extras, axis=1))
    sub_basis = iso.compress_stack(residual.basis)
    try:
        sub = from_span(list(sub_basis), n_amb, tol)
        comp_chain = iso.compress_stack(np.stack(chain))
        sub_cert = blocks2_clique(sub, comp_chain, k, seed=derive_seed(params.seed, 2, 1), tol=tol)
        lifted = Projection.from_frame(frame @ (iso.frame @ sub_cert.projection.frame))
    except (ValueError, SearchBudgetError) as exc:
        trace.append(f"phase 2: staircase hand-off failed: {exc}")
        return
    yield lifted, (Kind.CLIQUE,), ()
    trace.append("phase 2: lifted chain certificate failed re-certification")
