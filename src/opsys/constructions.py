"""Explicit clique and anticlique constructions.

This module holds the constructive machinery: operator systems built from
graphs, the diagonal clique construction, the Gramian completion it relies
on, the two staircase ("blocks") constructions, the low-dimension anticlique
extractor, and the dimension-four two-clique pipeline with its rank-2
separator and 3x3 search step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import SearchBudgetError
from .linalg import (
    DEFAULT_TOL,
    Projection,
    Tolerance,
    as_matrix,
    hermitian_split,
    hs_norm,
    pack_real,
    projection_from_vectors,
    rank_at,
    stacked_singular_values,
    unpack_real,
)
from .systems import (
    Certificate,
    Kind,
    OperatorSystem,
    certify,
    derive_rng,
    derive_seed,
    from_span,
)

__all__ = [
    "SimpleGraph",
    "graph_operator_system",
    "diagonal_system",
    "rowcolumn_system",
    "rank1_spanning_vectors",
    "gramian_completion",
    "DiagonalCliqueResult",
    "diagonal_clique",
    "diagonal_clique_projection",
    "BlockHypothesisInput",
    "blocks_clique",
    "blocks2_clique",
    "anticlique_lowdim",
    "rank2_separator",
    "threedim_clique",
    "two_clique",
]

# Search budgets: restarts, retries and attempts per call.
_ANTICLIQUE_RESTARTS = 24
_SEPARATOR_RESTARTS = 40
_THREEDIM_RETRIES = 50
_TWO_CLIQUE_ATTEMPTS = 8
_STEP_TRIES = 64


# ---------------------------------------------------------------------------
# graphs and graph-shaped operator systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 1..n (no loops, no multi-edges)."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "SimpleGraph":
        if n < 1:
            raise ValueError("a graph needs at least one vertex")
        norm = set()
        for e in edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValueError(f"loop at vertex {i} is not allowed")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i},{j}) out of range 1..{n}")
            norm.add((min(i, j), max(i, j)))
        return cls(n, frozenset(norm))

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n_vertices, self.n_vertices), dtype=bool)
        for i, j in self.edges:
            a[i - 1, j - 1] = a[j - 1, i - 1] = True
        return a

    def complement(self) -> "SimpleGraph":
        n = self.n_vertices
        comp = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if (i, j) not in self.edges
        }
        return SimpleGraph(n, frozenset(comp))


def _unit(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def graph_operator_system(g: SimpleGraph) -> OperatorSystem:
    """Operator system of a graph: span of E_ii plus E_ij, E_ji over edges.

    The matrix units are already HS-orthonormal, so the basis is assembled
    directly; the dimension is ``n + 2 * |edges|``.
    """
    n = g.n_vertices
    mats = [_unit(n, i, i) for i in range(n)]
    for i, j in sorted(g.edges):
        mats.append(_unit(n, i - 1, j - 1))
        mats.append(_unit(n, j - 1, i - 1))
    return OperatorSystem(n, np.stack(mats))


def diagonal_system(n: int) -> OperatorSystem:
    """The diagonal algebra D_n as an operator system (basis E_11..E_nn)."""
    return OperatorSystem(n, np.stack([_unit(n, i, i) for i in range(n)]))


def rowcolumn_system(n: int) -> OperatorSystem:
    """span{I, E_11, E_12..E_1n, E_21..E_n1}: first-row and first-column units.

    Has dimension 2n and no quantum 3-clique: compressing by a rank-3
    projection can never exceed dimension 6.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    mats = [_unit(n, 0, 0)]
    mats.extend(_unit(n, 0, j) for j in range(1, n))
    mats.extend(_unit(n, j, 0) for j in range(1, n))
    return from_span(mats, n)


# ---------------------------------------------------------------------------
# diagonal cliques
# ---------------------------------------------------------------------------


def rank1_spanning_vectors(k: int) -> np.ndarray:
    """k^2 vectors in C^k whose rank-one outer products span all of M_k.

    Rows are e_i (i < k), then e_i + e_j and e_i + i*e_j for i < j.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    rows = list(np.eye(k, dtype=np.complex128))
    for i in range(k):
        for j in range(i + 1, k):
            v = np.zeros(k, dtype=np.complex128)
            v[i] = 1.0
            v[j] = 1.0
            rows.append(v)
    for i in range(k):
        for j in range(i + 1, k):
            v = np.zeros(k, dtype=np.complex128)
            v[i] = 1.0
            v[j] = 1.0j
            rows.append(v)
    return np.stack(rows)


def gramian_completion(vectors) -> np.ndarray:
    """Tail vectors w_i in C^(r-1) making {v_i (+) w_i} orthogonal of equal norm.

    Given r vectors, let G be their Gram matrix.  Then ``norm(G) * I - G`` is
    positive semidefinite of rank at most r-1, so it factors as the Gram
    matrix of r vectors living in C^(r-1).  The combined Gram matrix equals
    ``norm(G) * I_r``.

    Parameters
    ----------
    vectors
        Sequence of r equal-length vectors (rows of an array work too).

    Returns
    -------
    ndarray of shape (r, r-1) whose rows are the completion vectors.
    """
    rows = np.atleast_2d(np.asarray(vectors, dtype=np.complex128))
    r = rows.shape[0]
    if r < 1:
        raise ValueError("need at least one vector")
    gram = rows @ rows.conj().T
    top = float(np.linalg.norm(gram, 2)) if r > 0 else 0.0
    m = top * np.eye(r) - gram
    lam, u = np.linalg.eigh(m)
    lam = np.clip(lam[1:], 0.0, None)  # smallest eigenvalue is 0 up to rounding
    u = u[:, 1:]
    return u * np.sqrt(lam)


def _clique_frame(vs: np.ndarray, n: int) -> np.ndarray:
    """Isometry C^k -> C^n compressing A on the first r coordinates to sum_jl A_jl v_j v_l^*.

    ``vs`` holds r vectors v_j in C^k as rows.  Rows 0..r-1 of the frame are
    conj(v_j) and the next k-1 rows are the :func:`gramian_completion` of the
    k columns of ``vs``, which makes the columns orthogonal of equal norm;
    everything is scaled by 1/||vs||.  Needs n >= r + k - 1.
    """
    r, k = vs.shape
    if n < r + k - 1:
        raise ValueError(f"need n >= {r + k - 1}, got n = {n}")
    frame = np.zeros((n, k), dtype=np.complex128)
    frame[:r] = vs.conj()
    frame[r : r + k - 1] = gramian_completion(vs.conj().T).T
    return frame / np.linalg.norm(vs, 2)


def diagonal_clique_projection(n: int, k: int) -> Projection:
    """Projection onto a quantum k-clique of the standard D_n, for n >= k^2 + k - 1.

    It lifts :func:`rank1_spanning_vectors`: the first k^2 diagonal units
    compress to the outer products v_j v_j^*, which span M_k.
    """
    return Projection.from_frame(_clique_frame(rank1_spanning_vectors(k), n))


def _diagonal_clique_frame(diags: np.ndarray, k: int, tol: Tolerance) -> np.ndarray | None:
    """Frame of a k-clique of the diagonal system with diagonals ``diags`` (rows), or None.

    Picks k^2 + k - 1 coordinates by pivoted QR and places the diagonal
    clique there; ``None`` unless the rows stay independent on them at
    ``tol.rank_rel``.
    """
    m = k * k + k - 1
    _, _, piv = scipy.linalg.qr(diags, pivoting=True)
    cols = np.sort(piv[:m])
    if rank_at(np.linalg.svd(diags[:, cols], compute_uv=False), tol.rank_rel) < m:
        return None
    frame = np.zeros((diags.shape[1], k), dtype=np.complex128)
    frame[cols] = diagonal_clique_projection(m, k).frame
    return frame


@dataclass(frozen=True, eq=False)
class DiagonalCliqueResult:
    """Clique certificate plus the orthonormal basis realizing it."""

    certificate: Certificate
    system: OperatorSystem  # a copy of D_n, diagonal in the columns of `basis`
    basis: np.ndarray  # unitary (n, n); columns are the constructed basis


def diagonal_clique(n: int, k: int, tol: Tolerance = DEFAULT_TOL) -> DiagonalCliqueResult:
    """Quantum k-clique of a diagonal operator system, for n >= k^2 + k - 1.

    Completes the frame F of :func:`diagonal_clique_projection` to the
    unitary U = [F | F^perp]^*, whose first k rows are F^*, and certifies the
    projection onto the first k coordinates against the copy of D_n that is
    diagonal in the columns of U.
    """
    frame = diagonal_clique_projection(n, k).frame
    basis = np.hstack([frame, scipy.linalg.null_space(frame.conj().T)]).conj().T
    system = OperatorSystem(n, np.einsum("ja,ka->ajk", basis, basis.conj()))
    cert = certify(system, Projection.coordinate(n, range(k)), k, tol)
    if cert.kind is not Kind.CLIQUE:
        raise SearchBudgetError("diagonal clique construction failed to certify", cert.trace)
    return DiagonalCliqueResult(cert, system, basis)


# ---------------------------------------------------------------------------
# staircase constructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BlockHypothesisInput:
    """k^2 Hermitian matrices in M_(k^2+k-1) with the staircase pattern.

    Matrix number i (1-based) is supported on its leading i x i block and has
    a 1 in the (i, i) entry.
    """

    k: int
    matrices: np.ndarray  # (k^2, n, n) with n = k^2 + k - 1

    def __post_init__(self) -> None:
        mats = np.ascontiguousarray(self.matrices, dtype=np.complex128)
        object.__setattr__(self, "matrices", mats)
        k = self.k
        n = k * k + k - 1
        if mats.shape != (k * k, n, n):
            raise ValueError(f"expected shape ({k * k}, {n}, {n}), got {mats.shape}")
        scale = max(float(np.abs(mats).max()), 1e-300)
        for idx in range(k * k):
            a = mats[idx]
            i = idx + 1
            if np.abs(a - a.conj().T).max() > 1e-8 * scale:
                raise ValueError(f"matrix {i} is not Hermitian")
            if abs(a[i - 1, i - 1] - 1.0) > 1e-8:
                raise ValueError(f"matrix {i} must have entry 1 at position ({i},{i})")
            outside = a.copy()
            outside[:i, :i] = 0.0
            if np.abs(outside).max() > 1e-8 * scale:
                raise ValueError(f"matrix {i} has support outside its leading {i}x{i} block")


def blocks_clique(
    inp: BlockHypothesisInput,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> Certificate:
    """Quantum k-clique of span{I, A_1, ..., A_(k^2)} under the staircase hypotheses.

    Vectors v_i in C^k are grown inductively so that the pushed-forward
    matrices sum_{r,s} (A_i)_{rs} v_r v_s^* stay linearly independent; each
    step rewrites the new matrix as ``B' + u~ u~^*`` and samples ``u~`` until
    independence holds with margin.  The v_i are then lifted to orthogonal
    equal-norm vectors via :func:`gramian_completion` and the certificate is
    issued against the input span.
    """
    k = inp.k
    kk = k * k
    n = kk + k - 1
    rng = np.random.default_rng(seed)
    vs = np.zeros((kk, k), dtype=np.complex128)
    pushed = np.zeros((kk, k, k), dtype=np.complex128)
    trace: list[str] = []
    for i in range(kk):
        a = inp.matrices[i]
        if i == 0:
            v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            vs[0] = v / np.linalg.norm(v)
            pushed[0] = np.outer(vs[0], vs[0].conj())  # a[0, 0] == 1
            continue
        cols = vs[:i].T  # (k, i)
        fixed = cols @ a[:i, :i] @ cols.conj().T
        u = cols @ a[:i, i]
        bprime = fixed - np.outer(u, u.conj())
        placed = False
        for _ in range(_STEP_TRIES):
            ut = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            cand = bprime + np.outer(ut, ut.conj())
            s = stacked_singular_values(list(pushed[:i]) + [cand])
            if s[i] > 1e-6 * s[0]:
                vs[i] = ut - u
                pushed[i] = cand
                placed = True
                break
        if not placed:
            raise SearchBudgetError(
                f"no independent extension found at step {i + 1} after {_STEP_TRIES} tries",
                tuple(trace),
            )
    p = Projection.from_frame(_clique_frame(vs, n))
    v_sys = from_span(list(inp.matrices), n, tol)
    cert = certify(v_sys, p, k, tol, seed=seed, trace=tuple(trace))
    if cert.kind is not Kind.CLIQUE:
        raise SearchBudgetError("staircase clique failed to certify", cert.trace)
    return cert


def blocks2_clique(
    v: OperatorSystem,
    chain,
    k: int,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> Certificate:
    """Quantum k-clique from a chain of k^4 + k^3 patterned matrices in V.

    Chain matrix number i (1-based) must have a nonzero (i+1, i) entry and no
    off-diagonal support outside its leading (i+1) x (i+1) block; diagonal
    entries ("tails") are unrestricted.  The ambient dimension must be
    exactly k^4 + k^3 + k - 1.

    Per block of k^2 + k - 1 consecutive chain matrices (stride k^2 + k):
    if the tails past the block are linearly independent the search routes to
    a diagonal clique on those coordinates; otherwise a dependent combination
    is formed, a unit vector with nonzero quadratic form is extracted from
    the block's coordinate window, and after k^2 blocks the compressions
    satisfy the staircase hypotheses of :func:`blocks_clique`.
    """
    kk = k * k
    stride = kk + k
    m_chain = k**4 + k**3
    n = m_chain + k - 1
    if k < 2:
        # k = 1 would demand a (m_chain + 1, m_chain) pivot outside the ambient
        # space: the chain hypothesis is unsatisfiable there.
        raise ValueError("need k >= 2")
    if v.n != n:
        raise ValueError(f"ambient dimension must be k^4+k^3+k-1 = {n}, got {v.n}")
    mats = np.ascontiguousarray(np.asarray(chain, dtype=np.complex128))
    if mats.shape != (m_chain, n, n):
        raise ValueError(f"chain must have shape ({m_chain}, {n}, {n}), got {mats.shape}")
    scale = max(float(np.abs(mats).max()), 1e-300)
    for c in range(m_chain):
        a = mats[c]
        if abs(a[c + 1, c]) <= 1e-9 * scale:
            raise ValueError(f"chain matrix {c + 1} is missing its ({c + 2},{c + 1}) pivot")
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        off[: c + 2, : c + 2] = 0.0
        if np.abs(off).max() > 1e-9 * scale:
            raise ValueError(
                f"chain matrix {c + 1} has off-diagonal support outside its leading block"
            )
        if not v.contains(a, rel=1e-8):
            raise ValueError(f"chain matrix {c + 1} does not lie in the system")

    trace: list[str] = []
    # Block j (1-based) is chain matrices (j-1)*stride .. j*stride - 2; its
    # tails are their diagonals from j*stride on, past the block's window.
    blocks = [mats[(j - 1) * stride : j * stride - 1] for j in range(1, kk + 1)]
    tails_of = [
        np.stack([np.diagonal(b)[j * stride :] for b in block]) for j, block in enumerate(blocks, 1)
    ]

    # First pass: a block with independent tails routes straight to a
    # diagonal clique on the coordinates past the block.
    for j, tails in enumerate(tails_of, 1):
        frame_tail = _diagonal_clique_frame(tails, k, tol)
        if frame_tail is not None:
            trace.append(f"block {j}: independent tails, diagonal clique on {tails.shape[1]} coords")
            frame = np.zeros((n, k), dtype=np.complex128)
            frame[j * stride :] = frame_tail
            cert = certify(v, Projection.from_frame(frame), k, tol, seed=seed, trace=tuple(trace))
            if cert.kind is Kind.CLIQUE:
                return cert
            trace.append(f"block {j}: diagonal route failed to certify, falling through")

    # Inductive pass: every block contributes one Hermitian B_j in V and one
    # unit vector v_j supported on the block's fresh coordinate window.
    picked = np.zeros((kk, n), dtype=np.complex128)
    bs = np.zeros((kk, n, n), dtype=np.complex128)
    for j, (block, tails) in enumerate(zip(blocks, tails_of), 1):
        lo, start = (j - 1) * stride, j * stride
        u_svd, s, _ = np.linalg.svd(tails, full_matrices=True)
        if tails.shape[1] >= stride - 1 and s[-1] > tol.rank_rel * s[0]:
            raise SearchBudgetError(
                f"block {j}: tails neither independent nor cleanly dependent", tuple(trace)
            )
        if tails.shape[1] >= stride - 1 and s[-1] > tol.cert_rel * s[0]:
            trace.append(f"block {j}: tolerance-ambiguous tail dependence, proceeding")
        alpha = u_svd[:, -1].conj()
        bprime = np.einsum("c,cij->ij", alpha, block, optimize=True)
        # Project onto the exact support pattern: the combination lives in the
        # leading start x start block, its tail diagonal being the (numerically
        # zeroed) dependence residual.
        bprime[start:, :] = 0.0
        bprime[:, start:] = 0.0
        window = slice(lo, lo + stride)
        bw = bprime[window, window]
        re, im = hermitian_split(bw)
        choice = None
        for h_small, pick_re in sorted(
            [(re, True), (im, False)], key=lambda t: -hs_norm(t[0])
        ):
            lam, q = np.linalg.eigh(h_small)
            idx = int(np.argmax(np.abs(lam)))
            if abs(lam[idx]) > 1e-10 * max(hs_norm(bprime), 1e-300):
                choice = (pick_re, q[:, idx], float(lam[idx]))
                break
        if choice is None:
            raise SearchBudgetError(
                f"block {j}: dependent combination vanishes on its window", tuple(trace)
            )
        pick_re, v_win, lam_val = choice
        h_full = hermitian_split(bprime)[0 if pick_re else 1]
        picked[j - 1, lo : lo + stride] = v_win
        bs[j - 1] = h_full / lam_val
        trace.append(f"block {j}: dependent tails, window vector with form 1 extracted")

    frame_cols = [picked[j] for j in range(kk)]
    for extra in range(m_chain, n):
        e = np.zeros(n, dtype=np.complex128)
        e[extra] = 1.0
        frame_cols.append(e)
    wf = Projection.from_frame(np.stack(frame_cols, axis=1))  # (n, k^2 + k - 1) isometry
    compressed = wf.compress_stack(bs)
    sub_cert = blocks_clique(BlockHypothesisInput(k, compressed), seed=derive_seed(seed, 1), tol=tol)
    frame = wf.frame @ sub_cert.projection.frame
    cert = certify(v, Projection.from_frame(frame), k, tol, seed=seed, trace=tuple(trace))
    if cert.kind is not Kind.CLIQUE:
        raise SearchBudgetError("chained staircase clique failed to certify", cert.trace)
    return cert


# ---------------------------------------------------------------------------
# anticliques at low dimension
# ---------------------------------------------------------------------------


def anticlique_lowdim(
    v: OperatorSystem,
    k: int,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> Certificate:
    """Quantum k-anticlique when dim(V) <= (n - k) / (k - 1).

    Searches for an orthonormal k-frame X on which every element of V's
    stored basis compresses to a scalar: the residual stacks X*X - I_k and
    the traceless parts of X*T_aX, T_a = B_a - (tr B_a / n) I.  The Hermitian
    and anti-Hermitian parts of the T_a are a Parseval frame of the traceless
    Hermitian part of V, so the objective is the one any real-orthonormal
    Hermitian basis gives.  Joint Gauss-Newton solves run from seeded
    restarts (a solver breakdown skips its restart); the frame is
    orthonormalized exactly and certified, so a returned certificate is
    always sound.  Failure raises :class:`SearchBudgetError`.
    """
    n, d = v.n, v.dim
    if k < 2:
        raise ValueError("anticlique extraction needs k >= 2")
    if d * (k - 1) > n - k:
        raise ValueError(
            f"dimension bound violated: dim(V)={d} exceeds (n-k)/(k-1)={(n - k) / (k - 1):.3g}"
        )
    trace: list[str] = []
    if d == 1:
        p = Projection.coordinate(n, range(k))
        cert = certify(v, p, k, tol, seed=seed, trace=("scalar system: any frame works",))
        if cert.kind is Kind.ANTICLIQUE:
            return cert
        raise SearchBudgetError("scalar system failed to certify", cert.trace)

    eye = np.eye(n, dtype=np.complex128)
    traces = np.trace(v.basis, axis1=1, axis2=2)
    stack = np.concatenate([eye[None], v.basis - (traces / n)[:, None, None] * eye])

    def resid(xr: np.ndarray) -> np.ndarray:
        x = unpack_real(xr, (n, k))
        m = x.conj().T @ stack @ x
        m[0] -= np.eye(k)
        m[1:] -= (np.trace(m[1:], axis1=1, axis2=2) / k)[:, None, None] * np.eye(k)
        return pack_real(m)

    rng = np.random.default_rng(seed)
    for attempt in range(_ANTICLIQUE_RESTARTS):
        x0 = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        x0, _ = np.linalg.qr(x0)
        sol = _trf_solve(resid, pack_real(x0), 400)
        if sol is None:
            trace.append(f"attempt {attempt}: solver breakdown")
            continue
        x = unpack_real(sol.x, (n, k))
        u, _, vh = np.linalg.svd(x, full_matrices=False)
        frame = u @ vh
        try:
            p = Projection.from_frame(frame)
        except ValueError:
            trace.append(f"attempt {attempt}: degenerate frame")
            continue
        cert = certify(v, p, k, tol, seed=seed, trace=tuple(trace))
        if cert.kind is Kind.ANTICLIQUE:
            return cert
        trace.append(
            f"attempt {attempt}: residual {float(np.max(np.abs(sol.fun))):.2e}, "
            f"compressed dim {cert.compressed_dim}"
        )
    raise SearchBudgetError(
        f"no anticlique frame found in {_ANTICLIQUE_RESTARTS} restarts", tuple(trace)
    )


def _trf_solve(resid, x0: np.ndarray, max_nfev: int):
    """Trust-region least-squares solve from ``x0``; ``None`` if LAPACK breaks down in it."""
    try:
        return scipy.optimize.least_squares(
            resid, x0, method="trf", xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=max_nfev
        )
    except np.linalg.LinAlgError:
        return None


# ---------------------------------------------------------------------------
# rank-2 separator and the 3x3 step
# ---------------------------------------------------------------------------


def _solve_forms(
    mats: Sequence[np.ndarray],
    targets: Sequence[float],
    inits: Sequence[np.ndarray],
    rng: np.random.Generator,
) -> np.ndarray | None:
    """Unit vector with prescribed quadratic forms against Hermitian ``mats``."""
    n = mats[0].shape[0]

    def resid(xr: np.ndarray) -> np.ndarray:
        x = unpack_real(xr, (n,))
        vals = [float(np.real(np.vdot(x, m @ x))) - t for m, t in zip(mats, targets)]
        vals.append(float(np.real(np.vdot(x, x))) - 1.0)
        return np.asarray(vals)

    starts = list(inits)
    while len(starts) < _SEPARATOR_RESTARTS:
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        starts.append(z / np.linalg.norm(z))
    for x0 in starts:
        sol = _trf_solve(resid, pack_real(np.asarray(x0, dtype=np.complex128)), 300)
        if sol is not None and float(np.max(np.abs(sol.fun))) < 1e-11:
            x = unpack_real(sol.x, (n,))
            return x / np.linalg.norm(x)
    return None


def rank2_separator(
    a1,
    a2,
    b,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Rank-2 Hermitian C with Tr(C) = Tr(A1 C) = Tr(A2 C) = 0 and Tr(B C) != 0.

    ``b`` must be a nonzero Hermitian matrix HS-orthogonal to I, A1 and A2.
    Writing ``b = b+ - b-`` for its positive and negative parts with common
    trace ``alpha``, two unit vectors v, w are found whose quadratic forms
    against (A1, A2, B) match ``Tr(. b+)/alpha`` and ``Tr(. b-)/alpha``;
    then ``C = alpha (v v^* - w w^*)`` has the advertised trace pattern with
    ``Tr(B C) = Tr(B^2) > 0``.
    """
    a1 = as_matrix(a1)
    n = a1.shape[0]
    a2 = as_matrix(a2, n)
    bm = as_matrix(b, n)
    for name, m in (("a1", a1), ("a2", a2), ("b", bm)):
        if np.abs(m - m.conj().T).max() > 1e-9 * max(hs_norm(m), 1e-300):
            raise ValueError(f"{name} must be Hermitian")
    nb = hs_norm(bm)
    if nb < 1e-12:
        raise ValueError("b must be nonzero")
    eye = np.eye(n)
    for name, m in (("I", eye), ("a1", a1), ("a2", a2)):
        ip = abs(np.trace(m @ bm))
        if ip > 1e-8 * max(hs_norm(m), 1.0) * nb:
            raise ValueError(f"b is not trace-orthogonal to {name}")

    lam, f = np.linalg.eigh(bm)
    pos = lam > 0
    neg = lam < 0
    alpha = float((lam[pos].sum() - lam[neg].sum()) / 2.0)
    b_pos = (f[:, pos] * lam[pos]) @ f[:, pos].conj().T
    b_neg = -(f[:, neg] * lam[neg]) @ f[:, neg].conj().T

    def targets(part: np.ndarray) -> list[float]:
        return [float(np.real(np.trace(m @ part))) / alpha for m in (a1, a2, bm)]

    rng = np.random.default_rng(seed)
    init_pos = f[:, pos] @ np.sqrt(lam[pos] / alpha).astype(complex)
    init_neg = f[:, neg] @ np.sqrt(-lam[neg] / alpha).astype(complex)
    vvec = _solve_forms([a1, a2, bm], targets(b_pos), [init_pos], rng)
    wvec = _solve_forms([a1, a2, bm], targets(b_neg), [init_neg], rng)
    if vvec is None or wvec is None:
        raise SearchBudgetError("quadratic-form targets not reached within budget")
    c = alpha * (np.outer(vvec, vvec.conj()) - np.outer(wvec, wvec.conj()))
    ev = np.sort(np.abs(np.linalg.eigvalsh(c)))[::-1]
    if not (ev[1] > tol.cert_rel * ev[0] and (n < 3 or ev[2] <= tol.rank_rel * ev[0])):
        raise SearchBudgetError("separator is not cleanly rank 2")
    if abs(np.trace(bm @ c)) < 1e-6 * nb * hs_norm(c):
        raise SearchBudgetError("separator does not separate b")
    return c


def threedim_clique(
    mats,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> Projection:
    """Rank-2 projection making four independent 3x3 Hermitians stay independent.

    Samples pairs of Gaussian vectors v, w in C^3 and accepts once the 4x4
    matrix of quadratic/cross forms ``[<A v,v>, <A v,w>, <A w,v>, <A w,w>]``
    is well-conditioned, which forces dim(P span P) = 4 for the projection P
    onto span{v, w}.
    """
    stack = np.asarray(mats, dtype=np.complex128)
    if stack.shape != (4, 3, 3):
        raise ValueError(f"expected four 3x3 matrices, got shape {stack.shape}")
    scale = max(float(np.abs(stack).max()), 1e-300)
    for i, a in enumerate(stack):
        if np.abs(a - a.conj().T).max() > 1e-8 * scale:
            raise ValueError(f"matrix {i} is not Hermitian")
    s = stacked_singular_values(list(stack))
    if rank_at(s, tol.rank_rel) != 4:
        raise ValueError("matrices must span a four-dimensional space")
    rng = np.random.default_rng(seed)
    for _ in range(_THREEDIM_RETRIES):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rows = np.stack([[np.vdot(x, a @ y) for y in (v, w) for x in (v, w)] for a in stack])
        sv = np.linalg.svd(rows, compute_uv=False)
        if sv[-1] > 1e-6 * sv[0]:
            p = projection_from_vectors([v, w], tol)
            if p.k == 2:
                return p
    raise SearchBudgetError(f"no nonsingular pair found in {_THREEDIM_RETRIES} tries")


# ---------------------------------------------------------------------------
# the two-clique pipeline
# ---------------------------------------------------------------------------


def _joint_eigenvectors(
    a1: np.ndarray, a2: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Common eigenbasis of two commuting Hermitians, with eigenvalue pairs."""
    n = a1.shape[0]
    for _ in range(8):
        t = float(rng.uniform(0.25, 4.0))
        _, q = np.linalg.eigh(a1 + t * a2)
        lam1 = np.real(np.einsum("ij,jk,ki->i", q.conj().T, a1, q, optimize=True))
        lam2 = np.real(np.einsum("ij,jk,ki->i", q.conj().T, a2, q, optimize=True))
        r1 = np.linalg.norm(a1 @ q - q * lam1)
        r2 = np.linalg.norm(a2 @ q - q * lam2)
        scale = max(hs_norm(a1), hs_norm(a2), 1e-300)
        if max(r1, r2) < 1e-8 * scale * n:
            return q, lam1, lam2
    return None


def _independent_triple(lam1: np.ndarray, lam2: np.ndarray) -> tuple[int, int, int] | None:
    """Three indices whose (1, lam1, lam2) rows are affinely independent."""
    n = lam1.shape[0]
    pts = np.stack([lam1, lam2], axis=1)
    spread = max(float(np.ptp(lam1)), float(np.ptp(lam2)), 1e-300)
    best = None
    best_area = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                area = abs(
                    (pts[b, 0] - pts[a, 0]) * (pts[c, 1] - pts[a, 1])
                    - (pts[c, 0] - pts[a, 0]) * (pts[b, 1] - pts[a, 1])
                )
                if area > best_area:
                    best_area = area
                    best = (a, b, c)
    if best is None or best_area <= 1e-10 * spread * spread:
        return None
    return best


def _claim_frame(
    a1: np.ndarray, a2: np.ndarray, rng: np.random.Generator
) -> np.ndarray | None:
    """Rank-3 frame on which {I, a1, a2} compress independently (needs n >= 3)."""
    n = a1.shape[0]
    scale = max(hs_norm(a1), hs_norm(a2), 1e-300)
    comm = np.linalg.norm(a1 @ a2 - a2 @ a1)
    if comm <= 1e-10 * scale * scale:
        joint = _joint_eigenvectors(a1, a2, rng)
        if joint is None:
            return None
        q, lam1, lam2 = joint
        triple = _independent_triple(lam1, lam2)
        if triple is None:
            return None
        return q[:, list(triple)]
    lam, q = np.linalg.eigh(a1)
    off = q.conj().T @ a2 @ q
    np.fill_diagonal(off, 0.0)
    a, b = np.unravel_index(int(np.argmax(np.abs(off))), off.shape)
    if abs(off[a, b]) <= 1e-9 * scale:
        return None
    others = [c for c in range(n) if c not in (a, b)]
    # eigenvalues of the selected triple must not be all equal
    c = max(others, key=lambda c: max(abs(lam[c] - lam[a]), abs(lam[c] - lam[b])))
    if np.ptp(lam[[a, b, c]]) <= 1e-10 * scale:
        return None
    return q[:, [a, b, c]]


def two_clique(
    v: OperatorSystem,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> Certificate:
    """Quantum 2-clique of any operator system with dim >= 4.

    Each attempt draws a fresh four-dimensional subsystem span{I, A1, A2, A3}
    (a 2-clique of it is one of V): three Gaussian Hermitians (Z + Z*)/2,
    Z = sum_a g_a B_a over V's stored basis, made traceless and
    real-orthonormal by one QR.  It finds a rank <= 3 projection keeping
    {I, A1, A2} independent, completes with a fourth Hermitian, runs the 3x3
    search for a rank-2 projection Q, and if the compression of A3 at Q is
    dependent, augments Q by one vector produced by the rank-2 separator and
    re-runs the 3x3 search.
    """
    if v.dim < 4:
        raise ValueError(f"need dim(V) >= 4, got {v.dim}")
    n = v.n
    if n == 2:
        # dim >= 4 in M_2 means V = M_2; the identity projection certifies.
        p = Projection.coordinate(2, range(2))
        return certify(v, p, 2, tol, seed=seed, trace=("full system in M_2",))

    eye = np.eye(n, dtype=np.complex128)
    trace: list[str] = []
    last_error = "no attempt ran"
    for attempt in range(_TWO_CLIQUE_ATTEMPTS):
        rng = derive_rng(seed, attempt)
        g = rng.standard_normal((3, v.dim)) + 1j * rng.standard_normal((3, v.dim))
        z = np.tensordot(g, v.basis, 1)
        herm = (z + z.conj().transpose(0, 2, 1)) / 2
        herm -= (np.trace(herm, axis1=1, axis2=2) / n)[:, None, None] * eye
        q, r = np.linalg.qr(np.stack([pack_real(h) for h in herm], axis=1))
        if abs(r[2, 2]) <= tol.rank_rel * abs(r[0, 0]):
            last_error = "drawn Hermitian triple is dependent"
            continue
        a1, a2, a3 = (unpack_real(col, (n, n)) for col in q.T)
        frame3 = None
        for left, right, third in ((a1, a2, a3), (a1, a3, a2), (a2, a3, a1)):
            frame3 = _claim_frame(left, right, rng)
            if frame3 is not None:
                a1, a2, a3 = left, right, third
                break
        if frame3 is None:
            last_error = "no projection kept {I, A1, A2} independent"
            continue
        comp3 = [frame3.conj().T @ m @ frame3 for m in (eye, a1, a2)]
        # Hermitian completion orthogonal to the three compressions.
        flat = np.stack([pack_real(m) for m in comp3])
        flat = np.linalg.svd(flat, full_matrices=False)[2]
        cand = None
        for probe in range(16):
            z = rng.standard_normal(18)
            z -= flat.T @ (flat @ z)
            t_mat = unpack_real(z, (3, 3))
            t_mat = (t_mat + t_mat.conj().T) / 2.0
            if hs_norm(t_mat) > 1e-8:
                cand = t_mat / hs_norm(t_mat)
                break
        if cand is None:
            last_error = "no Hermitian completion found"
            continue
        try:
            q_small = threedim_clique(
                np.stack(comp3 + [cand]), seed=derive_seed(seed, attempt, 1), tol=tol
            )
        except (SearchBudgetError, ValueError) as exc:
            last_error = f"3x3 search failed: {exc}"
            continue
        q_frame = np.linalg.qr(frame3 @ q_small.frame)[0]

        full = np.stack([q_frame.conj().T @ m @ q_frame for m in (eye, a1, a2, a3)])
        s = stacked_singular_values(list(full))
        if rank_at(s, tol.rank_rel) == 4:
            cert = certify(v, Projection.from_frame(q_frame), 2, tol, seed=seed, trace=tuple(trace))
            if cert.kind is Kind.CLIQUE:
                return cert
            last_error = "final certification failed on the direct route"
            continue

        # A3 compresses into span{I, A1, A2}: solve for the real coefficients.
        flat3 = np.stack([pack_real(m) for m in full[:3]]).T  # (18, 3) real
        coeffs, *_ = np.linalg.lstsq(flat3, pack_real(full[3]), rcond=None)
        al, be, ga = (float(c) for c in coeffs)
        combo = al * eye + be * a1 + ga * a2
        try:
            # a3 is traceless and real-orthogonal to a1 and a2 by construction
            sep = rank2_separator(a1, a2, a3, seed=derive_seed(seed, attempt, 2), tol=tol)
        except (SearchBudgetError, ValueError) as exc:
            last_error = f"separator failed: {exc}"
            continue
        lam, f = np.linalg.eigh(sep)
        vvec = f[:, int(np.argmax(lam))]
        wvec = f[:, int(np.argmin(lam))]
        margins = []
        for x in (vvec, wvec):
            lhs = np.real(np.vdot(x, a3 @ x))
            rhs = np.real(np.vdot(x, combo @ x))
            margins.append(abs(lhs - rhs))
        x = vvec if margins[0] >= margins[1] else wvec
        if max(margins) <= 1e-10 * max(hs_norm(a3), 1.0):
            last_error = "separator vectors did not break the dependence"
            continue
        resid = x - q_frame @ (q_frame.conj().T @ x)
        if np.linalg.norm(resid) <= 1e-8:
            last_error = "separator vector already lies in the projection range"
            continue
        qprime = np.concatenate([q_frame, (resid / np.linalg.norm(resid))[:, None]], axis=1)
        comp4 = np.stack([qprime.conj().T @ m @ qprime for m in (eye, a1, a2, a3)])
        try:
            q_small = threedim_clique(comp4, seed=derive_seed(seed, attempt, 3), tol=tol)
        except (SearchBudgetError, ValueError) as exc:
            last_error = f"3x3 search failed after augmentation: {exc}"
            continue
        frame = qprime @ q_small.frame
        cert = certify(v, Projection.from_frame(frame), 2, tol, seed=seed, trace=tuple(trace))
        if cert.kind is Kind.CLIQUE:
            return cert
        last_error = "final certification failed after augmentation"
    raise SearchBudgetError(f"two-clique search exhausted its attempts: {last_error}", tuple(trace))
