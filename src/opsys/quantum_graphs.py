"""Operator systems over block *-algebras: quantum graphs.

A block algebra ⊕_i (M_{n_i} ⊗ I_{d_i}) plays the role the vertex set plays
for a classical graph; the operator system must be a bimodule over the
algebra's commutant.  Cliques and anticliques generalize by comparing the
compression P·V·P against P·M_n·P and P·M′·P for projections P inside the
algebra, and the unified search reduces to either the single-algebra
dichotomy (via a tensor factorization) or a classical Ramsey extraction on
the graph induced by the block components.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import chain
from typing import Iterator

import numpy as np

from .constructions import SimpleGraph
from .linalg import DEFAULT_TOL, Projection, Tolerance, as_matrix, span_residuals
from .ramsey import _ANY, _DECIDED, SearchParams, _Candidate, _first_certified
from .ramsey import find_clique_or_anticlique
from .systems import (
    Certificate,
    Kind,
    OperatorSystem,
    _certify_against,
    derive_rng,
    derive_seed,
    from_span,
)

__all__ = [
    "MatrixAlgebra",
    "QuantumGraph",
    "commutant",
    "is_bimodule",
    "generalized_certify",
    "classical_ramsey_extract",
    "general_find",
    "block_restriction",
    "tensor_factor",
]


@dataclass(frozen=True, eq=False)
class MatrixAlgebra:
    """A *-subalgebra ⊕_i (M_{n_i} ⊗ I_{d_i}) of M_n with an explicit layout.

    ``coords[i]`` is an (n_i, d_i) integer array: the ambient index of tensor
    position (a, b) within block i.  The layout makes the commutant exact —
    swap the block shape and transpose the coordinate array.
    """

    blocks: tuple[tuple[int, int], ...]
    coords: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.coords) or not self.blocks:
            raise ValueError("need one coordinate array per block")
        seen = []
        for (ni, di), cs in zip(self.blocks, self.coords):
            if ni < 1 or di < 1:
                raise ValueError("block dimensions must be positive")
            if cs.shape != (ni, di):
                raise ValueError(f"coordinate array for block ({ni},{di}) has shape {cs.shape}")
            seen.append(cs.ravel())
        flat = np.sort(np.concatenate(seen))
        if not np.array_equal(flat, np.arange(self.n)):
            raise ValueError("block coordinates must partition 0..n-1")

    @classmethod
    def from_blocks(cls, blocks) -> "MatrixAlgebra":
        """Contiguous layout: block i occupies the next n_i·d_i indices."""
        blocks = tuple((int(a), int(b)) for a, b in blocks)
        coords = []
        offset = 0
        for ni, di in blocks:
            coords.append(np.arange(offset, offset + ni * di).reshape(ni, di))
            offset += ni * di
        return cls(blocks, tuple(coords))

    @classmethod
    def full(cls, n: int) -> "MatrixAlgebra":
        return cls.from_blocks([(n, 1)])

    @classmethod
    def diagonal(cls, n: int) -> "MatrixAlgebra":
        return cls.from_blocks([(1, 1)] * n)

    @property
    def n(self) -> int:
        return sum(ni * di for ni, di in self.blocks)

    @property
    def dim(self) -> int:
        return sum(ni * ni for ni, _ in self.blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixAlgebra):
            return NotImplemented
        return self.blocks == other.blocks and all(
            np.array_equal(a, b) for a, b in zip(self.coords, other.coords)
        )

    __hash__ = None  # type: ignore[assignment]

    @cached_property
    def basis(self) -> np.ndarray:
        """Orthonormal basis (dim, n, n): matrix units tensored with I/√d_i."""
        n = self.n
        units = []
        for (ni, di), cs in zip(self.blocks, self.coords):
            w = 1.0 / np.sqrt(di)
            for a in range(ni):
                for b in range(ni):
                    u = np.zeros((n, n), dtype=np.complex128)
                    u[cs[a, :], cs[b, :]] = w
                    units.append(u)
        return np.stack(units)

    @cached_property
    def _commutant(self) -> "MatrixAlgebra":
        return MatrixAlgebra(
            tuple((di, ni) for ni, di in self.blocks),
            tuple(np.ascontiguousarray(cs.T) for cs in self.coords),
        )

    def contains(self, a: np.ndarray, rel: float = 1e-9) -> bool:
        a = as_matrix(a, self.n)
        return bool(span_residuals(self.basis, a)[0] <= rel * max(np.linalg.norm(a), 1e-300))


def commutant(m: MatrixAlgebra) -> MatrixAlgebra:
    """The commutant: each block (n_i, d_i) becomes (d_i, n_i) in place.

    Built once per algebra and cached on it, so repeated calls share one
    object and its cached basis.
    """
    return m._commutant


def is_bimodule(v: OperatorSystem, m: MatrixAlgebra, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether M′·V·M′ = V: X·B_a ∈ V and B_a·X ∈ V for every basis element X
    of M′ and B_a of V.  Equivalent since M′ is unital (V ⊆ M′·V·M′) and
    X·A·Y = X·(A·Y).  The factors are HS-unit, so each residual is compared
    with ``tol.rank_rel``, not with the product's own norm: products of
    orthogonal matrix units are ~1e-17 and lie in V.
    """
    if v.n != m.n:
        raise ValueError("ambient dimensions differ")
    xs = commutant(m).basis[:, None]
    b = v.basis
    return all((span_residuals(b, prods) <= tol.rank_rel).all() for prods in (xs @ b, b @ xs))


@dataclass(frozen=True, eq=False)
class QuantumGraph:
    """An operator system paired with a block algebra it is a bimodule over."""

    algebra: MatrixAlgebra
    system: OperatorSystem

    def __post_init__(self) -> None:
        if self.algebra.n != self.system.n:
            raise ValueError("algebra and system live on different ambient dimensions")
        if not is_bimodule(self.system, self.algebra):
            raise ValueError("system is not a bimodule over the algebra's commutant")


def generalized_certify(
    qg: QuantumGraph, p: Projection, k: int, tol: Tolerance = DEFAULT_TOL,
    seed: int | None = None, trace: tuple[str, ...] = (),
) -> Certificate:
    """Certify a projection inside the algebra as a generalized (anti)clique.

    This is :func:`~opsys.systems.certify` with the commutant M′ in place of
    the scalars: clique iff dim(PVP) = k²; anticlique iff PVP and PM′P have
    equal dimension and equal joint span.  The projection must lie in the
    algebra and commute with M′ — both are checked, not assumed — and any
    disagreement between the search and certification tolerances yields
    Neither with an explanatory trace.
    """
    m, v = qg.algebra, qg.system
    if p.n != v.n:
        raise ValueError("projection ambient dimension does not match the system")
    pm = p.matrix
    if not m.contains(pm):
        raise ValueError("projection does not lie in the algebra's span")
    comm_basis = commutant(m).basis
    scale = max(1.0, float(np.linalg.norm(pm)))
    if max(np.linalg.norm(pm @ x - x @ pm) for x in comm_basis) > 1e-9 * scale:
        raise ValueError("projection does not commute with the algebra's commutant")
    return _certify_against(v, comm_basis, p, k, tol, seed, trace)


# ---------------------------------------------------------------------------
# classical bridge
# ---------------------------------------------------------------------------


def _find_k_clique(adj: list[int], k: int) -> list[int] | None:
    """Backtracking search for a k-clique over bitmask adjacency."""
    n = len(adj)

    def extend(current: list[int], cand: int) -> list[int] | None:
        if len(current) == k:
            return current
        if len(current) + cand.bit_count() < k:
            return None
        m = cand
        while m:
            low = m & -m
            vtx = low.bit_length() - 1
            m ^= low
            got = extend(current + [vtx], m & adj[vtx])
            if got is not None:
                return got
        return None

    return extend([], (1 << n) - 1)


def classical_ramsey_extract(
    g: SimpleGraph, k: int
) -> tuple[tuple[int, ...], Kind] | None:
    """A k-clique or k-independent-set of a classical graph, or None.

    None is a legitimate outcome below the Ramsey threshold; above it one of
    the two always exists.  Vertices are returned 1-indexed and sorted.
    """
    n = g.n_vertices
    if k < 1:
        raise ValueError("need k >= 1")
    if k > n:
        return None
    adj = [0] * n
    for i, j in g.edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    found = _find_k_clique(adj, k)
    if found is not None:
        return tuple(sorted(x + 1 for x in found)), Kind.CLIQUE
    full = (1 << n) - 1
    comp = [full & ~adj[x] & ~(1 << x) for x in range(n)]
    found = _find_k_clique(comp, k)
    if found is not None:
        return tuple(sorted(x + 1 for x in found)), Kind.ANTICLIQUE
    return None


# ---------------------------------------------------------------------------
# the unified search
# ---------------------------------------------------------------------------


def block_restriction(v: OperatorSystem, m: MatrixAlgebra, i: int) -> OperatorSystem:
    """V compressed to block i's coordinates, in the (a, b) tensor ordering."""
    idx = m.coords[i].reshape(-1)
    sub = v.basis[:, idx[:, None], idx]
    return from_span(list(sub), idx.size)


def tensor_factor(
    vb: OperatorSystem, ni: int, di: int, tol: Tolerance = DEFAULT_TOL
) -> OperatorSystem | None:
    """Extract W with vb = W ⊗ M_d, or None if vb is not such a product.

    W is spanned by the (n_i × n_i) slices of vb's basis, so vb ⊆ W ⊗ M_d
    always holds, and equal dimensions force equality.
    """
    if vb.n != ni * di:
        raise ValueError("block system dimension does not match (n_i, d_i)")
    mats = vb.basis.reshape(vb.dim, ni, di, ni, di)
    slices = mats.transpose(0, 2, 4, 1, 3).reshape(vb.dim * di * di, ni, ni)
    w = from_span(list(slices), ni, tol)
    return w if w.dim * di * di == vb.dim else None


def _embedded_frame(m: MatrixAlgebra, i: int, q_frame: np.ndarray) -> np.ndarray:
    """Ambient frame for (q ⊗ I_{d_i}) supported on block i: column (a, b) is q_a on copy b."""
    cs = m.coords[i]
    frame = np.zeros((m.n, q_frame.shape[1], cs.shape[1]), dtype=np.complex128)
    frame[cs, :, np.arange(cs.shape[1])] = q_frame[:, None, :]
    return frame.reshape(m.n, -1)


def _random_block_frame(m: MatrixAlgebra, i: int, rng: np.random.Generator) -> np.ndarray:
    """Ambient frame for (q ⊗ I_{d_i}) on block i, q a random unit vector."""
    ni = m.blocks[i][0]
    z = rng.standard_normal(ni) + 1j * rng.standard_normal(ni)
    return _embedded_frame(m, i, (z / np.linalg.norm(z)).reshape(ni, 1))


def _induced_block_graph(v: OperatorSystem, m: MatrixAlgebra) -> SimpleGraph:
    """Edge between blocks i ≠ j iff some basis element has support across them."""
    r = len(m.blocks)
    scale = max(float(np.abs(v.basis).max()), 1e-300)
    edges = []
    for i in range(r):
        ri = m.coords[i].reshape(-1)
        for j in range(i + 1, r):
            rj = m.coords[j].reshape(-1)
            cross = v.basis[:, ri[:, None], rj]
            if float(np.abs(cross).max()) > 1e-8 * scale:
                edges.append((i + 1, j + 1))
    return SimpleGraph.from_edges(r, edges)


def general_find(
    qg: QuantumGraph, k: int, params: SearchParams | None = None, tol: Tolerance = DEFAULT_TOL
) -> Certificate:
    """Generalized clique-or-anticlique search over a quantum graph.

    Mirrors the structure of the underlying argument: a single full block
    delegates to the plain dichotomy search; a block with multiplicity
    d_i ≥ k certifies immediately; otherwise each block is tried through the
    tensor factorization (largest n_i·d_i first), and finally the induced
    classical graph on blocks goes through the classical Ramsey extraction.
    Each route yields candidates to the loop :func:`find_clique_or_anticlique`
    uses, which re-certifies them with :func:`generalized_certify`.  The
    returned projection always lies in the algebra and may have rank larger
    than k; Neither-with-trace is the honest desk-scale fallback.
    """
    v, m = qg.system, qg.algebra
    n = v.n
    if params is None:
        params = SearchParams.for_k(k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k = {k}")
    if len(m.blocks) == 1 and m.blocks[0][1] == 1:
        return find_clique_or_anticlique(v, k, params, tol)
    trace: list[str] = []
    order = sorted(range(len(m.blocks)), key=lambda i: -(m.blocks[i][0] * m.blocks[i][1]))
    candidates = chain(
        _multiplicity_route(m, k, params, trace, order),
        _tensor_route(qg, k, params, tol, trace, order),
        _classical_route(qg, k, params, trace),
        _fallback_route(m, k, trace, order),
    )
    check = partial(generalized_certify, qg, tol=tol, seed=params.seed)
    return _first_certified(candidates, check, trace)


def _multiplicity_route(
    m: MatrixAlgebra, k: int, params: SearchParams, trace: list[str], order: list[int]
) -> Iterator[_Candidate]:
    """A block with d_i ≥ k: a random unit vector of it tensored with I_{d_i}."""
    for i in order:
        if m.blocks[i][1] >= k:
            frame = _random_block_frame(m, i, derive_rng(params.seed, 4, i))
            yield Projection.from_frame(frame), _DECIDED, ()
            trace.append(f"block {i}: multiplicity {m.blocks[i][1]} >= k but certification failed")


def _tensor_route(
    qg: QuantumGraph, k: int, params: SearchParams, tol: Tolerance, trace: list[str],
    order: list[int],
) -> Iterator[_Candidate]:
    """Factor block i's restriction as W ⊗ M_{d_i} and search W for rank ⌈k/d_i⌉."""
    m = qg.algebra
    for i in order:
        ni, di = m.blocks[i]
        ksub = -(-k // di)
        if ksub > ni or ni < 2:
            continue
        w = tensor_factor(block_restriction(qg.system, m, i), ni, di, tol)
        if w is None:
            trace.append(f"block {i}: tensor factorization check failed")
            continue
        sub_params = replace(params, seed=derive_seed(params.seed, 6, i))
        sub_cert = find_clique_or_anticlique(w, ksub, sub_params, tol)
        if sub_cert.kind is Kind.NEITHER:
            trace.append(f"block {i}: factor search returned neither")
            continue
        yield Projection.from_frame(_embedded_frame(m, i, sub_cert.projection.frame)), _DECIDED, ()
        trace.append(f"block {i}: lifted tensor certificate failed re-certification")


def _classical_route(
    qg: QuantumGraph, k: int, params: SearchParams, trace: list[str]
) -> Iterator[_Candidate]:
    """A classical k-set of the induced block graph, one random unit per block."""
    m = qg.algebra
    r = len(m.blocks)
    if r < k:
        trace.append(f"classical route: only {r} blocks for k = {k}")
        return
    got = classical_ramsey_extract(_induced_block_graph(qg.system, m), k)
    if got is None:
        trace.append(f"classical route: no k-set in the {r}-block induced graph")
        return
    verts, kind = got
    for t in range(params.retry_budget):
        frames = [_random_block_frame(m, i - 1, derive_rng(params.seed, 5, t, i)) for i in verts]
        yield Projection.from_frame(np.concatenate(frames, axis=1)), (kind,), ()
    trace.append(
        f"classical route: extracted {kind.value} on blocks {verts} "
        f"failed certification in {params.retry_budget} draws"
    )


def _fallback_route(
    m: MatrixAlgebra, k: int, trace: list[str], order: list[int]
) -> Iterator[_Candidate]:
    """Leading coordinates of the largest blocks until the rank reaches k; any verdict."""
    rank = 0
    frames = []
    for i in order:
        if rank >= k:
            break
        ni, di = m.blocks[i]
        take = min(ni, -(-(k - rank) // di))
        frames.append(_embedded_frame(m, i, np.eye(ni, take, dtype=np.complex128)))
        rank += take * di
    trace.append("fallback projection certified honestly")
    yield Projection.from_frame(np.concatenate(frames, axis=1)), _ANY, ()
