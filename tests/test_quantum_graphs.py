import itertools

import numpy as np
import pytest

from opsys.constructions import SimpleGraph, diagonal_system, graph_operator_system
from opsys.linalg import Projection, numerical_rank
from opsys.quantum_graphs import (
    MatrixAlgebra,
    QuantumGraph,
    block_restriction,
    classical_ramsey_extract,
    commutant,
    general_find,
    generalized_certify,
    is_bimodule,
    tensor_factor,
)
from opsys.ramsey import SearchParams, find_clique_or_anticlique
from opsys.systems import (
    Kind,
    certify,
    from_span,
    random_projection,
    random_system,
)


def unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


class TestMatrixAlgebra:
    def test_full_and_diagonal(self):
        assert MatrixAlgebra.full(4).blocks == ((4, 1),)
        assert MatrixAlgebra.diagonal(4).blocks == ((1, 1),) * 4
        assert MatrixAlgebra.full(4).n == 4
        assert MatrixAlgebra.full(4).dim == 16
        assert MatrixAlgebra.diagonal(4).dim == 4

    def test_block_sizes(self):
        m = MatrixAlgebra.from_blocks([(2, 1), (1, 3)])
        assert m.n == 5
        assert m.dim == 5  # 2^2 + 1^2

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            MatrixAlgebra.from_blocks([])
        with pytest.raises(ValueError):
            MatrixAlgebra.from_blocks([(0, 1)])
        with pytest.raises(ValueError):
            MatrixAlgebra.from_blocks([(2, 0)])

    def test_basis_orthonormal(self):
        m = MatrixAlgebra.from_blocks([(2, 2), (1, 1)])
        b = m.basis
        assert b.shape == (m.dim, m.n, m.n)
        flat = b.reshape(m.dim, -1)
        assert np.allclose(flat @ flat.conj().T, np.eye(m.dim), atol=1e-12)

    def test_span_closed_under_products(self):
        m = MatrixAlgebra.from_blocks([(2, 2), (1, 1)])
        rng = np.random.default_rng(0)
        a = np.tensordot(rng.standard_normal(m.dim), m.basis, axes=1)
        b = np.tensordot(rng.standard_normal(m.dim), m.basis, axes=1)
        assert m.contains(a @ b)

    def test_contains(self):
        m = MatrixAlgebra.diagonal(3)
        assert m.contains(np.diag([1.0, 2.0, 3.0]))
        assert not m.contains(unit(3, 0, 1))
        assert not m.contains(1e-10 * unit(3, 0, 1))
        assert m.contains(np.zeros((3, 3)))
        assert MatrixAlgebra.full(3).contains(unit(3, 0, 1))


class TestCommutant:
    def test_full_algebra_commutant_is_scalars(self):
        mc = commutant(MatrixAlgebra.full(3))
        assert mc.blocks == ((1, 3),)
        assert mc.dim == 1

    def test_diagonal_is_self_commutant(self):
        mc = commutant(MatrixAlgebra.diagonal(4))
        assert mc.blocks == ((1, 1),) * 4
        assert mc.dim == 4

    def test_blocks_swap(self):
        m = MatrixAlgebra.from_blocks([(2, 3), (4, 1)])
        assert commutant(m).blocks == ((3, 2), (1, 4))

    def test_elements_actually_commute(self):
        m = MatrixAlgebra.from_blocks([(2, 2), (3, 1)])
        mc = commutant(m)
        for a in m.basis:
            for b in mc.basis:
                assert np.abs(a @ b - b @ a).max() < 1e-12

    @pytest.mark.parametrize(
        "blocks",
        [
            [(1, 1)],
            [(3, 1)],
            [(1, 4)],
            [(2, 2)],
            [(2, 1), (1, 2)],
            [(2, 3), (3, 2)],
            [(1, 1), (2, 2), (1, 3)],
        ],
    )
    def test_double_commutant_identity(self, blocks):
        m = MatrixAlgebra.from_blocks(blocks)
        mcc = commutant(commutant(m))
        assert mcc == m

    def test_commutant_is_cached(self):
        m = MatrixAlgebra.from_blocks([(2, 3), (1, 2)])
        assert commutant(m) is commutant(m)
        assert commutant(commutant(m)) == m

    def test_commutant_dimensions_multiply(self):
        m = MatrixAlgebra.from_blocks([(2, 3), (1, 4)])
        mc = commutant(m)
        assert m.n == mc.n
        # dim M * dim M' >= n for every block structure; equality on factors
        full = MatrixAlgebra.from_blocks([(3, 2)])
        assert full.dim * commutant(full).dim == 9 * 4


class TestBimodule:
    def test_algebra_span_is_a_bimodule(self):
        m = MatrixAlgebra.from_blocks([(2, 1), (2, 1)])
        v = from_span(list(m.basis), m.n)
        assert is_bimodule(v, m)

    def test_full_matrix_space_is_a_bimodule(self):
        m = MatrixAlgebra.from_blocks([(2, 1), (1, 2)])
        units = [unit(4, i, j) for i in range(4) for j in range(4)]
        assert is_bimodule(from_span(units, 4), m)

    def test_generic_system_is_not(self):
        m = MatrixAlgebra.from_blocks([(2, 1), (2, 1)])
        v = random_system(4, 3, seed=0)
        assert not is_bimodule(v, m)

    def test_everything_is_a_full_algebra_bimodule(self):
        # M = M_n has scalar commutant, so any operator system qualifies
        v = random_system(4, 5, seed=1)
        assert is_bimodule(v, MatrixAlgebra.full(4))


def two_sided_rank_oracle(v, m):
    """The former bimodule check: span{X·A·Y} over commutant basis elements X, Y
    and A in V's basis has rank dim V, alone and jointly with V's basis."""
    xs = commutant(m).basis
    prods = np.einsum("xij,ajk,ykl->xayil", xs, v.basis, xs, optimize=True)
    rows = prods.reshape(-1, v.n * v.n)
    joint = np.concatenate([rows, v.basis.reshape(v.dim, -1)])
    return numerical_rank(rows) == v.dim and numerical_rank(joint) == v.dim


def joint_rank_tensor_oracle(vb, ni, di):
    """The former tensor-factor check: the slice system W, its dimension count,
    and the joint rank of the reconstructions W-basis ⊗ E_bb′ with vb's basis."""
    mats = vb.basis.reshape(vb.dim, ni, di, ni, di)
    w = from_span(list(mats.transpose(0, 2, 4, 1, 3).reshape(-1, ni, ni)), ni)
    if w.dim * di * di != vb.dim:
        return False
    recon = [np.kron(e, unit(di, b, c)) for e in w.basis for b in range(di) for c in range(di)]
    return numerical_rank(recon + list(vb.basis)) == vb.dim


def random_graph_system(n, seed, share=0.5):
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    picked = rng.choice(len(pairs), size=round(share * len(pairs)), replace=False)
    return graph_operator_system(SimpleGraph.from_edges(n, [pairs[i] for i in picked]))


def tensor_system(w, side):
    """W ⊗ M_side in the contiguous (a, b) ordering."""
    units = [unit(side, b, c) for b in range(side) for c in range(side)]
    return from_span([np.kron(a, e) for a in w.basis for e in units], w.n * side)


def d2_tensor_m2_plus_scalar():
    """V = D_2 ⊗ M_2 on the (2, 2) block plus the scalar (1, 1) block, in M_5."""
    mats = []
    for i in range(2):
        for x in np.eye(4).reshape(4, 2, 2):
            big = np.zeros((5, 5), dtype=complex)
            big[:4, :4] = np.kron(unit(2, i, i), x)
            mats.append(big)
    mats.append(unit(5, 4, 4))
    return from_span(mats, 5)


def bimodule_oracle_cases():
    """(system, algebra) pairs: the roundtrip benchmark's families, the inputs of
    the tensor_factor tests, then non-bimodules."""
    cases = [(random_graph_system(n, seed=n), MatrixAlgebra.diagonal(n)) for n in range(6, 11)]
    for d, seed in ((4, 0), (9, 1)):
        cases.append((tensor_system(random_system(3, d, seed=seed), 2), MatrixAlgebra.from_blocks([(3, 2)])))
    for d, seed in ((2, 2), (4, 3)):
        cases.append((tensor_system(random_system(2, d, seed=seed), 3), MatrixAlgebra.from_blocks([(2, 3)])))
    layout = commutant(MatrixAlgebra.from_blocks([(2, 3)]))
    cases.append((from_span([np.kron(unit(2, i, j), np.eye(3)) for i in range(2) for j in range(2)], 6), layout))
    cases.append((d2_tensor_m2_plus_scalar(), MatrixAlgebra.from_blocks([(2, 2), (1, 1)])))
    cases.append((random_system(4, 5, seed=3), MatrixAlgebra.from_blocks([(2, 2)])))
    cases += [(random_system(6, d, seed=d), MatrixAlgebra.diagonal(6)) for d in (2, 5, 12)]
    cases += [(random_system(6, d, seed=d), MatrixAlgebra.from_blocks([(3, 2)])) for d in (3, 7)]
    g = random_graph_system(6, seed=0, share=0.3)
    non_edges = [p for p in itertools.combinations(range(6), 2) if not g.contains(unit(6, *p))]
    off = unit(6, *non_edges[0]) + unit(6, *non_edges[1])
    cases.append((from_span(list(g.basis) + [off], 6), MatrixAlgebra.diagonal(6)))
    return cases


class TestBimoduleOracle:
    def test_agrees_with_two_sided_rank_oracle(self):
        verdicts = []
        for v, m in bimodule_oracle_cases():
            verdicts.append(is_bimodule(v, m))
            assert verdicts[-1] == two_sided_rank_oracle(v, m)
        assert verdicts.count(False) >= 7

    def test_tensor_factor_agrees_with_joint_rank_oracle(self):
        m = MatrixAlgebra.from_blocks([(2, 2), (1, 1)])
        cases = [
            (block_restriction(d2_tensor_m2_plus_scalar(), m, 0), 2, 2),
            (random_system(4, 5, seed=3), 2, 2),
            (tensor_system(random_system(3, 4, seed=0), 2), 3, 2),
            (tensor_system(random_system(3, 9, seed=1), 2), 3, 2),
            (tensor_system(random_system(2, 2, seed=2), 3), 2, 3),
            (random_system(6, 8, seed=4), 2, 3),
        ]
        verdicts = [tensor_factor(vb, ni, di) is not None for vb, ni, di in cases]
        assert verdicts == [joint_rank_tensor_oracle(vb, ni, di) for vb, ni, di in cases]
        assert verdicts == [True, False, True, True, True, False]

    def test_d20_graph_system_needs_no_svd(self, monkeypatch):
        m = MatrixAlgebra.diagonal(20)
        v = random_graph_system(20, seed=20)
        assert v.dim == 210

        def no_svd(*args, **kwargs):
            raise AssertionError("is_bimodule called numpy.linalg.svd")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert is_bimodule(v, m)


class TestQuantumGraph:
    def test_rejects_non_bimodule(self):
        m = MatrixAlgebra.from_blocks([(2, 1), (2, 1)])
        with pytest.raises(ValueError, match="bimodule"):
            QuantumGraph(m, random_system(4, 3, seed=0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            QuantumGraph(MatrixAlgebra.full(3), random_system(4, 3, seed=0))

    def test_accepts_full_algebra_pairs(self):
        QuantumGraph(MatrixAlgebra.full(4), random_system(4, 3, seed=0))


class TestGeneralizedCertify:
    def test_projection_must_lie_in_algebra(self):
        qg = QuantumGraph(MatrixAlgebra.diagonal(4), diagonal_system(4))
        p = random_projection(4, 2, seed=0)
        with pytest.raises(ValueError, match="algebra"):
            generalized_certify(qg, p, 2)

    def test_reduces_to_certify_on_full_algebra(self):
        cases = []
        for seed in range(6):
            n, d = 5, 1 + seed * 4
            v = random_system(n, min(d, n * n), seed=seed)
            cases.append((v, random_projection(n, 2, seed=seed)))
        # the tolerance straddle of test_systems: dim(PVP) is 1 at rank_rel, 2 at cert_rel
        straddle = 1e-10 * (unit(3, 0, 1) + unit(3, 1, 0)) + unit(3, 0, 2) + unit(3, 2, 0)
        cases.append((from_span([straddle], 3), Projection.coordinate(3, [0, 1])))
        for v, p in cases:
            qg = QuantumGraph(MatrixAlgebra.full(v.n), v)
            a = generalized_certify(qg, p, 2)
            b = certify(v, p, 2)
            assert a.kind is b.kind
            assert a.compressed_dim == b.compressed_dim
            assert a.commutant_dim == 1
        # a and b now hold the straddle's certificates
        assert a.kind is Kind.NEITHER
        assert any("ambiguous" in note for note in a.trace + b.trace)

    def test_classical_clique_and_independent_sets(self):
        # path 1-2-3 plus isolated 4: {1,2} clique, {1,3} independent
        g = SimpleGraph.from_edges(4, [(1, 2), (2, 3)])
        qg = QuantumGraph(MatrixAlgebra.diagonal(4), graph_operator_system(g))
        clique = generalized_certify(qg, Projection.coordinate(4, [0, 1]), 2)
        assert clique.kind is Kind.CLIQUE
        indep = generalized_certify(qg, Projection.coordinate(4, [0, 2]), 2)
        assert indep.kind is Kind.ANTICLIQUE
        assert indep.commutant_dim == 2
        # {1,2,3} contains both an edge and a non-edge: neither
        mixed = generalized_certify(qg, Projection.coordinate(4, [0, 1, 2]), 3)
        assert mixed.kind is Kind.NEITHER

    def test_k_must_match_rank(self):
        qg = QuantumGraph(MatrixAlgebra.full(3), random_system(3, 2, seed=0))
        with pytest.raises(ValueError):
            generalized_certify(qg, random_projection(3, 2, seed=0), 3)


class TestClassicalRamseyExtract:
    def test_planted_clique(self):
        g = SimpleGraph.from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5)])
        out = classical_ramsey_extract(g, 3)
        assert out is not None
        verts, kind = out
        assert kind is Kind.CLIQUE
        assert verts == (1, 2, 3)

    def test_independent_set(self):
        # star K_1,4: no 3-clique but leaves are independent
        g = SimpleGraph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
        out = classical_ramsey_extract(g, 3)
        assert out is not None
        verts, kind = out
        assert kind is Kind.ANTICLIQUE
        assert len(verts) == 3
        assert all(not g.has_edge(i, j) for i, j in itertools.combinations(verts, 2))

    def test_five_cycle_has_neither(self):
        c5 = SimpleGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert classical_ramsey_extract(c5, 3) is None

    def test_k_exceeding_order(self):
        g = SimpleGraph.from_edges(3, [(1, 2)])
        assert classical_ramsey_extract(g, 4) is None

    def test_k_two_always_resolves_nontrivial(self):
        for edges in [[], [(1, 2)], [(1, 2), (2, 3), (1, 3)]]:
            g = SimpleGraph.from_edges(3, edges)
            out = classical_ramsey_extract(g, 2)
            assert out is not None


class TestBlockDecomposition:
    def test_block_restriction_slices_the_bimodule(self):
        m = MatrixAlgebra.from_blocks([(2, 2), (1, 1)])
        sub = block_restriction(d2_tensor_m2_plus_scalar(), m, 0)
        assert sub.n == 4 and sub.dim == 8
        w = tensor_factor(sub, 2, 2)
        assert w is not None
        assert w.n == 2 and w.dim == 2
        assert all(np.allclose(b, np.diag(np.diagonal(b)), atol=1e-9) for b in w.basis)

    def test_tensor_factor_rejects_non_product(self):
        m = MatrixAlgebra.from_blocks([(2, 2)])
        v = random_system(4, 5, seed=3)
        qg_basis = list(v.basis)
        sub = from_span(qg_basis, 4)
        assert tensor_factor(sub, 2, 2) is None


def commutes_with_commutant(p, m):
    mc = commutant(m)
    pm = p.matrix
    scale = max(1.0, float(np.abs(pm).max()))
    return all(np.abs(pm @ x - x @ pm).max() <= 1e-9 * scale for x in mc.basis)


class TestGeneralFind:
    def test_full_algebra_delegates_to_dichotomy(self):
        v = random_system(9, 3, seed=0)
        qg = QuantumGraph(MatrixAlgebra.full(9), v)
        params = SearchParams.for_k(2, seed=0)
        a = general_find(qg, 2, params)
        b = find_clique_or_anticlique(v, 2, params)
        assert a.kind is b.kind
        assert np.array_equal(a.projection.frame, b.projection.frame)

    def test_big_multiplicity_block(self):
        # a block with d_i >= k admits a projection that is simultaneously
        # clique and anticlique; the clique verdict is reported
        m = MatrixAlgebra.from_blocks([(2, 3)])
        mats = [
            np.kron(unit(2, i, i), x)
            for i in range(2)
            for x in np.eye(9).reshape(9, 3, 3)
        ]
        v = from_span(mats, 6)  # D_2 (x) M_3
        qg = QuantumGraph(m, v)
        cert = general_find(qg, 2, SearchParams.for_k(2, seed=0))
        assert cert.kind is Kind.CLIQUE
        assert cert.trace == ()
        assert commutes_with_commutant(cert.projection, m)

    def test_tensor_route(self):
        # d_1 = 2 < k = 3 forces the tensor factorization; the full matrix
        # space factors as M_3 (x) M_2 and the sub-search finds a 2-clique
        # of M_3, which embeds to a rank-4 clique upstairs
        m = MatrixAlgebra.from_blocks([(3, 2)])
        units = [unit(6, i, j) for i in range(6) for j in range(6)]
        v = from_span(units, 6)
        qg = QuantumGraph(m, v)
        cert = general_find(qg, 3, SearchParams.for_k(3, seed=1))
        assert cert.kind is Kind.CLIQUE
        assert cert.trace == ()
        assert cert.projection.k == 4
        assert commutes_with_commutant(cert.projection, m)
        re = generalized_certify(qg, cert.projection, cert.projection.k)
        assert re.kind is cert.kind

    def test_classical_route_planted_clique(self):
        # diagonal algebra, graph system with a planted triangle
        g = SimpleGraph.from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5)])
        qg = QuantumGraph(MatrixAlgebra.diagonal(6), graph_operator_system(g))
        cert = general_find(qg, 3, SearchParams.for_k(3, seed=0))
        assert cert.kind is Kind.CLIQUE
        assert cert.trace == ()
        assert commutes_with_commutant(cert.projection, MatrixAlgebra.diagonal(6))

    def test_classical_route_independent_set(self):
        g = SimpleGraph.from_edges(6, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])
        qg = QuantumGraph(MatrixAlgebra.diagonal(6), graph_operator_system(g))
        cert = general_find(qg, 3, SearchParams.for_k(3, seed=0))
        assert cert.kind is Kind.ANTICLIQUE
        assert cert.trace == ()

    def test_fallback_route(self):
        # no block has multiplicity 3 or room for a rank-3 tensor search, and
        # two blocks cannot hold a classical 3-set: the fallback decides
        m = MatrixAlgebra.from_blocks([(2, 1), (1, 1)])
        qg = QuantumGraph(m, from_span(list(commutant(m).basis), m.n))
        cert = general_find(qg, 3, SearchParams.for_k(3, seed=0))
        assert cert.kind is Kind.ANTICLIQUE
        assert cert.projection.k == 3
        assert cert.trace == (
            "classical route: only 2 blocks for k = 3",
            "fallback projection certified honestly",
        )

    def test_results_recertify(self):
        # the commutant itself is always a bimodule over itself
        cases = [
            ([(2, 2), (1, 1)], 2),
            ([(1, 2), (2, 1)], 2),
            ([(3, 1), (1, 3)], 2),
        ]
        for blocks, k in cases:
            m = MatrixAlgebra.from_blocks(blocks)
            v = from_span(list(commutant(m).basis), m.n)
            qg = QuantumGraph(m, v)
            cert = general_find(qg, k, SearchParams.for_k(k, seed=5))
            if cert.kind is not Kind.NEITHER:
                re = generalized_certify(qg, cert.projection, cert.projection.k)
                assert re.kind is cert.kind
                assert commutes_with_commutant(cert.projection, m)

    def test_returned_rank_at_least_k(self):
        m = MatrixAlgebra.from_blocks([(2, 3)])
        mats = [
            np.kron(unit(2, i, i), x)
            for i in range(2)
            for x in np.eye(9).reshape(9, 3, 3)
        ]
        qg = QuantumGraph(m, from_span(mats, 6))
        cert = general_find(qg, 2, SearchParams.for_k(2, seed=0))
        assert cert.projection.k >= 2
        assert cert.k == cert.projection.k
