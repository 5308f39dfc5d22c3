import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opsys.constructions import (
    BlockHypothesisInput,
    SimpleGraph,
    anticlique_lowdim,
    blocks2_clique,
    blocks_clique,
    diagonal_clique,
    diagonal_clique_projection,
    diagonal_system,
    gramian_completion,
    graph_operator_system,
    rank1_spanning_vectors,
    rank2_separator,
    rowcolumn_system,
    threedim_clique,
    two_clique,
)
import opsys.constructions
import opsys.linalg
import opsys.systems
from opsys.constructions import _greedy_pivots
from opsys.errors import SearchBudgetError
from opsys.linalg import Projection, hs_inner, numerical_rank
from opsys.ramsey import diagonal_route
from opsys.systems import (
    Kind,
    OperatorSystem,
    certify,
    from_span,
    haar_unitary,
    random_diagonal_system,
    random_hermitian,
    random_projection,
    random_system,
)

from instances import chain_instance, fail_first_solve, staircase_instance


class TestSimpleGraph:
    def test_rejects_loops(self):
        with pytest.raises(ValueError, match="loop"):
            SimpleGraph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            SimpleGraph.from_edges(3, [(1, 4)])

    def test_edges_are_unordered(self):
        g = SimpleGraph.from_edges(4, [(2, 1), (1, 2), (3, 4)])
        assert len(g.edges) == 2
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not g.has_edge(1, 3)

    def test_complement_of_cycle(self):
        c5 = SimpleGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        comp = c5.complement()
        assert len(comp.edges) == 5
        assert comp.has_edge(1, 3) and not comp.has_edge(1, 2)
        # complementing twice gives the original
        assert comp.complement().edges == c5.edges

    def test_adjacency_symmetric(self):
        g = SimpleGraph.from_edges(4, [(1, 3), (2, 4)])
        a = g.adjacency()
        assert np.array_equal(a, a.T)
        assert a[0, 2] and not a[0, 1]


class TestGraphSystems:
    def test_dimension_counts_vertices_and_edges(self):
        g = SimpleGraph.from_edges(3, [(1, 2), (2, 3)])
        assert graph_operator_system(g).dim == 3 + 2 * 2

    def test_edgeless_graph_is_diagonal(self):
        g = SimpleGraph.from_edges(4, [])
        v = graph_operator_system(g)
        assert v.dim == 4
        assert all(np.allclose(b, np.diag(np.diagonal(b))) for b in v.basis)

    def test_edge_pair_is_a_clique(self):
        g = SimpleGraph.from_edges(4, [(1, 2)])
        v = graph_operator_system(g)
        cert = certify(v, Projection.coordinate(4, [0, 1]), 2)
        assert cert.kind is Kind.CLIQUE

    def test_diagonal_system(self):
        v = diagonal_system(5)
        assert v.n == 5 and v.dim == 5


class TestRowColumnSystem:
    def test_dimension_is_twice_n(self):
        for n in range(2, 9):
            assert rowcolumn_system(n).dim == 2 * n

    def test_rank_three_compressions_stay_small(self):
        v = rowcolumn_system(5)
        for t in range(20):
            p = random_projection(5, 3, seed=t)
            cert = certify(v, p, 3)
            assert cert.kind is not Kind.CLIQUE
            assert cert.compressed_dim <= 6

    def test_needs_two_dimensions(self):
        with pytest.raises(ValueError):
            rowcolumn_system(1)


class TestRank1SpanningVectors:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_outer_products_span_full_algebra(self, k):
        vs = rank1_spanning_vectors(k)
        assert vs.shape == (k * k, k)
        outers = np.einsum("ai,aj->aij", vs, vs.conj())
        assert numerical_rank(list(outers)) == k * k


class TestGramianCompletion:
    def assert_combined_gram_is_scalar(self, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=complex))
        tails = gramian_completion(rows)
        assert tails.shape == (rows.shape[0], rows.shape[0] - 1)
        combined = np.hstack([rows, tails])
        gram = rows @ rows.conj().T
        top = np.linalg.norm(gram, 2)
        target = top * np.eye(rows.shape[0])
        resid = combined @ combined.conj().T - target
        assert np.abs(resid).max() <= 1e-9 * max(top, 1e-300)

    def test_random_vectors(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        self.assert_combined_gram_is_scalar(rows)

    def test_rank_deficient_family(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        coeffs = rng.standard_normal((5, 2))
        self.assert_combined_gram_is_scalar(coeffs @ base)

    def test_single_vector(self):
        self.assert_combined_gram_is_scalar(np.array([[1.0 + 2.0j, 3.0]]))

    def test_repeated_vector(self):
        self.assert_combined_gram_is_scalar(np.ones((4, 2), dtype=complex))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
    def test_property(self, seed, r, s):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((r, s)) + 1j * rng.standard_normal((r, s))
        self.assert_combined_gram_is_scalar(rows)


class TestDiagonalClique:
    @pytest.mark.parametrize("k,n", [(2, 5), (3, 11), (4, 19)])
    def test_threshold_sizes(self, k, n):
        res = diagonal_clique(n, k)
        assert res.certificate.kind is Kind.CLIQUE
        assert res.certificate.compressed_dim == k * k
        # the certificate is against the system realized by `basis`: re-check
        re = certify(res.system, res.certificate.projection, k)
        assert re.kind is Kind.CLIQUE

    def test_larger_ambient_space(self):
        res = diagonal_clique(9, 2)
        assert res.certificate.kind is Kind.CLIQUE

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            diagonal_clique(4, 2)
        with pytest.raises(ValueError):
            diagonal_clique_projection(4, 2)

    @pytest.mark.parametrize("k,n", [(2, 5), (2, 8), (3, 11), (3, 14), (4, 22), (5, 29)])
    def test_projection_against_standard_diagonal(self, k, n):
        p = diagonal_clique_projection(n, k)
        cert = certify(diagonal_system(n), p, k)
        assert cert.kind is Kind.CLIQUE
        assert cert.compressed_dim == k * k


class TestGreedyPivots:
    """The coordinate picker of the diagonal clique route, against pivoted QR."""

    @pytest.mark.parametrize("d,n,count", [(5, 7, 5), (7, 7, 5), (11, 16, 11), (19, 30, 19), (6, 9, 3)])
    def test_same_coordinates_as_pivoted_qr(self, d, n, count):
        for seed in range(20):
            rng = np.random.default_rng([seed, d, n])
            diags = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
            norms = np.sort(np.linalg.norm(diags, axis=0))
            assert np.diff(norms).min() > 1e-6 * norms[-1]  # no ties to break
            _, _, piv = scipy.linalg.qr(diags, pivoting=True)
            assert sorted(_greedy_pivots(diags, count)) == sorted(piv[:count]), seed

    def test_distinct_columns_past_the_rank(self):
        rng = np.random.default_rng(0)
        diags = rng.standard_normal((2, 4)) @ rng.standard_normal((4, 6))
        picked = _greedy_pivots(diags, 10)
        assert sorted(picked) == list(range(6))
        assert np.argmax(np.linalg.norm(diags, axis=0)) == picked[0]

    def test_diagonal_route_on_the_full_diagonal_algebra(self):
        # every column of D_n's diagonal stack has norm 1: all pivots tie
        v = random_diagonal_system(7, 7, seed=0)
        cert = diagonal_route(v, 2)
        assert cert.kind is Kind.CLIQUE and cert.compressed_dim == 4


class TestCliquesWithoutUnitaryCompletion:
    """Only diagonal_clique completes its frame to a unitary; the rest use the frame alone."""

    @pytest.fixture(autouse=True)
    def no_null_space(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("null_space called")

        helper = opsys.linalg.null_space
        bound = [name for name, mod in list(sys.modules.items())
                 if name.startswith("opsys") and getattr(mod, "null_space", None) is helper]
        assert {"opsys.linalg", "opsys.ramsey", "opsys.constructions"} <= set(bound)
        for name in bound:
            monkeypatch.setattr(sys.modules[name], "null_space", refuse)

    def test_the_unitary_completion_is_refused(self):
        with pytest.raises(AssertionError, match="null_space called"):
            diagonal_clique(5, 2)

    def test_diagonal_clique_projection(self):
        p = diagonal_clique_projection(19, 4)
        assert certify(diagonal_system(19), p, 4).kind is Kind.CLIQUE

    def test_blocks_clique(self):
        cert = blocks_clique(BlockHypothesisInput(3, staircase_instance(3, seed=0)))
        assert cert.kind is Kind.CLIQUE

    def test_diagonal_route(self):
        cert = diagonal_route(random_diagonal_system(7, 6, seed=0), 2)
        assert cert.kind is Kind.CLIQUE

    def test_blocks2_clique_independent_tails(self):
        chain = chain_instance(2, seed=3, dependent=False)
        v = from_span(list(chain), chain.shape[1])
        cert = blocks2_clique(v, chain, 2, seed=1)
        assert cert.kind is Kind.CLIQUE
        assert any("independent tails" in note for note in cert.trace)


class TestBlockHypothesisInput:
    def test_accepts_staircase(self):
        BlockHypothesisInput(2, staircase_instance(2, seed=0))

    def test_rejects_non_hermitian(self):
        mats = staircase_instance(2, seed=0)
        mats[1, 0, 1] += 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            BlockHypothesisInput(2, mats)

    def test_rejects_wrong_corner(self):
        mats = staircase_instance(2, seed=0)
        mats[2, 2, 2] = 5.0
        with pytest.raises(ValueError, match="entry 1"):
            BlockHypothesisInput(2, mats)

    def test_rejects_support_outside_block(self):
        mats = staircase_instance(2, seed=0)
        mats[0, 3, 3] = 1.0
        with pytest.raises(ValueError, match="support"):
            BlockHypothesisInput(2, mats)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            BlockHypothesisInput(3, staircase_instance(2, seed=0))


class TestBlocksClique:
    @pytest.mark.parametrize("k", [2, 3])
    def test_staircase_instances(self, k):
        for seed in range(3):
            mats = staircase_instance(k, seed=seed)
            cert = blocks_clique(BlockHypothesisInput(k, mats), seed=seed)
            assert cert.kind is Kind.CLIQUE
            assert cert.compressed_dim == k * k
            # independent re-certification against the spanned system
            v = from_span(list(mats), mats.shape[1])
            re = certify(v, cert.projection, k)
            assert re.kind is Kind.CLIQUE


class TestBlocks2Clique:
    @pytest.mark.parametrize("dependent", [False, True])
    def test_chain_instances(self, dependent):
        chain = chain_instance(2, seed=3, dependent=dependent)
        n = chain.shape[1]
        v = from_span(list(chain), n)
        cert = blocks2_clique(v, chain, 2, seed=1)
        assert cert.kind is Kind.CLIQUE
        assert cert.compressed_dim == 4
        re = certify(v, cert.projection, 2)
        assert re.kind is Kind.CLIQUE

    def test_rejects_k_below_two(self):
        chain = chain_instance(2, seed=0, dependent=False)
        v = from_span(list(chain), chain.shape[1])
        with pytest.raises(ValueError, match="k >= 2"):
            blocks2_clique(v, chain, 1)

    def test_rejects_wrong_ambient_dimension(self):
        chain = chain_instance(2, seed=0, dependent=False)
        v = from_span(list(chain), chain.shape[1])
        with pytest.raises(ValueError):
            blocks2_clique(v, chain[:, :24, :24], 2)

    def test_rejects_vanishing_pivot(self):
        chain = chain_instance(2, seed=0, dependent=False)
        chain[5, 6, 5] = 0.0
        chain[5, 5, 6] = 0.0
        v = from_span(list(chain), chain.shape[1])
        with pytest.raises(ValueError, match="pivot"):
            blocks2_clique(v, chain, 2)

    def test_rejects_chain_outside_system(self):
        chain = chain_instance(2, seed=0, dependent=False)
        other = from_span(list(chain_instance(2, seed=99, dependent=False)), chain.shape[1])
        with pytest.raises(ValueError):
            blocks2_clique(other, chain, 2)


class TestAnticliqueLowdim:
    @pytest.mark.parametrize("n,k,d", [(5, 2, 3), (7, 2, 5), (9, 3, 3)])
    def test_within_bound(self, n, k, d):
        for seed in range(3):
            v = random_system(n, d, seed=seed)
            cert = anticlique_lowdim(v, k, seed=seed)
            assert cert.kind is Kind.ANTICLIQUE
            assert cert.compressed_dim == 1
            re = certify(v, cert.projection, k)
            assert re.kind is Kind.ANTICLIQUE

    def test_bound_violation_rejected(self):
        v = random_system(5, 4, seed=0)
        with pytest.raises(ValueError, match="bound"):
            anticlique_lowdim(v, 2)

    def test_needs_k_at_least_two(self):
        v = random_system(5, 2, seed=0)
        with pytest.raises(ValueError):
            anticlique_lowdim(v, 1)


def orthogonal_part(h, against):
    out = h.astype(complex)
    for a in against:
        out = out - (hs_inner(out, a) / hs_inner(a, a)) * a
    return out


class TestRank2Separator:
    def test_trace_pattern(self):
        rng = np.random.default_rng(4)
        n = 4
        eye = np.eye(n, dtype=complex)
        a1 = orthogonal_part(random_hermitian(rng, n), [eye])
        a2 = orthogonal_part(random_hermitian(rng, n), [eye, a1])
        b = orthogonal_part(random_hermitian(rng, n), [eye, a1, a2])
        c = rank2_separator(a1, a2, b, seed=0)
        scale = np.abs(c).max()
        assert np.allclose(c, c.conj().T, atol=1e-9 * scale)
        assert abs(np.trace(c)) <= 1e-7 * scale
        assert abs(hs_inner(a1, c)) <= 1e-7 * scale * np.abs(a1).max()
        assert abs(hs_inner(a2, c)) <= 1e-7 * scale * np.abs(a2).max()
        target = hs_inner(b, b).real
        assert hs_inner(b, c).real == pytest.approx(target, rel=1e-6)
        # rank exactly two
        lam = np.linalg.eigvalsh(c)
        assert np.count_nonzero(np.abs(lam) > 1e-8 * np.abs(lam).max()) == 2

    def test_rejects_b_with_nonzero_trace(self):
        rng = np.random.default_rng(5)
        a1 = orthogonal_part(random_hermitian(rng, 3), [np.eye(3)])
        a2 = orthogonal_part(random_hermitian(rng, 3), [np.eye(3), a1])
        with pytest.raises(ValueError):
            rank2_separator(a1, a2, np.eye(3))


class TestThreedimClique:
    def test_keeps_four_dimensions(self):
        rng = np.random.default_rng(6)
        mats = np.stack([np.eye(3, dtype=complex)] + [random_hermitian(rng, 3) for _ in range(3)])
        p = threedim_clique(mats, seed=0)
        assert p.k == 2
        assert numerical_rank(list(p.compress_stack(mats))) == 4

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="3x3"):
            threedim_clique(np.zeros((3, 3, 3)))


class TestTwoClique:
    def test_random_systems(self):
        for seed in range(12):
            n = 3 + seed % 6
            d = 4 + seed % (n * n - 3)
            v = random_system(n, d, seed=seed)
            cert = two_clique(v, seed=seed)
            assert cert.kind is Kind.CLIQUE
            assert cert.compressed_dim == 4
            re = certify(v, cert.projection, 2)
            assert re.kind is Kind.CLIQUE

    def test_full_two_by_two(self):
        v = random_system(2, 4, seed=0)
        cert = two_clique(v)
        assert cert.kind is Kind.CLIQUE

    def test_rejects_small_systems(self):
        with pytest.raises(ValueError, match="dim"):
            two_clique(random_system(4, 3, seed=0))

    def test_graph_systems(self):
        cert = two_clique(pentagon_system(), seed=2)
        assert cert.kind is Kind.CLIQUE


def pentagon_system():
    g = SimpleGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    return graph_operator_system(g)


class TestSolverBreakdown:
    """A LAPACK breakdown inside a Gauss-Newton solve costs one restart, not the search."""

    @pytest.mark.parametrize("seed", range(3))
    def test_anticlique_lowdim_skips_the_restart(self, monkeypatch, seed):
        fail_first_solve(monkeypatch)
        cert = anticlique_lowdim(random_system(7, 3, seed=seed), 2, seed=seed)
        assert cert.kind is Kind.ANTICLIQUE
        assert "attempt 0: solver breakdown" in cert.trace

    @pytest.mark.parametrize("seed", range(3))
    def test_diagonal_route_returns_a_certificate(self, monkeypatch, seed):
        fail_first_solve(monkeypatch)
        cert = diagonal_route(random_diagonal_system(7, 4, seed=seed), 2, seed=seed)
        assert cert.kind is Kind.ANTICLIQUE
        assert "attempt 0: solver breakdown" in cert.trace


def central_differences(fun, x, h=1e-6):
    return np.stack([(fun(x + h * e) - fun(x - h * e)) / (2 * h) for e in np.eye(x.size)], axis=1)


class TestGaussNewton:
    """The closed-form Jacobians and the damped Gauss-Newton solve that uses them."""

    @pytest.mark.parametrize("n,k,d", [(5, 2, 2), (7, 2, 5), (9, 3, 3)])
    def test_lowdim_jacobian_matches_central_differences(self, n, k, d):
        resid, jac = opsys.constructions._lowdim_residual(random_system(n, d, seed=n), k)
        for x in np.random.default_rng(d).standard_normal((3, 2 * n * k)):
            fd = central_differences(resid, x)
            assert np.linalg.norm(jac(x) - fd) < 1e-6 * np.linalg.norm(fd)

    def test_forms_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(0)
        mats = [random_hermitian(rng, 5) for _ in range(3)]
        resid, jac = opsys.constructions._forms_residual(mats, [0.3, -0.2, 1.1])
        for x in rng.standard_normal((3, 10)):
            fd = central_differences(resid, x)
            assert np.linalg.norm(jac(x) - fd) < 1e-6 * np.linalg.norm(fd)

    def test_unreachable_target_returns_none_within_budget(self, monkeypatch):
        # no unit vector has x*Mx above the largest eigenvalue of M
        rng = np.random.default_rng(1)
        m = random_hermitian(rng, 4)
        steps = []
        real = np.linalg.lstsq

        def counted(*args, **kwargs):
            steps.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        top = np.linalg.eigvalsh(m)[-1]
        assert opsys.constructions._solve_forms([m], [top + 1.0], [], rng) is None
        budget = opsys.constructions._SEPARATOR_RESTARTS * opsys.constructions._GN_STEPS
        assert 0 < len(steps) <= budget

    def test_anticlique_lowdim_repeats_bit_for_bit(self):
        v = random_system(9, 3, seed=4)
        a, b = anticlique_lowdim(v, 3, seed=4), anticlique_lowdim(v, 3, seed=4)
        assert a.projection.frame.tobytes() == b.projection.frame.tobytes()
        assert (a.kind, a.compressed_dim, a.trace) == (b.kind, b.compressed_dim, b.trace)

    def test_import_leaves_scipy_optimize_out(self):
        # and every other scipy module: opsys runs on numpy alone
        src = Path(opsys.constructions.__file__).resolve().parents[1]
        probe = "import sys, opsys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.strip() == "[]"


class TestNoHermitianBasis:
    """The desk-scale constructions read V's stored basis, never ``hermitian_basis``."""

    def test_constructions_do_not_bind_it(self):
        assert not hasattr(opsys.constructions, "hermitian_basis")

    def test_constructions_certify_without_it(self, monkeypatch):
        def refuse(v):
            raise AssertionError("hermitian_basis called")

        monkeypatch.setattr(opsys.systems, "hermitian_basis", refuse)
        assert anticlique_lowdim(random_system(7, 3, seed=0), 2, seed=0).kind is Kind.ANTICLIQUE
        assert two_clique(random_system(6, 11, seed=1), seed=1).kind is Kind.CLIQUE
        assert two_clique(pentagon_system(), seed=2).kind is Kind.CLIQUE


def mixed_basis(v, seed):
    """The same span as ``v`` rebuilt from a random invertible mix of its basis."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((v.dim, v.dim)) + 1j * rng.standard_normal((v.dim, v.dim))
    mixed = from_span(list(np.tensordot(g, v.basis, 1)), v.n)
    assert mixed.dim == v.dim
    return mixed


def conjugated(v, u):
    return OperatorSystem(v.n, u @ v.basis @ u.conj().T)


def assert_same_verdicts(v, w, p, k):
    a, b = certify(v, p, k), certify(w, p, k)
    assert (a.kind, a.compressed_dim) == (b.kind, b.compressed_dim)


class TestBasisInvariance:
    """Verdicts depend on V, not on the basis it is stored in nor on a unitary frame."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(5, 2), (7, 2), (9, 3)]), st.integers(1, 5))
    @example(0, (5, 2), 1)
    @example(0, (7, 2), 1)
    @example(0, (9, 3), 1)
    @example(0, (5, 2), 3)  # d at the bound (n - k) / (k - 1)
    @example(0, (7, 2), 5)
    @example(0, (9, 3), 3)
    def test_anticlique_lowdim(self, seed, shape, d):
        n, k = shape
        v = random_system(n, min(d, (n - k) // (k - 1)), seed=seed)
        mixed = mixed_basis(v, seed + 1)
        cert = anticlique_lowdim(mixed, k, seed=seed)
        assert cert.kind is Kind.ANTICLIQUE and cert.compressed_dim == 1
        assert_same_verdicts(v, mixed, cert.projection, k)
        u = haar_unitary(np.random.default_rng(seed + 2), n)
        cert = anticlique_lowdim(conjugated(v, u), k, seed=seed)
        assert cert.kind is Kind.ANTICLIQUE and cert.compressed_dim == 1
        back = Projection.from_frame(u.conj().T @ cert.projection.frame)
        assert certify(v, back, k).kind is Kind.ANTICLIQUE

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 6), st.integers(4, 36))
    @example(0, 3, 4)
    @example(0, 6, 4)
    @example(0, 3, 9)  # d = n^2: V is all of M_n
    @example(0, 6, 36)
    def test_two_clique(self, seed, n, d):
        v = random_system(n, min(d, n * n), seed=seed)
        mixed = mixed_basis(v, seed + 1)
        cert = two_clique(mixed, seed=seed)
        assert cert.kind is Kind.CLIQUE and cert.compressed_dim == 4
        assert_same_verdicts(v, mixed, cert.projection, 2)
        u = haar_unitary(np.random.default_rng(seed + 2), n)
        cert = two_clique(conjugated(v, u), seed=seed)
        assert cert.kind is Kind.CLIQUE and cert.compressed_dim == 4
        back = Projection.from_frame(u.conj().T @ cert.projection.frame)
        assert certify(v, back, 2).kind is Kind.CLIQUE
