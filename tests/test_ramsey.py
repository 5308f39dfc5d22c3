from functools import partial

import numpy as np
import pytest

import opsys.ramsey
import opsys.systems
from opsys.linalg import DEFAULT_TOL, Projection, numerical_rank
from opsys.ramsey import (
    SearchParams,
    diagonal_route,
    find_clique_or_anticlique,
    phase1_vector_search,
    phase2_chain,
)
from opsys.systems import (
    Certificate,
    Kind,
    certify,
    derive_seed,
    from_span,
    orbit_dim,
    random_diagonal_system,
    random_projection,
    random_system,
)
from opsys.constructions import diagonal_system


def tridiagonal_system(n):
    mats = []
    for j in range(n - 1):
        e = np.zeros((n, n), dtype=complex)
        e[j, j + 1] = 1.0
        mats += [e + e.T, 1j * (e - e.T)]
    mats += [np.diag(np.eye(n)[j]) for j in range(n)]
    return from_span(mats, n)


class TestSearchParams:
    def test_for_k_formulae(self):
        p = SearchParams.for_k(2)
        assert (p.orbit_threshold, p.phase1_steps, p.phase2_steps) == (
            8 * 2**8,
            2**3,
            2 * 2**4,
        )
        p = SearchParams.for_k(3, seed=5, retry_budget=2)
        assert p.orbit_threshold == 8 * 3**8
        assert p.seed == 5 and p.retry_budget == 2

    def test_rejects_non_positive_budgets(self):
        with pytest.raises(ValueError):
            SearchParams(0, 1, 1)
        with pytest.raises(ValueError):
            SearchParams(1, 1, 1, retry_budget=0)
        with pytest.raises(ValueError):
            SearchParams(1, 1, 1, seed=-1)

    def test_for_k_rejects_zero(self):
        with pytest.raises(ValueError):
            SearchParams.for_k(0)


class TestDiagonalRoute:
    def test_clique_branch(self):
        # dim 5 >= 2^2+2-1 forces the clique branch
        v = diagonal_system(7)
        cert = diagonal_route(v, 2)
        assert cert.kind is Kind.CLIQUE
        assert cert.compressed_dim == 4

    def test_anticlique_branch(self):
        # dim 2 with (n-k)/(k-1) = 5 forces the anticlique branch
        v = random_diagonal_system(7, 2, seed=0)
        cert = diagonal_route(v, 2)
        assert cert.kind is Kind.ANTICLIQUE

    def test_never_neither_at_guaranteed_scale(self):
        # n = 7 = k^3 - k + 1 for k = 2: every dimension lands in a branch
        for d in range(1, 8):
            for seed in range(5):
                v = random_diagonal_system(7, d, seed=seed)
                cert = diagonal_route(v, 2, seed=seed)
                assert cert.kind is not Kind.NEITHER, (d, seed, cert.trace)

    def test_non_diagonal_input_rejected(self):
        v = random_system(5, 3, seed=1)
        with pytest.raises(ValueError, match="diagonal"):
            diagonal_route(v, 2)

    def test_k_out_of_range(self):
        v = diagonal_system(4)
        with pytest.raises(ValueError):
            diagonal_route(v, 5)
        with pytest.raises(ValueError):
            diagonal_route(v, 0)

    def test_gap_is_traced(self):
        # n = 5, k = 2, dim 4: neither branch applies (4 < 5 and 4 > 3)
        v = random_diagonal_system(5, 4, seed=3)
        cert = diagonal_route(v, 2, seed=3)
        if cert.kind is Kind.NEITHER:
            assert cert.trace

    def test_deterministic(self):
        v = random_diagonal_system(9, 4, seed=7)
        a = diagonal_route(v, 2, seed=11)
        b = diagonal_route(v, 2, seed=11)
        assert a.kind is b.kind
        assert np.array_equal(a.projection.frame, b.projection.frame)


class TestPhase1:
    def test_vector_has_small_orbit_and_is_orthogonal(self):
        # a system with an invariant coordinate subspace has small orbits
        mats = [np.zeros((6, 6), dtype=complex) for _ in range(2)]
        mats[0][0, 1] = mats[0][1, 0] = 1.0
        mats[1][0, 0] = 1.0
        v = from_span(mats, 6)
        w = phase1_vector_search(v, [], threshold=4, seed=0)
        assert w is not None
        assert np.linalg.norm(w) == pytest.approx(1.0)
        assert orbit_dim(v, w) < 4

        orbit = np.einsum("mij,j->mi", v.basis, w)
        w2 = phase1_vector_search(v, [w], threshold=4, seed=0)
        if w2 is not None:
            assert np.abs(orbit.conj() @ w2).max() < 1e-8

    def test_full_algebra_has_no_small_orbits(self):
        v = random_system(4, 16, seed=2)
        assert phase1_vector_search(v, [], threshold=4, seed=0) is None

    def test_exhausted_space_returns_none(self):
        v = from_span([], 3)
        vecs = [np.eye(3)[i] for i in range(3)]
        assert phase1_vector_search(v, vecs, threshold=2, seed=0) is None


class TestPhase2:
    def test_chain_relations(self):
        v = random_system(24, 3, seed=4)
        ws, chain, notes = phase2_chain(v, steps=4, seed=0)
        assert len(ws) == len(chain) + 1
        for r, a in enumerate(chain):
            img = a @ ws[r]
            # w_{r+1} is proportional to A_r w_r
            assert numerical_rank([img, ws[r + 1]]) == 1
            assert v.contains(a)
        # each new vector is orthogonal to all previous ws
        for i in range(len(ws)):
            for j in range(i):
                assert abs(ws[i].conj() @ ws[j]) < 1e-8

    def test_small_ambient_stops_early_with_notes(self):
        v = random_system(4, 3, seed=5)
        ws, chain, notes = phase2_chain(v, steps=50, seed=0)
        assert len(chain) < 50
        assert notes

    def test_tridiagonal_system_decided_by_phase_2(self):
        # T_25 = span{E_jj, E_j,j+1 + E_j+1,j, i(E_j,j+1 - E_j+1,j)}, dim 73.
        # Orbit threshold 1 leaves phase 1 empty, so the chain gets all of
        # C^25 = C^(k^4+k^3+k-1).  From e_0 it builds all 24 matrices and the
        # lifted staircase clique certifies before any probe runs.
        v = tridiagonal_system(25)
        assert v.dim == 73
        params = SearchParams(1, 1, 24, 1, seed=0)
        trace = []
        start = np.eye(25, dtype=complex)[0]
        candidates = opsys.ramsey._find_candidates(v, 2, params, DEFAULT_TOL, trace, start)
        check = partial(certify, v, seed=params.seed)
        cert = opsys.ramsey._first_certified(candidates, check, trace)
        assert cert.kind is Kind.CLIQUE
        assert cert.trace == ("phase 1: stalled after 0 vectors",)
        # from the seeded random start the chain stalls and probe 0 decides
        for seed in range(3):
            cert = find_clique_or_anticlique(v, 2, SearchParams(1, 1, 24, 1, seed=seed))
            assert any(t.startswith("phase 2: chain stalled at step") for t in cert.trace)
            assert cert.trace[-1] == "probe 0 certified"


class TestFind:
    def test_k_one_is_immediate(self):
        v = random_system(5, 7, seed=0)
        cert = find_clique_or_anticlique(v, 1)
        assert cert.kind is Kind.CLIQUE
        assert cert.compressed_dim == 1

    def test_desk_scale_dichotomy(self):
        # n = 16 comfortably above k^3 - k + 1 = 7 for k = 2
        for d in range(1, 11):
            v = random_system(16, d, seed=d)
            params = SearchParams.for_k(2, seed=d)
            cert = find_clique_or_anticlique(v, 2, params)
            assert cert.kind is not Kind.NEITHER, (d, cert.trace)
            re = certify(v, cert.projection, 2)
            assert re.kind is cert.kind

    def test_deterministic(self):
        v = random_system(12, 5, seed=9)
        params = SearchParams.for_k(2, seed=21)
        a = find_clique_or_anticlique(v, 2, params)
        b = find_clique_or_anticlique(v, 2, params)
        assert a.kind is b.kind
        assert np.array_equal(a.projection.frame, b.projection.frame)

    def test_retry_budget_monotone(self):
        # enlarging the retry budget never flips a found certificate to
        # Neither: probe seeds are derived independently of the budget
        for seed in range(6):
            v = random_system(9, 6, seed=seed)
            small = find_clique_or_anticlique(
                v, 2, SearchParams(64, 2, 4, retry_budget=2, seed=seed)
            )
            large = find_clique_or_anticlique(
                v, 2, SearchParams(64, 2, 4, retry_budget=24, seed=seed)
            )
            if small.kind is not Kind.NEITHER:
                assert large.kind is small.kind

    def test_certificates_always_sound(self):
        # whatever the verdict, the reported projection and dimension re-verify
        for seed in range(8):
            n = 6 + seed
            d = 1 + (seed * 3) % (n + 2)
            v = random_system(n, d, seed=seed + 100)
            cert = find_clique_or_anticlique(v, 2, SearchParams.for_k(2, seed=seed))
            re = certify(v, cert.projection, 2)
            assert re.kind is cert.kind
            assert re.compressed_dim == cert.compressed_dim

    def test_scalars_anticlique(self):
        v = from_span([], 8)
        cert = find_clique_or_anticlique(v, 3, SearchParams.for_k(3))
        assert cert.kind is Kind.ANTICLIQUE

    def test_full_algebra_clique(self):
        v = random_system(4, 16, seed=1)
        cert = find_clique_or_anticlique(v, 2, SearchParams.for_k(2))
        assert cert.kind is Kind.CLIQUE

    def test_neither_traces_every_stage(self):
        cert = find_clique_or_anticlique(
            random_system(4, 2, seed=0), 2, SearchParams.for_k(2, seed=0)
        )
        assert cert.kind is Kind.NEITHER
        assert cert.trace == (
            "phase 1: stalled after 3 vectors",
            "phase 1: diagonal route returned neither",
            "phase 2: residual subspace dimension 0 below chain ambient 25",
            "probes: 16 random projections certified neither",
        )

    def test_failed_recertification_is_traced(self, monkeypatch):
        # a diagonal route that claims a clique it does not have: find must
        # re-certify the lifted frame, note the failure and go on
        def lying_route(sub, k, tol, seed=0):
            return Certificate(Projection.coordinate(sub.n, range(k)), Kind.CLIQUE, k * k, k, tol)

        monkeypatch.setattr(opsys.ramsey, "diagonal_route", lying_route)
        cert = find_clique_or_anticlique(
            random_system(8, 2, seed=1), 2, SearchParams.for_k(2, seed=1)
        )
        assert cert.kind is Kind.NEITHER
        assert cert.trace == (
            "phase 1: collected all 8 vectors",
            "phase 1: lifted certificate failed re-certification",
            "phase 2: residual subspace dimension 0 below chain ambient 25",
            "probes: 16 random projections certified neither",
        )


class TestPhase1Cost:
    def test_builds_no_hermitian_basis(self, monkeypatch):
        # phase 1 draws its Hermitian probes from V's own basis
        def refuse(v):
            raise AssertionError("phase 1 built a Hermitian basis")

        monkeypatch.setattr(opsys.systems, "hermitian_basis", refuse)
        assert not hasattr(opsys.ramsey, "hermitian_basis")
        cert = find_clique_or_anticlique(
            random_system(16, 48, seed=0), 2, SearchParams.for_k(2, seed=0)
        )
        assert cert.kind is not Kind.NEITHER
        # dim 2 at n = 8: phase 1 collects its vectors and decides
        cert = find_clique_or_anticlique(
            random_system(8, 2, seed=1), 2, SearchParams.for_k(2, seed=1)
        )
        assert cert.kind is Kind.ANTICLIQUE
        assert cert.trace == ("phase 1: collected all 8 vectors",)

    def test_skips_orbit_dim_when_the_threshold_cannot_reject(self, monkeypatch):
        # 8k^8 = 2,048 exceeds min(n, dim V) = 16, the most an orbit can span
        def refuse(*args, **kwargs):
            raise AssertionError("phase 1 measured an orbit it could not reject")

        monkeypatch.setattr(opsys.ramsey, "orbit_dim", refuse)
        cert = find_clique_or_anticlique(
            random_system(16, 48, seed=0), 2, SearchParams.for_k(2, seed=0)
        )
        assert cert.kind is not Kind.NEITHER

    def test_one_null_space_per_vector_set(self, monkeypatch):
        # dim 120 > n = 24: the first vector's orbit fills C^24 and phase 1
        # stalls, so the only vector set that needs a null space is {w_1};
        # its rank is full, so singular values alone decide it, and no SVD
        # in the whole search computes singular vectors; V is never
        # compressed onto the one vector, since a 1 x 1 compression is diagonal
        frames, svds, ranks = [], [], []
        real_null, real_svd = opsys.ramsey.null_space, np.linalg.svd
        real_compress = Projection.compress_stack

        def counting_null(a):
            frames.append(real_null(a))
            return frames[-1]

        def counting_svd(a, *args, **kwargs):
            svds.append(kwargs.get("compute_uv", True))
            return real_svd(a, *args, **kwargs)

        def counting_compress(p, stack):
            ranks.append(p.k)
            return real_compress(p, stack)

        v = random_system(24, 120, seed=3)
        monkeypatch.setattr(opsys.ramsey, "null_space", counting_null)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(Projection, "compress_stack", counting_compress)
        cert = find_clique_or_anticlique(v, 2, SearchParams.for_k(2, seed=3))
        assert "phase 1: stalled after 1 vectors" in cert.trace
        assert "phase 1: only 1 vectors for rank 2" in cert.trace
        assert [f.shape for f in frames] == [(24, 0)]
        assert svds and not any(svds)
        assert ranks and 1 not in ranks

    @pytest.mark.parametrize("k", [2, 3])
    def test_search_scale_verdict_comes_from_first_probe(self, k):
        # at benchmark sizes phase 1 stalls after one vector and phase 2 has
        # no room, so the verdict is probe 0's, whatever phase 1 drew
        seed = 5
        v = random_system(32, 200, seed=seed)
        cert = find_clique_or_anticlique(v, k, SearchParams.for_k(k, seed=seed))
        expected = random_projection(32, k, derive_seed(seed, 3, 0)).frame
        assert np.array_equal(cert.projection.frame, expected)
        assert "probe 0 certified" in cert.trace
