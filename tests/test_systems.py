import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opsys.linalg import Projection, Tolerance
from opsys.systems import (
    Certificate,
    Kind,
    OperatorSystem,
    certify,
    compress_system,
    derive_rng,
    derive_seed,
    from_span,
    haar_unitary,
    hermitian_basis,
    orbit_dim,
    random_diagonal_system,
    random_hermitian,
    random_projection,
    random_system,
)


def unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def diagonal_units(n):
    return [unit(n, i, i) for i in range(n)]


class TestOperatorSystemValidation:
    def test_rejects_non_orthonormal_basis(self):
        basis = np.stack([np.eye(2, dtype=complex), np.eye(2, dtype=complex)])
        with pytest.raises(ValueError, match="orthonormal"):
            OperatorSystem(2, basis)

    def test_rejects_span_without_identity(self):
        basis = np.stack([unit(2, 0, 1), unit(2, 1, 0)])
        with pytest.raises(ValueError, match="identity"):
            OperatorSystem(2, basis)

    def test_rejects_non_adjoint_closed_span(self):
        basis = np.stack([np.eye(2, dtype=complex) / np.sqrt(2), unit(2, 0, 1)])
        with pytest.raises(ValueError, match="adjoint"):
            OperatorSystem(2, basis)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            OperatorSystem(3, np.eye(2, dtype=complex)[None, :, :])

    def test_rejects_nan_basis_element(self):
        basis = np.stack([np.eye(2, dtype=complex) / np.sqrt(2), np.full((2, 2), np.nan + 0j)])
        with pytest.raises(ValueError):
            OperatorSystem(2, basis)

    def test_contains(self):
        v = from_span([unit(2, 0, 1)], 2)
        assert v.contains(np.eye(2))
        assert v.contains(3.0 * unit(2, 0, 1) - 1j * unit(2, 1, 0))
        assert not v.contains(unit(2, 0, 0))


class TestFromSpan:
    def test_empty_span_is_scalars(self):
        v = from_span([], 3)
        assert v.dim == 1

    def test_adjoins_identity_and_adjoints(self):
        v = from_span([unit(2, 0, 1)], 2)
        assert v.dim == 3  # I, E12, E21

    def test_diagonal_system_dimension(self):
        for n in range(2, 6):
            assert from_span(diagonal_units(n), n).dim == n

    def test_full_matrix_algebra(self):
        units = [unit(2, i, j) for i in range(2) for j in range(2)]
        assert from_span(units, 2).dim == 4

    def test_dedupes_dependent_generators(self):
        a = unit(3, 0, 1) + unit(3, 1, 0)
        assert from_span([a, 2.0 * a, np.eye(3)], 3).dim == 2


class TestCertify:
    def test_diagonal_system_has_no_anticliques(self):
        # coordinate compressions of the diagonal system stay diagonal:
        # dim k is never 1 (k >= 2) and never k^2
        for n in range(3, 6):
            v = from_span(diagonal_units(n), n)
            for k in range(2, n):
                p = Projection.coordinate(n, range(k))
                cert = certify(v, p, k)
                assert cert.kind is Kind.NEITHER
                assert cert.compressed_dim == k

    def test_rank_one_clique_precedence(self):
        # k = 1: compressed dim 1 equals both k^2 and the scalar dimension;
        # the clique verdict wins
        v = from_span(diagonal_units(4), 4)
        cert = certify(v, Projection.coordinate(4, [2]), 1)
        assert cert.kind is Kind.CLIQUE
        assert cert.compressed_dim == 1

    def test_scalars_are_an_anticlique_everywhere(self):
        v = from_span([], 5)
        p = random_projection(5, 3, seed=11)
        cert = certify(v, p, 3)
        assert cert.kind is Kind.ANTICLIQUE
        assert cert.compressed_dim == 1

    def test_full_algebra_is_a_clique_everywhere(self):
        units = [unit(3, i, j) for i in range(3) for j in range(3)]
        v = from_span(units, 3)
        p = random_projection(3, 2, seed=7)
        cert = certify(v, p, 2)
        assert cert.kind is Kind.CLIQUE
        assert cert.compressed_dim == 4

    def test_rank_mismatch_rejected(self):
        v = from_span([], 4)
        with pytest.raises(ValueError, match="rank"):
            certify(v, Projection.coordinate(4, [0, 1]), 3)

    def test_dimension_mismatch_rejected(self):
        v = from_span([], 4)
        with pytest.raises(ValueError):
            certify(v, Projection.coordinate(3, [0, 1]), 2)

    def test_tolerance_straddle_downgrades_to_neither(self):
        # one basis direction carries a 1e-10-relative coupling into the
        # compressed corner: visible at cert_rel, invisible at rank_rel,
        # so the two rank counts disagree and the verdict must be NEITHER
        delta = 1e-10
        b = delta * (unit(3, 0, 1) + unit(3, 1, 0)) + unit(3, 0, 2) + unit(3, 2, 0)
        v = from_span([b], 3)
        cert = certify(v, Projection.coordinate(3, [0, 1]), 2)
        assert cert.kind is Kind.NEITHER
        assert any("ambiguous" in note for note in cert.trace)

    def test_trace_is_preserved_and_extended(self):
        v = from_span([], 2)
        cert = certify(v, Projection.coordinate(2, [0]), 1, trace=("origin",))
        assert cert.trace == ("origin",)

    def test_seed_recorded(self):
        v = from_span([], 2)
        cert = certify(v, Projection.coordinate(2, [0, 1]), 2, seed=99)
        assert cert.seed == 99


class TestCertificateInvariants:
    def test_clique_requires_k_squared(self):
        p = Projection.coordinate(3, [0, 1])
        with pytest.raises(ValueError):
            Certificate(p, Kind.CLIQUE, 3, 2, Tolerance())

    def test_anticlique_requires_commutant_dim(self):
        p = Projection.coordinate(3, [0, 1])
        with pytest.raises(ValueError):
            Certificate(p, Kind.ANTICLIQUE, 2, 2, Tolerance())
        # fine when the scalar side really has dimension 2
        Certificate(p, Kind.ANTICLIQUE, 2, 2, Tolerance(), commutant_dim=2)

    def test_kind_values_are_wire_strings(self):
        assert Kind.CLIQUE.value == "clique"
        assert Kind.ANTICLIQUE.value == "anticlique"
        assert Kind.NEITHER.value == "neither"


class TestCompressSystem:
    def test_full_algebra_compresses_to_full_algebra(self):
        units = [unit(3, i, j) for i in range(3) for j in range(3)]
        v = from_span(units, 3)
        w = compress_system(v, random_projection(3, 2, seed=3))
        assert w.n == 2 and w.dim == 4

    def test_diagonal_coordinate_compression(self):
        v = from_span(diagonal_units(5), 5)
        w = compress_system(v, Projection.coordinate(5, [0, 2, 4]))
        assert w.n == 3 and w.dim == 3
        assert all(
            np.allclose(b, np.diag(np.diagonal(b)), atol=1e-12) for b in w.basis
        )

    def test_dimension_mismatch_rejected(self):
        v = from_span([], 4)
        with pytest.raises(ValueError):
            compress_system(v, Projection.coordinate(3, [0]))


class TestOrbitDim:
    def test_diagonal_orbits_count_support(self):
        v = from_span(diagonal_units(4), 4)
        assert orbit_dim(v, np.array([1.0, 0, 0, 0])) == 1
        assert orbit_dim(v, np.array([1.0, 1.0, 0, 0])) == 2
        assert orbit_dim(v, np.array([1.0, -2.0, 3.0, 0.5j])) == 4

    def test_full_algebra_orbit_is_everything(self):
        units = [unit(3, i, j) for i in range(3) for j in range(3)]
        v = from_span(units, 3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert orbit_dim(v, x) == 3

    def test_zero_vector_rejected(self):
        v = from_span([], 3)
        with pytest.raises(ValueError):
            orbit_dim(v, np.zeros(3))


class TestHermitianBasis:
    def test_first_element_is_normalized_identity(self):
        v = from_span([unit(2, 0, 1)], 2)
        h = hermitian_basis(v)
        assert np.allclose(h[0], np.eye(2) / np.sqrt(2))

    def test_spans_hermitian_part(self):
        v = from_span([unit(2, 0, 1)], 2)
        h = hermitian_basis(v)
        assert h.shape == (3, 2, 2)
        for m in h:
            assert np.allclose(m, m.conj().T, atol=1e-10)

    def test_scalars_have_no_traceless_part(self):
        # the SVD input is rounding noise here; noise must not count as rank
        for n in range(1, 8):
            assert hermitian_basis(from_span([], n)).shape == (1, n, n)

    def test_real_orthonormal(self):
        v = random_system(4, 7, seed=5)
        h = hermitian_basis(v)
        flat = h.reshape(h.shape[0], -1)
        gram = (flat @ flat.conj().T).real
        assert np.allclose(gram, np.eye(h.shape[0]), atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 3), st.integers(1, 49))
def test_stored_basis_objective_matches_hermitian_basis(seed, n, k, d):
    """Traceless parts of V's stored basis give the objective of a real-orthonormal
    Hermitian basis: their Hermitian and anti-Hermitian parts are a Parseval frame
    of the traceless Hermitian part of V."""
    k = min(k, n)
    v = random_system(n, min(d, n * n), seed=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))

    def objective(stack):
        m = x.conj().T @ stack @ x
        m -= (np.trace(m, axis1=1, axis2=2) / k)[:, None, None] * np.eye(k)
        return float(np.sum(np.abs(m) ** 2))

    traces = np.trace(v.basis, axis1=1, axis2=2)
    stored = v.basis - (traces / n)[:, None, None] * np.eye(n)
    assert objective(stored) == pytest.approx(objective(hermitian_basis(v)[1:]), rel=1e-9, abs=1e-9)


class TestRandomGenerators:
    def test_random_system_exact_dimension(self):
        for n, d in [(3, 1), (3, 5), (4, 16), (6, 11)]:
            assert random_system(n, d, seed=1).dim == d

    def test_random_system_deterministic(self):
        a = random_system(5, 9, seed=42)
        b = random_system(5, 9, seed=42)
        assert np.array_equal(a.basis, b.basis)

    def test_random_system_distinct_seeds(self):
        a = random_system(5, 9, seed=42)
        b = random_system(5, 9, seed=43)
        assert not np.allclose(a.basis, b.basis)

    def test_random_system_bounds(self):
        with pytest.raises(ValueError):
            random_system(3, 0, seed=0)
        with pytest.raises(ValueError):
            random_system(3, 10, seed=0)

    def test_random_diagonal_system(self):
        v = random_diagonal_system(6, 4, seed=0)
        assert v.dim == 4
        for b in v.basis:
            assert np.allclose(b, np.diag(np.diagonal(b)), atol=1e-12)

    def test_random_projection_frame(self):
        p = random_projection(6, 3, seed=9)
        assert p.n == 6 and p.k == 3
        assert np.allclose(p.frame.conj().T @ p.frame, np.eye(3), atol=1e-10)
        q = random_projection(6, 3, seed=9)
        assert np.array_equal(p.frame, q.frame)
        # a full-rank projection draws the same Haar stream as haar_unitary
        for s in range(4):
            full = random_projection(5, 5, seed=s)
            assert np.array_equal(full.frame, haar_unitary(np.random.default_rng(s), 5))

    def test_haar_unitary_is_unitary(self):
        u = haar_unitary(np.random.default_rng(0), 5)
        assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-10)

    def test_random_hermitian(self):
        h = random_hermitian(np.random.default_rng(0), 4)
        assert np.allclose(h, h.conj().T)


class TestSeedDerivation:
    def test_distinct_key_paths(self):
        seen = {derive_seed(7), derive_seed(7, 0), derive_seed(7, 1), derive_seed(7, 0, 0)}
        assert len(seen) == 4

    def test_stable(self):
        assert derive_seed(123, 4, 5) == derive_seed(123, 4, 5)

    def test_derive_rng_reproducible(self):
        a = derive_rng(9, 2).standard_normal(4)
        b = derive_rng(9, 2).standard_normal(4)
        assert np.array_equal(a, b)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 8))
def test_certify_verdict_is_unitarily_invariant(seed, n, d):
    """Conjugating both the system and the projection never changes the verdict."""
    d = min(d, n * n)
    v = random_system(n, d, seed=seed)
    p = random_projection(n, max(1, n - 1), seed=seed + 1)
    u = haar_unitary(np.random.default_rng(seed + 2), n)
    rotated = OperatorSystem(
        n, np.einsum("ij,mjk,lk->mil", u, v.basis, u.conj(), optimize=True)
    )
    q = Projection.from_frame(u @ p.frame)
    a = certify(v, p, p.k)
    b = certify(rotated, q, q.k)
    assert a.kind is b.kind
    assert a.compressed_dim == b.compressed_dim


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 5), st.integers(1, 25))
@example(0, 4, 2, 1)  # dim 1: V = span{I}
@example(0, 3, 3, 5)  # k = n
@example(0, 5, 5, 25)  # k = n and dim = n^2
@example(0, 3, 2, 9)  # dim = n^2: V = M_n
def test_certify_depends_only_on_the_span(seed, n, k, d):
    """Re-orthonormalizing a random invertible mix of V's basis never changes the verdict."""
    k, d = min(k, n), min(d, n * n)
    v = random_system(n, d, seed=seed)
    rng = np.random.default_rng(seed + 1)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mixed = from_span(list(np.tensordot(g, v.basis, 1)), n)
    assert mixed.dim == d
    p = random_projection(n, k, seed=seed + 2)
    a, b = certify(v, p, k), certify(mixed, p, k)
    assert (a.kind, a.compressed_dim) == (b.kind, b.compressed_dim)
