import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsys.linalg import (
    DEFAULT_TOL,
    Projection,
    Tolerance,
    as_matrix,
    hermitian_split,
    hs_inner,
    hs_norm,
    numerical_rank,
    pack_real,
    projection_from_vectors,
    rank_at,
    span_orthonormalize,
    stacked_singular_values,
    unpack_real,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestTolerance:
    def test_defaults(self):
        assert DEFAULT_TOL.rank_rel == 1e-9
        assert DEFAULT_TOL.cert_rel == 1e-11

    def test_cert_must_not_exceed_rank(self):
        with pytest.raises(ValueError):
            Tolerance(rank_rel=1e-11, cert_rel=1e-9)

    def test_positive(self):
        with pytest.raises(ValueError):
            Tolerance(rank_rel=0.0, cert_rel=0.0)

    def test_rank_rel_below_one(self):
        with pytest.raises(ValueError):
            Tolerance(rank_rel=1.0, cert_rel=1e-11)


class TestHSInner:
    def test_matches_trace_formula(self):
        rng = np.random.default_rng(0)
        a, b = random_complex(rng, 4, 4), random_complex(rng, 4, 4)
        assert hs_inner(a, b) == pytest.approx(np.trace(a @ b.conj().T))

    def test_norm_of_identity(self):
        assert hs_norm(np.eye(5)) == pytest.approx(np.sqrt(5))

    def test_matrix_units_orthonormal(self):
        e12 = np.zeros((3, 3), dtype=complex)
        e12[0, 1] = 1.0
        e21 = e12.conj().T
        assert hs_inner(e12, e21) == pytest.approx(0.0)
        assert hs_norm(e12) == pytest.approx(1.0)


class TestRank:
    def test_exact_rank_with_scale_gap(self):
        # family with stacked singular values 1, 1e-3, 1e-12:
        # span-dimension 2 at rank_rel 1e-9, 3 at 1e-13
        units = np.zeros((3, 3, 3), dtype=complex)
        for i in range(3):
            units[i, i, i] = 1.0
        family = [units[0], 1e-3 * units[1], 1e-12 * units[2]]
        assert numerical_rank(family) == 2
        assert numerical_rank(family, Tolerance(1e-13, 1e-14)) == 3

    def test_rank_at_empty_spectrum(self):
        assert rank_at(np.array([]), 1e-9) == 0

    def test_rank_of_matrix_family(self):
        rng = np.random.default_rng(1)
        a = random_complex(rng, 3, 3)
        assert numerical_rank([a, 2 * a, 1j * a]) == 1
        assert numerical_rank([a, a @ a]) == 2

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_rank_invariant_under_unitary_conjugation(self, seed, n):
        rng = np.random.default_rng(seed)
        mats = [random_complex(rng, n, n) for _ in range(3)]
        z = random_complex(rng, n, n)
        q, _ = np.linalg.qr(z)
        conj = [q @ m @ q.conj().T for m in mats]
        assert numerical_rank(mats) == numerical_rank(conj)


class TestSpanOrthonormalize:
    def test_drops_dependent_directions(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, 4, 4)
        basis = span_orthonormalize([a, 2.0 * a, a + 1j * a])
        assert len(basis) == 1
        assert hs_norm(basis[0]) == pytest.approx(1.0)

    def test_output_is_orthonormal(self):
        rng = np.random.default_rng(3)
        mats = [random_complex(rng, 5, 5) for _ in range(4)]
        basis = span_orthonormalize(mats)
        gram = np.array([[hs_inner(x, y) for y in basis] for x in basis])
        assert np.allclose(gram, np.eye(len(basis)), atol=1e-10)

    def test_span_is_preserved(self):
        rng = np.random.default_rng(4)
        mats = [random_complex(rng, 4, 4) for _ in range(3)]
        basis = span_orthonormalize(mats)
        assert numerical_rank(list(mats) + list(basis)) == len(basis) == 3


class TestProjection:
    def test_rejects_non_orthonormal_frame(self):
        frame = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError):
            Projection.from_frame(frame)

    def test_rejects_nan_frame(self):
        with pytest.raises(ValueError):
            Projection.from_frame([[np.nan], [0.0]])

    def test_coordinate_projection_matrix(self):
        p = Projection.coordinate(4, [1, 3])
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[3, 3] = 1.0
        assert np.allclose(p.matrix, expected)

    def test_compress_matches_explicit_pap(self):
        rng = np.random.default_rng(5)
        z = random_complex(rng, 6, 2)
        q, _ = np.linalg.qr(z)
        p = Projection.from_frame(q)
        a = random_complex(rng, 6, 6)
        comp = p.compress(a)
        assert comp.shape == (2, 2)
        assert np.allclose(comp, q.conj().T @ a @ q)
        # frame-coordinates compression carries the same data as PAP
        pap = p.matrix @ a @ p.matrix
        assert np.allclose(q @ comp @ q.conj().T, pap)

    def test_compress_stack_agrees_with_compress(self):
        rng = np.random.default_rng(6)
        z = random_complex(rng, 5, 3)
        q, _ = np.linalg.qr(z)
        p = Projection.from_frame(q)
        stack = np.stack([random_complex(rng, 5, 5) for _ in range(4)])
        batch = p.compress_stack(stack)
        for i in range(4):
            assert np.allclose(batch[i], p.compress(stack[i]))

    def test_projection_from_vectors_orthonormalizes(self):
        rng = np.random.default_rng(7)
        v = random_complex(rng, 5)
        w = random_complex(rng, 5)
        p = projection_from_vectors([v, 2 * v + w])
        assert p.k == 2
        pm = p.matrix
        assert np.allclose(pm @ pm, pm, atol=1e-10)
        assert np.allclose(pm, pm.conj().T, atol=1e-10)
        assert np.allclose(pm @ v, v, atol=1e-9 * np.linalg.norm(v))


class TestHermitianSplit:
    def test_reassembles(self):
        rng = np.random.default_rng(8)
        a = random_complex(rng, 4, 4)
        re, im = hermitian_split(a)
        assert np.allclose(re, re.conj().T)
        assert np.allclose(im, im.conj().T)
        assert np.allclose(re + 1j * im, a)

    def test_pack_real_round_trip(self):
        a = random_complex(np.random.default_rng(10), 3, 2)
        xr = pack_real(a)
        assert xr.dtype == np.float64
        assert np.array_equal(xr, np.concatenate([a.real.ravel(), a.imag.ravel()]))
        assert np.array_equal(unpack_real(xr, (3, 2)), a)

    def test_as_matrix_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            as_matrix(np.ones((2, 3)))

    def test_stacked_singular_values_sorted(self):
        rng = np.random.default_rng(9)
        s = stacked_singular_values([random_complex(rng, 3, 3) for _ in range(5)])
        assert np.all(np.diff(s) <= 1e-12)
