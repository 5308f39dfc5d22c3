import numpy as np
import pytest
import scipy.linalg
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
    null_space,
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


def _deficient(rng, m, n, r):
    return random_complex(rng, m, r) @ random_complex(rng, r, n)


class TestNullSpace:
    """Same subspace as ``scipy.linalg.null_space`` at the same cutoff."""

    CASES = {
        "tall full rank": lambda rng: random_complex(rng, 9, 5),
        "tall deficient": lambda rng: _deficient(rng, 9, 5, 3),
        "wide": lambda rng: random_complex(rng, 3, 7),
        "wide deficient": lambda rng: _deficient(rng, 4, 7, 2),
        "square full rank": lambda rng: random_complex(rng, 6, 6),
        "square deficient": lambda rng: _deficient(rng, 6, 6, 4),
        "all zero, tall": lambda rng: np.zeros((6, 4), dtype=np.complex128),
        "all zero, wide": lambda rng: np.zeros((2, 5), dtype=np.complex128),
        "one row": lambda rng: random_complex(rng, 1, 5),
        "one column": lambda rng: random_complex(rng, 4, 1),
        "real deficient": lambda rng: rng.standard_normal((7, 3)) @ rng.standard_normal((3, 5)),
        # a direction at 1e-10 of the largest is rank at eps·max(m, n)
        "graded, tall": lambda rng: random_complex(rng, 8, 5) * np.array([1, 1, 1, 1, 1e-10]),
        "graded, wide": lambda rng: random_complex(rng, 3, 6) * np.array([[1], [1], [1e-10]]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_scipy(self, case):
        a = self.CASES[case](np.random.default_rng(sorted(self.CASES).index(case)))
        ours, ref = null_space(a), scipy.linalg.null_space(a)
        assert ours.shape == ref.shape
        assert ours.dtype == ref.dtype
        assert np.allclose(ours @ ours.conj().T, ref @ ref.conj().T, atol=1e-10)
        assert np.allclose(ours.conj().T @ ours, np.eye(ours.shape[1]), atol=1e-12)
        assert np.allclose(a @ ours, 0.0, atol=1e-10 * max(1.0, np.abs(a).max()))

    def test_full_rank_tall_input_computes_no_vectors(self, monkeypatch):
        real, calls = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        out = null_space(random_complex(np.random.default_rng(1), 30, 12))
        assert out.shape == (12, 0)
        assert calls == [False]


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

    @pytest.mark.parametrize("n,k,m", [(6, 1, 4), (6, 6, 4), (7, 3, 1), (48, 2, 40)])
    def test_compress_stack_matches_each_slice(self, n, k, m):
        rng = np.random.default_rng(n + k + m)
        p = Projection.from_frame(np.linalg.qr(random_complex(rng, n, k))[0])
        stack = random_complex(rng, m, n, n)
        batch = p.compress_stack(stack)
        assert batch.shape == (m, k, k)
        f = p.frame
        for a, c in zip(stack, batch):
            assert np.allclose(c, f.conj().T @ a @ f, atol=1e-12 * n)

    def test_compress_stack_of_a_strided_view(self):
        rng = np.random.default_rng(11)
        p = Projection.from_frame(np.linalg.qr(random_complex(rng, 5, 2))[0])
        big = random_complex(rng, 6, 10, 10)
        view = big[::2, 1::2, ::2]  # (3, 5, 5), contiguous in no axis
        assert not view.flags.c_contiguous
        batch = p.compress_stack(view)
        assert np.allclose(batch, p.compress_stack(np.ascontiguousarray(view)), atol=1e-13)
        f = p.frame
        for a, c in zip(view, batch):
            assert np.allclose(c, f.conj().T @ a @ f, atol=1e-12)

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
