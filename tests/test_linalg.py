import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proplimit import linalg
from proplimit.errors import InvalidParameter, NotPositiveDefinite, ShapeMismatch


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(linalg.cholesky(np.eye(3)), np.eye(3))

    def test_hand_checked_2x2(self):
        low = linalg.cholesky([[4.0, 2.0], [2.0, 2.0]])
        np.testing.assert_allclose(low, [[2.0, 0.0], [1.0, 1.0]], rtol=1e-14)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky([[1.0, 2.0], [2.0, 1.0]])

    def test_tiny_pivot_rejected(self):
        a = np.diag([1.0, 1e-14])
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky(a)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidParameter):
            linalg.cholesky([[1.0, 0.5], [0.2, 1.0]])

    def test_roundtrip_random(self, np_rng):
        for _ in range(50):
            dim = int(np_rng.integers(1, 9))
            m = np_rng.standard_normal((dim, dim))
            spd = m @ m.T + 1e-6 * np.eye(dim)
            low = linalg.cholesky(spd)
            assert np.max(np.abs(low @ low.T - spd)) < 1e-10 * np.max(np.abs(spd))
            assert (np.diag(low) > 0).all()
            assert np.allclose(np.triu(low, 1), 0.0)


class TestKron:
    def test_identity_blocks(self):
        np.testing.assert_array_equal(
            linalg.kron(np.eye(2), [[5.0]]), [[5.0, 0.0], [0.0, 5.0]]
        )

    def test_definition_expansion(self):
        out = linalg.kron([[1.0, 2.0]], [[3.0], [4.0]])
        np.testing.assert_array_equal(out, [[3.0, 6.0], [4.0, 8.0]])

    @given(st.integers(2, 3), st.integers(2, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mixed_product(self, da, db, seed):
        gen = np.random.default_rng(seed)
        a, c = gen.standard_normal((2, da, da))
        b, d = gen.standard_normal((2, db, db))
        lhs = linalg.kron(a, b) @ linalg.kron(c, d)
        rhs = linalg.kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(linalg.pinv(np.eye(2)), np.eye(2), atol=1e-14)

    def test_rank_zero(self):
        np.testing.assert_array_equal(linalg.pinv(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_diagonal(self):
        np.testing.assert_allclose(
            linalg.pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14
        )

    def test_penrose_conditions(self, np_rng):
        for _ in range(50):
            rows = int(np_rng.integers(1, 7))
            cols = int(np_rng.integers(1, 7))
            rank = int(np_rng.integers(0, min(rows, cols) + 1))
            if rank == 0:
                a = np.zeros((rows, cols))
            else:
                a = np_rng.standard_normal((rows, rank)) @ np_rng.standard_normal(
                    (rank, cols)
                )
            api = linalg.pinv(a)
            scale = max(1.0, np.max(np.abs(a)) if a.size else 1.0)
            assert np.max(np.abs(a @ api @ a - a)) < 1e-9 * scale
            assert np.max(np.abs(api @ a @ api - api)) < 1e-9 * scale
            left = a @ api
            right = api @ a
            assert np.max(np.abs(left - left.T)) < 1e-9
            assert np.max(np.abs(right - right.T)) < 1e-9


class TestLogdet:
    def test_identity(self):
        assert linalg.logdet_spd(np.eye(4)) == 0.0

    def test_diagonal(self):
        assert linalg.logdet_spd(np.diag([2.0, 2.0])) == pytest.approx(
            2 * np.log(2.0), rel=1e-14
        )

    def test_hand_checked(self):
        assert linalg.logdet_spd([[4.0, 2.0], [2.0, 2.0]]) == pytest.approx(
            np.log(4.0), rel=1e-12
        )

    def test_no_overflow_large_dim(self, np_rng):
        dim = 120
        m = np_rng.standard_normal((dim, dim))
        spd = m @ m.T + dim * np.eye(dim)
        value = linalg.logdet_spd(spd)
        sign, ref = np.linalg.slogdet(spd)
        assert sign == 1.0
        assert value == pytest.approx(ref, rel=1e-10)


class TestSolve:
    def test_identity(self, np_rng):
        b = np_rng.standard_normal((2, 3))
        np.testing.assert_allclose(linalg.spd_solve(np.eye(2), b), b, atol=1e-14)

    def test_diagonal(self):
        out = linalg.spd_solve(np.diag([2.0, 4.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [0.5, 0.25], rtol=1e-14)

    def test_hand_checked(self):
        out = linalg.spd_solve(np.array([[4.0, 2.0], [2.0, 2.0]]), np.array([2.0, 2.0]))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-14)

    def test_residual_random(self, np_rng):
        for _ in range(20):
            dim = int(np_rng.integers(1, 8))
            m = np_rng.standard_normal((dim, dim))
            spd = m @ m.T + np.eye(dim)
            b = np_rng.standard_normal((dim, 2))
            x = linalg.spd_solve(spd, b)
            assert np.max(np.abs(spd @ x - b)) < 1e-9 * max(1.0, np.max(np.abs(b)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            linalg.spd_solve(np.eye(2), np.ones((3, 1)))


class TestVec:
    def test_column_major(self):
        np.testing.assert_array_equal(
            linalg.vec([[1.0, 2.0], [3.0, 4.0]]), [1.0, 3.0, 2.0, 4.0]
        )

    def test_column_vector_identity(self):
        col = np.array([[1.0], [2.0]])
        np.testing.assert_array_equal(linalg.vec(col), [1.0, 2.0])

    def test_zeros(self):
        np.testing.assert_array_equal(linalg.vec(np.zeros((2, 3))), np.zeros(6))

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_fortran_flatten(self, rows, cols, seed):
        a = np.random.default_rng(seed).standard_normal((rows, cols))
        np.testing.assert_array_equal(linalg.vec(a), a.flatten(order="F"))


def test_symmetrize_gate():
    wobbly = np.array([[1.0, 0.5 + 1e-13], [0.5, 1.0]])
    out = linalg.symmetrize(wobbly)
    np.testing.assert_allclose(out, out.T)
    with pytest.raises(InvalidParameter):
        linalg.symmetrize([[1.0, 0.6], [0.5, 1.0]])
    # Finite entries near the float64 maximum must not overflow.
    huge = 1e308 * np.eye(2)
    np.testing.assert_array_equal(linalg.symmetrize(huge), huge)
    np.testing.assert_array_equal(linalg.cholesky(huge), 1e154 * np.eye(2))


def test_det_kron_identity_log_space(np_rng):
    for _ in range(50):
        d = int(np_rng.integers(1, 4))
        p1 = int(np_rng.integers(1, 4))
        xt = np_rng.standard_normal((p1 + 2, p1))
        m = np_rng.standard_normal((d, d))
        q = m @ m.T + 0.5 * np.eye(d)
        gram = xt.T @ xt
        lhs = linalg.logdet_spd(linalg.kron(gram, q))
        rhs = d * linalg.logdet_spd(gram) + p1 * linalg.logdet_spd(q)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))
