import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from proplimit import analysis, limit, montecarlo, prior
from proplimit.errors import InvalidParameter, ShapeMismatch
from proplimit.sampling import make_stream

SEED = 99


class TestSimulatePaths:
    def test_paths_start_at_zero(self, rng):
        grid = limit.simulate_paths(0.5, 3, 128, rng)
        np.testing.assert_array_equal(grid.diag_paths[:, 0], np.zeros(3))

    def test_increment_variance(self):
        n = 20_000
        ends = montecarlo.sample_map(
            lambda r: limit.simulate_paths(1.0, 2, 16, r).diag_paths[:, -1],
            n, SEED, phase=1,
        )
        var = ends.var(axis=0, ddof=1)
        se = np.sqrt(2.0 / n)  # Var(s^2) ~ 2 sigma^4 / n for normals
        assert np.all(np.abs(var - 1.0) < 4 * se)

    def test_cross_path_independence(self):
        n = 20_000
        ends = montecarlo.sample_map(
            lambda r: limit.simulate_paths(1.0, 3, 16, r).diag_paths[:, -1],
            n, SEED, phase=2,
        )
        corr = np.corrcoef(ends, rowvar=False)
        assert np.max(np.abs(corr[np.triu_indices(3, 1)])) < 4 / np.sqrt(n)

    def test_drift_endpoint_mean(self):
        n = 20_000
        ends = montecarlo.sample_map(
            lambda r: limit.simulate_paths(0.8, 2, 16, r).drifted_paths[:, -1],
            n, SEED, phase=3,
        )
        mean, se = montecarlo.mean_and_se(ends)
        target = -0.8 * np.array([1.0, 2.0]) / 2.0
        assert np.all(np.abs(mean - target) < 4 * se)

    def test_drifted_recomputable(self, rng):
        grid = limit.simulate_paths(0.7, 3, 64, rng)
        redone = limit.drifted_from_diag(grid.a, grid.times, grid.diag_paths)
        assert np.max(np.abs(redone - grid.drifted_paths)) < 1e-12

    def test_grid_is_readonly(self, rng):
        grid = limit.simulate_paths(0.5, 2, 16, rng)
        with pytest.raises(ValueError):
            grid.diag_paths[0, 0] = 1.0

    @pytest.mark.parametrize(
        "a,dim,steps",
        [(-0.1, 2, 16), (0.5, 0, 16), (0.5, 2, 1), (np.nan, 2, 16), (np.inf, 2, 16)],
    )
    def test_invalid_parameters(self, rng, a, dim, steps):
        with pytest.raises(InvalidParameter):
            limit.simulate_paths(a, dim, steps, rng)


class TestPathEnumeration:
    def test_counts_are_powers_of_two(self):
        for row in range(1, 6):
            for col in range(row):
                assert len(limit.enumerate_paths(row, col)) == 2 ** (row - col - 1)

    def test_adjacent_single_path(self):
        assert limit.enumerate_paths(1, 0) == [(0, 1)]

    def test_gap_two(self):
        assert limit.enumerate_paths(2, 0) == [(0, 2), (0, 1, 2)]

    def test_validate_path_rejects_nonmonotone(self):
        with pytest.raises(InvalidParameter):
            limit.validate_path((0, 2, 1), 4)

    def test_validate_path_rejects_out_of_range(self):
        with pytest.raises(ShapeMismatch):
            limit.validate_path((0, 5), 4)


class TestIteratedIntegral:
    def test_zero_ratio_gives_zero(self, rng):
        grid = limit.simulate_paths(0.0, 3, 64, rng)
        assert limit.iterated_integral(grid, (0, 1, 2)) == 0.0

    def test_zeroed_increments_give_zero(self, rng):
        grid = limit.simulate_paths(1.0, 3, 64, rng)
        hollow = dataclasses.replace(
            grid, offdiag_increments=np.zeros_like(grid.offdiag_increments)
        )
        assert limit.iterated_integral(hollow, (0, 2)) == 0.0
        assert limit.iterated_integral(hollow, (0, 1, 2)) == 0.0

    def test_zero_mean(self):
        n = 20_000

        def one(r):
            grid = limit.simulate_paths(0.5, 3, 64, r)
            return np.array(
                [limit.iterated_integral(grid, p) for p in ((0, 1), (0, 2), (0, 1, 2))]
            )

        vals = montecarlo.sample_map(one, n, SEED, phase=4)
        mean, se = montecarlo.mean_and_se(vals)
        assert np.all(np.abs(mean) < 4 * se)

    def test_dimension_check(self, rng):
        grid = limit.simulate_paths(0.5, 2, 16, rng)
        with pytest.raises(ShapeMismatch):
            limit.iterated_integral(grid, (0, 3))


class TestVbarLimit:
    def test_lazy_regime_identity_bit_exact(self, rng):
        out = limit.sample_vbar_limit(0.0, 3, 16, rng)
        assert np.array_equal(out, np.eye(3))
        assert not np.signbit(out).any()

    def test_structure(self, rng):
        out = limit.sample_vbar_limit(1.0, 4, 128, rng)
        assert np.allclose(np.triu(out, 1), 0.0)
        assert (np.diag(out) > 0).all()

    def test_d1_lognormal_ks(self):
        a, n = 0.7, 10_000
        draws = limit.vbar_limit_samples(a, 1, 8, n, SEED, phase=6)
        logs = np.log(draws[:, 0, 0])
        sd = np.sqrt(a / 2.0)
        report = analysis.ks_statistic(logs, lambda x: ndtr((x + a / 2.0) / sd))
        assert report.passed, report

    def test_determinant_positive(self):
        draws = limit.vbar_limit_samples(1.0, 3, 64, 500, SEED, phase=7)
        assert (np.linalg.det(draws) > 0).all()

    def test_dim_cap(self, rng):
        with pytest.raises(InvalidParameter):
            limit.sample_vbar_limit(0.5, limit.MAX_DIM + 1, 16, rng)

    def test_dim_24_draw(self, rng):
        out = limit.sample_vbar_limit(0.5, 24, 256, rng)
        assert np.isfinite(out).all()
        assert np.array_equal(np.triu(out, 1), np.zeros((24, 24)))
        assert (np.diag(out) > 0).all()


def enumerated_vbar(grid) -> np.ndarray:
    """Oracle: every below-diagonal entry summed path by path."""
    out = np.diag(np.exp(grid.drifted_paths[:, -1]))
    for row in range(1, grid.dim):
        for col in range(row):
            out[row, col] = sum(
                limit.iterated_integral(grid, path)
                for path in limit.enumerate_paths(row, col)
            )
    return out


@st.composite
def limit_grids(draw):
    """Simulated grids, some with zeroed off-diagonal increments and some
    coarsened from a finer grid as in ``vbar_limit_refinement_pair``."""
    dim = draw(st.integers(1, 6))
    a = draw(st.floats(0.0, 4.0))
    steps = draw(st.integers(2, 64))
    ratio = draw(st.sampled_from((1, 2, 4)))
    rng = make_stream(draw(st.integers(0, 2**32 - 1)), 0)
    grid = limit.simulate_paths(a, dim, steps * ratio, rng)
    if ratio > 1:
        grid = limit._coarsened(grid, steps)
    zeroed = draw(st.lists(st.booleans(), min_size=dim * (dim - 1) // 2,
                           max_size=dim * (dim - 1) // 2))
    increments = grid.offdiag_increments.copy()
    increments[np.array(zeroed, dtype=bool)] = 0.0
    return dataclasses.replace(grid, offdiag_increments=increments)


class TestPathSumMatchesEnumeration:
    @settings(max_examples=200, deadline=None)
    @given(limit_grids())
    def test_matches_enumeration(self, grid):
        out = limit.vbar_limit_from_grid(grid)
        ref = enumerated_vbar(grid)
        # Rounding in either order is bounded by the same sums taken over
        # |dW|, where nothing cancels; zero entries must match exactly.
        scale = enumerated_vbar(
            dataclasses.replace(grid, offdiag_increments=np.abs(grid.offdiag_increments))
        )
        assert np.all(np.abs(out - ref) <= 1e-13 * scale)
        np.testing.assert_array_equal(np.diag(out), np.diag(ref))


class TestRefinementPair:
    def test_coupled_paths_share_endpoints(self):
        coarse, fine = limit.vbar_limit_refinement_pair(0.8, 2, 64, 512, 50, SEED, phase=8)
        # Diagonal entries depend only on the path endpoint, shared exactly
        # up to summation order.
        np.testing.assert_allclose(
            np.diagonal(coarse, axis1=1, axis2=2),
            np.diagonal(fine, axis1=1, axis2=2),
            rtol=1e-12,
        )

    def test_offdiag_entries_close(self):
        coarse, fine = limit.vbar_limit_refinement_pair(0.8, 2, 256, 2048, 400, SEED, phase=9)
        gap = np.abs(coarse[:, 1, 0] - fine[:, 1, 0])
        # Strong order 1/2: coupled gaps shrink like the coarse step size.
        assert np.median(gap) < 0.1

    def test_ratio_validation(self):
        with pytest.raises(InvalidParameter):
            limit.vbar_limit_refinement_pair(0.8, 2, 100, 150, 10, SEED)


class TestPriorLimit:
    def test_zero_input(self):
        out = limit.prior_limit_samples(np.zeros((2, 3)), 0.5, 2, 2, 1.0, 16, 3, SEED)
        np.testing.assert_array_equal(out, np.zeros((3, 2, 3)))

    def test_rows_match_single_draws(self):
        # Sample i draws its grid, then Z, from stream i.
        x = np.array([[1.0, -0.5, 0.2], [0.4, 0.9, -1.1]])
        out = limit.prior_limit_samples(x, 0.7, 3, 2, 2.0, 16, 4, SEED, phase=12)
        for i in range(4):
            rng = montecarlo.stream_for(SEED, 12, i)
            vbar = limit.sample_vbar_limit(0.7, 3, 16, rng)
            z = rng.standard_normal((3, 2))
            np.testing.assert_allclose(out[i], vbar @ z @ x / 2.0, rtol=1e-13, atol=1e-15)

    def test_lazy_regime_gaussian_covariance(self):
        x = np.array([[1.0, -0.5], [0.4, 0.9]])
        n = 30_000
        draws = limit.prior_limit_samples(x, 0.0, 2, 2, 1.0, 8, n, SEED, phase=10)
        vecs = draws.transpose(0, 2, 1).reshape(n, -1)
        target = prior.prior_covariance_exact(x, 2, 1.0, 2)
        iu = np.triu_indices(4)
        products = vecs[:, iu[0]] * vecs[:, iu[1]]
        est, se = montecarlo.mean_and_se(products)
        assert np.all(np.abs(est - target[iu]) < 4 * se)

    def test_conditional_covariance_identity(self):
        # Same streams: vbar draws below are exactly the ones inside the
        # prior draws, so products minus the conditional target average to
        # zero with only the Z-noise left.
        x = np.array([[1.0, -0.5], [0.4, 0.9]])
        a, steps, n = 1.0, 32, 20_000
        vbars = limit.vbar_limit_samples(a, 2, steps, n, SEED, phase=11)
        draws = limit.prior_limit_samples(x, a, 2, 2, 1.0, steps, n, SEED, phase=11)
        vecs = draws.transpose(0, 2, 1).reshape(n, -1)
        qbars = np.einsum("nij,nkj->nik", vbars, vbars)
        gram = (x.T @ x) / 2.0
        targets = np.einsum("pq,nij->npiqj", gram, qbars).reshape(n, 4, 4)
        iu = np.triu_indices(4)
        residual = vecs[:, iu[0]] * vecs[:, iu[1]] - targets[:, iu[0], iu[1]]
        mean, se = montecarlo.mean_and_se(residual)
        assert np.all(np.abs(mean) < 4 * se)

    def test_lambda_star_validation(self):
        for bad in (0.0, np.inf, np.nan):
            with pytest.raises(InvalidParameter):
                limit.prior_limit_samples(np.eye(2), 0.5, 2, 2, bad, 16, 2, SEED)
