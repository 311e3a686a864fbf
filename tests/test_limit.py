import dataclasses
import hashlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from proplimit import analysis, limit, montecarlo, prior
from proplimit.errors import InvalidParameter, ShapeMismatch
from proplimit.sampling import make_stream

SEED = 99


def per_draw(fn):
    """A block function: ``fn(rng)`` per sample, in sample order, on the block's stream."""
    def draw_block(streams, m):
        rng = streams(0)
        return np.stack([fn(rng) for _ in range(m)])

    return draw_block


class TestSimulatePaths:
    def test_paths_start_at_zero(self, rng):
        grid = limit.simulate_paths(0.5, 3, 128, rng)
        np.testing.assert_array_equal(grid.diag_paths[:, 0], np.zeros(3))

    def test_increment_variance(self):
        n = 20_000
        ends = montecarlo.sample_map(
            per_draw(lambda r: limit.simulate_paths(1.0, 2, 16, r).diag_paths[:, -1]),
            n, SEED, phase=1,
        )
        var = ends.var(axis=0, ddof=1)
        se = np.sqrt(2.0 / n)  # Var(s^2) ~ 2 sigma^4 / n for normals
        assert np.all(np.abs(var - 1.0) < 4 * se)

    def test_cross_path_independence(self):
        n = 20_000
        ends = montecarlo.sample_map(
            per_draw(lambda r: limit.simulate_paths(1.0, 3, 16, r).diag_paths[:, -1]),
            n, SEED, phase=2,
        )
        corr = np.corrcoef(ends, rowvar=False)
        assert np.max(np.abs(corr[np.triu_indices(3, 1)])) < 4 / np.sqrt(n)

    def test_drift_endpoint_mean(self):
        n = 20_000
        ends = montecarlo.sample_map(
            per_draw(lambda r: limit.simulate_paths(0.8, 2, 16, r).drifted_paths[:, -1]),
            n, SEED, phase=3,
        )
        mean, se = montecarlo.mean_and_se(ends)
        target = -0.8 * np.array([1.0, 2.0]) / 2.0
        assert np.all(np.abs(mean - target) < 4 * se)

    def test_drifted_recomputable(self, rng):
        grid = limit.simulate_paths(0.7, 3, 64, rng)
        rates = np.arange(1, 4) / 2.0 * grid.a
        redone = np.sqrt(grid.a / 2.0) * grid.diag_paths - rates[:, None] * grid.times
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

        vals = montecarlo.sample_map(per_draw(one), n, SEED, phase=4)
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
        # |dW|, where nothing cancels.  In the subnormal range (a tiny
        # ``a``) rounding is absolute instead: a few smallest subnormals.
        scale = enumerated_vbar(
            dataclasses.replace(grid, offdiag_increments=np.abs(grid.offdiag_increments))
        )
        floor = 4 * np.finfo(float).smallest_subnormal
        assert np.all(np.abs(out - ref) <= 1e-13 * scale + floor)
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

    @pytest.mark.parametrize(
        "dim,coarse,fine",
        [(2, 0, 64), (2, 1, 64), (limit.MAX_DIM + 8, 2, 4)],
    )
    def test_grid_checks_of_the_samplers(self, dim, coarse, fine):
        # The pair runs the samplers' grid checks, not only its ratio checks.
        with pytest.raises(InvalidParameter):
            limit.vbar_limit_refinement_pair(0.8, dim, coarse, fine, 1, SEED)

    @pytest.mark.parametrize("ratio", [8, 16])
    def test_matches_standalone_coarsening(self, ratio):
        # Ratios of 8 and more sum each group in numpy's unrolled order.
        coarse, fine = limit.vbar_limit_refinement_pair(
            0.6, 3, 8, 8 * ratio, 6, SEED, phase=13
        )
        rng = montecarlo.stream_for(SEED, 13, 0)
        for i in range(6):
            grid = limit.simulate_paths(0.6, 3, 8 * ratio, rng)
            np.testing.assert_array_equal(fine[i], limit.vbar_limit_from_grid(grid))
            np.testing.assert_array_equal(
                coarse[i], limit.vbar_limit_from_grid(limit._coarsened(grid, 8))
            )


class TestPriorLimit:
    def test_zero_input(self):
        out = limit.prior_limit_samples(np.zeros((2, 3)), 0.5, 2, 2, 1.0, 16, 3, SEED)
        np.testing.assert_array_equal(out, np.zeros((3, 2, 3)))

    def test_rows_match_single_draws(self):
        # Sample i draws its grid from the block's stream and Z from its Z stream.
        x = np.array([[1.0, -0.5, 0.2], [0.4, 0.9, -1.1]])
        out = limit.prior_limit_samples(x, 0.7, 3, 2, 2.0, 16, 4, SEED, phase=12)
        rng = montecarlo.stream_for(SEED, 12, 0)
        z_rng = montecarlo.stream_for(SEED, 12, 0, prior.FAMILY_Z)
        for i in range(4):
            vbar = limit.sample_vbar_limit(0.7, 3, 16, rng)
            z = z_rng.standard_normal((3, 2))
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


def digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:12]


class TestWorkspaceDraws:
    """Draws into per-block workspaces: the same bytes as fresh memory, any worker count."""

    def test_pinned_bytes(self):
        assert digest(limit.vbar_limit_samples(0.7, 3, 128, 32, 7, phase=2)) == "8127425e9d78"
        x = np.array([[1.0, -0.5, 0.2], [0.4, 0.9, -1.1]])
        for w in (1, 2, 3, 4):
            assert digest(limit.vbar_limit_samples(0.7, 3, 128, 200, 7, 4, w)) == "658223914b4e"
            coarse, fine = limit.vbar_limit_refinement_pair(0.7, 2, 16, 64, 50, 7, 5, w)
            assert digest(fine) == "ddc0c194b695"
            assert digest(coarse) == "f44a4a0759d2"
            out = limit.prior_limit_samples(x, 0.7, 3, 2, 1.0, 32, 100, 7, 6, w)
            assert digest(out) == "3f06f5870bad"

    @pytest.mark.parametrize("a,dim,steps", [(0.0, 3, 16), (0.7, 1, 16), (0.5, 24, 64)])
    def test_matches_standalone_draws(self, a, dim, steps):
        # One block reuses one workspace for every draw.
        n = 5
        out = limit.vbar_limit_samples(a, dim, steps, n, SEED, phase=14)
        rng = montecarlo.stream_for(SEED, 14, 0)
        for i in range(n):
            grid = limit.simulate_paths(a, dim, steps, rng)
            np.testing.assert_array_equal(out[i], limit.vbar_limit_from_grid(grid))
        if a == 0.0:
            assert np.array_equal(out, np.broadcast_to(np.eye(dim), out.shape))
            assert not np.signbit(out).any()

    def test_threads_match_serial(self):
        serial = limit.vbar_limit_samples(0.7, 3, 32, 600, SEED, phase=15, workers=1)
        pair_serial = limit.vbar_limit_refinement_pair(0.7, 2, 8, 32, 300, SEED, 16, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = limit.vbar_limit_samples(0.7, 3, 32, 600, SEED, phase=15, workers=4)
            pair_threaded = limit.vbar_limit_refinement_pair(0.7, 2, 8, 32, 300, SEED, 16, 4)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(threaded, serial)
        for got, want in zip(pair_threaded, pair_serial):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_one_workspace_per_block(self, monkeypatch, workers):
        made = []

        class Counted(limit.Workspace):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(limit, "Workspace", Counted)
        limit.vbar_limit_samples(0.5, 2, 16, 3000, SEED, phase=17, workers=workers)
        assert len(made) == -(-3000 // montecarlo.BLOCK)

    def test_scratch_memory_does_not_grow_with_samples(self):
        def scratch(n):
            tracemalloc.start()
            try:
                out = limit.vbar_limit_samples(0.5, 4, 1024, n, SEED, phase=18)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # The result and the block rows it joins scale with n.
            return peak - 2 * out.nbytes

        limit.vbar_limit_samples(0.5, 4, 1024, 2, SEED, phase=18)  # lazy imports
        small, large = scratch(20), scratch(400)
        workspace_bytes = 8 * (10 * 1024 + 3 * 4 * 1025 + 16 * 1025 + 2 * 3 * 1024)
        assert large <= small + 16 * 1024
        assert large <= 1.5 * workspace_bytes

    def test_warm_draw_allocates_only_its_result(self, rng):
        # A dim 6 / 4096-step draw in fresh memory touches about 5 MB.
        workspace = limit.Workspace(0.5, 6, 4096)
        limit.sample_vbar_limit(0.5, 6, 4096, rng, workspace)
        tracemalloc.start()
        try:
            limit.sample_vbar_limit(0.5, 6, 4096, rng, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024
