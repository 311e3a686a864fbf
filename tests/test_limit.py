import hashlib
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from proplimit import analysis, backend, limit, montecarlo, prior
from proplimit.errors import InvalidParameter, ShapeMismatch

SEED = 99


def per_draw(fn):
    """A block function: ``fn(rng)`` per sample, in sample order, on the block's stream."""
    def draw_block(streams, out):
        rng = streams(0)
        for row in out:
            row[...] = fn(rng)

    return draw_block


def enumerate_paths(row: int, col: int) -> list:
    """All strictly increasing index paths from ``col`` to ``row`` (0-based).

    A path visits any subset of the intermediate indices, so there are
    ``2**(row-col-1)`` paths, listed by hop count then lexicographically.
    """
    if not 0 <= col < row:
        raise InvalidParameter(f"need 0 <= col < row, got ({row}, {col})")
    paths = []
    for hops in range(1, row - col + 1):
        for mids in combinations(range(col + 1, row), hops - 1):
            paths.append((col,) + mids + (row,))
    return paths


def per_grid_draw(fn, a, dim, steps):
    """A block function: ``fn(grid, j)`` per draw of a block grid, in sample
    order, with the draws' values as ``per_draw`` simulates them one by one."""
    def draw_block(streams, out):
        grid = limit.Grid(a, dim, steps, len(out))
        for i, j in limit.block_draws(streams(0), len(out), grid):
            out[i] = fn(grid, j)

    return draw_block


def w_at_one(grid, j):
    """W_k(1) of the grid's draw ``j``: the sum of its diagonal increments."""
    return grid.increments[j, : grid.dim].sum(axis=1)


def grid_draw(rng, a, dim, steps):
    """The next limit draw of ``rng``, simulated into a new grid."""
    return limit.vbar_limit_from_grid(limit.simulate_paths(rng, limit.Grid(a, dim, steps)))


class TestSimulatePaths:
    def test_paths_start_at_zero(self, rng):
        grid = limit.simulate_paths(rng, limit.Grid(0.5, 3, 128))
        np.testing.assert_array_equal(grid.paths[0, :, 0], np.zeros(3))

    def test_increment_variance(self):
        n = 20_000
        ends = montecarlo.sample_map(per_grid_draw(w_at_one, 1.0, 2, 16), n, (2,), SEED, phase=1)
        var = ends.var(axis=0, ddof=1)
        se = np.sqrt(2.0 / n)  # Var(s^2) ~ 2 sigma^4 / n for normals
        assert np.all(np.abs(var - 1.0) < 4 * se)

    def test_cross_path_independence(self):
        n = 20_000
        ends = montecarlo.sample_map(per_grid_draw(w_at_one, 1.0, 3, 16), n, (3,), SEED, phase=2)
        corr = np.corrcoef(ends, rowvar=False)
        assert np.max(np.abs(corr[np.triu_indices(3, 1)])) < 4 / np.sqrt(n)

    def test_drift_endpoint_mean(self):
        n = 20_000
        ends = montecarlo.sample_map(
            per_grid_draw(lambda grid, j: grid.paths[j, :, -1], 0.8, 2, 16), n, (2,), SEED,
            phase=3,
        )
        mean, se = montecarlo.mean_and_se(ends)
        target = -0.8 * np.array([1.0, 2.0]) / 2.0
        assert np.all(np.abs(mean - target) < 4 * se)

    def test_drifted_recomputable(self, rng):
        grid = limit.simulate_paths(rng, limit.Grid(0.7, 3, 64))
        rates = np.arange(1, 4) / 2.0 * grid.a
        times = np.arange(65) / 64
        brownian = np.hstack([np.zeros((3, 1)), np.cumsum(grid.increments[0, :3], axis=1)])
        redone = np.sqrt(grid.a / 2.0) * brownian - rates[:, None] * times
        assert np.max(np.abs(redone - grid.paths[0])) < 1e-12

    @pytest.mark.parametrize(
        "a,dim,steps",
        [(-0.1, 2, 16), (0.5, 0, 16), (0.5, 2, 1), (np.nan, 2, 16), (np.inf, 2, 16)],
    )
    def test_invalid_parameters(self, a, dim, steps):
        with pytest.raises(InvalidParameter):
            limit.Grid(a, dim, steps)

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_ratio_bound_where_the_drift_overflows(self, dim):
        # exp(a (dim - 1) / 2) is the largest drift factor of the integrand.
        bound = 2 * np.log(np.finfo(np.float64).max) / (dim - 1)
        assert limit.check_grid(bound, dim, 16) == (bound, dim, 16)
        with pytest.raises(InvalidParameter, match="overflows"):
            limit.check_grid(np.nextafter(bound, np.inf), dim, 16)
        with pytest.raises(InvalidParameter, match="overflows"):
            limit.vbar_limit_samples(1e300, dim, 16, 3, SEED)
        assert limit.check_grid(1e300, 1, 16)[0] == 1e300


class TestPathEnumeration:
    def test_counts_are_powers_of_two(self):
        for row in range(1, 6):
            for col in range(row):
                assert len(enumerate_paths(row, col)) == 2 ** (row - col - 1)

    def test_adjacent_single_path(self):
        assert enumerate_paths(1, 0) == [(0, 1)]

    def test_gap_two(self):
        assert enumerate_paths(2, 0) == [(0, 2), (0, 1, 2)]

    def test_validate_path_rejects_nonmonotone(self):
        with pytest.raises(InvalidParameter):
            limit.validate_path((0, 2, 1), 4)

    def test_validate_path_rejects_out_of_range(self):
        with pytest.raises(ShapeMismatch):
            limit.validate_path((0, 5), 4)


class TestIteratedIntegral:
    def test_zero_ratio_gives_zero(self, rng):
        grid = limit.simulate_paths(rng, limit.Grid(0.0, 3, 64))
        assert limit.iterated_integral(grid, (0, 1, 2)) == 0.0

    def test_zeroed_increments_give_zero(self, rng):
        grid = limit.simulate_paths(rng, limit.Grid(1.0, 3, 64))
        grid.increments[0, 3:] = 0.0
        assert limit.iterated_integral(grid, (0, 2)) == 0.0
        assert limit.iterated_integral(grid, (0, 1, 2)) == 0.0

    def test_zero_mean(self):
        n = 20_000

        def one(grid, j):
            return [limit.iterated_integral(grid, p, j) for p in ((0, 1), (0, 2), (0, 1, 2))]

        vals = montecarlo.sample_map(per_grid_draw(one, 0.5, 3, 64), n, (3,), SEED, phase=4)
        mean, se = montecarlo.mean_and_se(vals)
        assert np.all(np.abs(mean) < 4 * se)

    def test_independent_of_the_kernel_it_checks(self, rng, monkeypatch):
        # The oracle of TestPathSumMatchesEnumeration must not run through
        # the DP's suffix kernel, or a fault there would pass unseen.
        grid = limit.simulate_paths(rng, limit.Grid(0.8, 4, 64))
        paths = enumerate_paths(3, 0)
        before = [limit.iterated_integral(grid, p) for p in paths]

        def broken(*args, **kwargs):
            raise AssertionError("iterated_integral called backend.suffix_mac")

        monkeypatch.setattr(backend, "suffix_mac", broken)
        assert [limit.iterated_integral(grid, p) for p in paths] == before

    def test_dimension_check(self, rng):
        grid = limit.simulate_paths(rng, limit.Grid(0.5, 2, 16))
        with pytest.raises(ShapeMismatch):
            limit.iterated_integral(grid, (0, 3))


class TestVbarLimit:
    def test_lazy_regime_identity_bit_exact(self, rng):
        out = grid_draw(rng, 0.0, 3, 16)
        assert np.array_equal(out, np.eye(3))
        assert not np.signbit(out).any()

    def test_structure(self, rng):
        out = grid_draw(rng, 1.0, 4, 128)
        assert np.allclose(np.triu(out, 1), 0.0)
        assert (np.diag(out) > 0).all()

    def test_d1_lognormal_ks(self):
        a, n = 0.7, 10_000
        draws = limit.vbar_limit_samples(a, 1, 8, n, SEED, phase=6)
        logs = np.log(draws[:, 0, 0])
        sd = np.sqrt(a / 2.0)
        statistic, threshold = analysis.ks_statistic(logs, lambda x: ndtr((x + a / 2.0) / sd))
        assert statistic <= threshold

    def test_determinant_positive(self):
        draws = limit.vbar_limit_samples(1.0, 3, 64, 500, SEED, phase=7)
        assert (np.linalg.det(draws) > 0).all()

    def test_dim_cap(self):
        with pytest.raises(InvalidParameter):
            limit.vbar_limit_samples(0.5, limit.MAX_DIM + 1, 16, 1, SEED)

    def test_dim_24_draw(self, rng):
        out = grid_draw(rng, 0.5, 24, 256)
        assert np.isfinite(out).all()
        assert np.array_equal(np.triu(out, 1), np.zeros((24, 24)))
        assert (np.diag(out) > 0).all()


def enumerated_vbar(grid) -> np.ndarray:
    """Oracle: every below-diagonal entry summed path by path."""
    out = np.diag(np.exp(grid.paths[0, :, -1]))
    for row in range(1, grid.dim):
        for col in range(row):
            out[row, col] = sum(
                limit.iterated_integral(grid, path)
                for path in enumerate_paths(row, col)
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
    rng = montecarlo.make_stream(draw(st.integers(0, 2**32 - 1)), 0)
    grid = limit.simulate_paths(rng, limit.Grid(a, dim, steps * ratio))
    if ratio > 1:
        grid = limit._coarsened(grid, limit.Grid(a, dim, steps))
    zeroed = draw(st.lists(st.booleans(), min_size=dim * (dim - 1) // 2,
                           max_size=dim * (dim - 1) // 2))
    grid.increments[0, dim:][np.array(zeroed, dtype=bool)] = 0.0
    return grid.fill_paths(1)  # the program reads coefficients, not increments


class TestPathSumMatchesEnumeration:
    @settings(max_examples=200, deadline=None)
    @given(limit_grids())
    def test_matches_enumeration(self, grid):
        out = limit.vbar_limit_from_grid(grid)
        ref = enumerated_vbar(grid)
        # Rounding in either order is bounded by the same sums taken over
        # |dW|, where nothing cancels.  In the subnormal range (a tiny
        # ``a``) rounding is absolute instead: a few smallest subnormals.
        off_diagonal = grid.increments[0, grid.dim:]
        np.abs(off_diagonal, out=off_diagonal)
        scale = enumerated_vbar(grid)
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
            grid = limit.simulate_paths(rng, limit.Grid(0.6, 3, 8 * ratio))
            np.testing.assert_array_equal(fine[i], limit.vbar_limit_from_grid(grid))
            coarsened = limit._coarsened(grid, limit.Grid(0.6, 3, 8))
            np.testing.assert_array_equal(coarse[i], limit.vbar_limit_from_grid(coarsened))


class TestPriorLimit:
    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_empty_input_rejected(self, shape):
        # No rows would divide by zero into all-NaN draws.
        with pytest.raises(InvalidParameter, match="one row and one column"):
            limit.prior_limit_samples(np.empty(shape), 0.5, 2, 1.0, 8, 2, 1)

    def test_zero_input(self):
        out = limit.prior_limit_samples(np.zeros((2, 3)), 0.5, 2, 1.0, 16, 3, SEED)
        np.testing.assert_array_equal(out, np.zeros((3, 2, 3)))

    def test_rows_match_single_draws(self):
        # Sample i draws its grid from the block's stream and Z from its Z stream.
        x = np.array([[1.0, -0.5, 0.2], [0.4, 0.9, -1.1]])
        out = limit.prior_limit_samples(x, 0.7, 3, 2.0, 16, 4, SEED, phase=12)
        rng = montecarlo.stream_for(SEED, 12, 0)
        z_rng = montecarlo.stream_for(SEED, 12, 0, prior.FAMILY_Z)
        for i in range(4):
            vbar = grid_draw(rng, 0.7, 3, 16)
            z = z_rng.standard_normal((3, 2))
            np.testing.assert_allclose(out[i], vbar @ z @ x / 2.0, rtol=1e-13, atol=1e-15)

    def test_lazy_regime_gaussian_covariance(self):
        x = np.array([[1.0, -0.5], [0.4, 0.9]])
        n = 30_000
        draws = limit.prior_limit_samples(x, 0.0, 2, 1.0, 8, n, SEED, phase=10)
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
        draws = limit.prior_limit_samples(x, a, 2, 1.0, steps, n, SEED, phase=11)
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
                limit.prior_limit_samples(np.eye(2), 0.5, 2, bad, 16, 2, SEED)


def digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:12]


class TestWorkspaceDraws:
    """Draws into per-block grids: the same bytes as fresh grids, any worker count."""

    def test_pinned_bytes(self):
        assert digest(limit.vbar_limit_samples(0.7, 3, 128, 32, 7, phase=2)) == "8127425e9d78"
        x = np.array([[1.0, -0.5, 0.2], [0.4, 0.9, -1.1]])
        for w in (1, 2, 3, 4):
            assert digest(limit.vbar_limit_samples(0.7, 3, 128, 200, 7, 4, w)) == "658223914b4e"
            coarse, fine = limit.vbar_limit_refinement_pair(0.7, 2, 16, 64, 50, 7, 5, w)
            assert digest(fine) == "ddc0c194b695"
            assert digest(coarse) == "bdda4d3177bd"
            out = limit.prior_limit_samples(x, 0.7, 3, 1.0, 32, 100, 7, 6, w)
            assert digest(out) == "3f06f5870bad"

    @pytest.mark.parametrize("a,dim,steps", [(0.0, 3, 16), (0.7, 1, 16), (0.5, 24, 64)])
    def test_matches_standalone_draws(self, a, dim, steps):
        # One block reuses one grid for every draw.
        n = 5
        out = limit.vbar_limit_samples(a, dim, steps, n, SEED, phase=14)
        rng = montecarlo.stream_for(SEED, 14, 0)
        for i in range(n):
            np.testing.assert_array_equal(out[i], grid_draw(rng, a, dim, steps))
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

        class Counted(limit.Grid):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(limit, "Grid", Counted)
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
        # A sub-batch's increments, paths and coefficients, then the drift
        # and the table.
        batch = limit.Grid(0.5, 4, 1024, montecarlo.BLOCK).batch
        grid_bytes = 8 * (batch * (10 * 1024 + 4 * 1025 + 6 * 1024) + 4 * 1025 + 16 * 1025)
        assert large <= small + 16 * 1024
        assert large <= 1.5 * grid_bytes

    def test_warm_draw_allocates_only_its_result(self, rng):
        # A dim 6 / 4096-step draw in fresh memory touches about 5 MB.
        grid = limit.Grid(0.5, 6, 4096)
        limit.vbar_limit_from_grid(limit.simulate_paths(rng, grid))
        tracemalloc.start()
        try:
            limit.vbar_limit_from_grid(limit.simulate_paths(rng, grid))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024


def pair_draw(rng, a, dim, coarse_steps, fine_steps):
    """The next coupled (coarse, fine) pair of ``rng``, simulated into new grids."""
    grid = limit.simulate_paths(rng, limit.Grid(a, dim, fine_steps))
    fine = limit.vbar_limit_from_grid(grid)
    coarse = limit.vbar_limit_from_grid(limit._coarsened(grid, limit.Grid(a, dim, coarse_steps)))
    return np.stack([coarse, fine])


class TestSubBatchedDraws:
    """A block simulates its paths a sub-batch at a time: the bytes of the
    per-draw oracle, one ``simulate_paths`` call per draw into a new grid."""

    def test_sub_batch_sizes(self):
        # The shapes below cover a whole block, one draw at a time, and a
        # sub-batch boundary inside a block with a partial last sub-batch.
        def batch(dim, steps, m):
            return limit.Grid(0.5, dim, steps, m).batch

        assert batch(2, 16, montecarlo.BLOCK) == montecarlo.BLOCK
        assert batch(6, 4096, montecarlo.BLOCK) == 1
        assert batch(3, 8192, montecarlo.BLOCK) == 1
        assert batch(3, 128, montecarlo.BLOCK) == 33  # 33 + 31
        assert batch(2, 16, 5) == 5
        assert limit.Grid(0.5, 2, 16).batch == 1

    @pytest.mark.parametrize("dim,steps", [(1, 16), (2, 16), (3, 128), (4, 1024), (6, 4096)])
    def test_budget_counts_what_a_draw_allocates(self, dim, steps):
        # The grid's word count must match the arrays it holds per draw,
        # plus a copy of a draw's paths for the buffer numpy takes to
        # subtract the drift in fill_paths; dim 3 / 128 steps is a shape
        # where the budget binds.
        grid = limit.Grid(0.5, dim, steps, 10**6)
        held = sum(getattr(grid, name).nbytes
                   for name in ("increments", "paths", "coefficients", "ends"))
        per_draw = held // grid.batch + 8 * dim * (steps + 1)
        assert grid.batch == max(1, montecarlo.SUB_BATCH_BYTES // per_draw)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "a,dim,steps,n",
        [(0.7, 2, 16, 150), (0.5, 6, 4096, 3), (0.7, 3, 128, 150), (0.7, 1, 16, 150),
         (0.0, 3, 128, 70)],
        ids=["whole-block", "one-draw", "partial-sub-batch", "dim-1", "a-zero"],
    )
    def test_samplers_match_per_draw_oracle(self, a, dim, steps, n, workers):
        out = limit.vbar_limit_samples(a, dim, steps, n, SEED, 19, workers)
        one_draw = per_draw(lambda rng: grid_draw(rng, a, dim, steps))
        want = montecarlo.sample_map(one_draw, n, (dim, dim), SEED, 19, workers)
        assert digest(out) == digest(want)
        if a == 0.0:
            assert np.array_equal(out, np.broadcast_to(np.eye(dim), out.shape))
            assert not np.signbit(out).any()
        x = np.array([[1.0, -0.5, 0.2], [0.4, 0.9, -1.1]])
        prior_out = limit.prior_limit_samples(x, a, dim, 1.5, steps, n, SEED, 20, workers)
        prior_want = prior.mixture_samples(one_draw, dim, x, 1.5, n, SEED, 20, workers)
        assert digest(prior_out) == digest(prior_want)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "a,dim,coarse_steps,fine_steps,n",
        [(0.7, 2, 4, 16, 150), (0.6, 3, 16, 128, 150), (0.5, 6, 512, 4096, 2),
         (0.7, 1, 2, 16, 70), (0.0, 3, 16, 128, 70)],
        ids=["whole-block", "partial-sub-batch", "one-draw", "dim-1", "a-zero"],
    )
    def test_refinement_pair_matches_per_draw_oracle(
        self, a, dim, coarse_steps, fine_steps, n, workers
    ):
        coarse, fine = limit.vbar_limit_refinement_pair(
            a, dim, coarse_steps, fine_steps, n, SEED, 21, workers
        )
        want = montecarlo.sample_map(
            per_draw(lambda rng: pair_draw(rng, a, dim, coarse_steps, fine_steps)),
            n, (2, dim, dim), SEED, 21, workers,
        )
        assert digest(coarse) == digest(want[:, 0])
        assert digest(fine) == digest(want[:, 1])
        if a == 0.0:
            for out in (coarse, fine):
                assert np.array_equal(out, np.broadcast_to(np.eye(dim), out.shape))
                assert not np.signbit(out).any()

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of the three traced layers of the limit sampler, by name."""
        calls = {"simulate_paths": 0, "vbar_limit_from_grid": 0, "suffix_mac": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((limit, "simulate_paths"), (limit, "vbar_limit_from_grid"),
                             (backend, "suffix_mac")):
            counted(module, name)
        return calls

    def test_one_simulation_per_sub_batch_one_program_per_draw(self, calls):
        # 100 draws at dim 3 and 128 steps: blocks of 64 (33 + 31) and 36
        # (33 + 3), with 2 intermediate rows per program.
        limit.vbar_limit_samples(0.5, 3, 128, 100, SEED, phase=22)
        assert calls == {"simulate_paths": 4, "vbar_limit_from_grid": 100, "suffix_mac": 200}
        calls.update(dict.fromkeys(calls, 0))
        # The pair sizes its sub-batch by the fine grid and runs both programs.
        limit.vbar_limit_refinement_pair(0.5, 3, 16, 128, 100, SEED, 23)
        assert calls == {"simulate_paths": 4, "vbar_limit_from_grid": 200, "suffix_mac": 400}

    def test_posterior_mixing_draws_keep_their_traced_calls(self, calls):
        # posterior-predict's 5,000 limit mixing draws at dim 2 and 16 steps
        # (the posterior-collinear benchmark): one simulation per block of
        # 64, one program and one suffix sum per draw.  Batching these
        # layers shortens a traced invocation until cli.main's untraced
        # time exceeds its allowed share (perfbench/workloads.py
        # LAYER_SHARE); such a change must trace cli.main's stages first.
        limit.vbar_limit_samples(1.0, 2, 16, 5000, SEED, phase=25)
        assert calls == {"simulate_paths": 79, "vbar_limit_from_grid": 5000, "suffix_mac": 5000}

    def test_deep_grid_draws_keep_their_traced_calls(self, calls):
        # sample-limit's dim 6 / 4096-step draws (the limit-deep-grid
        # benchmark): one draw per sub-batch, 5 intermediate rows per program.
        limit.vbar_limit_samples(0.5, 6, 4096, 3, SEED, phase=27)
        assert calls == {"simulate_paths": 3, "vbar_limit_from_grid": 3, "suffix_mac": 15}

    def test_iterated_integral_at_each_draw_of_a_sub_batch(self):
        # 34 draws in sub-batches of 33 and 1: each draw's integrals, read
        # at its index in the batched grid, are the per-draw oracle's bytes.
        a, dim, steps, m = 0.7, 3, 128, 34
        paths = enumerate_paths(2, 0) + [(0, 1), (1, 2)]
        grid = limit.Grid(a, dim, steps, m)
        assert grid.batch < m
        oracle = montecarlo.stream_for(SEED, 28, 0)
        seen = 0
        for i, j in limit.block_draws(montecarlo.stream_for(SEED, 28, 0), m, grid):
            one = limit.simulate_paths(oracle, limit.Grid(a, dim, steps))
            assert ([limit.iterated_integral(grid, p, j) for p in paths]
                    == [limit.iterated_integral(one, p) for p in paths]), i
            seen = i + 1
        assert seen == m

    def test_block_scratch_within_the_budget(self):
        # dim 2 / 16 steps: the whole block of 64 draws in one sub-batch;
        # dim 3 / 128 steps: sub-batches of 33 that fill the budget.
        def scratch(dim, steps, n):
            tracemalloc.start()
            try:
                out = limit.vbar_limit_samples(0.5, dim, steps, n, SEED, phase=24)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - 2 * out.nbytes

        for dim, steps in ((2, 16), (3, 128)):
            limit.vbar_limit_samples(0.5, dim, steps, 2, SEED, phase=24)  # lazy imports
            one_block = scratch(dim, steps, montecarlo.BLOCK)
            ten_blocks = scratch(dim, steps, 10 * montecarlo.BLOCK)
            table_bytes = 8 * dim * dim * (steps + 1)
            assert one_block <= montecarlo.SUB_BATCH_BYTES + table_bytes, (dim, steps)
            assert ten_blocks <= one_block + 16 * 1024, (dim, steps)

    @pytest.mark.parametrize(
        "a,dim,coarse_steps,fine_steps,m",
        [(0.7, 2, 4, 16, 64), (0.7, 3, 16, 128, 34), (0.7, 1, 2, 16, 64), (0.0, 3, 16, 128, 34)],
        ids=["whole-block", "partial-sub-batch", "dim-1", "a-zero"],
    )
    def test_stored_coefficients_match_the_draws_own_paths(
        self, a, dim, coarse_steps, fine_steps, m
    ):
        # fill_paths stores what the program reads; pin it bit for bit
        # against the formula on each draw's own paths and increments, for
        # simulated (fine) and coarsened grids alike.
        def want(grid, j):
            z = grid.paths[j]
            rows = [np.exp(z[k, :-1] - z[r, :-1])
                    * grid.increments[j, dim + limit.tril_position(r, k)]
                    for k in range(dim - 2, -1, -1) for r in range(k + 1, dim)]
            return np.array(rows).reshape(-1, grid.steps), np.exp(z[:, -1])

        fine = limit.Grid(a, dim, fine_steps, m)
        coarse = limit.Grid(a, dim, coarse_steps, fine.batch)
        seen = 0
        for i, j in limit.block_draws(montecarlo.stream_for(SEED, 26, 0), m, fine, coarse):
            for grid in (fine, coarse):
                coefficients, ends = want(grid, j)
                assert grid.coefficients[:, j].tobytes() == coefficients.tobytes()
                assert grid.ends[j].tobytes() == ends.tobytes()
            seen = i + 1
        assert seen == m
