import tracemalloc

import numpy as np
import pytest

from proplimit import backend, montecarlo, prior
from proplimit.errors import InvalidParameter, ShapeMismatch

SEED = 424242


def make_shape(**kwargs):
    base = dict(n_in=3, n_out=2, depth=3, width=8)
    base.update(kwargs)
    return prior.NetworkShape(**base)


class TestNetworkShape:
    def test_lambda_star(self):
        shape = make_shape(depth=2, lambdas=(2.0, 3.0, 4.0))
        assert shape.lambda_star == pytest.approx(24.0)

    def test_default_lambdas_are_unit(self):
        assert make_shape().lambdas == (1.0, 1.0, 1.0, 1.0)

    def test_width_gate(self):
        with pytest.raises(InvalidParameter):
            make_shape(width=2)

    def test_lambda_length_checked(self):
        with pytest.raises(InvalidParameter):
            make_shape(lambdas=(1.0, 1.0))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_precisions_finite_and_positive(self, bad):
        with pytest.raises(InvalidParameter):
            make_shape(lambdas=(1.0, bad, 1.0, 1.0))

    def test_custom_widths(self):
        shape = make_shape(widths=(4, 5, 6))
        assert shape.layer_widths == (4, 5, 6)
        assert not shape.uniform_width

    def test_fractional_widths_rejected(self):
        with pytest.raises(InvalidParameter):
            make_shape(widths=(2.5, 5, 6))
        assert make_shape(widths=(4.0, 5, 6)).layer_widths == (4, 5, 6)


class TestForwardDirect:
    def test_zero_input(self):
        f = prior.forward_direct_samples(np.zeros((3, 4)), make_shape(), 2, SEED)
        np.testing.assert_array_equal(f, np.zeros((2, 2, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            prior.forward_direct_samples(np.zeros((5, 4)), make_shape(), 1, SEED)

    def test_precision_scaling_pathwise(self):
        # Quadrupling every precision scales each draw by 2^-(depth+1),
        # exactly, under matched seeds.
        x = np.array([[1.0, -0.5], [0.3, 0.8], [2.0, 0.1]])
        shape_a = make_shape()
        shape_b = make_shape(lambdas=(4.0,) * 4)
        f_a = prior.forward_direct_samples(x, shape_a, 3, 11)
        f_b = prior.forward_direct_samples(x, shape_b, 3, 11)
        np.testing.assert_array_equal(f_b, f_a * 0.5 ** 4)

    def test_unit_variance_scalar_network(self):
        shape = prior.NetworkShape(n_in=1, n_out=1, depth=1, width=16)
        n = 100_000
        draws = prior.forward_direct_samples(
            np.array([[1.0]]), shape, n, SEED, phase=1
        ).ravel()
        sq = draws**2
        se = sq.std(ddof=1) / np.sqrt(n)
        assert abs(sq.mean() - 1.0) < 4 * se

    def test_unequal_widths_supported(self):
        shape = make_shape(widths=(4, 9, 5))
        f = prior.forward_direct_samples(np.eye(3), shape, 1, SEED)
        assert f.shape == (1, 2, 3)

    def test_samples_match_single_draws(self, monkeypatch):
        # A block draws sample-major from one stream: the same values in
        # one draw as in sub-batches of one sample each.
        x = np.array([[1.0, -0.5], [0.3, 0.8], [2.0, 0.1]])
        shape = make_shape(widths=(4, 9, 5))
        batch = prior.forward_direct_samples(x, shape, 5, SEED, phase=8)
        monkeypatch.setattr(prior, "DIRECT_BATCH_VALUES", 1)
        np.testing.assert_array_equal(prior.forward_direct_samples(x, shape, 5, SEED, 8), batch)


def chain_streams(seed, phase, block=0):
    """The gamma and lower-normal streams of a block, as the finite samplers key them."""
    return (montecarlo.stream_for(seed, phase, block, prior.FAMILY_GAMMA),
            montecarlo.stream_for(seed, phase, block, prior.FAMILY_LOW))


def chain_from_streams(depth, width, dim, streams):
    """The next Bartlett-chain product of a block, drawn and multiplied on its own."""
    factors = prior.bartlett_chain_draws(width, dim, (1, depth), *streams)
    return backend.lt_chain_multiply(factors)[0]


@pytest.fixture
def stream_keys(monkeypatch):
    """The ``(block, family)`` key of every ``montecarlo.stream_for`` call."""
    keys = []
    make = montecarlo.stream_for

    def counted(seed, phase, block, family=0):
        keys.append((block, family))
        return make(seed, phase, block, family)

    monkeypatch.setattr(montecarlo, "stream_for", counted)
    return keys


# Chains per sub-batch at depth 7 and dim 3, the split tests' shape: one,
# 5 (a block of 64 is 12 x 5 + 4, the last block's 22 is 4 x 5 + 2) and
# the whole block.
SPLITS = [1, 5, 64]


def split_budget(per_batch, depth=7, dim=3):
    """A ``montecarlo.SUB_BATCH_BYTES`` giving ``per_batch`` chains per sub-batch."""
    return per_batch * depth * dim * dim * 8


class TestVbarFinite:
    def test_single_layer_equals_bartlett_factor(self):
        chain = prior.vbar_finite_samples(1, 10, 3, 1, 7)[0]
        factor = prior.bartlett_chain_draws(10, 3, 1, *chain_streams(7, 0))[0]
        np.testing.assert_array_equal(chain, factor)

    def test_triangular_with_positive_diagonal(self):
        for v in prior.vbar_finite_samples(20, 6, 4, 3, SEED, phase=1):
            assert np.allclose(np.triu(v, 1), 0.0)
            assert (np.diag(v) > 0).all()

    def test_width_gate(self):
        with pytest.raises(InvalidParameter):
            prior.vbar_finite_samples(3, 2, 2, 1, SEED)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_gate(self, depth):
        # A chain needs a factor: the same rule as NetworkShape's depth >= 1.
        with pytest.raises(InvalidParameter, match="depth"):
            prior.vbar_finite_samples(depth, 4, 2, 1, SEED)

    def test_first_diagonal_unit_second_moment(self):
        n = 50_000
        draws = prior.vbar_finite_samples(12, 6, 2, n, SEED, phase=2)
        sq = draws[:, 0, 0] ** 2
        se = sq.std(ddof=1) / np.sqrt(n)
        assert abs(sq.mean() - 1.0) < 4 * se

    def test_diag_product_identity(self):
        n, width, depth = 50_000, 10, 6
        draws = prior.vbar_finite_samples(depth, width, 3, n, SEED, phase=3)
        for k in (2, 3):
            sq = draws[:, k - 1, k - 1] ** 2
            se = sq.std(ddof=1) / np.sqrt(n)
            target = ((width - k + 1) / width) ** depth
            assert abs(sq.mean() - target) < 4 * se

    def test_batch_matches_single_draws(self):
        # A block draws sample-major: one chain after another from each stream.
        batch = prior.vbar_finite_samples(5, 8, 3, 4, SEED, phase=4)
        streams = chain_streams(SEED, 4)
        for i in range(4):
            np.testing.assert_array_equal(batch[i], chain_from_streams(5, 8, 3, streams))

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("per_batch", SPLITS)
    def test_same_bytes_at_every_split(self, monkeypatch, stream_keys, per_batch, workers):
        # 150 chains (blocks of 64, 64 and 22) at every sub-batch size are
        # the single-chain draws' bytes, and each block takes its gamma
        # and lower-normal streams once.
        monkeypatch.setattr(montecarlo, "SUB_BATCH_BYTES", split_budget(per_batch))
        batch = prior.vbar_finite_samples(7, 8, 3, 150, SEED, phase=10, workers=workers)
        assert sorted(stream_keys) == [(b, f) for b in range(3)
                                       for f in (prior.FAMILY_GAMMA, prior.FAMILY_LOW)]
        for b, lo in enumerate(range(0, 150, 64)):
            streams = chain_streams(SEED, 10, b)
            for i in range(lo, min(lo + 64, 150)):
                np.testing.assert_array_equal(batch[i], chain_from_streams(7, 8, 3, streams))

    def test_sub_batch_sizes(self):
        # As many chains as fit the budget's factor stack, within [1, m].
        stack = 200 * 3 * 3 * 8
        assert montecarlo.sub_batch(64, stack) == montecarlo.SUB_BATCH_BYTES // stack == 36
        assert montecarlo.sub_batch(20, stack) == 20
        assert montecarlo.sub_batch(64, 7 * 3 * 3 * 8) == 64
        assert montecarlo.sub_batch(64, 10**6 * 3 * 3 * 8) == 1

    def test_block_crossing_the_batch_budget(self):
        # finite-chain's factor shape: a block of 64 chains in sub-batches
        # of 36 and 28 has the bytes of one kernel call on the whole
        # block's draws, and the chains either side of the boundary those
        # of the kernel on them alone.
        depth, width, dim = 200, 64, 3
        batch = prior.vbar_finite_samples(depth, width, dim, 64, SEED, phase=11)
        factors = prior.bartlett_chain_draws(width, dim, (64, depth), *chain_streams(SEED, 11))
        np.testing.assert_array_equal(batch, backend.lt_chain_multiply(factors))
        np.testing.assert_array_equal(batch[34:38], backend.lt_chain_multiply(factors[34:38]))

    def test_scratch_memory_bounded_by_batch_budget(self):
        # At depth 2000 one block's (64, 2000, 3, 3) factor stack would be
        # 17.6 budgets; a sub-batch's draws, stack and tree levels stay
        # within three.
        prior.vbar_finite_samples(3, 8, 3, 2, SEED)  # first-call allocations
        tracemalloc.start()
        try:
            out = prior.vbar_finite_samples(2000, 8, 3, 64, SEED, phase=12, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 3 * montecarlo.SUB_BATCH_BYTES

    def test_finite_chain_block_scratch_within_two_budgets(self):
        # finite-chain's shape (depth 200, width 64, dim 3), one block of
        # 64 chains in sub-batches of 36 and 28: a sub-batch's draws and
        # factor stack, then the stack and its first tree level, stay
        # under two budgets, as the product frees each level's input.
        prior.vbar_finite_samples(3, 8, 3, 2, SEED)  # first-call allocations
        tracemalloc.start()
        try:
            out = prior.vbar_finite_samples(200, 64, 3, 64, SEED, phase=15, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 2 * montecarlo.SUB_BATCH_BYTES


class TestPriorMixture:
    def test_zero_input(self):
        f = prior.prior_mixture_samples(np.zeros((3, 2)), make_shape(), 3, SEED)
        np.testing.assert_array_equal(f, np.zeros((3, 2, 2)))

    def test_batch_matches_single_draws(self):
        # Sample i draws its chain from the chain streams and Z from the Z stream.
        x = np.array([[1.0, 0.2], [0.0, -1.0], [0.5, 0.3]])
        batch = prior.prior_mixture_samples(x, make_shape(), 5, SEED, phase=5)
        streams = chain_streams(SEED, 5)
        z_rng = montecarlo.stream_for(SEED, 5, 0, prior.FAMILY_Z)
        for i in range(5):
            vbar = chain_from_streams(3, 8, 2, streams)
            z = z_rng.standard_normal((2, 3))
            np.testing.assert_allclose(batch[i], vbar @ z @ x / np.sqrt(3.0), rtol=1e-13)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("per_batch", SPLITS)
    def test_same_bytes_at_every_split(self, monkeypatch, stream_keys, per_batch, workers):
        # 150 draws (blocks of 64, 64 and 22) at every sub-batch size are
        # the whole-block draws' bytes, and each block takes each of its
        # three family streams once.
        x = np.array([[1.0, 0.2], [0.0, -1.0], [0.5, 0.3]])
        shape = make_shape(n_out=3, depth=7)
        monkeypatch.setattr(montecarlo, "SUB_BATCH_BYTES", split_budget(64))
        whole = prior.prior_mixture_samples(x, shape, 150, SEED, phase=13, workers=1)
        stream_keys.clear()
        monkeypatch.setattr(montecarlo, "SUB_BATCH_BYTES", split_budget(per_batch))
        batch = prior.prior_mixture_samples(x, shape, 150, SEED, phase=13, workers=workers)
        assert sorted(stream_keys) == [(b, f) for b in range(3) for f in range(3)]
        assert batch.tobytes() == whole.tobytes()

    def test_finite_chain_draws_keep_their_traced_calls(self, monkeypatch, stream_keys):
        # sample-prior's mixture route at the finite-chain benchmark's shape
        # (depth 200, width 64, n_out 3, 4,000 draws): 63 blocks take three
        # streams each, and each full block draws and multiplies its chains
        # in sub-batches of 36 and 28, the last block's 32 in one.
        calls = {"bartlett_chain_draws": 0, "lt_chain_multiply": 0}
        for module, name in ((prior, "bartlett_chain_draws"), (backend, "lt_chain_multiply")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        shape = prior.NetworkShape(n_in=3, n_out=3, depth=200, width=64)
        prior.prior_mixture_samples(np.eye(3)[:, :2], shape, 4000, SEED, phase=14, workers=1)
        assert len(stream_keys) == 189
        assert calls == {"bartlett_chain_draws": 125, "lt_chain_multiply": 125}

    def test_covariance_against_direct_route(self):
        # Moderate-scale smoke version of the sampler-equivalence criterion.
        x = np.array([[1.0, -0.4], [0.5, 1.1], [-0.6, 0.3]])
        shape = make_shape()
        n = 30_000
        target = prior.prior_covariance_exact(x, 3, 1.0, 2)
        for phase, sampler in (
            (6, prior.forward_direct_samples),
            (7, prior.prior_mixture_samples),
        ):
            draws = sampler(x, shape, n, SEED, phase=phase)
            vecs = draws.transpose(0, 2, 1).reshape(n, -1)
            iu = np.triu_indices(4)
            products = vecs[:, iu[0]] * vecs[:, iu[1]]
            est, se = montecarlo.mean_and_se(products)
            assert np.all(np.abs(est - target[iu]) < 4 * se)

    def test_leptokurtic_at_unit_ratio(self):
        # depth/width = 1 makes the scalar output heavier-tailed than normal.
        shape = prior.NetworkShape(n_in=1, n_out=1, depth=8, width=8)
        n = 100_000
        draws = prior.prior_mixture_samples(
            np.array([[1.0]]), shape, n, SEED, phase=8
        ).ravel()
        batches = draws.reshape(20, -1)
        kurts = np.mean(batches**4, axis=1) / np.mean(batches**2, axis=1) ** 2
        kurt = np.mean(draws**4) / np.mean(draws**2) ** 2
        se = kurts.std(ddof=1) / np.sqrt(len(kurts))
        assert kurt > 3.0 + 4 * se

    def test_mixture_rejects_overflowing_precision_product(self):
        shape = make_shape(depth=1, lambdas=(1e200, 1e200))
        with np.errstate(over="ignore"), pytest.raises(InvalidParameter):
            prior.prior_mixture_samples(np.eye(3), shape, 2, SEED)

    def test_mixture_rejects_unequal_widths(self):
        with pytest.raises(InvalidParameter):
            prior.prior_mixture_samples(
                np.zeros((3, 2)), make_shape(widths=(4, 5, 6)), 2, SEED
            )


class TestPriorCovarianceExact:
    def test_identity_input(self):
        out = prior.prior_covariance_exact(np.eye(3), 3, 1.0, 2)
        np.testing.assert_allclose(out, np.kron(np.eye(3) / 3.0, np.eye(2)))

    def test_scalar(self):
        np.testing.assert_allclose(
            prior.prior_covariance_exact([[2.0]], 1, 1.0, 1), [[4.0]]
        )

    def test_lambda_scaling(self):
        base = prior.prior_covariance_exact(np.eye(2), 2, 1.0, 1)
        halved = prior.prior_covariance_exact(np.eye(2), 2, 2.0, 1)
        np.testing.assert_allclose(halved, base / 2.0)

    @pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
    def test_lambda_star_finite_and_positive(self, bad):
        with pytest.raises(InvalidParameter):
            prior.prior_covariance_exact(np.eye(2), 2, bad, 1)


class TestMatnormalVecCov:
    def test_identity(self):
        out = prior.matnormal_vec_cov(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        np.testing.assert_array_equal(out, np.eye(4))

    def test_scalar_product(self):
        out = prior.matnormal_vec_cov([[2.0]], [[3.0]], [[1.0]], [[1.0]])
        np.testing.assert_allclose(out, [[36.0]])

    def test_shape_checked(self):
        with pytest.raises(ShapeMismatch):
            prior.matnormal_vec_cov(np.eye(2), np.eye(2), np.eye(3), np.eye(2))

    def test_monte_carlo(self, np_rng):
        h = np.array([[1.0, 0.5], [-0.3, 0.8]])
        k = np.array([[0.7], [1.2]])
        target = prior.matnormal_vec_cov(h, k, np.eye(2), np.eye(2))
        n = 50_000
        z = np_rng.standard_normal((n, 2, 2))
        vecs = np.einsum("ij,njk,kl->nil", h, z, k).transpose(0, 2, 1).reshape(n, -1)
        iu = np.triu_indices(2)
        products = vecs[:, iu[0]] * vecs[:, iu[1]]
        est, se = montecarlo.mean_and_se(products)
        assert np.all(np.abs(est - target[iu]) < 4 * se)
