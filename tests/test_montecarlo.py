import hashlib
import sys

import numpy as np
import pytest

from proplimit import limit, montecarlo, posterior, prior, verify
from proplimit.errors import InvalidParameter


BLOCK = montecarlo.BLOCK


def draw3(streams, m):
    return streams(0).standard_normal((m, 3))


def block_rows(seed, phase, block, cols=3):
    """The rows of a full block of ``draw3``, drawn directly from its stream."""
    return montecarlo.stream_for(seed, phase, block).standard_normal((BLOCK, cols))


class TestSampleMap:
    def test_partition_invariance(self):
        base = montecarlo.sample_map(draw3, 5 * BLOCK + 3, seed=5, phase=2, workers=1)
        for workers in (2, 3, 7):
            out = montecarlo.sample_map(draw3, 5 * BLOCK + 3, seed=5, phase=2, workers=workers)
            np.testing.assert_array_equal(base, out)

    def test_rows_keyed_by_block_and_position(self):
        # Sample i is row i % BLOCK of block i // BLOCK's stream.
        out = montecarlo.sample_map(draw3, BLOCK + 10, seed=5, phase=2, workers=1)
        np.testing.assert_array_equal(out[3], block_rows(5, 2, 0)[3])
        np.testing.assert_array_equal(out[BLOCK + 6], block_rows(5, 2, 1)[6])

    def test_phases_are_disjoint_streams(self):
        a = montecarlo.sample_map(draw3, 4, seed=5, phase=1, workers=1)
        b = montecarlo.sample_map(draw3, 4, seed=5, phase=2, workers=1)
        assert not np.array_equal(a, b)

    def test_families_are_disjoint_streams(self):
        def draw(streams, m):
            return np.stack([streams(0).standard_normal(m), streams(1).standard_normal(m)], 1)

        out = montecarlo.sample_map(draw, 8, seed=5, phase=2, workers=1)
        assert not np.array_equal(out[:, 0], out[:, 1])

    def test_threads_under_thread_switching(self):
        # 21 blocks of two families on 2-4 threads; frequent thread switches
        # would expose blocks sharing a generator or landing out of order.
        def draw(streams, m):
            return np.concatenate(
                [streams(0).standard_normal((m, 3)), streams(2).standard_gamma(0.5, (m, 4))],
                axis=1,
            )

        n = 20 * BLOCK + 5
        base = montecarlo.sample_map(draw, n, seed=5, phase=3, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outs = [montecarlo.sample_map(draw, n, 5, 3, workers=w) for w in (2, 3, 4)]
        finally:
            sys.setswitchinterval(interval)
        for out in outs:
            np.testing.assert_array_equal(out, base)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameter):
            montecarlo.sample_map(draw3, 0, seed=1, phase=0)


class TestBlocks:
    @staticmethod
    def _run(n, workers):
        calls = []

        def draw(streams, m):
            normals, gammas = streams(0), streams(1)
            # Block number: the low FAMILY_SHIFT bits of the stream's key.
            key = int(normals.bit_generator.state["state"]["key"][1])
            calls.append((key & ((1 << montecarlo.FAMILY_SHIFT) - 1), m))
            return np.concatenate(
                [normals.standard_normal((m, 3)), gammas.standard_gamma([0.5, 2.0], (m, 2))],
                axis=1,
            )

        out = montecarlo.sample_map(draw, n, 9, 4, workers=workers)
        return out, sorted(calls)

    def test_blocks_tile_the_run(self):
        for n, workers in ((50, 1), (50, 4), (3 * BLOCK, 2), (3000, 1), (3000, 3)):
            _, calls = self._run(n, workers)
            full, last = divmod(n, BLOCK)
            sizes = [BLOCK] * full + ([last] if last else [])
            assert calls == list(enumerate(sizes))

    def test_prefix_across_a_partial_last_block(self):
        # Sample-major draws: a run of 50 (one partial block) is the first
        # 50 rows of a run of 3000, for both families.
        short, _ = self._run(50, workers=1)
        wide, _ = self._run(50, workers=4)
        long, _ = self._run(3000, workers=1)
        np.testing.assert_array_equal(short, wide)
        np.testing.assert_array_equal(long[:50], short)
        np.testing.assert_array_equal(short[:, :3], block_rows(9, 4, 0)[:50])


class TestStreamKeys:
    def test_plain_calls_do_not_alias(self):
        a = montecarlo.stream_for(5, 2, 0)
        b = montecarlo.stream_for(5, 2, 1)
        assert a is not b and a.bit_generator is not b.bit_generator
        a_ref = montecarlo.stream_for(5, 2, 0).standard_normal(7)
        b_ref = montecarlo.stream_for(5, 2, 1).standard_normal(7)
        # Interleaved use: drawing from one never moves the other.
        np.testing.assert_array_equal(b.standard_normal(7), b_ref)
        np.testing.assert_array_equal(a.standard_normal(7), a_ref)

    @pytest.mark.parametrize("seed", [0, 2**63 - 1, 2**63 + 1, 2**64 - 1, -1])
    @pytest.mark.parametrize(
        "phase, block, family",
        [(0, 0, 0), (2, 7, 1), (2**23 + 5, 1, 2), (2**24 - 1, 2**34 - 1, 2**6 - 1)],
    )
    def test_key_layout(self, seed, phase, block, family):
        stream_id = (
            (phase << montecarlo.PHASE_SHIFT) | (family << montecarlo.FAMILY_SHIFT) | block
        )
        np.testing.assert_array_equal(
            montecarlo.stream_for(seed, phase, block, family).standard_normal(6),
            montecarlo.make_stream(seed, stream_id).standard_normal(6),
        )

    def test_extreme_keys_do_not_collide(self):
        top_phase, top_family, top_block = 2**24 - 1, 2**6 - 1, 2**34 - 1
        fields = [(p, f, b) for p in (0, 1, top_phase) for f in (0, 1, top_family)
                  for b in (0, 1, top_block)]
        keys = {
            int(montecarlo.stream_for(1, p, b, f).bit_generator.state["state"]["key"][1])
            for p, f, b in fields
        }
        assert len(keys) == len(fields)

    @pytest.mark.parametrize(
        "phase, block, family",
        [(2**24, 0, 0), (-1, 0, 0), (0, 2**34, 0), (0, -1, 0), (0, 0, 2**6), (0, 0, -1)],
    )
    def test_out_of_range_rejected(self, phase, block, family):
        # Each field must fit its bits of the key half, or keys would collide.
        with pytest.raises(InvalidParameter):
            montecarlo.stream_for(1, phase, block, family)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_raw_chain_draw_digest(self, workers):
        # Pinned bytes of a block's Bartlett draws, gammas and lower
        # normals from their own streams, read back out of the factors:
        # the diagonals alone, then diagonals and lower entries side by side.
        def draw(streams, m):
            factors = prior.bartlett_chain_draws(
                64, 3, (m, 200), streams(prior.FAMILY_GAMMA), streams(prior.FAMILY_LOW)
            )
            rows, cols = np.tril_indices(3, -1)
            diag = np.diagonal(factors, axis1=2, axis2=3)
            return np.concatenate([diag, factors[:, :, rows, cols]], axis=2)

        def digest(out):
            return hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()[:12]

        both = montecarlo.sample_map(draw, 2500, 674797529, 2, workers=workers)
        assert digest(both[:, :, :3]) == "852349e64ca0"
        assert digest(both) == "c6afdbc13a0a"


class TestSubBatchBudget:
    def test_one_budget_splits_every_block_sampler(self, monkeypatch):
        # Blocks of 64 and 36 draws.  Under a 4 KiB budget a depth-7 dim-3
        # chain's 504-byte factor stack goes 8 to a sub-batch, and a dim-2
        # 16-step limit draw's 1,072 bytes 3 to a grid (the pair's coarse
        # grid follows its fine one); every byte stays.
        calls = {"bartlett_chain_draws": 0, "simulate_paths": 0}
        for module, name in ((prior, "bartlett_chain_draws"), (limit, "simulate_paths")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)

        def run():
            calls.update(dict.fromkeys(calls, 0))
            draws = (prior.vbar_finite_samples(7, 8, 3, 100, 5, phase=1),
                     limit.vbar_limit_samples(0.7, 2, 16, 100, 5, phase=2),
                     *limit.vbar_limit_refinement_pair(0.7, 2, 4, 16, 100, 5, phase=3))
            return [d.tobytes() for d in draws], dict(calls)

        def sub_batches(per_batch):
            return -(-64 // per_batch) + -(-36 // per_batch)

        whole, whole_calls = run()
        assert whole_calls == {"bartlett_chain_draws": 2, "simulate_paths": 4}
        monkeypatch.setattr(montecarlo, "SUB_BATCH_BYTES", 4096)
        split, split_calls = run()
        assert split_calls == {"bartlett_chain_draws": sub_batches(8),
                               "simulate_paths": 2 * sub_batches(3)}
        assert split == whole


def test_verify_phase_ids_distinct():
    # Each verify stage must draw from its own streams; c4 uses four phases.
    phases = [v for k, v in vars(verify).items() if k.startswith("PH_") and k != "PH_C4_BASE"]
    phases += [verify.PH_C4_BASE + k for k in range(4)]
    assert len(phases) == len(set(phases))


class TestWorkerCount:
    def test_explicit_wins(self):
        assert montecarlo.worker_count(2) == 2

    def test_default_single(self):
        assert montecarlo.worker_count() == 1

    @pytest.mark.parametrize("bad", [2.5, 2.0, "2", True, np.float64(2.0)])
    def test_non_integer_is_typed(self, bad):
        with pytest.raises(InvalidParameter, match="integer"):
            montecarlo.worker_count(bad)

    def test_numpy_integer_accepted(self):
        assert montecarlo.worker_count(np.int64(3)) == 3

    def test_samplers_reject_fractional_workers(self):
        with pytest.raises(InvalidParameter):
            montecarlo.sample_map(draw3, 4, seed=1, phase=0, workers=2.5)
        with pytest.raises(InvalidParameter):
            prior.vbar_finite_samples(2, 4, 2, 4, seed=1, workers=2.5)


X3 = np.ones((3, 4))


@pytest.mark.parametrize("call, same_as", [
    pytest.param(lambda: prior.vbar_finite_samples(3, 8.5, 2, 5, 1), None, id="finite-width"),
    pytest.param(
        lambda: prior.prior_mixture_samples(
            X3, prior.NetworkShape(n_in=3, n_out=2, depth=3, width=8.5), 5, 1
        ),
        None, id="mixture-width",
    ),
    pytest.param(
        lambda: prior.forward_direct_samples(
            X3, prior.NetworkShape(n_in=3, n_out=2, depth=2.5, width=8), 5, 1
        ),
        None, id="direct-depth",
    ),
    pytest.param(lambda: limit.vbar_limit_samples(0.5, 2.5, 16, 3, 1), None, id="limit-dim"),
    pytest.param(lambda: limit.vbar_limit_samples(0.5, 2, 16.5, 3, 1), None, id="limit-steps"),
    pytest.param(lambda: limit.vbar_limit_samples(0.5, 2, 16, 2.5, 1), None, id="limit-n-samples"),
    pytest.param(
        lambda: limit.vbar_limit_refinement_pair(0.5, 2, 16, 64.0, 3, 1),
        lambda: limit.vbar_limit_refinement_pair(0.5, 2, 16, 64, 3, 1),
        id="refinement-whole-float",
    ),
    pytest.param(
        lambda: prior.vbar_finite_samples(3.0, 8.0, 2.0, 5.0, 1),
        lambda: prior.vbar_finite_samples(3, 8, 2, 5, 1),
        id="finite-whole-floats",
    ),
])
def test_counts_follow_the_whole_number_rule(call, same_as):
    # A whole float is read as its int; anything else is a typed error,
    # never a bare TypeError and never a draw at a fractional size.
    if same_as is None:
        with pytest.raises(InvalidParameter, match="whole number"):
            call()
    else:
        np.testing.assert_array_equal(call(), same_as())


def _shape(lambdas):
    return prior.NetworkShape(n_in=3, n_out=2, depth=2, width=8, lambdas=lambdas)


def _dataset(beta):
    return posterior.Dataset(x=[[1.0]], y=[[2.0]], x0=[1.0], beta=beta)


@pytest.mark.parametrize("call, same_as", [
    pytest.param(lambda: limit.vbar_limit_samples("0.5", 2, 16, 3, 1), None, id="limit-ratio-string"),
    pytest.param(lambda: limit.vbar_limit_samples(True, 2, 16, 3, 1), None, id="limit-ratio-bool"),
    pytest.param(
        lambda: limit.vbar_limit_refinement_pair(True, 2, 16, 64, 3, 1), None, id="refinement-ratio-bool"
    ),
    pytest.param(lambda: _shape(("1", "2", "3")), None, id="lambdas-strings"),
    pytest.param(lambda: _shape((True, 2.0, 3.0)), None, id="lambdas-bool"),
    pytest.param(lambda: prior.prior_covariance_exact(X3, 3, "1", 2), None, id="exact-lambda-star-string"),
    pytest.param(
        lambda: prior.mixture_samples(None, X3, True, 3, 1), None, id="mixture-lambda-star-bool"
    ),
    pytest.param(lambda: _dataset("1"), None, id="beta-string"),
    pytest.param(lambda: _dataset(True), None, id="beta-bool"),
    pytest.param(
        lambda: limit.vbar_limit_samples(1, 2, 16, 3, 1),
        lambda: limit.vbar_limit_samples(1.0, 2, 16, 3, 1),
        id="limit-int-ratio",
    ),
    pytest.param(
        lambda: _shape(np.array([1, 2, 3])).lambdas, lambda: (1.0, 2.0, 3.0), id="lambdas-int-array"
    ),
])
def test_reals_follow_the_real_number_rule(call, same_as):
    # A real number that is not a bool is read as its float; a string or a
    # bool is a typed error, never a bare TypeError and never a draw at 1.
    if same_as is None:
        with pytest.raises(InvalidParameter, match="real number"):
            call()
    else:
        np.testing.assert_array_equal(call(), same_as())


class TestReductions:
    def test_mean_and_se(self, np_rng):
        values = np_rng.standard_normal((4000, 2))
        mean, se = montecarlo.mean_and_se(values)
        assert np.all(np.abs(mean) < 5 * se)
        assert se == pytest.approx(
            values.std(axis=0, ddof=1) / np.sqrt(4000), rel=1e-12
        )

    @pytest.mark.parametrize("n", [0, 1])
    def test_mean_and_se_too_few(self, n):
        # No numpy warning either: pytest turns RuntimeWarning into an error.
        mean, se = montecarlo.mean_and_se(np.ones((n, 3)))
        assert mean.shape == se.shape == (3,)
        assert np.all(np.isnan(mean)) == (n == 0)
        assert np.all(se == np.inf)

    @pytest.mark.parametrize("n", [0, 1])
    def test_var_and_se_too_few(self, n):
        # The same rule as mean_and_se, again without a numpy warning.
        var, se = montecarlo.var_and_se(np.ones((n, 3)))
        assert var.shape == se.shape == (3,)
        assert np.all(np.isnan(var))
        assert np.all(se == np.inf)

    def test_var_and_se_normal(self, np_rng):
        values = np_rng.standard_normal((200_000, 1)) * 2.0
        var, se = montecarlo.var_and_se(values)
        assert abs(var[0] - 4.0) < 4 * se[0]
        # For a normal the variance of s^2 is 2 sigma^4 / n.
        assert se[0] == pytest.approx(np.sqrt(2 * 16.0 / 200_000), rel=0.05)
