import hashlib
import sys

import numpy as np
import pytest

from proplimit import montecarlo, prior, verify
from proplimit.errors import InvalidParameter
from proplimit.sampling import bartlett_chain_draws, make_stream


def draw3(rng):
    return rng.standard_normal(3)


class TestSampleMap:
    def test_partition_invariance(self):
        base = montecarlo.sample_map(draw3, 101, seed=5, phase=2, workers=1)
        for workers in (2, 3, 7):
            out = montecarlo.sample_map(draw3, 101, seed=5, phase=2, workers=workers)
            np.testing.assert_array_equal(base, out)

    def test_rows_keyed_by_index(self):
        out = montecarlo.sample_map(draw3, 8, seed=5, phase=2, workers=1)
        row3 = draw3(montecarlo.stream_for(5, 2, 3))
        np.testing.assert_array_equal(out[3], row3)

    def test_phases_are_disjoint_streams(self):
        a = montecarlo.sample_map(draw3, 4, seed=5, phase=1, workers=1)
        b = montecarlo.sample_map(draw3, 4, seed=5, phase=2, workers=1)
        assert not np.array_equal(a, b)

    def test_reused_buffers_under_thread_switching(self):
        # 20 chunks on 4 threads share the spare chunk buffers; frequent
        # thread switches would expose two chunks writing one buffer set.
        def draw(rng):
            return rng.standard_normal(3), rng.standard_normal((2, 2))

        def finish(a, b):
            return np.concatenate([a, b.reshape(len(b), -1)], axis=1)

        n = 20 * montecarlo.MAX_CHUNK
        base = montecarlo.sample_map(draw, n, seed=5, phase=3, workers=1, finish=finish)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = montecarlo.sample_map(draw, n, seed=5, phase=3, workers=4, finish=finish)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(out, base)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameter):
            montecarlo.sample_map(draw3, 0, seed=1, phase=0)


class TestChunkedMap:
    @staticmethod
    def _run(n, workers):
        bounds = []

        def draw(rng):
            # Sample index: the low PHASE_SHIFT bits of the stream's key.
            key = int(rng.bit_generator.state["state"]["key"][1])
            return draw3(rng), key & ((1 << montecarlo.PHASE_SHIFT) - 1)

        def finish(rows, index):
            lo, hi = int(index[0]), int(index[-1]) + 1
            np.testing.assert_array_equal(index, np.arange(lo, hi))
            bounds.append((lo, hi))
            return rows

        out = montecarlo.sample_map(draw, n, 9, 4, workers=workers, finish=finish)
        return out, sorted(bounds)

    @staticmethod
    def _assert_tiles(bounds, n):
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(lo < hi for lo, hi in bounds)
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))

    def test_chunk_size_invariance(self):
        a, bounds_a = self._run(50, workers=1)
        b, bounds_b = self._run(50, workers=4)
        np.testing.assert_array_equal(a, b)
        self._assert_tiles(bounds_a, 50)
        self._assert_tiles(bounds_b, 50)
        assert len(bounds_b) == 4
        big, bounds_big = self._run(3000, workers=1)
        self._assert_tiles(bounds_big, 3000)
        assert max(hi - lo for lo, hi in bounds_big) <= montecarlo.MAX_CHUNK
        np.testing.assert_array_equal(big[:50], a)
        np.testing.assert_array_equal(a[7], draw3(montecarlo.stream_for(9, 4, 7)))


def used_generator():
    """A generator left mid-stream: a half-used Philox buffer and a pending uint32."""
    rng = montecarlo.stream_for(3, 1, 0)
    rng.integers(0, 2**32, dtype=np.uint32)
    rng.bit_generator.random_raw(1)
    state = rng.bit_generator.state
    assert state["has_uint32"] == 1 and 0 < state["buffer_pos"] < 4
    return rng


def plain(state):
    """A bit generator state with its arrays as lists, comparable with ==."""
    return {k: plain(v) if isinstance(v, dict) else np.asarray(v).tolist()
            for k, v in state.items()}


def mixed_draws(rng):
    return (
        rng.integers(0, 2**32, size=3, dtype=np.uint32),
        rng.standard_normal(5),
        rng.standard_gamma(np.array([0.5, 3.0, 31.5])),
        rng.bit_generator.random_raw(6),
    )


class TestRekeyedStreams:
    @pytest.mark.parametrize("seed", [0, 2**63 - 1, 2**63 + 1, 2**64 - 1, -1])
    @pytest.mark.parametrize(
        "phase, index", [(0, 0), (2, 7), (2**23 + 5, 1), (2**24 - 1, 2**40 - 1)]
    )
    def test_rekey_draws_what_a_new_stream_draws(self, seed, phase, index):
        rng = used_generator()
        rekeyed = montecarlo.stream_for(seed, phase, index, rng)
        assert rekeyed is rng
        fresh = make_stream(seed, (phase << montecarlo.PHASE_SHIFT) | index)
        assert plain(rekeyed.bit_generator.state) == plain(fresh.bit_generator.state)
        for got, want in zip(mixed_draws(rekeyed), mixed_draws(fresh)):
            np.testing.assert_array_equal(got, want)

    def test_plain_calls_do_not_alias(self):
        a = montecarlo.stream_for(5, 2, 0)
        b = montecarlo.stream_for(5, 2, 1)
        assert a is not b and a.bit_generator is not b.bit_generator
        a_ref = mixed_draws(montecarlo.stream_for(5, 2, 0))
        b_ref = mixed_draws(montecarlo.stream_for(5, 2, 1))
        # Interleaved use: drawing from one never moves the other.
        for got, want in zip(mixed_draws(b), b_ref):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(mixed_draws(a), a_ref):
            np.testing.assert_array_equal(got, want)

    def test_phase_beyond_key_rejected(self):
        # phase << PHASE_SHIFT must fit the 64-bit key half, or phases would collide.
        with pytest.raises(InvalidParameter):
            montecarlo.stream_for(1, 1 << (64 - montecarlo.PHASE_SHIFT), 0)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_raw_chain_draw_digest(self, workers):
        # Pinned bytes of Bartlett draws through rekeyed streams: the
        # diagonals alone, then diagonals and lower entries side by side.
        def draw(rng):
            return bartlett_chain_draws(64, 3, 200, rng)

        def digest(out):
            return hashlib.sha256(out.tobytes()).hexdigest()[:12]

        diag = montecarlo.sample_map(draw, 2500, 674797529, 2, workers=workers)
        assert digest(diag) == "dbe568592a37"
        both = montecarlo.sample_map(draw, 2500, 674797529, 2, workers=workers,
                                     finish=lambda d, low: np.concatenate([d, low], axis=2))
        assert digest(both) == "06f445915a1f"


def test_verify_phase_ids_distinct():
    # Each verify stage must draw from its own streams; c4 uses four phases.
    phases = [v for k, v in vars(verify).items() if k.startswith("PH_") and k != "PH_C4_BASE"]
    phases += [verify.PH_C4_BASE + k for k in range(4)]
    assert len(phases) == len(set(phases))


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(montecarlo.WORKERS_ENV, "5")
        assert montecarlo.worker_count() == 5

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(montecarlo.WORKERS_ENV, "5")
        assert montecarlo.worker_count(2) == 2

    def test_default_single(self, monkeypatch):
        monkeypatch.delenv(montecarlo.WORKERS_ENV, raising=False)
        assert montecarlo.worker_count() == 1

    @pytest.mark.parametrize("raw", ["abc", "2.5"])
    def test_malformed_env_is_typed(self, monkeypatch, raw):
        monkeypatch.setenv(montecarlo.WORKERS_ENV, raw)
        with pytest.raises(InvalidParameter, match=montecarlo.WORKERS_ENV):
            montecarlo.worker_count()

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


class TestReductions:
    def test_mean_and_se(self, np_rng):
        values = np_rng.standard_normal((4000, 2))
        mean, se = montecarlo.mean_and_se(values)
        assert np.all(np.abs(mean) < 5 * se)
        assert se == pytest.approx(
            values.std(axis=0, ddof=1) / np.sqrt(4000), rel=1e-12
        )

    def test_var_and_se_normal(self, np_rng):
        values = np_rng.standard_normal((200_000, 1)) * 2.0
        var, se = montecarlo.var_and_se(values)
        assert abs(var[0] - 4.0) < 4 * se[0]
        # For a normal the variance of s^2 is 2 sigma^4 / n.
        assert se[0] == pytest.approx(np.sqrt(2 * 16.0 / 200_000), rel=0.05)
