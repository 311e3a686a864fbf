import numpy as np
import pytest

from proplimit import montecarlo, prior, verify
from proplimit.errors import InvalidParameter


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
