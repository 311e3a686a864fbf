import numpy as np
import pytest

from proplimit import montecarlo
from proplimit.errors import InvalidParameter


def draw3(rng):
    return rng.gen.standard_normal(3)


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
    def test_chunk_size_invariance(self):
        def runner(out):
            def fn(lo, hi):
                for i in range(lo, hi):
                    out[i] = draw3(montecarlo.stream_for(9, 4, i))

            return fn

        a = np.empty((50, 3))
        montecarlo.chunked_map(runner(a), 50, workers=1, chunk=7)
        b = np.empty((50, 3))
        montecarlo.chunked_map(runner(b), 50, workers=4, chunk=13)
        np.testing.assert_array_equal(a, b)


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
