import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proplimit import posterior
from proplimit.errors import (
    EmptyMixing,
    InvalidParameter,
    NotPositiveDefinite,
    ProplimitError,
    ShapeMismatch,
)

SCALAR = dict(x=[[1.0]], y=[[2.0]], x0=[1.0], beta=1.0)


def scalar_data(**overrides):
    cfg = dict(SCALAR)
    cfg.update(overrides)
    return posterior.Dataset(**cfg)


def lower_factors(rng, n, d):
    """``n`` mixing factors shaped like the samplers' draws: lower
    triangular, normal below the diagonal, the diagonal in [0.5, 1.5]."""
    factors = np.tril(rng.standard_normal((n, d, d)), -1)
    factors[:, np.arange(d), np.arange(d)] = rng.uniform(0.5, 1.5, (n, d))
    return factors


def q_of(factors):
    """The mixing matrices Q = F F.T of a stack of factors, as the oracles take them."""
    return np.einsum("nij,nkj->nik", factors, factors)


class TestDataset:
    def test_derived_quantities(self):
        data = posterior.Dataset(
            x=[[1.0, 0.0], [0.0, 2.0]], y=[[1.0, 3.0], [2.0, 4.0]],
            x0=[0.5, 0.5], beta=2.0,
        )
        np.testing.assert_array_equal(data.y_vec, [1.0, 2.0, 3.0, 4.0])
        assert data.n_out == 2 and data.n_train == 2 and data.n_in == 2

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            posterior.Dataset(x=[[1.0]], y=[[1.0, 2.0]], x0=[1.0], beta=1.0)
        with pytest.raises(ShapeMismatch):
            posterior.Dataset(x=[[1.0]], y=[[1.0]], x0=[1.0, 2.0], beta=1.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(InvalidParameter):
            scalar_data(beta=-0.5)

    @pytest.mark.parametrize("beta", [np.inf, np.nan])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(InvalidParameter, match="finite"):
            scalar_data(beta=beta)


class TestSigmaOfQ:
    def test_scalar_substitution(self):
        blocks = posterior.sigma_of_q([[2.0]], scalar_data())
        np.testing.assert_allclose(blocks.s00, [[2.0]])
        np.testing.assert_allclose(blocks.s01, [[2.0]])
        np.testing.assert_allclose(blocks.s11, [[2.0]])

    def test_orthonormal_columns(self):
        x = np.eye(3)
        data = posterior.Dataset(x=x, y=np.zeros((2, 3)), x0=np.zeros(3), beta=1.0)
        blocks = posterior.sigma_of_q(np.eye(2), data)
        np.testing.assert_allclose(blocks.s11, np.kron(np.eye(3) / 3.0, np.eye(2)))

    def test_zero_test_input(self):
        data = scalar_data(x0=[0.0])
        blocks = posterior.sigma_of_q([[1.5]], data)
        np.testing.assert_array_equal(blocks.s00, [[0.0]])
        np.testing.assert_array_equal(blocks.s01, [[0.0]])

    def test_q_dimension_checked(self):
        with pytest.raises(ShapeMismatch):
            posterior.sigma_of_q(np.eye(2), scalar_data())


class TestSigmaStar:
    def test_beta_zero_no_shrinkage(self):
        data = scalar_data(beta=0.0)
        plain = posterior.sigma_of_q([[1.7]], data)
        starred, _, _ = posterior.starred([[1.7]], data)
        np.testing.assert_allclose(starred.full(), plain.full(), atol=1e-14)

    def test_scalar_shrinkage(self):
        starred, _, _ = posterior.starred([[1.0]], scalar_data())
        np.testing.assert_allclose(starred.s11, [[0.5]], rtol=1e-12)
        np.testing.assert_allclose(starred.s00, [[0.5]], rtol=1e-12)

    def test_remark_consistency_random(self, np_rng):
        # Full-rank inputs, then singular Gram matrices: the Gram row x0.X
        # lies in the row space of X.X for every dataset, so the resolvent
        # form equals the Moore-Penrose one whether or not s11 is invertible.
        for kind in ["random"] * 50 + list(SINGULAR_KINDS) * 20:
            d = int(np_rng.integers(1, 4))
            if kind == "random":
                p = int(np_rng.integers(1, 4))
                n_in = p + int(np_rng.integers(0, 3))
                data = posterior.Dataset(
                    x=np_rng.standard_normal((n_in, p)),
                    y=np_rng.standard_normal((d, p)),
                    x0=np_rng.standard_normal(n_in),
                    beta=float(np_rng.uniform(0.1, 3.0)),
                )
            else:
                data = singular_dataset(np_rng, kind, d)
            m = np_rng.standard_normal((d, d))
            q = m @ m.T + 0.3 * np.eye(d)
            general, general_mean, _ = posterior.starred(q, data)
            simple, simple_mean = posterior.starred_invertible(q, data)
            general = np.concatenate([general.full().ravel(), general_mean])
            simple = np.concatenate([simple.full().ravel(), simple_mean])
            assert np.max(np.abs(general - simple)) < 1e-8 * max(
                1.0, np.max(np.abs(general))
            )


# Singular Gram matrices: a repeated column with n_in >= P and with
# n_in < P, and collinear columns with x0 inside their span.
SINGULAR_KINDS = ("repeated", "repeated-wide", "collinear")


def singular_dataset(rng, kind, d):
    p = int(rng.integers(2, 6))
    if kind == "collinear":
        r = int(rng.integers(1, p))
        basis = rng.standard_normal((r + 2, r))
        x = basis @ rng.standard_normal((r, p))
        x0 = basis @ rng.standard_normal(r)
    else:
        n_in = p + int(rng.integers(0, 3)) if kind == "repeated" else int(rng.integers(1, p))
        x = rng.standard_normal((n_in, p))
        x[:, -1] = x[:, 0]
        x0 = rng.standard_normal(n_in)
    return posterior.Dataset(
        x=x, y=rng.standard_normal((d, p)), x0=x0, beta=float(rng.uniform(0.1, 3.0))
    )


class TestMStar:
    def test_zero_labels(self):
        out = posterior.starred([[1.0]], scalar_data(y=[[0.0]]))[1]
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_scalar_value(self):
        out = posterior.starred([[1.0]], scalar_data())[1]
        np.testing.assert_allclose(out, [1.0, 1.0], rtol=1e-12)

    def test_beta_zero(self):
        out = posterior.starred([[1.0]], scalar_data(beta=0.0))[1]
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_matches_invertible_route(self, np_rng):
        for _ in range(25):
            data = posterior.Dataset(
                x=np_rng.standard_normal((3, 2)),
                y=np_rng.standard_normal((2, 2)),
                x0=np_rng.standard_normal(3),
                beta=1.3,
            )
            m = np_rng.standard_normal((2, 2))
            q = m @ m.T + 0.3 * np.eye(2)
            a = posterior.starred(q, data)[1]
            b = posterior.starred_invertible(q, data)[1]
            assert np.max(np.abs(a - b)) < 1e-9 * max(1.0, np.max(np.abs(a)))


class TestPsi:
    def test_beta_zero(self):
        assert posterior.starred([[1.0]], scalar_data(beta=0.0))[2] == 0.0

    def test_scalar_value(self):
        assert posterior.starred([[1.0]], scalar_data())[2] == pytest.approx(
            2.0 + np.log(2.0), rel=1e-12
        )

    def test_zero_labels_logdet_only(self):
        x = np.sqrt(3.0) * np.eye(3)
        data = posterior.Dataset(x=x, y=np.zeros((1, 3)), x0=np.zeros(3), beta=1.0)
        assert posterior.starred([[1.0]], data)[2] == pytest.approx(3 * np.log(2.0), rel=1e-12)


class TestPosteriorMixture:
    def test_single_component(self):
        mix = posterior.posterior_mixture([np.eye(1)], scalar_data())
        assert mix.n_components == 1
        np.testing.assert_array_equal(mix.weights, [1.0])
        assert mix.ess == pytest.approx(1.0)

    def test_beta_zero_uniform_weights(self, np_rng):
        factors = lower_factors(np_rng, 6, 1)
        mix = posterior.posterior_mixture(factors, scalar_data(beta=0.0))
        np.testing.assert_allclose(mix.weights, np.full(6, 1 / 6), rtol=1e-14)
        assert mix.ess == pytest.approx(6.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyMixing):
            posterior.posterior_mixture([], scalar_data())

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e12, 1e15, 1e18])
    def test_in_span_variance_at_large_q(self, scale):
        # x0 lies in the span of the training inputs; the exact test-block
        # variance is s / (1 + 1.25 s) for Q = s I.
        data = posterior.Dataset(x=[[1.0, 0.5]], y=[[1.0, -1.0]], x0=[1.0], beta=1.0)
        mix = posterior.posterior_mixture([np.sqrt(scale) * np.eye(1)], data)
        var = mix.covariances[0, 0, 0]
        exact = scale / (1.0 + 1.25 * scale)
        assert var >= 0.0
        assert abs(var - exact) <= 1e-12 * exact

    def test_degenerate_weights_flagged_not_raised(self):
        # Psi is about 4 at Q = 1e-6 and about 69 at Q = 1e30.
        mix = posterior.posterior_mixture([1e-3 * np.eye(1), 1e15 * np.eye(1)], scalar_data())
        assert np.ptp(mix.psi) > 60
        assert "degenerate-weights" in mix.warnings
        assert mix.ess < 1.5


class TestPredictiveMoments:
    def test_single_component_passthrough(self):
        mix = posterior.posterior_mixture([np.eye(1)], scalar_data())
        mean, cov = posterior.predictive_moments(mix)
        np.testing.assert_array_equal(mean, mix.means[0][:1])
        np.testing.assert_array_equal(cov, mix.covariances[0][:1, :1])

    def test_gp_regression_closed_form(self):
        mix = posterior.posterior_mixture([np.eye(1)], scalar_data())
        mean, cov = posterior.predictive_moments(mix)
        assert mean[0] == pytest.approx(1.0, rel=1e-12)
        assert cov[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_zero_labels_zero_mean(self, np_rng):
        mix = posterior.posterior_mixture(lower_factors(np_rng, 5, 1), scalar_data(y=[[0.0]]))
        mean, _ = posterior.predictive_moments(mix)
        np.testing.assert_array_equal(mean, [0.0])

    def test_label_independence_bitwise_at_nngp(self):
        for labels in ([[2.0]], [[7.5]]):
            data = scalar_data(y=labels)
            mix = posterior.posterior_mixture(posterior.nngp_mixing(1), data)
            _, cov = posterior.predictive_moments(mix)
            if labels == [[2.0]]:
                ref = cov.tobytes()
        assert cov.tobytes() == ref

    def test_zero_weight_component_contributes_nothing(self):
        # Q = 1e160 overflows the second component: Psi = inf gives it weight
        # 0, and its mean is NaN.  The mixture is the first component alone.
        data = scalar_data(x=[[1e150]], y=[[1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            mix = posterior.posterior_mixture([np.eye(1), 1e80 * np.eye(1)], data)
        np.testing.assert_array_equal(mix.weights, [1.0, 0.0])
        assert np.isnan(mix.means[1, 0])
        mean, cov = posterior.predictive_moments(mix)
        np.testing.assert_array_equal(mean, mix.means[0])
        np.testing.assert_array_equal(cov, mix.covariances[0])


# Dataset shapes for the differential test: generic inputs, and the
# rank-deficient cases where the oracle needs its pseudo-inverse.
DATASET_KINDS = ("random", "repeated", "collinear", "outside-span", "beta-zero")


@st.composite
def spectral_instances(draw):
    """A Dataset plus a list of mixing factors, built from a hypothesis seed."""
    d = draw(st.integers(1, 3))
    p = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(DATASET_KINDS))
    n_q = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_in = int(rng.integers(1, 6))
    beta = 0.0 if kind == "beta-zero" else float(rng.uniform(0.1, 3.0))
    x = rng.standard_normal((n_in, p))
    x0 = rng.standard_normal(n_in)
    if kind == "repeated" and p > 1:
        x[:, int(rng.integers(1, p))] = x[:, 0]
    elif kind == "collinear":
        # rank r < n_in columns with x0 inside their span
        r = max(1, p - 2)
        n_in = r + 2
        basis = rng.standard_normal((n_in, r))
        x = basis @ rng.standard_normal((r, p))
        x0 = basis @ rng.standard_normal(r)
    elif kind == "outside-span":
        # more input rows than columns, one column repeated: x0 has a
        # component outside the span of X
        n_in = p + 2
        x = rng.standard_normal((n_in, p))
        x[:, -1] = x[:, 0]
        x0 = rng.standard_normal(n_in)
    data = posterior.Dataset(
        x=x, y=rng.standard_normal((d, p)), x0=x0, beta=beta
    )
    return data, list(lower_factors(rng, n_q, d))


def _condition(data, q) -> float:
    """Ratio of the largest to the smallest kept eigenvalue of s11.

    The dense oracle inverts s11 through an SVD, so its forward error
    grows with this ratio; the spectral posterior does not invert it.
    """
    gram = data.x.T @ data.x / data.n_in
    lam_mu = np.outer(np.linalg.eigvalsh(q), np.linalg.eigvalsh(gram))
    top = np.abs(lam_mu).max()
    kept = lam_mu[lam_mu > lam_mu.size * np.finfo(float).eps * top]
    return float(top / kept.min()) if kept.size else 1.0


class TestSpectralCoreMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(spectral_instances())
    def test_moments_and_psi(self, instance):
        data, factors = instance
        d = data.n_out
        mix = posterior.posterior_mixture(factors, data)
        means, covs = posterior.joint_moments(factors, data)
        assert means.shape == (len(factors), d * (data.n_train + 1))
        assert mix.means.shape == (len(factors), d)
        for i, q in enumerate(q_of(np.array(factors))):
            blocks, mean, psi_value = posterior.starred(q, data)
            full = blocks.full()
            # 1e-13 per unit of condition: double-precision round-off in the
            # oracle's pseudoinverse, with a margin for the problem sizes here.
            tol = 1e-13 * _condition(data, q)
            scale = max(1.0, np.abs(full).max(), np.abs(mean).max())
            assert np.abs(covs[i] - full).max() <= tol * scale
            assert np.abs(means[i] - mean).max() <= tol * scale
            assert np.abs(mix.covariances[i] - full[:d, :d]).max() <= tol * scale
            assert np.abs(mix.means[i] - mean[:d]).max() <= tol * scale
            assert abs(mix.psi[i] - psi_value) <= tol * max(1.0, abs(psi_value))

    @settings(max_examples=150, deadline=None)
    @given(
        spectral_instances(),
        st.sampled_from(["asymmetric", "singular", "wrong-size"]),
        st.integers(0, 3),
    )
    def test_bad_q_raises_like_oracle(self, instance, fault, where):
        # The batched routes take factors, whose Q = F F.T is symmetric by
        # construction: an asymmetric Q reaches the oracle alone.
        data, factors = instance
        d = data.n_out
        i = where % len(factors)
        qs = list(q_of(np.array(factors)))
        if fault == "asymmetric":
            assume(d > 1)
            skew = np.zeros((d, d))
            skew[0, 1] = 1e-3 * np.abs(qs[i]).max()
            qs[i] = qs[i] + skew
        elif fault == "singular":
            factors[i][-1] = 0.0
            qs[i] = q_of(factors[i][None])[0]
        else:
            factors[i] = qs[i] = np.eye(d + 1)
        with pytest.raises(ProplimitError) as oracle:
            for q in qs:
                posterior.starred(q, data)
        if fault == "asymmetric":
            assert type(oracle.value) is InvalidParameter
            return
        for batched in (posterior.posterior_mixture, posterior.joint_moments):
            with pytest.raises(ProplimitError) as caught:
                batched(factors, data)
            assert type(caught.value) is type(oracle.value)


def test_memory_follows_the_span_not_the_training_count():
    # n_in = 3 inputs span 3 of P = 1,000 directions: the hidden arrays are
    # (n, d, 3), so 10,000 components need no (n, d, P) or P x P intermediate.
    rng = np.random.default_rng(7)
    data = posterior.Dataset(
        x=rng.standard_normal((3, 1000)), y=rng.standard_normal((2, 1000)),
        x0=rng.standard_normal(3), beta=1.0,
    )
    factors = lower_factors(rng, 10_000, 2)
    tracemalloc.start()
    try:
        mix = posterior.posterior_mixture(factors, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - mix.means.nbytes - mix.covariances.nbytes < 16 * 2**20


class TestMixtureDiagnostics:
    def test_even_weights(self, np_rng):
        mix = posterior.posterior_mixture(lower_factors(np_rng, 4, 1), scalar_data(beta=0.0))
        assert mix.max_weight == pytest.approx(0.25)
        assert mix.psi_range == (0.0, 0.0)
        assert mix.n_nonfinite == 0

    def test_psi_spread_and_nonfinite_count(self):
        # lam mu = 1e4 * 1e306 overflows: that component's Psi is infinite
        data = scalar_data(x=[[1e2]])
        with np.errstate(over="ignore", invalid="ignore"):
            mix = posterior.posterior_mixture(
                [np.eye(1), 2 * np.eye(1), 1e153 * np.eye(1)], data
            )
        assert mix.psi_range[0] == pytest.approx(posterior.starred(np.eye(1), data)[2])
        assert mix.n_nonfinite == 1
        assert mix.weights[2] == 0.0
        assert mix.max_weight == pytest.approx(mix.weights[:2].max())
        # The range covers the finite exponents only.
        assert mix.psi_range[1] == pytest.approx(posterior.starred(4 * np.eye(1), data)[2])

    def test_nan_psi_gets_zero_weight(self):
        # Along [1, 1] the second Q's eigenvalue 1e10 overflows denom and
        # its label coordinate 1.84e154 overflows z^2: inf / inf, so Psi is NaN.
        data = posterior.Dataset(x=[[1e150]], y=[[1.3e154], [1.3e154]], x0=[1.0], beta=1.0)
        r = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            mix = posterior.posterior_mixture([np.eye(2), r @ np.diag([1e5, 1.0])], data)
        assert np.isnan(mix.psi[1])
        np.testing.assert_array_equal(mix.weights, [1.0, 0.0])
        assert mix.ess == 1.0 and mix.n_nonfinite == 1
        assert mix.psi_range == (mix.psi[0], mix.psi[0])

    def test_no_finite_psi_raises(self):
        # x = 1e200 overflows the Gram matrix, so every Psi is infinite and
        # the weights would be 0 / 0.
        data = scalar_data(x=[[1e200]], y=[[1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(EmptyMixing, match="finite"):
                posterior.posterior_mixture([np.eye(1), 2 * np.eye(1)], data)

    def test_invalid_stacks_raise_typed_errors(self):
        two = posterior.Dataset(x=[[1.0]], y=[[2.0], [1.0]], x0=[1.0], beta=1.0)
        with pytest.raises(ShapeMismatch):
            posterior.posterior_mixture([np.eye(1), np.eye(2)], scalar_data())
        with pytest.raises(ShapeMismatch):
            posterior.posterior_mixture(2.0, scalar_data())
        with pytest.raises(ShapeMismatch):
            posterior.posterior_mixture(np.ones((3, 2, 2)), scalar_data())
        with pytest.raises(ShapeMismatch):
            posterior.posterior_mixture(np.ones((3, 2, 1)), two)
        with pytest.raises(NotPositiveDefinite):
            posterior.posterior_mixture(np.zeros((2, 1, 1)), scalar_data())
        with pytest.raises(NotPositiveDefinite):
            posterior.posterior_mixture([np.eye(2), [[1.0, 0.0], [2.0, 0.0]]], two)
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidParameter):
                posterior.posterior_mixture([[[bad]]], scalar_data())


def _pinned_instance(kind):
    """A dataset and eight mixing factors at d = 2, from a fixed seed.

    ``collinear`` is shaped like the benchmark's ``posterior-collinear``:
    n_in = 3 < P = 6, with two columns linear combinations of the others
    (rank 3).  ``full-rank`` has n_in = 8 > P = 6.
    """
    rng = np.random.default_rng(20261019)
    if kind == "collinear":
        base = rng.standard_normal((3, 4))
        x = np.column_stack([base, base[:, 0] + base[:, 1], base[:, 2] - 0.5 * base[:, 3]])
    else:
        x = rng.standard_normal((8, 6))
    data = posterior.Dataset(
        x=x, y=rng.standard_normal((2, 6)), x0=rng.standard_normal(x.shape[0]), beta=1.0
    )
    return data, lower_factors(rng, 8, 2)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:12]


@pytest.mark.parametrize("kind, mixture_digest, joint_digest", [
    ("collinear", "61cf957fecf0", "743cbda00603"),
    ("full-rank", "7a4388009b34", "94f3aa11692f"),
])
def test_posterior_bytes_pinned(kind, mixture_digest, joint_digest):
    data, factors = _pinned_instance(kind)
    mix = posterior.posterior_mixture(factors, data)
    assert _digest(mix.psi, mix.weights, mix.means, mix.covariances) == mixture_digest
    assert _digest(*posterior.joint_moments(factors, data)) == joint_digest


@pytest.mark.parametrize("seed", range(1, 13))
def test_predictive_covariance_exactly_symmetric(seed):
    # The einsum reduces (i, j) and (j, i) in different orders; without the
    # symmetrization cov[0, 1] != cov[1, 0] in the last digit at 3 of these seeds.
    data, _ = _pinned_instance("collinear")
    factors = lower_factors(np.random.default_rng(seed), 200, 2)
    _, cov = posterior.predictive_moments(posterior.posterior_mixture(factors, data))
    assert cov.tobytes() == cov.T.tobytes()
