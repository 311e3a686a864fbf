"""Workload definitions: CLI inputs generated from a seed, and output checks.

Each workload is one ``proplimit`` CLI invocation.  ``build(name, seed)``
turns the benchmark seed into the matrices and the CLI ``--seed`` the
program receives; ``check_output`` validates what one invocation wrote
against closed forms or a dense reference computed here, never against
the code path being timed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Statistical checks reject beyond this many standard errors.
Z_LIMIT = 5.0
# Posterior predictive moments must match the dense reference this closely.
POSTERIOR_RTOL = 1e-8

FINITE = dict(n_out=3, depth=200, width=64, n_in=3, n_train=2, n_samples=4000)
DEEP = dict(a=0.5, dim=6, steps=4096, n_samples=300)
POSTERIOR = dict(a=1.0, steps=16, n_mixing=5000, beta=1.0, n_in=3, n_out=2)
# Least share of a traced invocation's wall time that the traced layers
# below cli.main must cover; the rest is cli.main's own time (config,
# report) plus tracing set-up.  A layer the tracer no longer reaches
# drops the share below this.
LAYER_SHARE = {"finite-chain": 0.85, "limit-deep-grid": 0.95, "posterior-collinear": 0.95}

@dataclass(frozen=True)
class Workload:
    """One generated workload: the CLI arguments and what a check needs."""

    name: str
    seed: int
    cli_seed: int
    command: str
    settings: dict
    items: int  # draws, or mixture components for the posterior

    def argv(self, out_dir: Path) -> list:
        """CLI arguments; ``workers=1`` keeps every invocation single-threaded."""
        args = [self.command, "--seed", str(self.cli_seed), "--out-dir", str(out_dir),
                "--set", "workers=1"]
        for key, value in self.settings.items():
            args += ["--set", f"{key}={json.dumps(value)}"]
        return args

    @property
    def writes_csv(self) -> bool:
        return self.command != "posterior-predict"


def build(name: str, seed: int) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``."""
    rng = np.random.default_rng([seed, *name.encode()])
    cli_seed = int(rng.integers(1, 2**31))
    if name == "finite-chain":
        x = rng.standard_normal((FINITE["n_in"], FINITE["n_train"]))
        settings = dict(
            routes=["mixture"], n_out=FINITE["n_out"], depth=FINITE["depth"],
            width=FINITE["width"], x=x.tolist(), n_samples=FINITE["n_samples"],
        )
        return Workload(name, seed, cli_seed, "sample-prior", settings, FINITE["n_samples"])
    if name == "limit-deep-grid":
        settings = dict(emit="vbar", **DEEP)
        return Workload(name, seed, cli_seed, "sample-limit", settings, DEEP["n_samples"])
    if name == "posterior-collinear":
        # Four free columns plus two linear combinations of them: rank 3,
        # so the training Gram matrix is singular.
        base = rng.standard_normal((POSTERIOR["n_in"], 4))
        x = np.column_stack([base, base[:, 0] + base[:, 1], base[:, 2] - 0.5 * base[:, 3]])
        y = rng.standard_normal((POSTERIOR["n_out"], x.shape[1]))
        x0 = rng.standard_normal(POSTERIOR["n_in"])
        settings = dict(
            mixing="limit", a=POSTERIOR["a"], steps=POSTERIOR["steps"],
            n_mixing=POSTERIOR["n_mixing"], beta=POSTERIOR["beta"],
            x=x.tolist(), y=y.tolist(), x0=x0.tolist(),
        )
        return Workload(
            name, seed, cli_seed, "posterior-predict", settings, POSTERIOR["n_mixing"]
        )
    raise ValueError(f"unknown workload {name!r}")


def read_samples(path: Path, n: int, rows: int, cols: int) -> np.ndarray:
    """Parse ``samples.csv`` into an (n, rows, cols) array, every cell once."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 2, 3, 4), ndmin=2)
    if table.shape[0] != n * rows * cols:
        raise ValueError(f"{path.name}: {table.shape[0]} rows, expected {n * rows * cols}")
    idx = table[:, :3].astype(np.int64)
    if (idx.min(axis=0) < 0).any() or (idx.max(axis=0) >= (n, rows, cols)).any():
        raise ValueError(f"{path.name}: index out of range")
    flat = np.ravel_multi_index(idx.T, (n, rows, cols))
    if np.unique(flat).size != flat.size:
        raise ValueError(f"{path.name}: repeated cell")
    out = np.empty(n * rows * cols)
    out[flat] = table[:, 3]
    return out.reshape(n, rows, cols)


def _within(label: str, value, target, se) -> list:
    z = np.abs(np.asarray(value) - target) / np.asarray(se)
    bad = np.flatnonzero(~(z <= Z_LIMIT))
    return [f"{label}[{i}]: {z.ravel()[i]:.2f} SE from target" for i in bad]


def _mean_se(values: np.ndarray):
    n = values.shape[0]
    return values.mean(axis=0), values.std(axis=0, ddof=1) / np.sqrt(n)


def check_finite(w: Workload, draws: np.ndarray) -> list:
    """Second-moment law of the prior outputs against its closed form.

    ``Cov(vec f) = (X.T X / n_in) kron I`` (``prior.prior_covariance_exact``
    with unit precisions).  Given the Bartlett chain, row r of f is
    N(0, s_r G) with G = X.T X / n_in and s_r a product of ``depth``
    independent chi2(width)/width factors, so the raw variance estimator
    is too heavy-tailed at depth/width ~ 3 for a 5-SE test.  Two
    thin-tailed statistics check the same law instead:

    - scale: E log f_rc^2 = log G_cc + depth (psi(N/2) - log(N/2))
      + psi(1/2) + log 2;
    - shape: E[f_r f_r^T / (f_r^T G^-1 f_r)] = G / P, free of s_r.
    """
    from scipy.special import digamma  # checks only; kept out of set-up time

    x = np.asarray(w.settings["x"])
    depth, width = w.settings["depth"], w.settings["width"]
    gram = x.T @ x / x.shape[0]
    p = gram.shape[0]
    problems = []
    if not np.isfinite(draws).all():
        return ["non-finite output"]

    log_sq = np.log(draws**2)
    target = (
        np.log(np.diag(gram))[None, :]
        + depth * (digamma(width / 2) - np.log(width / 2))
        + digamma(0.5) + np.log(2.0)
    )
    mean, se = _mean_se(log_sq.reshape(log_sq.shape[0], -1))
    problems += _within("log f^2 mean", mean, np.broadcast_to(target, draws.shape[1:]).ravel(), se)

    ginv = np.linalg.inv(gram)
    for r in range(draws.shape[1]):
        f = draws[:, r, :]
        norm = np.einsum("ni,ij,nj->n", f, ginv, f)
        t = np.einsum("ni,nj->nij", f, f) / norm[:, None, None]
        mean, se = _mean_se(t.reshape(t.shape[0], -1))
        problems += _within(f"row {r} shape", mean, (gram / p).ravel(), se)
    return problems


def check_limit(w: Workload, draws: np.ndarray) -> list:
    """Limit-matrix law: triangular, lognormal diagonal, centred below it.

    log V_kk ~ N(-a (k+1)/2, a/2) exactly (0-based k); every strict-lower
    entry is a sum of Ito integrals and has mean 0.
    """
    a, dim = w.settings["a"], w.settings["dim"]
    n = draws.shape[0]
    problems = []
    upper = np.triu_indices(dim, 1)
    if np.any(draws[:, upper[0], upper[1]] != 0.0):
        problems.append("upper triangle not exactly 0")
    diag = draws[:, np.arange(dim), np.arange(dim)]
    if not (diag > 0).all():
        return problems + ["diagonal not strictly positive"]
    log_diag = np.log(diag)
    mean, se = _mean_se(log_diag)
    problems += _within("log-diagonal mean", mean, -a * np.arange(1, dim + 1) / 2, se)
    var = log_diag.var(axis=0, ddof=1)
    problems += _within("log-diagonal variance", var, a / 2, (a / 2) * np.sqrt(2.0 / (n - 1)))
    lower = np.tril_indices(dim, -1)
    mean, se = _mean_se(draws[:, lower[0], lower[1]])
    problems += _within("off-diagonal mean", mean, 0.0, se)
    return problems


def posterior_reference(w: Workload):
    """Predictive mean and covariance by batched dense conditioning.

    Uses the CLI's own mixing draws (same seed and phase) but none of the
    posterior module: per draw, the joint covariance is
    ``kron(Xt.T Xt / n_in, Q)`` over [x0, X], labels are conditioned with
    ``solve(s11 + I / beta)``, and components are weighted by the Gaussian
    marginal likelihood of the labels.
    """
    from proplimit import cli, limit

    s = w.settings
    x, y, x0 = np.asarray(s["x"]), np.asarray(s["y"]), np.asarray(s["x0"])
    d = y.shape[0]
    vbars = limit.vbar_limit_samples(
        s["a"], d, s["steps"], s["n_mixing"], w.cli_seed, cli.PH_MIXING, 1
    )
    q = np.einsum("nij,nkj->nik", vbars, vbars)
    xt = np.column_stack([x0, x])
    gram = xt.T @ xt / xt.shape[0]
    k = gram.shape[0] * d
    joint = np.einsum("ab,nij->naibj", gram, q).reshape(-1, k, k)
    s00, s01, s11 = joint[:, :d, :d], joint[:, :d, d:], joint[:, d:, d:]
    resolvent = s11 + np.eye(k - d) / s["beta"]
    y_vec = y.reshape(-1, order="F")
    rhs = np.concatenate(
        [np.broadcast_to(y_vec[:, None], (q.shape[0], k - d, 1)), s01.transpose(0, 2, 1)],
        axis=2,
    )
    solved = np.linalg.solve(resolvent, rhs)
    m0 = np.einsum("nij,nj->ni", s01, solved[:, :, 0])
    c00 = s00 - s01 @ solved[:, :, 1:]
    _, logdet = np.linalg.slogdet(resolvent)
    log_w = -0.5 * (np.einsum("i,ni->n", y_vec, solved[:, :, 0]) + logdet)
    weights = np.exp(log_w - log_w.max())
    weights /= weights.sum()
    mean = weights @ m0
    cov = np.einsum("n,nij->ij", weights, c00) + (
        np.einsum("n,ni,nj->ij", weights, m0, m0) - np.outer(mean, mean)
    )
    return mean, cov


def _rel_err(value, ref) -> float:
    value, ref = np.asarray(value, dtype=float), np.asarray(ref, dtype=float)
    if value.shape != ref.shape:
        return np.inf
    return float(np.abs(value - ref).max() / np.abs(ref).max())


def check_posterior(results: dict, reference) -> list:
    mean, cov = reference
    problems = []
    for key, ref in (("predictive_mean", mean), ("predictive_covariance", cov)):
        err = _rel_err(results.get(key, []), ref)
        if not err <= POSTERIOR_RTOL:
            problems.append(f"{key}: relative error {err:.3e} > {POSTERIOR_RTOL:g}")
    return problems


def check_output(w: Workload, out_dir: Path, reference=None) -> list:
    """Problems found in one invocation's outputs; empty when correct."""
    if not w.writes_csv:
        results = json.loads((out_dir / "report.json").read_text())["results"]
        return check_posterior(results, reference)
    if w.name == "finite-chain":
        shape = (w.items, w.settings["n_out"], FINITE["n_train"])
        return check_finite(w, read_samples(out_dir / "samples.csv", *shape))
    dim = w.settings["dim"]
    return check_limit(w, read_samples(out_dir / "samples.csv", w.items, dim, dim))
