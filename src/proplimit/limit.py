"""Sampler for the proportional depth/width limit matrix.

As depth L and width N diverge with L/N -> a, the Bartlett-chain product
converges in law to a random lower-triangular matrix whose diagonal entries
are lognormal, ``exp(Z_k(1))`` with drifted Brownian motions
``Z_k(t) = sqrt(a/2) W_k(t) - (k/2) a t`` (k = 1-based row), and whose
below-diagonal entries are sums of iterated Ito integrals driven by an
independent Brownian motion per matrix position.  We simulate all driving
paths on one uniform grid per draw (so entries keep their joint
dependence) and evaluate each iterated integral by a backward suffix
recursion with left-endpoint (Ito) integrand evaluation:

    G_h[m] = sum_{u >= m} exp(Z_{r_{h-1}}(t_u) - Z_{r_h}(t_u)) dW_u
    G_j[m] = sum_{u >= m} exp(Z_{r_{j-1}}(t_u) - Z_{r_j}(t_u)) G_{j+1}[u+1] dW_u

and the integral for path r = (r_0 < ... < r_h) is
``a^{h/2} * exp(Z_{r_h}(1)) * G_1[0]``.  The ``u+1`` shift keeps the inner
integral strictly ahead of the outer integration time.  Discretization bias
is O(M^{-1/2}); the grid size M is configurable (default 4096).

Entry (r, c) sums this over all 2^(r-c-1) paths from c to r.  The sum is
linear in the inner suffix, so it is built by a backward dynamic program
over the intermediate rows instead of path by path:

    F_r^{(r)} = exp(Z_r(1)),
    F_k^{(r)}[m] = sqrt(a) sum_{k < k' <= r} sum_{u >= m}
                   exp(Z_k(t_u) - Z_k'(t_u)) F_k'^{(r)}[u+1] dW^{(k',k)}_u,
    V[r, c] = F_c^{(r)}[0]

(the endpoint factor enters as the terminal value, by linearity), with
the terminal row r as an array axis: one stacked suffix sum per
intermediate row, O(dim^3 M) flops and O(dim^2 M) memory per draw.  Path
enumeration (:func:`enumerate_paths`, :func:`iterated_integral`) stays as
the reference the tests and the verify suite check it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import backend, montecarlo
from .errors import InvalidParameter, ShapeMismatch
from .linalg import as_matrix
from .prior import mixture_outputs

# The path-sum program costs O(dim^3 M) per draw; refuse silly inputs.
MAX_DIM = 32

DEFAULT_STEPS = 4096


@dataclass(frozen=True)
class BrownianGrid:
    """Driving Brownian paths of one limit draw, on a uniform grid.

    ``diag_paths[k]`` holds W_k at the M+1 grid times (one path per matrix
    row, starting at 0); ``offdiag_increments[t]`` holds the M increments of
    the Brownian motion attached to strict-lower position ``t`` in
    ``numpy.tril_indices`` order; ``drifted_paths[k]`` caches
    ``Z_k(t) = sqrt(a/2) W_k(t) - ((k+1)/2) a t`` for 0-based row k.
    Arrays are read-only: a grid is immutable once simulated.
    """

    a: float
    steps: int
    times: np.ndarray
    diag_paths: np.ndarray
    offdiag_increments: np.ndarray
    drifted_paths: np.ndarray

    @property
    def dim(self) -> int:
        return self.diag_paths.shape[0]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def drifted_from_diag(a: float, times: np.ndarray, diag_paths: np.ndarray) -> np.ndarray:
    """Recompute the drifted paths Z_k from the plain paths W_k."""
    dim = diag_paths.shape[0]
    drift_rates = (np.arange(1, dim + 1) / 2.0) * a
    return np.sqrt(a / 2.0) * diag_paths - drift_rates[:, None] * times[None, :]


def _grid_from_increments(a: float, diag_incr: np.ndarray, off_incr: np.ndarray) -> BrownianGrid:
    dim, steps = diag_incr.shape
    times = np.arange(steps + 1) / steps
    diag_paths = np.zeros((dim, steps + 1))
    np.cumsum(diag_incr, axis=1, out=diag_paths[:, 1:])
    drifted = drifted_from_diag(a, times, diag_paths)
    return BrownianGrid(
        a=float(a),
        steps=steps,
        times=_freeze(times),
        diag_paths=_freeze(diag_paths),
        offdiag_increments=_freeze(np.ascontiguousarray(off_incr)),
        drifted_paths=_freeze(drifted),
    )


def simulate_paths(a: float, dim: int, steps: int, rng: np.random.Generator) -> BrownianGrid:
    """Simulate all driving paths for one draw.

    Increments are exact Gaussians with variance 1/steps; diagonal-path
    increments are drawn first (one call), then the off-diagonal increments
    (one call), so the stream consumption order is canonical.
    """
    if not 0 <= a < np.inf:
        raise InvalidParameter(f"limit ratio must be finite and >= 0, got {a}")
    if dim < 1:
        raise InvalidParameter(f"dim must be >= 1, got {dim}")
    if steps < 2:
        raise InvalidParameter(f"need at least 2 grid steps, got {steps}")
    root_dt = 1.0 / np.sqrt(steps)
    diag_incr = rng.standard_normal((dim, steps)) * root_dt
    n_off = dim * (dim - 1) // 2
    off_incr = rng.standard_normal((n_off, steps)) * root_dt
    return _grid_from_increments(a, diag_incr, off_incr)


def tril_position(row: int, col: int) -> int:
    """Index of strict-lower entry (row, col) in numpy.tril_indices order."""
    if not 0 <= col < row:
        raise InvalidParameter(f"need 0 <= col < row, got ({row}, {col})")
    return row * (row - 1) // 2 + col


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


def validate_path(path, dim: int) -> tuple:
    path = tuple(int(r) for r in path)
    if len(path) < 2:
        raise InvalidParameter(f"path needs at least two indices, got {path}")
    if path[0] < 0 or path[-1] >= dim:
        raise ShapeMismatch(f"path {path} exceeds dimension {dim}")
    if any(b <= a for a, b in zip(path, path[1:])):
        raise InvalidParameter(f"path must be strictly increasing, got {path}")
    return path


def iterated_integral(grid: BrownianGrid, path) -> float:
    """Discretized iterated Ito integral H(path) on the given grid.

    ``path`` is a strictly increasing tuple of 0-based row indices.  The
    value carries the ``a^(h/2)`` prefactor and the ``exp(Z(1))`` endpoint
    factor, so it is exactly one summand of a below-diagonal limit entry.
    Zero off-diagonal increments (or a = 0) give exactly 0.  Summed over
    :func:`enumerate_paths`, it is the path-by-path reference for
    :func:`vbar_limit_from_grid`.
    """
    path = validate_path(path, grid.dim)
    z = grid.drifted_paths
    hops = len(path) - 1
    suffix = np.ones(grid.steps + 1)
    for j in range(hops, 0, -1):
        lo, hi = path[j - 1], path[j]
        # exp(Z_lo(t_u) - Z_hi(t_u)) at the left endpoints u = 0..M-1
        w = np.exp(z[lo, :-1] - z[hi, :-1])
        dw = grid.offdiag_increments[tril_position(hi, lo)]
        suffix = backend.suffix_mac(w[None], suffix[None, None], dw[None])[0]
    return float(grid.a ** (hops / 2.0) * np.exp(z[path[-1], -1]) * suffix[0])


def vbar_limit_from_grid(grid: BrownianGrid) -> np.ndarray:
    """Assemble the limit matrix from one simulated grid.

    Diagonal entries come from the grid's own endpoint values ``Z_k(1)``
    (not independent redraws), so all entries of one draw share the same
    driving paths.  Below-diagonal entries sum the iterated integrals over
    every admissible path, through the backward program of the module
    docstring: one :func:`backend.suffix_mac` call per intermediate row.
    """
    dim, steps = grid.dim, grid.steps
    z = grid.drifted_paths
    left = z[:, :-1]  # Z at the left endpoints t_0 .. t_{M-1}
    # f[r, k] = F_k^{(r)} on the grid, so f[:, :, 0] is the matrix itself;
    # entries with r < k stay zero.
    f = np.zeros((dim, dim, steps + 1))
    f.reshape(dim * dim, steps + 1)[:: dim + 1] = np.exp(z[:, -1])[:, None]
    root_a = np.sqrt(grid.a)
    for k in range(dim - 2, -1, -1):
        w = left[k] - left[k + 1:]
        np.exp(w, out=w)
        # tril_position(r, k) for r > k, inlined
        dw = grid.offdiag_increments.take(
            [r * (r - 1) // 2 + k for r in range(k + 1, dim)], axis=0
        )
        g = f[k + 1:, k + 1:].swapaxes(0, 1)
        np.multiply(root_a, backend.suffix_mac(w, g, dw), out=f[k + 1:, k])
    # + 0.0 turns the -0.0 that root_a = 0 leaves below the diagonal into 0.0.
    return f[:, :, 0] + 0.0


def sample_vbar_limit(a: float, dim: int, steps: int, rng: np.random.Generator) -> np.ndarray:
    """One draw of the proportional-limit lower-triangular matrix.

    At a = 0 this returns the identity bit-exactly.  ``dim`` is capped at
    ``MAX_DIM=32``: each draw costs O(dim^3 steps) time and O(dim^2 steps)
    memory.
    """
    if dim > MAX_DIM:
        raise InvalidParameter(
            f"dim={dim} exceeds MAX_DIM={MAX_DIM}; "
            "the path-sum program costs O(dim^3 steps) per draw"
        )
    grid = simulate_paths(a, dim, steps, rng)
    return vbar_limit_from_grid(grid)


def vbar_limit_samples(
    a: float,
    dim: int,
    steps: int,
    n_samples: int,
    seed: int,
    phase: int = 0,
    workers: int | None = None,
) -> np.ndarray:
    """Stack of independent limit-matrix draws: (n, dim, dim)."""
    return montecarlo.sample_map(
        lambda rng: sample_vbar_limit(a, dim, steps, rng),
        n_samples,
        seed,
        phase,
        workers,
    )


def prior_limit_samples(
    x,
    a: float,
    dim: int,
    n_in: int,
    lambda_star: float,
    steps: int,
    n_samples: int,
    seed: int,
    phase: int = 0,
    workers: int | None = None,
) -> np.ndarray:
    """Stack of limit-prior output draws: (n, dim, P).

    Each output is ``Vbar_inf @ Z @ x / sqrt(n_in * lambda_star)``: sample
    ``i`` draws its grid and then an independent ``dim x n_in``
    standard-normal ``Z``, and each chunk goes through the output map
    :func:`prior.mixture_outputs` the finite mixture route uses.  At a = 0
    the law is exactly the infinite-width Gaussian.
    """
    if not lambda_star > 0:
        raise InvalidParameter(f"lambda_star must be > 0, got {lambda_star}")
    x = as_matrix(x, "x")
    if x.shape[0] != n_in:
        raise ShapeMismatch(f"x has {x.shape[0]} rows, expected {n_in}")
    return montecarlo.sample_map(
        lambda rng: (sample_vbar_limit(a, dim, steps, rng), rng.standard_normal((dim, n_in))),
        n_samples,
        seed,
        phase,
        workers,
        lambda vbar, z: mixture_outputs(vbar, z, x, lambda_star),
    )


def _coarsened(fine: BrownianGrid, coarse_steps: int) -> BrownianGrid:
    """The same driving paths on ``coarse_steps`` steps, a divisor of ``fine.steps``.

    Each coarse increment sums ``fine.steps // coarse_steps`` consecutive
    fine increments.
    """
    ratio = fine.steps // coarse_steps
    diag_incr = np.diff(fine.diag_paths, axis=1)
    return _grid_from_increments(
        fine.a,
        diag_incr.reshape(fine.dim, coarse_steps, ratio).sum(axis=2),
        fine.offdiag_increments.reshape(-1, coarse_steps, ratio).sum(axis=2),
    )


def vbar_limit_refinement_pair(
    a: float,
    dim: int,
    coarse_steps: int,
    fine_steps: int,
    n_samples: int,
    seed: int,
    phase: int = 0,
    workers: int | None = None,
):
    """Coupled coarse/fine draws sharing the same Brownian paths.

    Each sample simulates increments at the fine resolution, then coarsens
    them (summing groups of ``fine/coarse`` increments) so the coarse draw
    rides the identical path.  The difference between the two isolates the
    discretization error, giving a low-noise fit of the O(M^{-1/2})
    refinement constant.  Returns ``(coarse, fine)`` stacks of shape
    (n, dim, dim).
    """
    if fine_steps % coarse_steps != 0:
        raise InvalidParameter(
            f"fine_steps={fine_steps} must be a multiple of coarse_steps={coarse_steps}"
        )
    if fine_steps // coarse_steps < 2:
        raise InvalidParameter("refinement requires fine_steps > coarse_steps")

    def one(rng: np.random.Generator) -> np.ndarray:
        fine = simulate_paths(a, dim, fine_steps, rng)
        coarse = _coarsened(fine, coarse_steps)
        return np.stack([vbar_limit_from_grid(coarse), vbar_limit_from_grid(fine)])

    both = montecarlo.sample_map(one, n_samples, seed, phase, workers)
    return both[:, 0], both[:, 1]
