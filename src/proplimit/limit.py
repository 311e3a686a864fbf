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
integral strictly ahead of the outer integration time.  The scheme
converges pathwise at the strong rate O(M^{-1/2}); the bias of moments
(the weak rate) is O(1/M), e.g. ``E[V_10^2]_M = (a/M) sum_{u<M}
exp(-a (1 - u/M))`` against ``1 - exp(-a)`` in the limit.  The c5
criterion still fits its discretization allowance as C * M^{-1/2}, which
overstates an O(1/M) bias.  The grid size M is each sampler's ``steps``
argument; the CLI fills it in, 4096 by default, when a config sets none.

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

A draw fills all d(d+1)/2 x M increments with one ``standard_normal``
call, then scales, sums and drifts them, and runs the program, in place
in a :class:`Grid`: the increments, the paths, the ``(d, d, M+1)`` table
and the row scratch of one grid shape, reused by the next draw.  The
samplers run on :func:`montecarlo.sample_map`: a block makes one grid and
draws its samples one at a time, in sample order, from its one stream, so
a draw allocates nothing but the matrix it returns.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from . import backend, montecarlo, prior
from .errors import InvalidParameter, ShapeMismatch

# The path-sum program costs O(dim^3 M) per draw; refuse silly inputs.
MAX_DIM = 32


def check_grid(a: float, dim: int, steps: int) -> tuple[float, int, int]:
    """Reject a limit ratio, dimension or grid size no draw accepts.

    Returns ``(a, dim, steps)`` as a float and ints (``montecarlo.real``,
    ``montecarlo.whole``).
    """
    a = montecarlo.real(a, "limit ratio")
    dim, steps = montecarlo.whole(dim, "dim"), montecarlo.whole(steps, "steps")
    if not 0 <= a < np.inf:
        raise InvalidParameter(f"limit ratio must be finite and >= 0, got {a}")
    if dim < 1:
        raise InvalidParameter(f"dim must be >= 1, got {dim}")
    if dim > MAX_DIM:
        raise InvalidParameter(
            f"dim={dim} exceeds MAX_DIM={MAX_DIM}; "
            "the path-sum program costs O(dim^3 steps) per draw"
        )
    if steps < 2:
        raise InvalidParameter(f"need at least 2 grid steps, got {steps}")
    return a, dim, steps


class Grid:
    """Driving Brownian paths of one limit draw on a uniform grid, and its memory.

    ``increments`` holds the M Brownian increments of each diagonal path
    (one per matrix row) followed by those of each strict-lower position
    in ``numpy.tril_indices`` order; ``offdiag_increments`` is a view of
    the latter.  ``diag_paths[k]`` holds W_k at the M+1 grid ``times``
    (starting at 0) and ``drifted_paths[k]`` holds
    ``Z_k(t) = sqrt(a/2) W_k(t) - ((k+1)/2) a t`` for 0-based row k.  The
    path-sum table ``table[r, k] = F_k^{(r)}`` and the row scratch of the
    program complete the memory a draw needs; entries of the table with
    r < k are never written and stay 0.  The next draw into the same grid
    overwrites all of it.
    """

    def __init__(self, a: float, dim: int, steps: int):
        a, dim, steps = check_grid(a, dim, steps)
        self.a, self.dim, self.steps = a, dim, steps
        n_off = dim * (dim - 1) // 2
        self.root_dt = 1.0 / np.sqrt(steps)
        self.root_half_a = np.sqrt(a / 2.0)
        self.root_a = np.sqrt(a)
        self.increments = np.empty((dim + n_off, steps))
        self.offdiag_increments = self.increments[dim:]
        self.times = np.arange(steps + 1) / steps
        self.drift = ((np.arange(1, dim + 1) / 2.0) * a)[:, None] * self.times[None, :]
        self.diag_paths = np.zeros((dim, steps + 1))
        self.drifted_paths = np.empty((dim, steps + 1))
        self.table = np.zeros((dim, dim, steps + 1))
        self.table_diag = self.table.reshape(dim * dim, steps + 1)[:: dim + 1]
        self.ends = np.empty(dim)
        weights = np.empty((dim - 1, steps))
        pair_dw = np.empty((dim - 1, steps))
        # Per intermediate row k, last first: the row's scratch, the
        # positions of its increments (r, k), r > k, its inner suffixes
        # table[k+1:, k+1:] as (k', r) pairs, and its output table[k+1:, k].
        self.rows = [
            (
                k,
                weights[: dim - k - 1],
                pair_dw[: dim - k - 1],
                np.array([tril_position(r, k) for r in range(k + 1, dim)]),
                self.table[k + 1:, k + 1:].swapaxes(0, 1),
                self.table[k + 1:, k],
            )
            for k in range(dim - 2, -1, -1)
        ]

    def fill_paths(self) -> Grid:
        """Sum the diagonal increments into the paths and drift them."""
        np.cumsum(self.increments[: self.dim], axis=1, out=self.diag_paths[:, 1:])
        np.multiply(self.root_half_a, self.diag_paths, out=self.drifted_paths)
        np.subtract(self.drifted_paths, self.drift, out=self.drifted_paths)
        return self


def simulate_paths(rng: np.random.Generator, grid: Grid) -> Grid:
    """Simulate all driving paths of one draw into ``grid``; returns ``grid``.

    Increments are exact Gaussians with variance 1/steps, all drawn by one
    call: the diagonal-path rows first, then the off-diagonal rows, so the
    stream consumption order is canonical.
    """
    rng.standard_normal(out=grid.increments)
    np.multiply(grid.increments, grid.root_dt, out=grid.increments)
    return grid.fill_paths()


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


def iterated_integral(grid: Grid, path) -> float:
    """Discretized iterated Ito integral H(path) on the given grid.

    ``path`` is a strictly increasing tuple of 0-based row indices.  The
    value carries the ``a^(h/2)`` prefactor and the ``exp(Z(1))`` endpoint
    factor, so it is exactly one summand of a below-diagonal limit entry.
    Zero off-diagonal increments (or a = 0) give exactly 0.  Summed over
    :func:`enumerate_paths`, it is the path-by-path reference for
    :func:`vbar_limit_from_grid`, so it forms its suffix sums itself (a
    reversed cumulative sum per hop) rather than through the
    :func:`backend.suffix_mac` kernel it checks.
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
        suffix = np.append(np.cumsum((w * dw * suffix[1:])[::-1])[::-1], 0.0)
    return float(grid.a ** (hops / 2.0) * np.exp(z[path[-1], -1]) * suffix[0])


def vbar_limit_from_grid(grid: Grid) -> np.ndarray:
    """Assemble the limit matrix from one simulated grid.

    Diagonal entries come from the grid's own endpoint values ``Z_k(1)``
    (not independent redraws), so all entries of one draw share the same
    driving paths.  Below-diagonal entries sum the iterated integrals over
    every admissible path, through the backward program of the module
    docstring: one :func:`backend.suffix_mac` call per intermediate row,
    computed in the grid's own table.  Only the returned matrix is new.
    """
    z = grid.drifted_paths
    left = z[:, :-1]  # Z at the left endpoints t_0 .. t_{M-1}
    # table[r, k] = F_k^{(r)} on the grid, so table[:, :, 0] is the matrix.
    np.exp(z[:, -1], out=grid.ends)
    grid.table_diag[...] = grid.ends[:, None]
    for k, w, dw, below, g, out in grid.rows:
        np.subtract(left[k], left[k + 1:], out=w)
        np.exp(w, out=w)
        np.take(grid.offdiag_increments, below, axis=0, out=dw, mode="clip")
        np.multiply(w, dw, out=w)
        backend.suffix_mac(w, g, out)
        np.multiply(grid.root_a, out, out=out)
    # + 0.0 turns the -0.0 that root_a = 0 leaves below the diagonal into 0.0.
    return grid.table[:, :, 0] + 0.0


def _vbar_block(a: float, dim: int, steps: int, streams, m: int) -> np.ndarray:
    """A block's ``m`` limit draws, one at a time from its stream, in one grid."""
    rng, grid = streams(0), Grid(a, dim, steps)
    return np.stack([vbar_limit_from_grid(simulate_paths(rng, grid)) for _ in range(m)])


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
    a, dim, steps = check_grid(a, dim, steps)
    return montecarlo.sample_map(
        lambda streams, m: _vbar_block(a, dim, steps, streams, m),
        n_samples, seed, phase, workers,
    )


def prior_limit_samples(
    x,
    a: float,
    dim: int,
    lambda_star: float,
    steps: int,
    n_samples: int,
    seed: int,
    phase: int = 0,
    workers: int | None = None,
) -> np.ndarray:
    """Stack of limit-prior output draws: (n, dim, P).

    Each output is ``Vbar_inf @ Z @ x / sqrt(n_in * lambda_star)``, with
    ``n_in`` the rows of ``x``, drawn by :func:`prior.mixture_samples`
    with the limit matrices of :func:`vbar_limit_samples` at this phase.
    At a = 0 the law is exactly the infinite-width Gaussian.
    """
    a, dim, steps = check_grid(a, dim, steps)
    return prior.mixture_samples(
        lambda streams, m: _vbar_block(a, dim, steps, streams, m),
        x, lambda_star, n_samples, seed, phase, workers,
    )


def _coarsened(fine: Grid, coarse: Grid) -> Grid:
    """The paths of ``fine`` on the fewer steps of ``coarse``; returns ``coarse``.

    Each coarse increment sums ``fine.steps // coarse.steps`` consecutive
    fine increments, all d(d+1)/2 rows at once.
    """
    ratio = fine.steps // coarse.steps
    groups = fine.increments.reshape(len(fine.increments), coarse.steps, ratio)
    np.sum(groups, axis=2, out=coarse.increments)
    return coarse.fill_paths()


def check_refinement(
    a: float, dim: int, coarse_steps: int, fine_steps: int
) -> tuple[float, int, int, int]:
    """Reject a coupled coarse/fine grid pair no refinement draw accepts.

    Returns ``(a, dim, coarse_steps, fine_steps)`` as a float and ints.
    """
    a, dim, coarse_steps = check_grid(a, dim, coarse_steps)
    fine_steps = montecarlo.whole(fine_steps, "fine_steps")
    if fine_steps % coarse_steps != 0:
        raise InvalidParameter(
            f"fine_steps={fine_steps} must be a multiple of coarse_steps={coarse_steps}"
        )
    if fine_steps // coarse_steps < 2:
        raise InvalidParameter("refinement requires fine_steps > coarse_steps")
    return a, dim, coarse_steps, fine_steps


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
    discretization error; c5 fits its refinement constant C * M^{-1/2}
    from it.  A block draws its samples one at a time from its stream in
    one pair of grids.  Returns ``(coarse, fine)`` stacks of shape
    (n, dim, dim).
    """
    a, dim, coarse_steps, fine_steps = check_refinement(a, dim, coarse_steps, fine_steps)

    def draw_block(streams, m: int) -> np.ndarray:
        rng = streams(0)
        fine, coarse = Grid(a, dim, fine_steps), Grid(a, dim, coarse_steps)
        both = np.empty((m, 2, dim, dim))
        for j in range(m):
            simulate_paths(rng, fine)
            both[j, 0] = vbar_limit_from_grid(_coarsened(fine, coarse))
            both[j, 1] = vbar_limit_from_grid(fine)
        return both

    both = montecarlo.sample_map(draw_block, n_samples, seed, phase, workers)
    return both[:, 0], both[:, 1]
