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

The samplers run on :func:`montecarlo.sample_map`, and a block makes one
:class:`Grid`: the increments, paths, integrand coefficients and endpoint
factors of a sub-batch of draws, and the ``(d, d, M+1)`` table of one
draw.  :func:`block_draws` simulates a sub-batch with one
:func:`simulate_paths` call: one ``standard_normal`` call fills the
d(d+1)/2 x M increments of each of its draws, in sample order from the
block's one stream, and :meth:`Grid.fill_paths` sums and drifts them and
computes every draw's coefficients ``exp(Z_k(t_u) - Z_k'(t_u))
dW^{(k',k)}_u`` and ``exp(Z(1))`` with a few calls per (k', k) pair for
the whole sub-batch.  The program then runs once per draw, named by its
index in the sub-batch, in place: the suffix recursion on that draw's
slice of the coefficients.  A sub-batch holds as many draws as fit
``PATH_BATCH_BYTES``: a whole block of 64 at dim 2 and 16 steps, one
draw at dim 6 and 4096 steps.  Past the grid, a block allocates only the
matrices it returns.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from . import backend, montecarlo, prior
from .errors import InvalidParameter, ShapeMismatch

# The path-sum program costs O(dim^3 M) per draw; refuse silly inputs.
MAX_DIM = 32
# Bytes of increments, paths and coefficients a block holds at a time:
# draws go in sub-batches of as many as fit (one draw at least), which
# leaves their values unchanged, as ``prior.DIRECT_BATCH_VALUES`` bounds
# the direct route.
PATH_BATCH_BYTES = 1 << 18


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


def batch_size(dim: int, steps: int, m: int) -> int:
    """Draws per sub-batch of an ``m``-draw block on a ``dim`` x ``steps`` grid.

    As many as keep everything a sub-batch holds within ``PATH_BATCH_BYTES``
    (its increments, paths, integrand coefficients, endpoint factors and
    the one gather row of :meth:`Grid.fill_paths`), at least 1 and at most
    ``m``.
    """
    n_off = dim * (dim - 1) // 2
    words = (dim + 2 * n_off + 1) * steps + dim * (steps + 1) + dim
    return max(1, min(m, PATH_BATCH_BYTES // (8 * words)))


class Grid:
    """Driving Brownian paths of a sub-batch of limit draws on a uniform grid.

    Every array holds the whole sub-batch; a caller names the draw it
    reads.  ``increments[j]`` holds the M Brownian increments of draw j:
    one row per diagonal path (one per matrix row), then one per
    strict-lower position in ``numpy.tril_indices`` order.
    ``paths[j, k]`` holds ``Z_k(t) = sqrt(a/2) W_k(t) - ((k+1)/2) a t``
    for 0-based row k at the M+1 grid times (starting at 0).
    ``coefficients[:, j]`` holds the path-sum program's integrand
    coefficients of draw j, ``exp(Z_k(t_u) - Z_r(t_u)) dW^{(r,k)}_u`` for
    u < M, one row per strict-lower position (r, k) in the program's row
    order (k last first, then r ascending), so that row k's pairs form one
    slice; ``ends[j]`` holds its endpoint factors ``exp(Z(1))``.

    :meth:`fill_paths` derives the paths, coefficients and endpoint factors
    from the increments; code that edits increments calls it again before
    the program reads the grid.  The path-sum table ``table[r, k] =
    F_k^{(r)}`` serves one draw at a time; entries with r < k are never
    written and stay 0.  The next sub-batch into the same grid overwrites
    its arrays and the table.  A grid made without ``batch`` holds one draw.
    """

    def __init__(self, a: float, dim: int, steps: int, batch: int = 1):
        a, dim, steps = check_grid(a, dim, steps)
        self.a, self.dim, self.steps, self.batch = a, dim, steps, batch
        n_off = dim * (dim - 1) // 2
        self.root_dt = 1.0 / np.sqrt(steps)
        self.root_half_a = np.sqrt(a / 2.0)
        self.root_a = np.sqrt(a)
        self.increments = np.empty((batch, dim + n_off, steps))
        self.paths = np.zeros((batch, dim, steps + 1))  # column 0 stays 0
        self.coefficients = np.empty((n_off, batch, steps))
        self.ends = np.empty((batch, dim))
        self.gather = np.empty((batch, steps))
        times = np.arange(steps + 1) / steps
        self.drift = ((np.arange(1, dim + 1) / 2.0) * a)[:, None] * times[None, :]
        self.table = np.zeros((dim, dim, steps + 1))
        self.table_diag = self.table.reshape(dim * dim, steps + 1)[:: dim + 1]
        # The program's (r, k) pairs in coefficient row order, with their
        # increment rows.  Per intermediate row k = dim - 1 - n, last first:
        # its n coefficient rows, its inner suffixes table[k+1:, k+1:] as
        # (k', r) pairs, and its output table[k+1:, k].
        self.pairs = [(r, k, dim + tril_position(r, k))
                      for k in range(dim - 2, -1, -1) for r in range(k + 1, dim)]
        self.rows = [
            (
                slice(n * (n - 1) // 2, n * (n + 1) // 2),
                self.table[dim - n:, dim - n:].swapaxes(0, 1),
                self.table[dim - n:, dim - n - 1],
            )
            for n in range(1, dim)
        ]

    def fill_paths(self, count: int) -> Grid:
        """Derive the paths, coefficients and endpoint factors of the first
        ``count`` draws from their increments; returns the grid.

        Every ufunc here reads and writes same-shape contiguous operands (a
        row across the sub-batch is first copied into ``gather``): numpy
        buffers a broadcast or strided multi-dimensional operand in a
        scratch of up to 64 KiB per operand.
        """
        paths = self.paths[:count]
        np.cumsum(self.increments[:count, : self.dim], axis=2, out=paths[:, :, 1:])
        np.multiply(self.root_half_a, paths, out=paths)
        for z in paths:
            np.subtract(z, self.drift, out=z)
        left, gather = paths[:, :, :-1], self.gather[:count]
        for c, (r, k, row) in zip(self.coefficients[:, :count], self.pairs):
            np.copyto(c, left[:, k])
            np.copyto(gather, left[:, r])
            np.subtract(c, gather, out=c)
            np.exp(c, out=c)
            np.copyto(gather, self.increments[:count, row])
            np.multiply(c, gather, out=c)
        ends = self.ends[:count]
        np.copyto(ends, paths[:, :, -1])
        np.exp(ends, out=ends)
        return self


def simulate_paths(rng: np.random.Generator, grid: Grid, count: int | None = None) -> Grid:
    """Simulate the driving paths of ``count`` draws into ``grid``; returns ``grid``.

    The first ``count`` draws of the sub-batch, all of it by default.
    Increments are exact Gaussians with variance 1/steps, all drawn by one
    call: draw after draw, each draw's diagonal-path rows first, then its
    off-diagonal rows, so the stream consumption order is canonical and
    the same as ``count`` one-draw calls.
    """
    increments = grid.increments[:count]
    rng.standard_normal(out=increments)
    np.multiply(increments, grid.root_dt, out=increments)
    return grid.fill_paths(len(increments))


def block_draws(rng: np.random.Generator, m: int, grid: Grid, coarse: Grid | None = None):
    """Simulate ``m`` draws from ``rng`` into ``grid``, one sub-batch per
    :func:`simulate_paths` call, in sample order.

    Yields ``(i, j)`` per draw: its index in the block and in the grid's
    current sub-batch.  With a ``coarse`` grid of the same batch, each
    sub-batch is also coarsened into it (:func:`_coarsened`), at the same ``j``.
    """
    for start in range(0, m, grid.batch):
        count = min(grid.batch, m - start)
        simulate_paths(rng, grid, count)
        if coarse is not None:
            _coarsened(grid, coarse, count)
        for j in range(count):
            yield start + j, j


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


def iterated_integral(grid: Grid, path, draw: int = 0) -> float:
    """Discretized iterated Ito integral H(path) of the grid's draw ``draw``.

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
    z, increments = grid.paths[draw], grid.increments[draw]
    hops = len(path) - 1
    suffix = np.ones(grid.steps + 1)
    for j in range(hops, 0, -1):
        lo, hi = path[j - 1], path[j]
        # exp(Z_lo(t_u) - Z_hi(t_u)) at the left endpoints u = 0..M-1
        w = np.exp(z[lo, :-1] - z[hi, :-1])
        dw = increments[grid.dim + tril_position(hi, lo)]
        suffix = np.append(np.cumsum((w * dw * suffix[1:])[::-1])[::-1], 0.0)
    return float(grid.a ** (hops / 2.0) * np.exp(z[path[-1], -1]) * suffix[0])


def vbar_limit_from_grid(grid: Grid, draw: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Assemble the limit matrix of the grid's draw ``draw``.

    Diagonal entries are the grid's own endpoint factors ``exp(Z_k(1))``
    (not independent redraws), so all entries of one draw share the same
    driving paths.  Below-diagonal entries sum the iterated integrals over
    every admissible path, through the backward program of the module
    docstring: one :func:`backend.suffix_mac` call per intermediate row on
    that row's slice of the coefficients :meth:`Grid.fill_paths` stored,
    computed in the grid's own table.  The matrix is written to ``out``
    when given, else returned new.
    """
    # table[r, k] = F_k^{(r)} on the grid, so table[:, :, 0] is the matrix.
    grid.table_diag[...] = grid.ends[draw, :, None]
    coefficients = grid.coefficients[:, draw]
    for pairs, g, column in grid.rows:
        backend.suffix_mac(coefficients[pairs], g, column)
        np.multiply(grid.root_a, column, out=column)
    # + 0.0 turns the -0.0 that root_a = 0 leaves below the diagonal into 0.0.
    return np.add(grid.table[:, :, 0], 0.0, out=out)


def _vbar_block(a: float, dim: int, steps: int, streams, m: int) -> np.ndarray:
    """A block's ``m`` limit draws from its stream, in one grid: (m, dim, dim)."""
    grid, out = Grid(a, dim, steps, batch_size(dim, steps, m)), np.empty((m, dim, dim))
    for i, j in block_draws(streams(0), m, grid):
        vbar_limit_from_grid(grid, j, out[i])
    return out


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


def _coarsened(fine: Grid, coarse: Grid, count: int | None = None) -> Grid:
    """The paths of ``fine`` on the fewer steps of ``coarse``; returns ``coarse``.

    The first ``count`` draws of the sub-batch, all of it by default.  Each
    coarse increment sums ``fine.steps // coarse.steps`` consecutive fine
    increments, all rows of all draws at once.
    """
    ratio = fine.steps // coarse.steps
    increments = fine.increments[:count]
    groups = increments.reshape(len(increments), -1, coarse.steps, ratio)
    np.sum(groups, axis=3, out=coarse.increments[: len(increments)])
    return coarse.fill_paths(len(increments))


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
    from it.  A block draws its samples from its stream in one pair of
    grids, a sub-batch sized by the fine grid at a time.  Returns
    ``(coarse, fine)`` stacks of shape (n, dim, dim).
    """
    a, dim, coarse_steps, fine_steps = check_refinement(a, dim, coarse_steps, fine_steps)

    def draw_block(streams, m: int) -> np.ndarray:
        batch = batch_size(dim, fine_steps, m)
        fine, coarse = Grid(a, dim, fine_steps, batch), Grid(a, dim, coarse_steps, batch)
        both = np.empty((m, 2, dim, dim))
        for i, j in block_draws(streams(0), m, fine, coarse):
            vbar_limit_from_grid(coarse, j, both[i, 0])
            vbar_limit_from_grid(fine, j, both[i, 1])
        return both

    both = montecarlo.sample_map(draw_block, n_samples, seed, phase, workers)
    return both[:, 0], both[:, 1]
