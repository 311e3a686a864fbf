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

A draw fills all d(d+1)/2 x M increments with one ``standard_normal``
call, then scales, sums and drifts them, and runs the program, in place
in a :class:`Workspace`: the increments, the paths, the ``(d, d, M+1)``
table and the row scratch of one grid shape, allocated once.  Each
sampler call keeps a pool of workspaces and takes one per draw, so there
is one per worker thread at most, and a draw allocates nothing but the
matrix it returns.  Standalone calls of :func:`simulate_paths` and
:func:`vbar_limit_from_grid` use a fresh workspace each.
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
    Arrays are read-only views of a :class:`Workspace`'s memory, so a grid
    changes with the next draw into the same workspace.
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


def _check_grid(a: float, dim: int, steps: int) -> None:
    """Reject a limit ratio, dimension or grid size no draw accepts."""
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.setflags(write=False)
    return view


class Workspace:
    """Memory of one limit draw at a fixed ``(a, dim, steps)``, reused by the next.

    Holds the Brownian increments (diagonal rows first, then the strict
    lower positions in ``numpy.tril_indices`` order), the plain and the
    drifted paths, the path-sum table ``table[r, k] = F_k^{(r)}`` and the
    row scratch of the program.  ``grid`` is the :class:`BrownianGrid` over
    this memory.  ``fine_steps`` sizes the scratch for coarsening a grid of
    that many steps into this one.  Entries of the table with r < k are
    never written and stay 0.
    """

    def __init__(self, a: float, dim: int, steps: int, fine_steps: int | None = None):
        n_off = dim * (dim - 1) // 2
        self.root_dt = 1.0 / np.sqrt(steps)
        self.root_half_a = np.sqrt(a / 2.0)
        self.root_a = np.sqrt(a)
        self.increments = np.empty((dim + n_off, steps))
        times = np.arange(steps + 1) / steps
        self.drift = ((np.arange(1, dim + 1) / 2.0) * a)[:, None] * times[None, :]
        self.diag_paths = np.zeros((dim, steps + 1))
        self.drifted = np.empty((dim, steps + 1))
        self.fine_diff = None if fine_steps is None else np.empty((dim, fine_steps))
        self.grid = BrownianGrid(
            a=float(a),
            steps=steps,
            times=_read_only(times),
            diag_paths=_read_only(self.diag_paths),
            offdiag_increments=_read_only(self.increments[dim:]),
            drifted_paths=_read_only(self.drifted),
        )
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

    def fill_paths(self) -> BrownianGrid:
        """Sum the increments into the paths and drift them; returns ``grid``."""
        dim = self.diag_paths.shape[0]
        np.cumsum(self.increments[:dim], axis=1, out=self.diag_paths[:, 1:])
        np.multiply(self.root_half_a, self.diag_paths, out=self.drifted)
        np.subtract(self.drifted, self.drift, out=self.drifted)
        return self.grid


def _pooled(make, draw):
    """``draw(rng, workspace)`` as ``draw(rng)``, on workspaces from a pool.

    Each call takes a workspace (``make()`` when the pool is empty) and puts
    it back after the draw, so a pool holds one per draw in flight: one per
    worker thread at most.  ``list.pop`` and ``append`` are atomic, so the
    threads of ``montecarlo.sample_map`` can share the pool.
    """
    pool = []

    def pooled(rng: np.random.Generator):
        try:
            workspace = pool.pop()
        except IndexError:
            workspace = make()
        out = draw(rng, workspace)
        pool.append(workspace)
        return out

    return pooled


def simulate_paths(
    a: float, dim: int, steps: int, rng: np.random.Generator, workspace: Workspace | None = None
) -> BrownianGrid:
    """Simulate all driving paths for one draw.

    Increments are exact Gaussians with variance 1/steps, all drawn by one
    call: the diagonal-path rows first, then the off-diagonal rows, so the
    stream consumption order is canonical.  Without ``workspace`` the
    arguments are checked and a fresh workspace holds the grid; a given
    workspace must have been made for ``(a, dim, steps)``.
    """
    if workspace is None:
        _check_grid(a, dim, steps)
        workspace = Workspace(a, dim, steps)
    rng.standard_normal(out=workspace.increments)
    np.multiply(workspace.increments, workspace.root_dt, out=workspace.increments)
    return workspace.fill_paths()


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
        suffix = backend.suffix_mac((w * dw)[None], suffix[None, None])[0]
    return float(grid.a ** (hops / 2.0) * np.exp(z[path[-1], -1]) * suffix[0])


def vbar_limit_from_grid(grid: BrownianGrid, workspace: Workspace | None = None) -> np.ndarray:
    """Assemble the limit matrix from one simulated grid.

    Diagonal entries come from the grid's own endpoint values ``Z_k(1)``
    (not independent redraws), so all entries of one draw share the same
    driving paths.  Below-diagonal entries sum the iterated integrals over
    every admissible path, through the backward program of the module
    docstring: one :func:`backend.suffix_mac` call per intermediate row,
    computed in ``workspace`` (made for the grid's ``a``, ``dim`` and
    ``steps``; a fresh one when None).  Only the returned matrix is new.
    """
    if workspace is None:
        workspace = Workspace(grid.a, grid.dim, grid.steps)
    z = grid.drifted_paths
    left = z[:, :-1]  # Z at the left endpoints t_0 .. t_{M-1}
    # table[r, k] = F_k^{(r)} on the grid, so table[:, :, 0] is the matrix.
    np.exp(z[:, -1], out=workspace.ends)
    workspace.table_diag[...] = workspace.ends[:, None]
    for k, w, dw, below, g, out in workspace.rows:
        np.subtract(left[k], left[k + 1:], out=w)
        np.exp(w, out=w)
        np.take(grid.offdiag_increments, below, axis=0, out=dw, mode="clip")
        np.multiply(w, dw, out=w)
        backend.suffix_mac(w, g, out)
        np.multiply(workspace.root_a, out, out=out)
    # + 0.0 turns the -0.0 that root_a = 0 leaves below the diagonal into 0.0.
    return workspace.table[:, :, 0] + 0.0


def sample_vbar_limit(
    a: float, dim: int, steps: int, rng: np.random.Generator, workspace: Workspace | None = None
) -> np.ndarray:
    """One draw of the proportional-limit lower-triangular matrix.

    At a = 0 this returns the identity bit-exactly.  ``dim`` is capped at
    ``MAX_DIM=32``: each draw costs O(dim^3 steps) time and O(dim^2 steps)
    memory.  Without ``workspace`` the arguments are checked and the draw
    runs in a fresh workspace; a given one must have been made for
    ``(a, dim, steps)``.
    """
    if workspace is None:
        _check_grid(a, dim, steps)
        workspace = Workspace(a, dim, steps)
    return vbar_limit_from_grid(simulate_paths(a, dim, steps, rng, workspace), workspace)


def _pooled_vbar_draw(a: float, dim: int, steps: int):
    """``sample_vbar_limit`` as a one-argument draw on pooled workspaces."""
    return _pooled(
        lambda: Workspace(a, dim, steps),
        lambda rng, workspace: sample_vbar_limit(a, dim, steps, rng, workspace),
    )


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
    _check_grid(a, dim, steps)
    return montecarlo.sample_map(_pooled_vbar_draw(a, dim, steps), n_samples, seed, phase, workers)


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
    if not 0 < lambda_star < np.inf:
        raise InvalidParameter(f"lambda_star must be finite and > 0, got {lambda_star}")
    x = as_matrix(x, "x")
    if x.shape[0] != n_in:
        raise ShapeMismatch(f"x has {x.shape[0]} rows, expected {n_in}")
    _check_grid(a, dim, steps)
    draw_vbar = _pooled_vbar_draw(a, dim, steps)
    return montecarlo.sample_map(
        lambda rng: (draw_vbar(rng), rng.standard_normal((dim, n_in))),
        n_samples,
        seed,
        phase,
        workers,
        lambda vbar, z: mixture_outputs(vbar, z, x, lambda_star),
    )


def _coarsened(
    fine: BrownianGrid, coarse_steps: int, workspace: Workspace | None = None
) -> BrownianGrid:
    """The same driving paths on ``coarse_steps`` steps, a divisor of ``fine.steps``.

    Each coarse increment sums ``fine.steps // coarse_steps`` consecutive
    fine increments, the diagonal ones recovered from the fine paths.  The
    grid is built in ``workspace``, made for ``coarse_steps`` with
    ``fine_steps=fine.steps`` (a fresh one when None).
    """
    dim, ratio = fine.dim, fine.steps // coarse_steps
    if workspace is None:
        workspace = Workspace(fine.a, dim, coarse_steps, fine.steps)
    diff, incr = workspace.fine_diff, workspace.increments
    np.subtract(fine.diag_paths[:, 1:], fine.diag_paths[:, :-1], out=diff)
    np.sum(diff.reshape(dim, coarse_steps, ratio), axis=2, out=incr[:dim])
    np.sum(fine.offdiag_increments.reshape(-1, coarse_steps, ratio), axis=2, out=incr[dim:])
    return workspace.fill_paths()


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
    _check_grid(a, dim, coarse_steps)
    if fine_steps % coarse_steps != 0:
        raise InvalidParameter(
            f"fine_steps={fine_steps} must be a multiple of coarse_steps={coarse_steps}"
        )
    if fine_steps // coarse_steps < 2:
        raise InvalidParameter("refinement requires fine_steps > coarse_steps")

    def one(rng: np.random.Generator, pair) -> np.ndarray:
        fine_ws, coarse_ws = pair
        fine = simulate_paths(a, dim, fine_steps, rng, fine_ws)
        coarse = _coarsened(fine, coarse_steps, coarse_ws)
        return np.stack(
            [vbar_limit_from_grid(coarse, coarse_ws), vbar_limit_from_grid(fine, fine_ws)]
        )

    def make():
        return Workspace(a, dim, fine_steps), Workspace(a, dim, coarse_steps, fine_steps)

    both = montecarlo.sample_map(_pooled(make, one), n_samples, seed, phase, workers)
    return both[:, 0], both[:, 1]
