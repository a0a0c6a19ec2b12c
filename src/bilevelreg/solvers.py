"""Lower-level gradient descent and a matrix-free conjugate-gradient solver."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, SpdViolationError
from .lower import LowerProblem


@dataclass
class GDConfig:
    """Gradient-descent settings for the reconstruction problem.

    ``step`` is either an explicit positive number or "one-over-L" to use the
    reciprocal of the analytic Lipschitz constant.  ``grad_tol`` of 0 disables
    the gradient-norm stop.  "one-over-L" with ``grad_tol > 0`` solves with
    restarted optimized-gradient (OGM) steps in the metric of the Hessian's
    circulant majorizer (see ``gd_minimize``); every other setting takes
    plain GD steps.  ``warm_start`` is consumed by the
    upper-level drivers (reuse of the previous sample solution as the
    initializer).
    """

    step: float | str = "one-over-L"
    max_iters: int = 1000
    grad_tol: float = 0.0
    record_trajectory: bool = False
    warm_start: bool = False

    def __post_init__(self):
        if isinstance(self.step, str):
            if self.step != "one-over-L":
                raise ValueError(f"unknown step rule {self.step!r}")
        elif not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be >= 0")


@functools.cache
def _ogm_factors(n: int) -> np.ndarray:
    """OGM's momentum factors of a row ``k`` steps after its restart, for
    ``k < n``: ``(t_{k-1} - 1) / t_k`` in row 0 and ``t_{k-1} / t_k`` in row
    1 of a read-only ``(2, n)`` table, with ``t_0 = 1`` and
    ``t_k = (1 + sqrt(1 + 4 t_{k-1}^2)) / 2``; both are 0 at ``k = 0``, the
    restart itself."""
    t = [1.0]
    for _ in range(n - 1):
        t.append((1.0 + math.sqrt(1.0 + 4.0 * t[-1] * t[-1])) / 2.0)
    t = np.array(t)
    table = np.zeros((2, n))
    table[0, 1:] = (t[:-1] - 1.0) / t[1:]
    table[1, 1:] = t[:-1] / t[1:]
    table.flags.writeable = False
    return table


@dataclass
class GDResult:
    """A lower solve's iterate, loop count and final gradient norms.

    For a stacked problem ``x`` holds one row per sample, ``iters_run``
    counts the loop's iterations (those of its slowest row), ``row_iters``
    each row's own count, ``row_grad_norms`` each row's final gradient norm
    at its row of ``x`` and ``final_grad_norm`` the largest of them.  One
    signal has one entry in each list.
    """

    x: np.ndarray
    iters_run: int
    row_iters: list[int]
    row_grad_norms: list[float]
    final_grad_norm: float
    trajectory: list[np.ndarray] | None = None


def gd_minimize(problem: LowerProblem, x0: np.ndarray, cfg: GDConfig) -> GDResult:
    """Gradient descent, stopping at grad_tol or max_iters.

    With step "one-over-L" and ``grad_tol > 0`` only the point reached
    matters, so the loop takes restarted optimized-gradient steps (OGM, Kim
    and Fessler, arXiv 1406.5468) in the metric of ``P``, the problem's
    circulant majorizer of the Hessian (``LowerProblem.majorizer``), half
    the worst-case bound of Nesterov's at the same cost.  Per row, from the
    gradient point y and the last plain step x, with ``g = g(y)`` and
    ``d = P+ g`` (``Grid.fourier_multiply``; ``P+`` is 1/P, and 0 where P
    is 0, a frequency at which the Hessian and the gradient vanish too):
    ``x+ = y - d``, ``t+ = (1 + sqrt(1 + 4 t^2)) / 2`` and
    ``y+ = x+ + ((t - 1) / t+)(x+ - x) - (t / t+) d``.  As ``P >= H``,
    each ``x+`` is a majorize-minimize step.  The row restarts (both
    factors 0, then ``t = 1``) when ``<g, x+ - x> > 0`` (O'Donoghue and
    Candes, arXiv 1204.3982) or when ``<d, g_prev> < 0``, its gradient
    having turned against the previous one in P's metric.  Without the
    second test the ``(t / t+)`` term overshoots a problem whose P is its
    exact curvature, and the row then closes in only like ``1/t``.
    Every other solve takes plain steps ``x -= s g(x)``, ``s`` the step or
    ``1/L``: a fixed budget (``grad_tol == 0``), whose steps the unrolled
    engines differentiate and BA's inner budget counts, and an explicit
    step, for which momentum can diverge at a step in (1/L, 2/L) that plain
    GD survives.  Either way the loop takes one gradient per iteration plus
    the final one, stops at a gradient point and returns it; ``trajectory``
    records the gradient points.

    An ``x0`` stacked on the problem's grid, ``(S, *grid)``, is solved for
    all its rows in one loop; each row steps by its own ``1 / L`` or ``P``
    when the problem gives each row its own b0.  Each row stops on its own
    gradient norm, the same ``sqrt(dot)`` ``np.linalg.norm`` takes, and the
    loop goes on with the live rows only, so every row takes exactly the
    steps of its own unstacked solve.  One signal on the grid runs as one
    row.  A row whose gradient is not finite stops too; after the loop the
    lowest such row raises DivergenceError with its iteration (and ``row``
    when stacked).  The step is built at the loop's first step, for the
    rows live then, so a zero budget computes no spectrum.
    """
    grid = problem.A.grid
    momentum = cfg.step == "one-over-L" and cfg.grad_tol > 0
    step = None if cfg.step == "one-over-L" else float(cfg.step)
    out = np.array(x0, dtype=np.float64, copy=True)
    stacked = grid.is_stack(out)
    rows = len(out) if stacked else 1
    tol = cfg.grad_tol if cfg.grad_tol > 0 else -math.inf
    trajectory = [out.copy()] if cfg.record_trajectory else None
    # the live rows, and the index in ``out`` of each; ``x`` is ``out``
    # itself until the first row stops
    x, idx = out, np.arange(rows)
    if momentum:  # per row, flat: its last plain step and gradient, and
        # its steps since a restart, which index OGM's factors
        x_prev = out.reshape(rows, -1).copy()
        g_prev = np.zeros_like(x_prev)
        k, factors = np.zeros(rows, np.intp), _ogm_factors(64)
    final = [0.0] * rows
    row_iters = [0] * rows
    diverged = []  # (row, iteration) of each row with a non-finite gradient
    iters = 0
    while True:
        grad = problem.grad_x(x)
        g = grad.reshape(len(idx), -1)
        squares = np.vecdot(g, g)
        # before a fixed budget ends only a non-finite gradient stops a row,
        # and then the sum of the squared norms is not finite either
        if iters < cfg.max_iters and tol == -math.inf and sum(squares.tolist()) < math.inf:
            stop = None
        else:
            norms = np.sqrt(squares).tolist()
            stop = list(range(len(idx))) if iters >= cfg.max_iters else [
                p for p, n in enumerate(norms) if not tol < n < math.inf
            ]
        if stop:
            for p in stop:
                r = int(idx[p])
                final[r] = norms[p]
                row_iters[r] = iters
                if not math.isfinite(norms[p]):
                    diverged.append((r, iters))
            if x is not out:
                out[idx[stop]] = x[stop]
            keep = [p for p in range(len(idx)) if p not in stop]
            # rows above the lowest diverged one cannot change the outcome
            if not keep or (diverged and idx[keep[0]] > min(diverged)[0]):
                break
            x, grad, idx = x[keep], grad[keep], idx[keep]
            if momentum:
                x_prev, g_prev, k = x_prev[keep], g_prev[keep], k[keep]
            if np.ndim(step) > grid.rank:  # one step per row
                step = step[keep]
            problem = problem._rows(keep)
        if step is None:  # built at the first step, for the live rows
            if momentum:  # P+, the pseudo-inverse of the majorizer's symbol
                symbol = problem.majorizer()
                step = np.divide(1.0, symbol, out=np.zeros(np.shape(symbol)),
                                 where=symbol > 0.0)
            else:
                step = grid.per_row(1.0 / problem.lipschitz_grad())
        if momentum:
            g, y = grad.reshape(len(idx), -1), x.reshape(len(idx), -1)
            d = grid.fourier_multiply(grad, step).reshape(len(idx), -1)
            x_next = y - d
            dx = np.subtract(x_next, x_prev, out=x_prev)
            restart = (np.vecdot(g, dx) > 0.0) | (np.vecdot(d, g_prev) < 0.0)
            k += 1
            k[restart] = 0
            if iters + 1 >= factors.shape[1]:  # k <= iters + 1
                factors = _ogm_factors(2 * factors.shape[1])
            a, b = factors[:, k, None]
            # y+ = x+ + a (x+ - x) - b d, written into the live rows of x
            np.add(x_next, np.multiply(a, dx, out=dx), out=y)
            np.subtract(y, np.multiply(b, d, out=d), out=y)
            x_prev, g_prev = x_next, g
        else:
            grad *= step
            x -= grad
        iters += 1
        if trajectory is not None:
            if x is not out:
                out[idx] = x
            trajectory.append(out.copy())
    if diverged:
        row, iteration = min(diverged)
        raise DivergenceError(
            f"non-finite cost/gradient at lower-level iteration {iteration}",
            iteration=iteration,
            row=row if stacked else None,
        )
    return GDResult(
        x=out, iters_run=iters, row_iters=row_iters, row_grad_norms=final,
        final_grad_norm=max(final), trajectory=trajectory,
    )


@dataclass
class CGResult:
    x: np.ndarray
    iters_run: int
    residual_norm: float


def cg_solve(
    hess_action: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float,
    diagonal: np.ndarray,
    max_iters: int | None = None,
) -> CGResult:
    """Jacobi-preconditioned conjugate gradients for SPD systems, from a
    zero initializer.

    ``diagonal``, shaped like ``b``, is the system's diagonal (or any
    positive scaling): each residual r is preconditioned to z = r / diagonal
    (Saad, Iterative Methods for Sparse Linear Systems, 10.2), with an entry
    that is not positive or not finite left unscaled.  Ones give plain CG.
    Stops when the unpreconditioned residual ||H q - b|| <= tol; otherwise
    returns the max_iters iterate (by default 10 times the size of b) with
    which residual it reached.  Raises SpdViolationError, naming the CG
    iteration, on a direction whose curvature p'Hp is not positive, NaN
    included.  CG writes only into arrays of its own: ``hess_action`` may
    return its argument, a direction CG updates in place after the product.
    """
    if max_iters is None:
        max_iters = 10 * b.size
    x = np.zeros_like(b)
    r = b.copy()
    rnorm = float(np.linalg.norm(r))
    if rnorm <= tol:
        return CGResult(x=x, iters_run=0, residual_norm=rnorm)
    scale = np.where((diagonal > 0.0) & (diagonal < math.inf), diagonal, 1.0)
    z = r / scale
    p = z.copy()
    rz = float(np.vdot(r, z))
    step = np.empty_like(b)  # alpha p, then alpha Hp
    iters = 0
    while iters < max_iters:
        hp = hess_action(p)
        php = float(np.vdot(p, hp))
        if not php > 0.0:  # a NaN curvature fails too
            raise SpdViolationError(
                f"non-positive curvature p'Hp = {php:.3e} at CG iteration {iters}"
            )
        alpha = rz / php
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, hp, out=step)
        iters += 1
        rnorm = float(np.sqrt(np.vdot(r, r)))
        if rnorm <= tol:
            break
        np.divide(r, scale, out=z)
        rz_new = float(np.vdot(r, z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    return CGResult(x=x, iters_run=iters, residual_norm=rnorm)
