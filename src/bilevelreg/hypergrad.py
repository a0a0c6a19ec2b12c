"""Hypergradient engines: implicit (minimizer), unrolled reverse, unrolled forward.

All supported upper losses depend on the hyperparameters only through the
reconstruction, so the explicit theta-partial of the loss is zero and every
engine returns the chain-rule term alone.  Every engine takes a start and
runs its own lower iterations from it, on one signal or on a stacked
problem, ``(S, *grid)``, with one loss per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, SpdViolationError
from .lower import Linearization, LowerProblem
from .solvers import GDConfig, cg_solve, gd_minimize


@dataclass
class UpperLoss:
    """Per-sample loss callbacks: value and gradient w.r.t. the reconstruction."""

    value: Callable[[np.ndarray], float]
    grad_x: Callable[[np.ndarray], np.ndarray]


@dataclass
class HypergradResult:
    """A hypergradient with the lower iterate it was taken at.

    For a stacked run every field holds one entry per sample: ``grad`` and
    ``x_final`` one row each, and ``lower_iters``, ``cg_residual`` (None
    from the unrolled engines, which solve no system) and ``warning`` one
    list entry each.
    """

    grad: np.ndarray
    lower_iters: int | list[int]
    cg_residual: float | list[float] | None = None
    warning: str | list[str | None] | None = None
    x_final: np.ndarray | None = None


def _loss_grad(
    problem: LowerProblem, loss: UpperLoss | Sequence[UpperLoss], x: np.ndarray
) -> np.ndarray:
    """grad_x of the upper loss: of ``loss`` for one signal, and of each
    row's own loss for a stack."""
    if problem.A.grid.is_stack(x):
        return np.stack([f.grad_x(row) for f, row in zip(loss, x, strict=True)])
    return loss.grad_x(x)


def _unrolled_result(
    problem: LowerProblem, grad: np.ndarray, x: np.ndarray, n_steps: int, step: float
) -> HypergradResult:
    """An unrolled engine's result, its ``n_steps`` and a warning when the
    step exceeds 2/L, past which gradient descent on the lower cost need not
    converge, given once per row of a stacked ``x``."""
    lip = problem.lipschitz_grad()
    warning = None
    if step * lip > 2.0:
        warning = (f"unrolled step {step:.3e} exceeds 2/L = {2.0 / lip:.3e}; "
                   "the unrolled iteration may diverge")
    if problem.A.grid.is_stack(x):
        return HypergradResult(grad, [n_steps] * len(x), warning=[warning] * len(x),
                               x_final=x)
    return HypergradResult(grad, n_steps, warning=warning, x_final=x)


def hypergrad_minimizer(
    problem: LowerProblem,
    loss: UpperLoss | Sequence[UpperLoss],
    x0: np.ndarray,
    solver_cfg: GDConfig,
    cg_tol: float,
    cg_max_iters: int | None = None,
) -> HypergradResult:
    """Implicit-differentiation hypergradient at an approximate minimizer.

    Solves the lower problem by ``gd_minimize(problem, x0, solver_cfg)``
    (a budget of 0, ``GDConfig(max_iters=0)``, takes ``x0`` as it is), then
    H(x) q = grad_x loss by CG, and returns -J(x)' q, where H is the
    lower-level Hessian and J the mixed x-theta Jacobian, both at the
    solve's x.  Accuracy degrades with the stationarity gap at x and with a
    CG solve stopped short of ``cg_tol``; ``warning`` names either.  The gap
    is the solve's final gradient norm, judged against the larger of
    ``solver_cfg.grad_tol`` and 1e-4 (1 + ||grad_x loss||).

    CG is preconditioned by the Hessian's diagonal, the zero-offset row of
    its stencil (``Linearization.hess_diagonal``).  A stacked ``x0`` solves
    every row at once, ``loss`` holding one loss per row: one linearization
    of the stack, one CG per row on its row view and that view's diagonal,
    whose failure raises SpdViolationError with that ``row``, and one
    Jacobian-adjoint product on the stacked q.  Each row's entries equal
    its own run's bit for bit.
    """
    run = gd_minimize(problem, x0, solver_cfg)
    lin = Linearization(problem, run.x)
    grad_loss = _loss_grad(problem, loss, run.x)
    stacked = problem.A.grid.is_stack(run.x)
    views = [lin._rows(j) for j in range(len(run.x))] if stacked else [lin]
    rhs = grad_loss if stacked else [grad_loss]
    q, residuals, warnings = [], [], []
    for j, (view, b, gnorm) in enumerate(zip(views, rhs, run.row_grad_norms)):
        try:
            cg = cg_solve(view.hess_vec, b, cg_tol, view.hess_diagonal(), cg_max_iters)
        except SpdViolationError as exc:
            raise SpdViolationError(str(exc), row=j if stacked else None) from exc
        found = []
        if gnorm > max(solver_cfg.grad_tol, 1e-4 * (1.0 + float(np.linalg.norm(b)))):
            found.append(
                f"lower-level gradient norm {gnorm:.3e} is large; "
                "hypergradient may be inaccurate"
            )
        if not cg.residual_norm <= cg_tol:  # a NaN residual fails too
            found.append(
                f"CG stopped after {cg.iters_run} iterations at residual "
                f"{cg.residual_norm:.3e} above its tolerance {cg_tol:.3e}"
            )
        q.append(cg.x)
        residuals.append(cg.residual_norm)
        warnings.append("; ".join(found) or None)

    def per_row(values):  # a list for a stack, its one entry otherwise
        return values if stacked else values[0]

    return HypergradResult(
        grad=-lin.jac_adjoint_apply(np.stack(q) if stacked else q[0]),
        lower_iters=per_row(run.row_iters),
        cg_residual=per_row(residuals),
        warning=per_row(warnings),
        x_final=run.x,
    )


def hypergrad_unrolled_reverse(
    problem: LowerProblem,
    loss: UpperLoss | Sequence[UpperLoss],
    x0: np.ndarray,
    n_steps: int,
    step: float,
) -> HypergradResult:
    """Backpropagation through ``n_steps`` gradient-descent updates.

    Stores the full trajectory (memory O(T N), no checkpointing) and walks
    it backward in blocks of ``span = ceil(T / offsets)`` steps, ``offsets``
    the size of the problem's Hessian stencil box.  Each block is one
    ``Linearization`` of its iterates, a ``(span S, *grid)`` stack whose
    stencil M it assembles once, and each step takes one Hessian-vector and
    one Jacobian-adjoint product from the block's view of its iterate
    (see ``Linearization``); both updates are made in place.  A stacked
    ``x0`` runs every row at once, ``loss`` holding one loss per row; each
    row's gradient equals its own run's bit for bit.  ``warning`` is set
    when ``step`` exceeds 2/L.
    """
    cfg = GDConfig(step=step, max_iters=n_steps, grad_tol=0.0, record_trajectory=True)
    run = gd_minimize(problem, x0, cfg)
    grid = problem.A.grid
    lead = run.x.shape[: run.x.ndim - grid.rank]
    grad = np.zeros(lead + (problem.theta.theta_size(),))
    delta = np.array(_loss_grad(problem, loss, run.x), dtype=np.float64)  # ours to update
    if not n_steps:
        return _unrolled_result(problem, grad, run.x, n_steps, step)
    rows = lead[0] if lead else 1
    span = -(-n_steps // len(problem._stencil_plan()[1]))  # ceil(T / offsets)
    for stop in range(n_steps, 0, -span):
        # iterates start .. stop - 1 as one stack, whose M their views share
        start = max(stop - span, 0)
        block = Linearization(problem, np.reshape(run.trajectory[start:stop], (-1,) + grid.dims))
        block._stencil()  # assembled before its views are taken
        for t in range(stop - start, 0, -1):
            # iterate start + t - 1 is row t - 1 of the block, or rows
            # (t-1)S .. tS-1 of it
            lin = block._rows(slice((t - 1) * rows, t * rows) if lead else t - 1)
            # grad -= step J'delta and delta -= step H delta, into fresh products
            product = lin.jac_adjoint_apply(delta)
            product *= step
            grad -= product
            product = lin.hess_vec(delta)
            product *= step
            delta -= product
    return _unrolled_result(problem, grad, run.x, n_steps, step)


def hypergrad_unrolled_forward(
    problem: LowerProblem,
    loss: UpperLoss | Sequence[UpperLoss],
    x0: np.ndarray,
    n_steps: int,
    step: float,
) -> HypergradResult:
    """Forward-mode accumulation of the unrolled gradient (memory O(N P)).

    Iterates GD while accumulating Z = dx^T/dtheta, with Z[p] the sensitivity
    of the iterate to theta coordinate p, shaped like x (for a stack,
    ``Z[:, j]`` is row j's); Z starts at zero because the initializer does
    not depend on theta.  Takes a stack, and warns of a step above 2/L, as
    ``hypergrad_unrolled_reverse`` does.  Raises DivergenceError naming the
    step at which x or Z stops being finite.  In a stack every row runs to
    the end unless row 0 fails, and the lowest failed row raises with its own
    step and its ``row``, as its own run would have failed.
    """
    n_params = problem.theta.theta_size()
    x = np.array(x0, dtype=np.float64, copy=True)
    stacked = problem.A.grid.is_stack(x)
    rows = len(x) if stacked else 1
    z = np.zeros((n_params,) + x.shape)
    failed: dict[int, int] = {}  # row -> first step at which it is not finite
    for t in range(n_steps):
        lin = Linearization(problem, x)
        cols = lin.jac_columns()
        for p in range(n_params):
            z[p] -= step * (lin.hess_vec(z[p]) + cols[p])
        x -= step * problem.grad_x(x)
        finite = np.isfinite(x) & np.isfinite(z).all(axis=0)
        for r in np.flatnonzero(~finite.reshape(rows, -1).all(axis=1)).tolist():
            failed.setdefault(r, t + 1)
        if 0 in failed:
            break
    if failed:
        row = min(failed)
        raise DivergenceError(
            f"non-finite iterate or sensitivity at unrolled step {failed[row]}",
            iteration=failed[row],
            row=row if stacked else None,
        )
    grad = problem.A.grid.dots(z, _loss_grad(problem, loss, x))
    if stacked:  # (P, S): one row per sample
        grad = np.ascontiguousarray(grad.T)
    return _unrolled_result(problem, grad, x, n_steps, step)


def grad_compare(g_est: np.ndarray, g_ref: np.ndarray) -> tuple[float, float]:
    """(angle in radians, relative norm error) between two theta gradients."""
    ref_norm = float(np.linalg.norm(g_ref))
    est_norm = float(np.linalg.norm(g_est))
    if ref_norm == 0.0:
        raise ValueError("undefined angle: reference gradient is zero")
    if est_norm == 0.0:
        raise ValueError("undefined angle: estimated gradient is zero")
    # the chord between the unit directions resolves angles far below the
    # sqrt(eps) floor of arccos(cosine); it reads 0.0 for equal directions
    chord = float(np.linalg.norm(g_est / est_norm - g_ref / ref_norm))
    angle = 2.0 * float(np.arcsin(min(1.0, chord / 2.0)))
    rel_err = float(np.linalg.norm(g_est - g_ref)) / ref_norm
    return angle, rel_err
