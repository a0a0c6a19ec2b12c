"""Hypergradient engines: implicit (minimizer), unrolled reverse, unrolled forward.

All supported upper losses depend on the hyperparameters only through the
reconstruction, so the explicit theta-partial of the loss is zero and every
engine returns the chain-rule term alone.  The unrolled engines also run a
stacked problem, ``(S, *grid)``, with one loss per row; the minimizer engine
takes one signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError
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

    For a stacked run, ``grad`` and ``x_final`` hold one row per sample and
    ``lower_iters`` counts the loop's steps, which every row takes.
    """

    grad: np.ndarray
    lower_iters: int
    cg_residual: float | None = None
    warning: str | None = None
    x_final: np.ndarray | None = None


def _loss_grad(
    problem: LowerProblem, loss: UpperLoss | Sequence[UpperLoss], x: np.ndarray
) -> np.ndarray:
    """grad_x of the upper loss: of ``loss`` for one signal, and of each
    row's own loss for a stack."""
    if problem.A.grid.is_stack(x):
        return np.stack([f.grad_x(row) for f, row in zip(loss, x, strict=True)])
    return loss.grad_x(x)


def _step_warning(problem: LowerProblem, step: float) -> str | None:
    """A warning when the unrolled step exceeds 2/L, past which gradient
    descent on the lower cost need not converge."""
    lip = problem.lipschitz_grad()
    if step * lip > 2.0:
        return (f"unrolled step {step:.3e} exceeds 2/L = {2.0 / lip:.3e}; "
                "the unrolled iteration may diverge")
    return None


def hypergrad_minimizer(
    problem: LowerProblem,
    loss: UpperLoss,
    x_approx: np.ndarray,
    cg_tol: float,
    cg_max_iters: int | None = None,
    lower_iters: int = 0,
    grad_tol: float = 0.0,
) -> HypergradResult:
    """Implicit-differentiation hypergradient at an (approximate) minimizer.

    Solves H(x) q = grad_x loss by CG and returns -J(x)' q, where H is the
    lower-level Hessian and J the mixed x-theta Jacobian, both evaluated at
    ``x_approx``.  Accuracy degrades with the stationarity gap at x_approx
    and with a CG solve stopped short of ``cg_tol``; ``warning`` names
    either.  The gap is judged against the larger of ``grad_tol``, the
    stationarity the caller's lower solve asked for, and
    1e-4 (1 + ||grad_x loss||).
    """
    grad_loss = loss.grad_x(x_approx)
    lin = Linearization(problem, x_approx)
    cg = cg_solve(lin.hess_vec, grad_loss, cg_tol, cg_max_iters)
    grad = -lin.jac_adjoint_apply(cg.x)
    gnorm = float(np.linalg.norm(problem.grad_x(x_approx)))
    warnings = []
    if gnorm > max(grad_tol, 1e-4 * (1.0 + float(np.linalg.norm(grad_loss)))):
        warnings.append(
            f"lower-level gradient norm {gnorm:.3e} is large; "
            "hypergradient may be inaccurate"
        )
    if not cg.residual_norm <= cg_tol:  # a NaN residual fails too
        warnings.append(
            f"CG stopped after {cg.iters_run} iterations at residual "
            f"{cg.residual_norm:.3e} above its tolerance {cg_tol:.3e}"
        )
    return HypergradResult(
        grad=grad,
        lower_iters=lower_iters,
        cg_residual=cg.residual_norm,
        warning="; ".join(warnings) or None,
        x_final=x_approx,
    )


def hypergrad_unrolled_reverse(
    problem: LowerProblem,
    loss: UpperLoss | Sequence[UpperLoss],
    x0: np.ndarray,
    n_steps: int,
    step: float,
) -> HypergradResult:
    """Backpropagation through ``n_steps`` gradient-descent updates.

    Stores the full trajectory (memory O(T N)) and linearizes its first T
    iterates at once, as one ``(T S, *grid)`` stack (about T S N (taps + 4)
    floats).  The backward sweep takes one Hessian-vector and one
    Jacobian-adjoint product per step from that linearization's view of the
    step's iterate.  A stacked ``x0`` runs every row at once, ``loss``
    holding one loss per row; each row's gradient equals its own run's bit
    for bit.  ``warning`` is set when ``step`` exceeds 2/L.
    """
    cfg = GDConfig(step=step, max_iters=n_steps, grad_tol=0.0, record_trajectory=True)
    run = gd_minimize(problem, x0, cfg)
    grid = problem.A.grid
    lead = run.x.shape[: run.x.ndim - grid.rank]
    grad = np.zeros(lead + (problem.theta.theta_size(),))
    delta = _loss_grad(problem, loss, run.x)
    if n_steps:
        path = Linearization(problem, np.reshape(run.trajectory[:n_steps], (-1,) + grid.dims))
    for t in range(n_steps, 0, -1):
        # iterate t - 1 is row t - 1 of the path, or rows (t-1)S .. tS-1 of it
        lin = path._rows(slice((t - 1) * lead[0], t * lead[0]) if lead else t - 1)
        grad -= step * lin.jac_adjoint_apply(delta)
        delta = delta - step * lin.hess_vec(delta)
    return HypergradResult(
        grad=grad,
        lower_iters=run.iters_run,
        warning=_step_warning(problem, step),
        x_final=run.x,
    )


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
    return HypergradResult(
        grad=grad,
        lower_iters=n_steps,
        warning=_step_warning(problem, step),
        x_final=x,
    )


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
