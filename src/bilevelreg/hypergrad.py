"""Hypergradient engines: implicit (minimizer), unrolled reverse, unrolled forward.

All supported upper losses depend on the hyperparameters only through the
reconstruction, so the explicit theta-partial of the loss is zero and every
engine returns the chain-rule term alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError
from .lower import LowerProblem
from .solvers import GDConfig, cg_solve, gd_minimize


@dataclass
class UpperLoss:
    """Per-sample loss callbacks: value and gradient w.r.t. the reconstruction."""

    value: Callable[[np.ndarray], float]
    grad_x: Callable[[np.ndarray], np.ndarray]


@dataclass
class HypergradResult:
    grad: np.ndarray
    lower_iters: int
    cg_residual: float | None = None
    warning: str | None = None
    x_final: np.ndarray | None = None


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
    lin = problem.linearize(x_approx)
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
    loss: UpperLoss,
    x0: np.ndarray,
    n_steps: int,
    step: float,
) -> HypergradResult:
    """Backpropagation through ``n_steps`` gradient-descent updates.

    Stores the full trajectory (memory O(T N)) and sweeps it backwards with
    one Hessian-vector and one Jacobian-adjoint product per step, both from
    one linearization at that step's iterate.
    """
    cfg = GDConfig(step=step, max_iters=n_steps, grad_tol=0.0, record_trajectory=True)
    run = gd_minimize(problem, x0, cfg)
    trajectory = run.trajectory
    grad = np.zeros(problem.theta.theta_size())
    delta = loss.grad_x(run.x)
    for t in range(n_steps, 0, -1):
        lin = problem.linearize(trajectory[t - 1])
        grad -= step * lin.jac_adjoint_apply(delta)
        delta = delta - step * lin.hess_vec(delta)
    return HypergradResult(
        grad=grad,
        lower_iters=run.iters_run,
        x_final=run.x,
    )


def unrolled_forward_sensitivity(
    problem: LowerProblem, x0: np.ndarray, n_steps: int, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Iterate GD while accumulating dx^T/dtheta.

    Returns (x_T, Z) with Z[p] the sensitivity of x_T to theta coordinate p;
    Z starts at zero because the initializer does not depend on theta.
    Raises DivergenceError naming the step at which x or Z stops being finite.
    """
    n_params = problem.theta.theta_size()
    x = np.array(x0, dtype=np.float64, copy=True)
    z = np.zeros((n_params,) + x.shape)
    for t in range(n_steps):
        lin = problem.linearize(x)
        cols = lin.jac_columns()
        for p in range(n_params):
            z[p] -= step * (lin.hess_vec(z[p]) + cols[p])
        x -= step * problem.grad_x(x)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
            raise DivergenceError(
                f"non-finite iterate or sensitivity at unrolled step {t + 1}",
                iteration=t + 1,
            )
    return x, z


def hypergrad_unrolled_forward(
    problem: LowerProblem,
    loss: UpperLoss,
    x0: np.ndarray,
    n_steps: int,
    step: float,
) -> HypergradResult:
    """Forward-mode accumulation of the unrolled gradient (memory O(N P))."""
    x, z = unrolled_forward_sensitivity(problem, x0, n_steps, step)
    g = loss.grad_x(x)
    grad = np.array([float(np.vdot(z[p], g)) for p in range(z.shape[0])])
    return HypergradResult(
        grad=grad,
        lower_iters=n_steps,
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
    cosine = float(np.vdot(g_est, g_ref)) / (est_norm * ref_norm)
    angle = float(np.arccos(np.clip(cosine, -1.0, 1.0)))
    rel_err = float(np.linalg.norm(g_est - g_ref)) / ref_norm
    return angle, rel_err
