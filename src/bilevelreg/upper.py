"""Upper-level optimization over the regularizer hyperparameters.

Drivers: HOAG (double loop with a summable inner-tolerance sequence), BA
(double loop with a per-iteration inner GD budget and projected steps), TTSA
(two-timescale single loop), STABLE (single-timescale dense recursions), a
generic GD/Adam driver over any hypergradient engine, and a scalar grid
search.  HOAG, BA and GD/Adam share one double loop, which solves all
samples as one stack, and differ only in their inner-accuracy policy and
update rule.  All randomness flows through explicitly seeded PCG64
generators and per-sample reductions run in a fixed order, so identical
configurations reproduce bit-identical traces (wall-time fields aside).
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    SpdViolationError,
    StepTooLargeError,
)
from .forward import ForwardModel
from .hypergrad import (
    HypergradResult,
    UpperLoss,
    hypergrad_minimizer,
    hypergrad_unrolled_forward,
    hypergrad_unrolled_reverse,
)
from .losses import LossSpec, SureMCLoss, bind_loss, sure_mc
from .lower import HyperParams, Linearization, LowerProblem, pack_theta, unpack_theta
from .solvers import GDConfig, cg_solve, gd_minimize


@dataclass
class TrainSet:
    """Training pairs (x_true, y) sharing one grid and forward model."""

    x_true: list[np.ndarray]
    y: list[np.ndarray]
    A: ForwardModel

    def __post_init__(self):
        if not self.y:
            raise ValueError("training set must be nonempty")
        if len(self.x_true) != len(self.y):
            raise ValueError("x_true and y counts differ")
        dims = self.A.grid.dims
        for arr in (*self.x_true, *self.y):
            if arr.shape != dims:
                raise DimensionError(
                    f"training signal shape {arr.shape} does not match grid {dims}"
                )

    @property
    def n_samples(self) -> int:
        return len(self.y)


@dataclass
class TraceRecord:
    iteration: int
    loss: float
    grad_norm: float
    lower_iters: int
    wall_ms: float
    theta: np.ndarray | None = None
    extra: dict[str, float] = field(default_factory=dict)


@dataclass
class OptTrace:
    """Per-accepted-step records of an upper-level run.

    ``loss`` and ``grad_norm`` are measured at the pre-step iterate; ``theta``
    is the post-step snapshot.
    """

    records: list[TraceRecord] = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def _record(self, i, t_start, loss, grad_norm, lower_iters, theta_vec, extra):
        """Append iteration i's record, its wall time counted from ``t_start``
        and its theta a copy of the flat ``theta_vec``."""
        self.records.append(TraceRecord(
            i, loss, grad_norm, lower_iters, (time.perf_counter() - t_start) * 1e3,
            theta_vec.copy(), extra,
        ))

    def write_csv(self, path) -> None:
        extra_keys = sorted({k for r in self.records for k in r.extra})
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["iteration", "loss", "grad_norm", "lower_iters", "wall_ms"]
                + extra_keys
            )
            for r in self.records:
                extras = [
                    repr(r.extra[k]) if k in r.extra else "" for k in extra_keys
                ]
                writer.writerow(
                    [r.iteration, repr(r.loss), repr(r.grad_norm), r.lower_iters,
                     repr(r.wall_ms)]
                    + extras
                )


@dataclass(frozen=True)
class Constant:
    alpha: float


@dataclass(frozen=True)
class DecreaseAdaptive:
    """Halve the step after a loss increase, grow it gently after a decrease."""

    alpha0: float
    shrink: float = 0.5
    grow: float = 1.05


@dataclass(frozen=True)
class PowerLaw:
    """step(i) = a * i^(-exponent) for 1-based iteration i."""

    a: float
    exponent: float

    def at(self, i: int) -> float:
        return self.a * float(i) ** (-self.exponent)


StepSchedule = Constant | DecreaseAdaptive | PowerLaw


def _bind_losses(train: TrainSet, loss_spec: LossSpec) -> list[UpperLoss]:
    """Every sample's bound loss; ``bind_loss`` rejects a value-only loss."""
    return [bind_loss(loss_spec, y, train.A, x_true)
            for x_true, y in zip(train.x_true, train.y)]


@contextmanager
def _located(where: str, row_name: Callable[[int], str] | None = None):
    """Prefix a DivergenceError or SpdViolationError raised in the block with
    ``where`` and, when the error names the failed row of a stacked solve,
    ``row_name(row)``.  An error left with no prefix passes unchanged."""
    try:
        yield
    except (DivergenceError, SpdViolationError) as exc:
        named = [row_name(exc.row)] if row_name and exc.row is not None else []
        prefix = ", ".join(filter(None, [where, *named]))
        if not prefix:
            raise
        if isinstance(exc, SpdViolationError):
            raise SpdViolationError(f"{prefix}: {exc}") from exc
        raise DivergenceError(f"{prefix}: {exc}", iteration=exc.iteration) from exc


def evaluate_upper(
    theta: HyperParams,
    train: TrainSet,
    loss_spec: LossSpec,
    solver_cfg: GDConfig,
    beta0_grid: Sequence[float] | None = None,
):
    """Mean upper loss over the training set at fully solved lower problems.

    Returns ``(mean, per_sample)`` at ``theta``, or with ``beta0_grid`` one
    such pair per grid value, at ``theta`` with that overall log-weight b0.
    Every (grid value, sample) pair is one row of a single stacked
    ``gd_minimize`` call with its own b0, whose rows equal the per-pair
    solves bit for bit.  Monte-Carlo SURE is a function of the denoiser, not
    of one reconstruction: ``sure_mc`` solves each sample with its probes as
    one stack, one solve per (grid value, sample).
    """
    b0s = [theta.beta0] if beta0_grid is None else [float(b) for b in beta0_grid]
    n = train.n_samples
    row_b0 = np.repeat(b0s, n)
    names = [f"sample {j}" if beta0_grid is None else f"beta0 {b0}, sample {j}"
             for b0 in b0s for j in range(n)]

    def denoiser(yy, row_beta0):  # a stack of samples, each with its own b0
        prob = LowerProblem(train.A, yy, theta, row_beta0)
        return gd_minimize(prob, train.A.adjoint(yy), solver_cfg).x

    if isinstance(loss_spec, SureMCLoss):
        per_row = []
        for b0, y, name in zip(row_b0, train.y * len(b0s), names):
            with _located(name):
                per_row.append(sure_mc(
                    lambda yy: denoiser(yy, np.full(len(yy), b0)), y,
                    loss_spec.sigma, loss_spec.probe_eps, loss_spec.n_probes,
                    loss_spec.seed,
                ))
    else:
        losses = _bind_losses(train, loss_spec)
        with _located("", names.__getitem__):
            xs = denoiser(np.stack(train.y * len(b0s)), row_b0)
        per_row = [loss.value(x) for loss, x in zip(losses * len(b0s), xs)]
    pairs = [(float(np.mean(per_row[k : k + n])), per_row[k : k + n])
             for k in range(0, len(per_row), n)]
    return pairs[0] if beta0_grid is None else pairs


class _StepController:
    """Resolve the step size per iteration, including loss-driven adaptation."""

    def __init__(self, schedule: StepSchedule):
        self.schedule = schedule
        self.prev_loss: float | None = None
        self.increase_streak = 0
        # only the decrease-adaptive schedule carries a step between calls
        self.alpha = schedule.alpha0 if isinstance(schedule, DecreaseAdaptive) else None

    def step(self, iteration: int, loss: float) -> float:
        if isinstance(self.schedule, PowerLaw):
            current = self.schedule.at(iteration)
        elif isinstance(self.schedule, DecreaseAdaptive):
            if self.prev_loss is not None:
                if loss > self.prev_loss:
                    self.alpha *= self.schedule.shrink
                else:
                    self.alpha *= self.schedule.grow
            current = self.alpha
        else:
            # material increases only: loose early inner tolerances can raise
            # the measured loss slightly without the step being at fault
            material = (
                self.prev_loss is not None
                and loss > self.prev_loss * (1.0 + 1e-3) + 1e-15
            )
            if material:
                self.increase_streak += 1
                if self.increase_streak >= 10:
                    raise StepTooLargeError(
                        "upper loss increased for 10 consecutive steps at a "
                        f"constant step size {self.schedule.alpha}"
                    )
            else:
                self.increase_streak = 0
            current = self.schedule.alpha
        self.prev_loss = loss
        return current


def _theta_converged(theta_old: np.ndarray, theta_new: np.ndarray, rel_tol: float) -> bool:
    if rel_tol <= 0:
        return False
    denom = float(np.linalg.norm(theta_old))
    if denom == 0.0:
        return False
    return float(np.linalg.norm(theta_new - theta_old)) / denom <= rel_tol


_Engine = Callable[[int, LowerProblem, list[UpperLoss], np.ndarray], HypergradResult]


def _double_loop(
    theta0: HyperParams,
    x0: np.ndarray | None,
    train: TrainSet,
    loss_spec: LossSpec,
    max_upper: int,
    theta_rel_tol: float,
    learn_mask: np.ndarray | None,
    warm_start: bool,
    engine: _Engine,
    update: Callable[[int, np.ndarray, np.ndarray, float], tuple[np.ndarray, dict]],
) -> tuple[HyperParams, OptTrace]:
    """The double loop shared by HOAG, BA and GD/Adam.

    Upper iteration i builds one problem on the stack of all samples and
    asks ``engine(i, problem, losses, start)`` for one stacked result, with
    one entry per sample in every field.  ``start`` is the previous
    ``x_final`` when ``warm_start`` is set and the cold start otherwise.
    The loop averages the gradients and the losses at ``x_final`` in row
    order, applies the learn mask, and takes the new flat theta and the
    record's extras from ``update(i, theta_vec, g, mean_loss)``.  Each
    record sums the samples' lower iterations, counts the samples whose
    hypergradient came with a warning (``warnings``) and, for engines that
    solve by CG, keeps the largest final CG residual over the samples
    (``cg_residual``).
    """
    losses = _bind_losses(train, loss_spec)
    Y = np.stack(train.y)
    # the cold start: x0 in every row if given, else A'y_j in row j
    start = np.stack([x0] * len(Y)) if x0 is not None else train.A.adjoint(Y)
    theta = theta0
    trace = OptTrace()
    for i in range(1, max_upper + 1):
        t_start = time.perf_counter()
        with _located(f"upper iteration {i}", "sample {}".format):
            problem = LowerProblem(train.A, Y, theta)
            res = engine(i, problem, losses, start)
        if warm_start:
            start = res.x_final
        g = np.mean(res.grad, axis=0)
        if learn_mask is not None:
            g = g * learn_mask
        value = float(np.mean([loss.value(x) for loss, x in zip(losses, res.x_final)]))
        theta_vec = pack_theta(theta)
        theta_new_vec, extra = update(i, theta_vec, g, value)
        extra["warnings"] = float(sum(w is not None for w in res.warning))
        if res.cg_residual is not None:
            extra["cg_residual"] = max(res.cg_residual)
        theta = unpack_theta(theta, theta_new_vec)
        trace._record(i, t_start, value, float(np.linalg.norm(g)),
                      sum(res.lower_iters), theta_new_vec, extra)
        if _theta_converged(theta_vec, theta_new_vec, theta_rel_tol):
            break
    return theta, trace


def hoag(
    theta0: HyperParams,
    x0: np.ndarray | None,
    train: TrainSet,
    loss_spec: LossSpec,
    eps_schedule: float | Callable[[int], float] = 0.1,
    step: StepSchedule = Constant(0.1),
    max_upper: int = 100,
    solver_cfg: GDConfig | None = None,
    theta_rel_tol: float = 0.01,
    learn_mask: np.ndarray | None = None,
) -> tuple[HyperParams, OptTrace]:
    """Double loop with a shared, summable tolerance for inner solve and CG.

    Iteration i solves each lower problem to a stationarity level implied by
    eps_i (||grad Phi|| <= eps_i * mu when the problem is strongly convex,
    else ||grad Phi|| <= eps_i), solves the Hessian system to residual eps_i,
    and takes a scheduled gradient step on theta.  A number eps0 for
    ``eps_schedule`` means eps_i = eps0 / i^2; a callable gives eps_i itself.
    """
    eps_at = eps_schedule if callable(eps_schedule) else (
        lambda i: float(eps_schedule) / i**2
    )
    solver_cfg = solver_cfg or GDConfig(max_iters=5000, warm_start=True)
    mu = train.A.spectral_bounds()[1]

    def engine(i, problem, losses, start):
        eps_i = eps_at(i)
        cfg = replace(solver_cfg, grad_tol=eps_i * mu if mu > 0 else eps_i,
                      record_trajectory=False)
        return hypergrad_minimizer(problem, losses, start, cfg, eps_i)

    controller = _StepController(step)

    def update(i, theta_vec, g, value):
        alpha = controller.step(i, value)
        return theta_vec - alpha * g, {"eps": eps_at(i), "step": alpha}

    return _double_loop(
        theta0, x0, train, loss_spec, max_upper, theta_rel_tol, learn_mask,
        solver_cfg.warm_start, engine, update,
    )


def ba(
    theta0: HyperParams,
    x0: np.ndarray | None,
    ss_upper: float,
    ss_lower: float | str,
    inner_schedule: int | Callable[[int], int],
    train: TrainSet,
    loss_spec: LossSpec,
    max_upper: int = 100,
    box: tuple[np.ndarray | float, np.ndarray | float] | None = None,
    warm_start: bool = False,
    cg_tol: float = 1e-10,
    cg_max_iters: int | None = None,
    theta_rel_tol: float = 0.01,
    learn_mask: np.ndarray | None = None,
) -> tuple[HyperParams, OptTrace]:
    """Double loop with a fixed inner GD budget and projected theta steps.

    ``ss_lower`` may be "paper-default", meaning 2/(L + mu) recomputed from
    the current hyperparameters each outer iteration (requires mu > 0).
    ``inner_schedule`` is the inner GD budget: a fixed count or a callable of
    the 1-based outer iteration.
    """
    inner_at = inner_schedule if callable(inner_schedule) else (lambda i: inner_schedule)
    mu = train.A.spectral_bounds()[1]
    if ss_lower == "paper-default" and not mu > 0:
        raise ConfigError(
            "ss_lower='paper-default' needs a strongly convex problem (mu > 0)"
        )

    def engine(i, problem, losses, start):
        if ss_lower == "paper-default":
            step_low = 2.0 / (problem.lipschitz_grad() + mu)
        else:
            step_low = float(ss_lower)
        cfg = GDConfig(step=step_low, max_iters=inner_at(i), grad_tol=0.0)
        return hypergrad_minimizer(problem, losses, start, cfg, cg_tol, cg_max_iters)

    def update(i, theta_vec, g, value):
        theta_new_vec = theta_vec - ss_upper * g
        if box is not None:
            theta_new_vec = np.clip(theta_new_vec, box[0], box[1])
        return theta_new_vec, {"inner_iters": float(inner_at(i))}

    return _double_loop(
        theta0, x0, train, loss_spec, max_upper, theta_rel_tol, learn_mask,
        warm_start, engine, update,
    )


def ttsa(
    theta0: HyperParams,
    x0: np.ndarray,
    up_schedule: PowerLaw,
    low_schedule: PowerLaw,
    train: TrainSet,
    loss_spec: LossSpec,
    batch: int,
    seed: int,
    max_iter: int,
    cg_tol: float = 1e-10,
    cg_max_iters: int | None = None,
    learn_mask: np.ndarray | None = None,
) -> tuple[HyperParams, OptTrace]:
    """Single loop alternating one stochastic lower step and one theta step.

    The lower iterate tracks the batch-mean reconstruction cost; each theta
    gradient uses the implicit formula at the current iterate with CG on the
    batch-mean Hessian.  The upper/lower step-size ratio must vanish.  Each
    record's extras hold both step sizes, the final CG residual and
    ``warnings``, 1.0 when that residual is not within ``cg_tol`` (NaN
    included) and 0.0 otherwise.
    """
    losses = _bind_losses(train, loss_spec)
    if batch > train.n_samples:
        raise ConfigError(
            f"batch {batch} exceeds training set size {train.n_samples}"
        )
    if up_schedule.a != 0.0 and up_schedule.exponent <= low_schedule.exponent:
        raise ConfigError(
            "two-timescale schedules need the upper exponent to exceed the lower"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    theta = theta0
    x = np.array(x0, dtype=np.float64, copy=True)
    trace = OptTrace()
    for i in range(1, max_iter + 1):
        t_start = time.perf_counter()
        idx = rng.choice(train.n_samples, size=batch, replace=False)
        step_low = low_schedule.at(i)
        step_up = up_schedule.at(i)
        batch_losses = [losses[j] for j in idx]
        with _located(f"upper iteration {i}"):
            problems = [LowerProblem(train.A, train.y[j], theta) for j in idx]
            g_low = np.mean([p.grad_x(x) for p in problems], axis=0)
            x = x - step_low * g_low
            if not np.all(np.isfinite(x)):
                raise DivergenceError(
                    f"non-finite lower iterate after lower step {i} "
                    f"(step size {step_low:.3e})",
                    iteration=i,
                )
            b = np.mean([loss.grad_x(x) for loss in batch_losses], axis=0)
            lins = [Linearization(p, x) for p in problems]

            def hess_action(v):
                return np.mean([lin.hess_vec(v) for lin in lins], axis=0)

            cg = cg_solve(hess_action, b, cg_tol, cg_max_iters)
            g = -np.mean([lin.jac_adjoint_apply(cg.x) for lin in lins], axis=0)
        if learn_mask is not None:
            g = g * learn_mask
        theta_vec = pack_theta(theta)
        theta_new_vec = theta_vec - step_up * g
        theta = unpack_theta(theta, theta_new_vec)
        batch_value = float(np.mean([loss.value(x) for loss in batch_losses]))
        trace._record(i, t_start, batch_value, float(np.linalg.norm(g)), 1,
                      theta_new_vec, {"step_upper": step_up, "step_lower": step_low,
                                      "cg_residual": cg.residual_norm,
                                      "warnings": float(not cg.residual_norm <= cg_tol)})
    return theta, trace


STABLE_DENSE_LIMIT = 64


@dataclass
class StableState:
    """Iterate and recursive curvature estimates for the STABLE loop."""

    theta: HyperParams
    x: np.ndarray
    step_upper: float
    step_lower: float
    hess_est: np.ndarray | None = None
    mixed_est: np.ndarray | None = None
    prev_hess: np.ndarray | None = None
    prev_mixed: np.ndarray | None = None


def truncate_eigenvalues(h: np.ndarray, floor: float) -> np.ndarray:
    """Clamp the eigenvalues of a symmetric matrix to at least ``floor``."""
    sym = 0.5 * (h + h.T)
    vals, vecs = np.linalg.eigh(sym)
    return (vecs * np.maximum(vals, floor)) @ vecs.T


def clip_matrix_norm(m: np.ndarray, cap: float) -> np.ndarray:
    """Clip singular values to at most ``cap`` (spectral-norm projection)."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] <= cap:
        return m
    return (u * np.minimum(s, cap)) @ vt


def _dense_hessian(lin: Linearization) -> np.ndarray:
    n = lin.x.size
    h = np.zeros((n, n))
    basis = np.zeros_like(lin.x)
    flat = basis.reshape(-1)
    for i in range(n):
        flat[i] = 1.0
        h[:, i] = lin.hess_vec(basis).reshape(-1)
        flat[i] = 0.0
    return h


def _dense_mixed(lin: Linearization) -> np.ndarray:
    cols = lin.jac_columns()
    return cols.reshape(cols.shape[0], -1).T


def stable_step(
    state: StableState,
    sample: tuple[np.ndarray, np.ndarray],
    A: ForwardModel,
    loss_spec: LossSpec,
    tau: float,
    c_mix: float,
    mu: float,
) -> StableState:
    """One STABLE update: recursive curvature estimates, theta step, corrected x step.

    Dense mode only (N <= 64): the eigenvalue truncation and norm projection
    need explicit matrices.  A non-finite curvature estimate or new iterate
    raises DivergenceError.  The recursion differences the curvature at the
    previous and current iterates.  Neither the Hessian nor the mixed
    Jacobian depends on the sample, so the previous iterate's matrices are
    the ones the previous step built; tau = 1 discards the memory entirely.
    """
    x_true, y = sample
    loss = bind_loss(loss_spec, y, A, x_true)
    n = state.x.size
    if n > STABLE_DENSE_LIMIT:
        raise DimensionError(
            f"dense STABLE supports N <= {STABLE_DENSE_LIMIT}, got {n}"
        )
    if not mu > 0:
        raise ConfigError("STABLE eigenvalue truncation needs mu > 0")
    problem = LowerProblem(A, y, state.theta)
    lin = Linearization(problem, state.x)
    h_new = _dense_hessian(lin)
    m_new = _dense_mixed(lin)
    if state.prev_hess is not None and tau < 1.0:
        h_raw = (1.0 - tau) * (state.hess_est - state.prev_hess) + h_new
        m_raw = (1.0 - tau) * (state.mixed_est - state.prev_mixed) + m_new
    else:
        h_raw, m_raw = h_new, m_new
    if not (np.all(np.isfinite(h_raw)) and np.all(np.isfinite(m_raw))):
        raise DivergenceError("non-finite curvature estimate")
    h_bar = truncate_eigenvalues(h_raw, mu)
    m_bar = clip_matrix_norm(m_raw, c_mix)

    gx = loss.grad_x(state.x).reshape(-1)
    g_upper = -m_bar.T @ np.linalg.solve(h_bar, gx)
    theta_vec = pack_theta(state.theta)
    theta_new_vec = theta_vec - state.step_upper * g_upper
    correction = np.linalg.solve(h_bar, m_bar @ (theta_new_vec - theta_vec))
    x_new = (
        state.x
        - state.step_lower * problem.grad_x(state.x)
        - correction.reshape(state.x.shape)
    )
    if not (np.all(np.isfinite(theta_new_vec)) and np.all(np.isfinite(x_new))):
        raise DivergenceError("non-finite iterate")
    return StableState(
        theta=unpack_theta(state.theta, theta_new_vec),
        x=x_new,
        step_upper=state.step_upper,
        step_lower=state.step_lower,
        hess_est=h_bar,
        mixed_est=m_bar,
        prev_hess=h_new,
        prev_mixed=m_new,
    )


def stable_run(
    theta0: HyperParams,
    x0: np.ndarray,
    train: TrainSet,
    loss_spec: LossSpec,
    step_upper: float,
    step_lower: float,
    tau: float | Callable[[int], float],
    c_mix: float,
    mu: float,
    max_iter: int,
    seed: int = 0,
) -> tuple[HyperParams, OptTrace]:
    """Drive stable_step over uniformly sampled training pairs."""
    losses = _bind_losses(train, loss_spec)
    rng = np.random.Generator(np.random.PCG64(seed))
    tau_at = tau if callable(tau) else (lambda i: tau)
    state = StableState(
        theta=theta0,
        x=np.array(x0, dtype=np.float64, copy=True),
        step_upper=step_upper,
        step_lower=step_lower,
    )
    trace = OptTrace()
    for i in range(1, max_iter + 1):
        t_start = time.perf_counter()
        j = int(rng.integers(train.n_samples))
        sample = (train.x_true[j], train.y[j])
        prev_vec = pack_theta(state.theta)
        with _located(f"upper iteration {i}"):
            state = stable_step(
                state, sample, train.A, loss_spec, tau_at(i), c_mix, mu
            )
        new_vec = pack_theta(state.theta)
        trace._record(i, t_start, losses[j].value(state.x),
                      float(np.linalg.norm((new_vec - prev_vec) / state.step_upper)),
                      1, new_vec, {})
    return state.theta, trace


def adam_or_gd_upper(
    theta0: HyperParams,
    x0: np.ndarray | None,
    train: TrainSet,
    loss_spec: LossSpec,
    engine: str = "minimizer",
    optimizer: str = "adam",
    step: float = 0.05,
    max_upper: int = 100,
    solver_cfg: GDConfig | None = None,
    unroll_steps: int | None = None,
    unroll_step: float | None = None,
    cg_tol: float = 1e-10,
    theta_rel_tol: float = 0.01,
    learn_mask: np.ndarray | None = None,
) -> tuple[HyperParams, OptTrace]:
    """Full-batch GD or Adam on theta over any hypergradient engine.

    The unrolled engines need an explicit (theta-independent) lower step and
    iteration count; the minimizer engine reuses ``solver_cfg`` including its
    warm-start flag.  Adam uses beta1 = 0.9, beta2 = 0.999 and eps = 1e-8.
    """
    solver_cfg = solver_cfg or GDConfig(
        max_iters=5000, grad_tol=1e-8, warm_start=True
    )
    engines = {
        "minimizer": (hypergrad_minimizer, (solver_cfg, cg_tol)),
        "reverse": (hypergrad_unrolled_reverse, (unroll_steps, unroll_step)),
        "forward": (hypergrad_unrolled_forward, (unroll_steps, unroll_step)),
    }
    if engine not in engines:
        raise ConfigError(f"unknown engine {engine!r}")
    if optimizer not in ("gd", "adam"):
        raise ConfigError(f"unknown optimizer {optimizer!r}")
    fn, args = engines[engine]
    unrolled = fn is not hypergrad_minimizer
    if unrolled and (unroll_steps is None or unroll_step is None):
        raise ConfigError(
            "unrolled engines require unroll_steps and an explicit unroll_step"
        )

    def stacked_grad(i, problem, losses, start):
        return fn(problem, losses, start, *args)

    m = np.zeros(theta0.theta_size())
    v = np.zeros(theta0.theta_size())

    def update(i, theta_vec, g, value):
        nonlocal m, v
        if optimizer == "gd":
            return theta_vec - step * g, {}
        beta1, beta2 = 0.9, 0.999
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**i)
        v_hat = v / (1.0 - beta2**i)
        return theta_vec - step * m_hat / (np.sqrt(v_hat) + 1e-8), {}

    # the unrolled steps are differentiated from a theta-independent start,
    # so only the implicit engine may warm start
    warm_start = not unrolled and solver_cfg.warm_start
    return _double_loop(
        theta0, x0, train, loss_spec, max_upper, theta_rel_tol, learn_mask,
        warm_start, stacked_grad, update,
    )


def grid_search(
    beta0_grid: Sequence[float],
    theta: HyperParams,
    train: TrainSet,
    loss_spec: LossSpec,
    solver_cfg: GDConfig,
) -> tuple[float, list[tuple[float, float]]]:
    """Evaluate the upper loss on a grid of overall log-weights beta0.

    Filters and per-filter weights stay fixed, and one ``evaluate_upper``
    call solves every grid value.  Returns the argmin (first on ties) and the
    full (beta0, loss) table in input order.
    """
    if len(beta0_grid) == 0:
        raise ConfigError("beta0 grid must be nonempty")
    pairs = evaluate_upper(theta, train, loss_spec, solver_cfg, beta0_grid)
    table = [(float(b0), value) for b0, (value, _) in zip(beta0_grid, pairs)]
    best = min(range(len(table)), key=lambda k: table[k][1])
    return table[best][0], table


def default_theta_init(
    n_filters: int,
    tap_extents: tuple[int, ...],
    potential,
    seed: int,
    learn_beta0: bool = False,
    beta0: float | None = None,
    train: TrainSet | None = None,
) -> HyperParams:
    """Seeded zero-mean unit-norm random filters with balanced overall weight.

    When ``beta0`` is not given and a training set is, beta0 is set so the
    data-fit and regularizer gradient norms match at the adjoint initializer
    of the first sample; otherwise it defaults to 0.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    filters = []
    for _ in range(n_filters):
        c = rng.standard_normal(tap_extents)
        c -= c.mean()
        norm = np.linalg.norm(c)
        if norm == 0.0:
            c = np.zeros(tap_extents)
            c.reshape(-1)[0] = 1.0
            norm = 1.0
        filters.append(c / norm)
    hp = HyperParams(
        beta0=0.0,
        betas=np.zeros(n_filters),
        filters=filters,
        potential=potential,
        learn_beta0=learn_beta0,
    )
    if beta0 is not None:
        hp = replace(hp, beta0=float(beta0))
    elif train is not None and n_filters > 0:
        x_start = train.A.adjoint(train.y[0])
        g_data = train.A.adjoint(train.A.apply(x_start) - train.y[0])
        g_reg = LowerProblem(train.A, train.y[0], hp).grad_x(x_start) - g_data
        data_norm = float(np.linalg.norm(g_data))
        reg_norm = float(np.linalg.norm(g_reg))
        if data_norm > 0 and reg_norm > 0:
            hp = replace(hp, beta0=float(np.log(data_norm / reg_norm)))
    return hp
