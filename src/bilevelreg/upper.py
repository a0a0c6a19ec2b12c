"""Upper-level optimization over the regularizer hyperparameters.

Drivers: HOAG (double loop with a summable inner-tolerance sequence), BA
(double loop with a per-iteration inner GD budget and projected steps), TTSA
(two-timescale single loop), STABLE (single-timescale dense recursions), a
generic GD/Adam driver over any hypergradient engine, and a scalar grid
search.  HOAG, BA and GD/Adam share one sample loop and differ only in their
inner-accuracy policy and update rule.  All randomness flows through
explicitly seeded PCG64 generators and per-sample reductions run in a fixed
order, so identical configurations reproduce bit-identical traces (wall-time
fields aside).
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError, StepTooLargeError
from .forward import ForwardModel
from .hypergrad import (
    HypergradResult,
    UpperLoss,
    _mixed_jacobian_columns,
    hypergrad_minimizer,
    hypergrad_unrolled_forward,
    hypergrad_unrolled_reverse,
)
from .losses import LossSpec, SureMCLoss, bind_loss
from .lower import HyperParams, LowerProblem, pack_theta, unpack_theta
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


def _cold_start(train: TrainSet, x0: np.ndarray | None, j: int) -> np.ndarray:
    """Initial lower iterate of sample j: a copy of ``x0`` if given, else A'y_j."""
    return np.array(x0, copy=True) if x0 is not None else train.A.adjoint(train.y[j])


def _require_gradient_loss(loss_spec: LossSpec) -> None:
    """Reject value-only losses before a hypergradient driver does any work."""
    if isinstance(loss_spec, SureMCLoss):
        raise ConfigError(
            f"loss kind {loss_spec.kind!r} is value-only and cannot drive "
            "hypergradient steps; use it with evaluate_upper or a grid search"
        )


@contextmanager
def _located(where: str):
    """Prefix a DivergenceError raised in the block with ``where``."""
    try:
        yield
    except DivergenceError as exc:
        raise DivergenceError(f"{where}: {exc}", iteration=exc.iteration) from exc


def evaluate_upper(
    theta: HyperParams,
    train: TrainSet,
    loss_spec: LossSpec,
    solver_cfg: GDConfig,
    x0: np.ndarray | None = None,
) -> tuple[float, list[float]]:
    """Mean upper loss over the training set at fully solved lower problems."""

    def denoiser(yy):  # used by the value-only SURE loss, ignored by the others
        prob = LowerProblem(train.A, yy, theta)
        return gd_minimize(prob, train.A.adjoint(yy), solver_cfg).x

    per_sample = []
    for j in range(train.n_samples):
        problem = LowerProblem(train.A, train.y[j], theta)
        with _located(f"sample {j}"):
            res = gd_minimize(problem, _cold_start(train, x0, j), solver_cfg)
        loss = bind_loss(loss_spec, train.y[j], train.A, train.x_true[j], denoiser)
        per_sample.append(loss.value(res.x))
    return float(np.mean(per_sample)), per_sample


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


def _per_iteration(schedule, from_number: Callable) -> Callable[[int], float]:
    """Per-iteration value of a schedule given by the caller.

    A callable of the 1-based iteration is used as is, a number goes through
    ``from_number``, and a sequence is indexed by iteration, holding its last
    entry.
    """
    if callable(schedule):
        return schedule
    if isinstance(schedule, (int, float)):
        return from_number(schedule)
    seq = list(schedule)
    return lambda i: seq[min(i, len(seq)) - 1]


_SampleGrad = Callable[[int, LowerProblem, UpperLoss, np.ndarray], HypergradResult]


def _double_loop(
    theta0: HyperParams,
    x0: np.ndarray | None,
    train: TrainSet,
    loss_spec: LossSpec,
    max_upper: int,
    theta_rel_tol: float,
    learn_mask: np.ndarray | None,
    warm_start: bool,
    sample_grad: _SampleGrad,
    update: Callable[[int, np.ndarray, np.ndarray, float], tuple[np.ndarray, dict]],
) -> tuple[HyperParams, OptTrace]:
    """The sample loop shared by HOAG, BA and GD/Adam.

    Upper iteration i asks ``sample_grad(i, problem, loss, start)`` for the
    hypergradient of every sample in index order, starting from the sample's
    previous ``x_final`` when ``warm_start`` is set and from the cold start
    otherwise.  It averages the gradients and the losses at ``x_final``,
    applies the learn mask, and takes the new flat theta and the record's
    extras from ``update(i, theta_vec, g, mean_loss)``.
    """
    _require_gradient_loss(loss_spec)
    theta = theta0
    warm: dict[int, np.ndarray] = {}
    trace = OptTrace()
    for i in range(1, max_upper + 1):
        t_start = time.perf_counter()
        grads = []
        values = []
        lower_iters = 0
        for j in range(train.n_samples):
            problem = LowerProblem(train.A, train.y[j], theta)
            loss = bind_loss(loss_spec, train.y[j], train.A, train.x_true[j])
            start = warm[j] if j in warm else _cold_start(train, x0, j)
            with _located(f"upper iteration {i}, sample {j}"):
                result = sample_grad(i, problem, loss, start)
            if warm_start:
                warm[j] = result.x_final
            lower_iters += result.lower_iters
            grads.append(result.grad)
            values.append(loss.value(result.x_final))
        g = np.mean(grads, axis=0)
        if learn_mask is not None:
            g = g * learn_mask
        value = float(np.mean(values))
        theta_vec = pack_theta(theta)
        theta_new_vec, extra = update(i, theta_vec, g, value)
        theta = unpack_theta(theta, theta_new_vec)
        trace.records.append(
            TraceRecord(
                iteration=i,
                loss=value,
                grad_norm=float(np.linalg.norm(g)),
                lower_iters=lower_iters,
                wall_ms=(time.perf_counter() - t_start) * 1e3,
                theta=theta_new_vec.copy(),
                extra=extra,
            )
        )
        if _theta_converged(theta_vec, theta_new_vec, theta_rel_tol):
            break
    return theta, trace


def _implicit_engine(
    accuracy: Callable[[int, LowerProblem], tuple[GDConfig, float]],
    cg_max_iters: int | None,
) -> _SampleGrad:
    """Implicit hypergradients under an inner-accuracy policy.

    ``accuracy(i, problem)`` gives the lower GD settings and the CG tolerance
    of upper iteration i.
    """

    def sample_grad(i, problem, loss, start):
        cfg, cg_tol = accuracy(i, problem)
        res = gd_minimize(problem, start, cfg)
        return hypergrad_minimizer(
            problem, loss, res.x, cg_tol=cg_tol,
            cg_max_iters=cg_max_iters, lower_iters=res.iters_run,
        )

    return sample_grad


def hoag(
    theta0: HyperParams,
    x0: np.ndarray | None,
    train: TrainSet,
    loss_spec: LossSpec,
    eps_schedule=0.1,
    step: StepSchedule = Constant(0.1),
    max_upper: int = 100,
    solver_cfg: GDConfig | None = None,
    cg_max_iters: int | None = None,
    theta_rel_tol: float = 0.01,
    learn_mask: np.ndarray | None = None,
) -> tuple[HyperParams, OptTrace]:
    """Double loop with a shared, summable tolerance for inner solve and CG.

    Iteration i solves each lower problem to a stationarity level implied by
    eps_i (||grad Phi|| <= eps_i * mu when the problem is strongly convex,
    else ||grad Phi|| <= eps_i), solves the Hessian system to residual eps_i,
    and takes a scheduled gradient step on theta.
    """
    eps_at = _per_iteration(eps_schedule, lambda eps0: lambda i: float(eps0) / i**2)
    solver_cfg = solver_cfg or GDConfig(max_iters=5000, warm_start=True)
    mu = train.A.spectral_bounds()[1]

    def accuracy(i, problem):
        eps_i = eps_at(i)
        grad_tol = eps_i * mu if mu > 0 else eps_i
        return replace(solver_cfg, grad_tol=grad_tol, record_trajectory=False), eps_i

    controller = _StepController(step)

    def update(i, theta_vec, g, value):
        alpha = controller.step(i, value)
        return theta_vec - alpha * g, {"eps": eps_at(i), "step": alpha}

    return _double_loop(
        theta0, x0, train, loss_spec, max_upper, theta_rel_tol, learn_mask,
        solver_cfg.warm_start, _implicit_engine(accuracy, cg_max_iters), update,
    )


def ba(
    theta0: HyperParams,
    x0: np.ndarray | None,
    ss_upper: float,
    ss_lower: float | str,
    inner_schedule,
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
    """
    inner_at = _per_iteration(inner_schedule, lambda t: lambda i: t)
    mu = train.A.spectral_bounds()[1]
    if ss_lower == "paper-default" and not mu > 0:
        raise ConfigError(
            "ss_lower='paper-default' needs a strongly convex problem (mu > 0)"
        )

    def accuracy(i, problem):
        if ss_lower == "paper-default":
            step_low = 2.0 / (problem.lipschitz_grad() + mu)
        else:
            step_low = float(ss_lower)
        return GDConfig(step=step_low, max_iters=inner_at(i), grad_tol=0.0), cg_tol

    def update(i, theta_vec, g, value):
        theta_new_vec = theta_vec - ss_upper * g
        if box is not None:
            theta_new_vec = np.clip(theta_new_vec, box[0], box[1])
        return theta_new_vec, {"inner_iters": float(inner_at(i))}

    return _double_loop(
        theta0, x0, train, loss_spec, max_upper, theta_rel_tol, learn_mask,
        warm_start, _implicit_engine(accuracy, cg_max_iters), update,
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
    batch-mean Hessian.  The upper/lower step-size ratio must vanish.
    """
    _require_gradient_loss(loss_spec)
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
        problems = [LowerProblem(train.A, train.y[j], theta) for j in idx]
        losses = [
            bind_loss(loss_spec, train.y[j], train.A, train.x_true[j]) for j in idx
        ]
        g_low = np.mean([p.grad_x(x) for p in problems], axis=0)
        x = x - step_low * g_low
        b = np.mean([loss.grad_x(x) for loss in losses], axis=0)

        def hess_action(v):
            return np.mean([p.hess_vec(x, v) for p in problems], axis=0)

        cg = cg_solve(
            hess_action, b, cg_tol,
            cg_max_iters if cg_max_iters is not None else 10 * x.size,
        )
        g = -np.mean([p.jac_adjoint_apply(x, cg.x) for p in problems], axis=0)
        if learn_mask is not None:
            g = g * learn_mask
        theta_vec = pack_theta(theta)
        theta_new_vec = theta_vec - step_up * g
        theta = unpack_theta(theta, theta_new_vec)
        batch_value = float(np.mean([loss.value(x) for loss in losses]))
        trace.records.append(
            TraceRecord(
                iteration=i,
                loss=batch_value,
                grad_norm=float(np.linalg.norm(g)),
                lower_iters=1,
                wall_ms=(time.perf_counter() - t_start) * 1e3,
                theta=theta_new_vec.copy(),
                extra={"step_upper": step_up, "step_lower": step_low},
            )
        )
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
    prev_theta: HyperParams | None = None
    prev_x: np.ndarray | None = None
    iteration: int = 0


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


def _dense_hessian(problem: LowerProblem, x: np.ndarray) -> np.ndarray:
    n = x.size
    h = np.zeros((n, n))
    basis = np.zeros_like(x)
    flat = basis.reshape(-1)
    for i in range(n):
        flat[i] = 1.0
        h[:, i] = problem.hess_vec(x, basis).reshape(-1)
        flat[i] = 0.0
    return h


def _dense_mixed(problem: LowerProblem, x: np.ndarray) -> np.ndarray:
    cols = _mixed_jacobian_columns(problem, x)
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
    need explicit matrices.  The recursion pairs the current sample at the
    previous and current iterates; tau = 1 discards the memory entirely.
    """
    _require_gradient_loss(loss_spec)
    n = state.x.size
    if n > STABLE_DENSE_LIMIT:
        raise DimensionError(
            f"dense STABLE supports N <= {STABLE_DENSE_LIMIT}, got {n}"
        )
    if not mu > 0:
        raise ConfigError("STABLE eigenvalue truncation needs mu > 0")
    x_true, y = sample
    problem = LowerProblem(A, y, state.theta)
    h_new = _dense_hessian(problem, state.x)
    m_new = _dense_mixed(problem, state.x)
    if state.prev_x is not None and tau < 1.0:
        prev_problem = LowerProblem(A, y, state.prev_theta)
        h_prev = _dense_hessian(prev_problem, state.prev_x)
        m_prev = _dense_mixed(prev_problem, state.prev_x)
        h_raw = (1.0 - tau) * (state.hess_est - h_prev) + h_new
        m_raw = (1.0 - tau) * (state.mixed_est - m_prev) + m_new
    else:
        h_raw, m_raw = h_new, m_new
    h_bar = truncate_eigenvalues(h_raw, mu)
    m_bar = clip_matrix_norm(m_raw, c_mix)

    loss = bind_loss(loss_spec, y, A, x_true)
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
    return StableState(
        theta=unpack_theta(state.theta, theta_new_vec),
        x=x_new,
        step_upper=state.step_upper,
        step_lower=state.step_lower,
        hess_est=h_bar,
        mixed_est=m_bar,
        prev_theta=state.theta,
        prev_x=state.x,
        iteration=state.iteration + 1,
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
        state = stable_step(
            state, sample, train.A, loss_spec, tau_at(i), c_mix, mu
        )
        new_vec = pack_theta(state.theta)
        loss = bind_loss(loss_spec, sample[1], train.A, sample[0])
        trace.records.append(
            TraceRecord(
                iteration=i,
                loss=loss.value(state.x),
                grad_norm=float(
                    np.linalg.norm((new_vec - prev_vec) / state.step_upper)
                ),
                lower_iters=1,
                wall_ms=(time.perf_counter() - t_start) * 1e3,
                theta=new_vec.copy(),
            )
        )
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
    cg_max_iters: int | None = None,
    adam_beta1: float = 0.9,
    adam_beta2: float = 0.999,
    adam_eps: float = 1e-8,
    theta_rel_tol: float = 0.01,
    learn_mask: np.ndarray | None = None,
) -> tuple[HyperParams, OptTrace]:
    """Full-batch GD or Adam on theta over any hypergradient engine.

    The unrolled engines need an explicit (theta-independent) lower step and
    iteration count; the minimizer engine reuses ``solver_cfg`` including its
    warm-start flag.
    """
    if engine not in ("minimizer", "reverse", "forward"):
        raise ConfigError(f"unknown engine {engine!r}")
    if optimizer not in ("gd", "adam"):
        raise ConfigError(f"unknown optimizer {optimizer!r}")
    if engine in ("reverse", "forward"):
        if unroll_steps is None or unroll_step is None:
            raise ConfigError(
                "unrolled engines require unroll_steps and an explicit unroll_step"
            )
    solver_cfg = solver_cfg or GDConfig(
        max_iters=5000, grad_tol=1e-8, warm_start=True
    )
    if engine == "minimizer":
        sample_grad = _implicit_engine(
            lambda i, problem: (solver_cfg, cg_tol), cg_max_iters
        )
    else:
        def sample_grad(i, problem, loss, start):
            fn = (
                hypergrad_unrolled_reverse
                if engine == "reverse"
                else hypergrad_unrolled_forward
            )
            return fn(problem, loss, start, unroll_steps, unroll_step)

    m = np.zeros(theta0.theta_size())
    v = np.zeros(theta0.theta_size())

    def update(i, theta_vec, g, value):
        nonlocal m, v
        if optimizer == "gd":
            return theta_vec - step * g, {}
        m = adam_beta1 * m + (1.0 - adam_beta1) * g
        v = adam_beta2 * v + (1.0 - adam_beta2) * g * g
        m_hat = m / (1.0 - adam_beta1**i)
        v_hat = v / (1.0 - adam_beta2**i)
        return theta_vec - step * m_hat / (np.sqrt(v_hat) + adam_eps), {}

    # the unrolled steps are differentiated from a theta-independent start,
    # so only the implicit engine may warm start
    warm_start = engine == "minimizer" and solver_cfg.warm_start
    return _double_loop(
        theta0, x0, train, loss_spec, max_upper, theta_rel_tol, learn_mask,
        warm_start, sample_grad, update,
    )


def grid_search(
    beta0_grid: Sequence[float],
    theta: HyperParams,
    train: TrainSet,
    loss_spec: LossSpec,
    solver_cfg: GDConfig,
) -> tuple[float, list[tuple[float, float]]]:
    """Evaluate the upper loss on a grid of overall log-weights beta0.

    Filters and per-filter weights stay fixed; returns the argmin (first on
    ties) and the full (beta0, loss) table in input order.
    """
    if len(beta0_grid) == 0:
        raise ConfigError("beta0 grid must be nonempty")
    table = []
    for b0 in beta0_grid:
        candidate = replace(theta, beta0=float(b0))
        value, _ = evaluate_upper(candidate, train, loss_spec, solver_cfg)
        table.append((float(b0), value))
    best = min(range(len(table)), key=lambda k: table[k][1])
    return table[best][0], table


def default_theta_init(
    grid,
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
        x_start = _cold_start(train, None, 0)
        g_data = train.A.adjoint(train.A.apply(x_start) - train.y[0])
        g_reg = LowerProblem(train.A, train.y[0], hp).grad_x(x_start) - g_data
        data_norm = float(np.linalg.norm(g_data))
        reg_norm = float(np.linalg.norm(g_reg))
        if data_norm > 0 and reg_norm > 0:
            hp = replace(hp, beta0=float(np.log(data_norm / reg_norm)))
    return hp
