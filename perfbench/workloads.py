"""The benchmark's three workloads, built from a seed through the public API.

Every input a workload hands to the library derives from the run's seed and
the repetition index: the dataset seed (clean signals and noise), the
experiment's master seed (TTSA batch sampling), the theta-init seed (random
initial filters of ``unrolled-reverse-1d``) and the held-out seed.  The
library sees only the generated config file.

Why these three: each planned optimisation has one workload that exercises it
and one that bypasses it (see perfbench/README.md for the predictions).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import bilevelreg.cli  # noqa: F401  (imported so the tracer sees its bindings)
from bilevelreg import (
    LowerProblem,
    PowerLaw,
    adam_or_gd_upper,
    bind_loss,
    gd_minimize,
    grid_search,
    hypergrad_unrolled_forward,
    hypergrad_unrolled_reverse,
    metrics,
    pack_theta,
    ttsa,
)
from bilevelreg.data import (
    add_noise,
    build_theta,
    build_train_set,
    gen_piecewise_constant,
    load_config,
)
from bilevelreg.lower import theta_mask

DEFAULT_SEED = 1
# Never used while tuning a change; a claimed gain must also hold on it.
VALIDATION_SEED = 9001


def derived_seeds(seed: int, rep: int) -> dict[str, int]:
    """Independent sub-seeds for repetition ``rep`` of a run at ``seed``."""
    state = np.random.SeedSequence([seed, rep]).generate_state(4)
    keys = ("master", "dataset", "theta", "heldout")
    return {k: int(v) % 1_000_000_007 for k, v in zip(keys, state)}


@dataclass
class Instance:
    """A set-up workload instance: parsed config, training set, initial theta."""

    cfg: object
    train: object
    theta0: object
    heldout_seed: int


def setup(config_path: Path, heldout_seed: int) -> Instance:
    """The timed set-up: config parsing and spec building, dataset, theta."""
    cfg = load_config(config_path)
    train = build_train_set(cfg.dataset, cfg.grid, cfg.forward)
    theta0 = build_theta(cfg, train)
    return Instance(cfg, train, theta0, heldout_seed)


@dataclass
class Outcome:
    theta: object  # HyperParams the workload returns
    upper_steps: int  # upper iterations (grid points for the sweep)
    step_ms: list[float] = field(default_factory=list)  # per-step wall time


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_config: Callable[[dict[str, int]], dict]
    drive: Callable[[Instance], tuple[object, Outcome]]
    check: Callable[[Instance, object], list[str]]
    identities: Callable[[dict, Instance], list[tuple[str, float, float]]]
    min_reps: int  # also the number of returned thetas scored on held-out data
    heldout_signals: int  # held-out signals per scored theta


def write_config(workload: Workload, seed: int, rep: int, workdir: Path):
    seeds = derived_seeds(seed, rep)
    path = workdir / f"{workload.name}-{seed}-{rep}.json"
    path.write_text(json.dumps(workload.make_config(seeds)))
    return path, seeds["heldout"]


def heldout_psnr(inst: Instance, theta, i: int) -> float:
    """PSNR of held-out signal ``i`` of the instance, reconstructed with
    ``theta`` by the workload's lower solver settings."""
    cfg = inst.cfg
    ds = cfg.dataset
    A = cfg.forward
    x = gen_piecewise_constant(cfg.grid, ds.n_jumps, ds.amplitude,
                               inst.heldout_seed + i)
    y = add_noise(x, A, ds.noise_sigma, inst.heldout_seed + 100_000 + i)
    xhat = gd_minimize(LowerProblem(A, y, theta), A.adjoint(y), cfg.solver).x
    return metrics(xhat, x).psnr_db


# --- sweep-1d: configs/sweep.json, reconstruction only -------------------

def _sweep_config(seeds):
    return {
        "seed": seeds["master"],
        "grid": [64],
        "forward": {"kind": "identity"},
        "potential": {"kind": "cr1n", "epsilon": 0.01},
        "theta_init": {"filters": [[1.0, -1.0]], "betas": [0.0], "beta0": 0.0},
        "optimizer": {"kind": "gd", "step": 0.0, "max_upper": 1},
        "loss": {"kind": "mse"},
        "dataset": {"count": 4, "n_jumps": 5, "amplitude": [0.0, 1.0],
                    "noise_sigma": 0.1, "seed": seeds["dataset"]},
        "solver": {"step": "one-over-L", "max_iters": 50000, "grad_tol": 1e-8,
                   "warm_start": True},
        "sweep": {"beta0_grid": [-6.0, -5.0, -4.0, -3.0, -2.5, -2.0, -1.5,
                                 -1.0, -0.5, 0.0, 1.0]},
    }


def _sweep_drive(inst):
    cfg = inst.cfg
    grid = cfg.sweep["beta0_grid"]
    best, table = grid_search(grid, inst.theta0, inst.train, cfg.loss, cfg.solver)
    theta = replace(inst.theta0, beta0=best)
    return (best, table), Outcome(theta=theta, upper_steps=len(grid))


def _sweep_check(inst, result):
    best, table = result
    grid = inst.cfg.sweep["beta0_grid"]
    problems = []
    if not all(math.isfinite(v) for _, v in table):
        problems.append("non-finite loss in the sweep table")
    if not min(grid) < best < max(grid):
        problems.append(f"best beta0 {best} is not strictly inside the grid")
    return problems


def _sweep_identities(counts, inst):
    gd_calls = counts["solvers.gd_minimize.calls"]
    return [("lower.grad_x.calls == sum(iters_run + 1) over gd_minimize",
             counts["lower.grad_x.calls"],
             counts["solvers.gd_minimize.iters"] + gd_calls)]


# --- unrolled-reverse-1d: the shape of acceptance criterion 6 -----------

UNROLL_STEPS = 200


def _unrolled_config(seeds):
    rng = np.random.Generator(np.random.PCG64(seeds["theta"]))
    c0 = rng.standard_normal(2)
    c0 /= np.linalg.norm(c0)
    return {
        "seed": seeds["master"],
        "grid": [32],
        "forward": {"kind": "identity"},
        "potential": {"kind": "cr1n", "epsilon": 0.01},
        "theta_init": {"filters": [c0.tolist()], "betas": [0.0],
                       "beta0": math.log(0.05)},
        "engine": {"kind": "reverse", "unroll_steps": UNROLL_STEPS,
                   "unroll_step": 0.05},
        "optimizer": {"kind": "adam", "step": 0.03, "max_upper": 30,
                      "theta_rel_tol": 0.0},
        "loss": {"kind": "mse"},
        "dataset": {"count": 2, "n_jumps": 4, "amplitude": [0.0, 1.0],
                    "noise_sigma": 0.05, "seed": seeds["dataset"]},
        "solver": {"step": "one-over-L", "max_iters": 50000, "grad_tol": 1e-8},
    }


def _unrolled_drive(inst):
    cfg = inst.cfg
    eng, opt = cfg.engine, cfg.optimizer
    theta, trace = adam_or_gd_upper(
        inst.theta0, None, inst.train, cfg.loss,
        engine=eng["kind"], optimizer=opt["kind"], step=opt["step"],
        max_upper=opt["max_upper"], solver_cfg=cfg.solver,
        unroll_steps=eng["unroll_steps"], unroll_step=eng["unroll_step"],
        theta_rel_tol=opt["theta_rel_tol"],
        learn_mask=theta_mask(inst.theta0, betas=False),
    )
    return theta, Outcome(theta=theta, upper_steps=len(trace),
                          step_ms=[r.wall_ms for r in trace.records])


def _unrolled_check(inst, theta):
    """Reverse and forward unrolled hypergradients agree at the final theta."""
    cfg, train = inst.cfg, inst.train
    if not np.all(np.isfinite(pack_theta(theta))):
        return ["final theta is not finite"]
    problem = LowerProblem(train.A, train.y[0], theta)
    loss = bind_loss(cfg.loss, train.y[0], train.A, train.x_true[0])
    x0 = train.A.adjoint(train.y[0])
    args = (cfg.engine["unroll_steps"], cfg.engine["unroll_step"])
    rev = hypergrad_unrolled_reverse(problem, loss, x0, *args).grad
    fwd = hypergrad_unrolled_forward(problem, loss, x0, *args).grad
    gap = float(np.linalg.norm(rev - fwd))
    scale = max(float(np.linalg.norm(fwd)), 1e-30)
    if not gap <= 1e-10 * scale:
        return [f"reverse/forward hypergradients differ by {gap:.3e} "
                f"(relative {gap / scale:.3e})"]
    return []


def _unrolled_identities(counts, inst):
    reverse_calls = counts["hypergrad.hypergrad_unrolled_reverse.calls"]
    t = inst.cfg.engine["unroll_steps"]
    return [
        ("lower.grad_x.calls == sum(iters_run + 1) over gd_minimize",
         counts["lower.grad_x.calls"],
         counts["solvers.gd_minimize.iters"] + counts["solvers.gd_minimize.calls"]),
        ("lower.hess_vec.calls == T * reverse calls",
         counts["lower.hess_vec.calls"], t * reverse_calls),
        ("lower.jac_adjoint_apply.calls == T * reverse calls",
         counts["lower.jac_adjoint_apply.calls"], t * reverse_calls),
    ]


# --- ttsa-deblur-2d: 2-D deblurring, CG-dominated single loop ------------

BLUR = [[0.0, 0.1, 0.0], [0.1, 0.6, 0.1], [0.0, 0.1, 0.0]]
# Horizontal and vertical first differences: a fixed, TV-like start, so the
# CG work per step varies with the data only.
DIFF_FILTERS = [[[0.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 0.0]],
                [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]]


def _ttsa_config(seeds):
    return {
        "seed": seeds["master"],
        "grid": [32, 32],
        "forward": {"kind": "circulant", "taps": BLUR},
        "potential": {"kind": "cr1n", "epsilon": 0.01},
        "theta_init": {"filters": DIFF_FILTERS, "betas": [0.0, 0.0],
                       "beta0": -4.0},
        "engine": {"kind": "minimizer", "cg_tol": 1e-8},
        "optimizer": {"kind": "ttsa", "up_a": 0.1, "up_exponent": 0.75,
                      "low_a": 0.05, "low_exponent": 0.5, "batch": 2,
                      "max_upper": 40},
        "loss": {"kind": "mse"},
        "dataset": {"count": 4, "n_jumps": 4, "amplitude": [0.0, 1.0],
                    "noise_sigma": 0.05, "seed": seeds["dataset"]},
        "solver": {"step": "one-over-L", "max_iters": 2000},
    }


def _ttsa_drive(inst):
    cfg = inst.cfg
    opt = cfg.optimizer
    theta, trace = ttsa(
        inst.theta0, np.zeros(cfg.grid.dims),
        PowerLaw(opt["up_a"], opt["up_exponent"]),
        PowerLaw(opt["low_a"], opt["low_exponent"]),
        inst.train, cfg.loss, batch=opt["batch"], seed=cfg.seed,
        max_iter=opt["max_upper"], cg_tol=cfg.engine["cg_tol"],
    )
    return (theta, trace), Outcome(theta=theta, upper_steps=len(trace),
                                   step_ms=[r.wall_ms for r in trace.records])


def _ttsa_check(inst, result):
    """Theta, losses and gradient norms are finite, and every recorded step
    is the scheduled upper step times the recorded gradient norm.

    The batch loss is not compared across records: consecutive records score
    different random batches against one shared iterate, so it can rise
    while the method works.
    """
    theta, trace = result
    if not np.all(np.isfinite(pack_theta(theta))):
        return ["final theta is not finite"]
    opt = inst.cfg.optimizer
    schedule = PowerLaw(opt["up_a"], opt["up_exponent"])
    prev = pack_theta(inst.theta0)
    for rec in trace.records:
        if not (math.isfinite(rec.loss) and math.isfinite(rec.grad_norm)):
            return [f"non-finite loss or gradient norm at iteration {rec.iteration}"]
        step = schedule.at(rec.iteration)
        moved = float(np.linalg.norm(rec.theta - prev))
        if not math.isclose(moved, step * rec.grad_norm, rel_tol=1e-6, abs_tol=1e-300):
            return [f"iteration {rec.iteration}: theta moved {moved!r}, expected "
                    f"step {step!r} x gradient norm {rec.grad_norm!r}"]
        prev = rec.theta
    return []


def _ttsa_identities(counts, inst):
    batch = inst.cfg.optimizer["batch"]
    return [("lower.hess_vec.calls == batch * cg_solve iters",
             counts["lower.hess_vec.calls"],
             batch * counts["solvers.cg_solve.iters"])]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-1d",
            why="configs/sweep.json: cold GD solves to 1e-8 over 11 beta0 "
                "values; lower solver and grad_x only, no Hessian, Jacobian or CG",
            make_config=_sweep_config,
            drive=_sweep_drive,
            check=_sweep_check,
            identities=_sweep_identities,
            min_reps=4,
            heldout_signals=8,
        ),
        Workload(
            name="unrolled-reverse-1d",
            why="criterion-6 shape: Adam over the reverse engine, T=200 on N=32; "
                "fixed work of tiny grad/Hv/Jacobian calls, overhead-bound",
            make_config=_unrolled_config,
            drive=_unrolled_drive,
            check=_unrolled_check,
            identities=_unrolled_identities,
            min_reps=6,
            heldout_signals=8,
        ),
        Workload(
            name="ttsa-deblur-2d",
            why="2-D 32x32 deblurring with 3x3 filters: TTSA with a CG solve per "
                "step; CG, phi'' and 2-D convolution, no lower GD solve",
            make_config=_ttsa_config,
            drive=_ttsa_drive,
            check=_ttsa_check,
            identities=_ttsa_identities,
            min_reps=4,
            heldout_signals=4,
        ),
    )
}
