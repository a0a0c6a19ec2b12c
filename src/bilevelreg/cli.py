"""Command-line interface: train, reconstruct, eval, gradcheck, sweep, gen-data.

Every run is driven by a JSON experiment config (see README for the schema);
outputs are signal files, parameter files, and CSV tables.  Exit codes:
0 success, 1 runtime failure (one-line ``error: ...`` on stderr), 2 usage.
``train`` adds one ``warning: ...`` line on stderr when any upper iteration
raised a hypergradient warning.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .data import (
    ExperimentConfig,
    build_theta,
    build_train_set,
    load_config,
    load_params,
    load_signal,
    save_params,
    save_signal,
)
from .errors import BilevelError, ConfigError
from .hypergrad import (
    grad_compare,
    hypergrad_minimizer,
    hypergrad_unrolled_forward,
    hypergrad_unrolled_reverse,
)
from .losses import bind_loss, metrics
from .lower import LowerProblem, pack_theta, unpack_theta
from .solvers import GDConfig, gd_minimize
from .upper import (
    PowerLaw,
    adam_or_gd_upper,
    ba,
    grid_search,
    hoag,
    ttsa,
)


def _run_train(cfg: ExperimentConfig):
    train = build_train_set(cfg.dataset, cfg.grid, cfg.forward)
    theta0 = build_theta(cfg, train)
    engine = cfg.engine
    opt = cfg.optimizer
    kind = opt["kind"]
    if kind in ("adam", "gd"):
        theta, trace = adam_or_gd_upper(
            theta0, None, train, cfg.loss,
            engine=engine["kind"],
            optimizer=kind,
            step=opt["step"],
            max_upper=opt["max_upper"],
            solver_cfg=cfg.solver,
            unroll_steps=engine.get("unroll_steps"),
            unroll_step=engine.get("unroll_step"),
            cg_tol=engine.get("cg_tol", 1e-10),
            theta_rel_tol=opt["theta_rel_tol"],
        )
    elif kind == "hoag":
        theta, trace = hoag(
            theta0, None, train, cfg.loss,
            eps_schedule=opt["eps0"],
            step=opt["step"],
            max_upper=opt["max_upper"],
            solver_cfg=cfg.solver,
            theta_rel_tol=opt["theta_rel_tol"],
        )
    elif kind == "ba":
        theta, trace = ba(
            theta0, None, opt["ss_upper"], opt["ss_lower"], opt["inner_iters"],
            train, cfg.loss,
            max_upper=opt["max_upper"],
            warm_start=opt["warm_start"],
            cg_tol=engine["cg_tol"],
            theta_rel_tol=opt["theta_rel_tol"],
        )
    else:  # ttsa
        theta, trace = ttsa(
            theta0,
            train.A.adjoint(train.y[0]),
            PowerLaw(opt["up_a"], opt["up_exponent"]),
            PowerLaw(opt["low_a"], opt["low_exponent"]),
            train, cfg.loss,
            batch=min(opt["batch"], train.n_samples),
            seed=cfg.seed,
            max_iter=opt["max_upper"],
            cg_tol=engine["cg_tol"],
        )
    save_params(cfg.output["params"], theta)
    trace.write_csv(cfg.output["trace"])
    print(
        f"wrote {cfg.output['params']} and {cfg.output['trace']} "
        f"({len(trace)} iterations)"
    )
    warned = sum(r.extra.get("warnings", 0.0) > 0 for r in trace.records)
    if warned:
        print(f"warning: {warned} of {len(trace)} iterations raised a hypergradient "
              "warning (the trace's warnings column counts them)", file=sys.stderr)
    return 0


def _run_reconstruct(cfg: ExperimentConfig, params_path, input_path, output_path):
    theta = load_params(params_path)
    y = load_signal(input_path)
    if y.shape != cfg.grid.dims:
        raise ConfigError(
            f"input signal shape {y.shape} does not match config grid {cfg.grid.dims}"
        )
    problem = LowerProblem(cfg.forward, y, theta)
    res = gd_minimize(problem, cfg.forward.adjoint(y), cfg.solver)
    save_signal(output_path, res.x)
    print(
        f"wrote {output_path} (iterations {res.iters_run}, "
        f"final grad norm {res.final_grad_norm:.3e})"
    )
    return 0


def _run_eval(estimate_path, reference_path, output_path):
    xhat = load_signal(estimate_path)
    x_true = load_signal(reference_path)
    m = metrics(xhat, x_true)
    with open(output_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mse", "mae", "snr_db", "psnr_db"])
        writer.writerow([repr(m.mse), repr(m.mae), repr(m.snr_db), repr(m.psnr_db)])
    print(
        f"mse={m.mse:.6g} mae={m.mae:.6g} snr_db={m.snr_db:.4g} "
        f"psnr_db={m.psnr_db:.4g}"
    )
    return 0


def _fd_pipeline_gradient(problem, loss, x0, solver_cfg, h):
    theta_vec = pack_theta(problem.theta)
    grad = np.zeros_like(theta_vec)
    for p in range(theta_vec.size):
        values = []
        for sign in (+1.0, -1.0):
            shifted = theta_vec.copy()
            shifted[p] += sign * h
            prob = LowerProblem(
                problem.A, problem.y, unpack_theta(problem.theta, shifted)
            )
            res = gd_minimize(prob, x0, solver_cfg)
            values.append(loss.value(res.x))
        grad[p] = (values[0] - values[1]) / (2.0 * h)
    return grad


def _run_gradcheck(cfg: ExperimentConfig):
    gc = cfg.gradcheck
    train = build_train_set(cfg.dataset, cfg.grid, cfg.forward)
    theta = build_theta(cfg, train)
    problem = LowerProblem(cfg.forward, train.y[0], theta)
    loss = bind_loss(cfg.loss, train.y[0], cfg.forward, train.x_true[0])
    x0 = cfg.forward.adjoint(train.y[0])
    tight = GDConfig(step="one-over-L", max_iters=200_000, grad_tol=1e-11)
    lines = []

    # engine vs central finite differences of the fully solved pipeline
    engine = hypergrad_minimizer(problem, loss, x0, tight, 1e-12)
    fd = _fd_pipeline_gradient(problem, loss, x0, tight, gc["fd_step"])
    denom = max(float(np.max(np.abs(fd))), 1e-30)
    fd_err = float(np.max(np.abs(engine.grad - fd))) / denom
    lines.append(
        f"fd-agreement max_rel_err={fd_err:.3e} "
        + ("PASS" if fd_err <= gc["fd_rel_tol"] else "FAIL")
    )

    # unrolled reverse vs forward identity
    step = 1.0 / problem.lipschitz_grad()
    rev = hypergrad_unrolled_reverse(problem, loss, x0, gc["unroll_steps"], step)
    fwd = hypergrad_unrolled_forward(problem, loss, x0, gc["unroll_steps"], step)
    pair_err = float(
        np.linalg.norm(rev.grad - fwd.grad) / max(np.linalg.norm(fwd.grad), 1e-30)
    )
    lines.append(
        f"reverse-forward rel_err={pair_err:.3e} "
        + ("PASS" if pair_err <= 1e-10 else "FAIL")
    )

    # gradient angle vs lower-level tolerance sweep, against a tight reference
    estimates = []
    for tol in [*gc["tolerances"], 1e-12]:
        cfg_tol = GDConfig(step="one-over-L", max_iters=500_000, grad_tol=tol)
        est = hypergrad_minimizer(problem, loss, x0, cfg_tol, min(tol, 1e-8))
        estimates.append((tol, est.grad))
    reference = estimates.pop()[1]
    angles = []
    for tol, grad in estimates:
        angle, rel = grad_compare(grad, reference)
        angles.append((tol, angle, rel))
    monotone = all(
        angles[i + 1][1] <= angles[i][1] * 1.1 + 1e-12
        for i in range(len(angles) - 1)
    )
    lines.append("angle-sweep monotone=" + ("PASS" if monotone else "FAIL"))

    with open(cfg.output["angles"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tolerance", "angle_rad", "rel_norm_err"])
        for tol, angle, rel in angles:
            writer.writerow([repr(tol), repr(angle), repr(rel)])
    Path(cfg.output["report"]).write_text(
        "".join(line + "\n" for line in lines)
    )
    for line in lines:
        print(line)
    return 0 if all(line.endswith("PASS") for line in lines) else 1


def _run_sweep(cfg: ExperimentConfig):
    if not cfg.sweep:
        raise ConfigError("missing config section 'sweep'")
    train = build_train_set(cfg.dataset, cfg.grid, cfg.forward)
    theta = build_theta(cfg, train)
    best, table = grid_search(
        cfg.sweep["beta0_grid"], theta, train, cfg.loss, cfg.solver
    )
    with open(cfg.output["table"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta0", "loss"])
        for b0, value in table:
            writer.writerow([repr(b0), repr(value)])
    print(f"best beta0 = {best!r} (table in {cfg.output['table']})")
    return 0


def _run_gen_data(cfg: ExperimentConfig, output_dir):
    train = build_train_set(cfg.dataset, cfg.grid, cfg.forward)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for j in range(train.n_samples):
        save_signal(out / f"x_true_{j:03d}.sig", train.x_true[j])
        save_signal(out / f"y_{j:03d}.sig", train.y[j])
    print(f"wrote {train.n_samples} training pairs to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilevelreg",
        description="Learn sparsifying-filter regularizers by bilevel optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the configured upper-level optimizer")
    p_train.add_argument("--config", required=True)

    p_rec = sub.add_parser("reconstruct", help="solve the lower level for given data")
    p_rec.add_argument("--config", required=True)
    p_rec.add_argument("--params", required=True)
    p_rec.add_argument("--input", required=True)
    p_rec.add_argument("--output", required=True)

    p_eval = sub.add_parser("eval", help="full-reference metrics for a reconstruction")
    p_eval.add_argument("--estimate", required=True)
    p_eval.add_argument("--reference", required=True)
    p_eval.add_argument("--output", required=True)

    p_gc = sub.add_parser("gradcheck", help="engine-vs-FD and engine-vs-engine checks")
    p_gc.add_argument("--config", required=True)

    p_sweep = sub.add_parser("sweep", help="grid search over the overall log weight")
    p_sweep.add_argument("--config", required=True)

    p_gen = sub.add_parser("gen-data", help="emit the seeded training dataset")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--output-dir", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        if args.command == "train":
            return _run_train(load_config(args.config))
        if args.command == "reconstruct":
            return _run_reconstruct(
                load_config(args.config), args.params, args.input, args.output
            )
        if args.command == "eval":
            return _run_eval(args.estimate, args.reference, args.output)
        if args.command == "gradcheck":
            return _run_gradcheck(load_config(args.config))
        if args.command == "sweep":
            return _run_sweep(load_config(args.config))
        if args.command == "gen-data":
            return _run_gen_data(load_config(args.config), args.output_dir)
        parser.print_usage(sys.stderr)
        return 2
    except (BilevelError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
