"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import csv
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bilevelreg.cli import main as cli_main
from bilevelreg.data import (
    add_noise,
    gen_piecewise_constant,
    load_params,
    load_signal,
    save_params,
    save_signal,
)
from bilevelreg.forward import Circulant, Identity, Mask
from bilevelreg.hypergrad import (
    grad_compare,
    hypergrad_minimizer,
    hypergrad_unrolled_forward,
    hypergrad_unrolled_reverse,
)
from bilevelreg.losses import MSELoss, bind_loss, metrics, sure_mc
from bilevelreg.lower import (
    HyperParams,
    Linearization,
    LowerProblem,
    pack_theta,
    theta_mask,
    unpack_theta,
)
from bilevelreg.potentials import CornerRounded1Norm, Quadratic
from bilevelreg.signals import Grid, circ_conv, circ_conv_adjoint
from bilevelreg.solvers import GDConfig, cg_solve, gd_minimize
from bilevelreg.upper import (
    Constant,
    TrainSet,
    adam_or_gd_upper,
    ba,
    grid_search,
    hoag,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(index: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {index:2d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {index} ({name}) failed{suffix}"


def unit_norm_zero_mean_filters(rng, k, taps):
    out = []
    for _ in range(k):
        c = rng.standard_normal(taps)
        c -= c.mean()
        out.append(c / np.linalg.norm(c))
    return out


def test_criterion_1_minimizer_hypergradient_exactness():
    t_start = time.time()
    grid = Grid((64,))
    A = Identity(grid)
    rng = np.random.default_rng(64)
    hp = HyperParams(
        -2.0, [0.0, 0.0], unit_norm_zero_mean_filters(rng, 2, (3,)),
        CornerRounded1Norm(0.01),
    )
    x_true = gen_piecewise_constant(grid, 5, (0.0, 1.0), seed=65)
    y = add_noise(x_true, A, 0.05, seed=66)
    problem = LowerProblem(A, y, hp)
    loss = bind_loss(MSELoss(), y, A, x_true)
    x0 = A.adjoint(y)
    cfg = GDConfig(step="one-over-L", max_iters=500_000, grad_tol=1e-10)
    engine = hypergrad_minimizer(problem, loss, x0, cfg, 1e-12)

    theta_vec = pack_theta(hp)
    h = 1e-6
    fd = np.zeros_like(theta_vec)
    for p in range(theta_vec.size):
        vals = []
        for sign in (1.0, -1.0):
            tv = theta_vec.copy()
            tv[p] += sign * h
            prob = LowerProblem(A, y, unpack_theta(hp, tv))
            vals.append(loss.value(gd_minimize(prob, x0, cfg).x))
        fd[p] = (vals[0] - vals[1]) / (2 * h)
    rel = float(np.max(np.abs(engine.grad - fd) / np.abs(fd)))
    elapsed = time.time() - t_start
    report(1, "minimizer hypergradient vs end-to-end FD",
           rel <= 1e-5 and elapsed < 30.0,
           f"max per-coordinate rel err {rel:.2e}, {elapsed:.1f}s")


def test_criterion_2_dual_mode_identity():
    t_start = time.time()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        grid = Grid((16,))
        A = Identity(grid)
        hp = HyperParams(
            -1.0, rng.standard_normal(2) * 0.3,
            unit_norm_zero_mean_filters(rng, 2, (3,)), CornerRounded1Norm(0.1),
        )
        x_true = rng.standard_normal(16)
        y = x_true + 0.1 * rng.standard_normal(16)
        problem = LowerProblem(A, y, hp)
        loss = bind_loss(MSELoss(), y, A, x_true)
        x0 = A.adjoint(y)
        step = 1.0 / problem.lipschitz_grad()
        for n_steps in (1, 5, 50):
            rev = hypergrad_unrolled_reverse(problem, loss, x0, n_steps, step)
            fwd = hypergrad_unrolled_forward(problem, loss, x0, n_steps, step)
            rel = float(
                np.linalg.norm(rev.grad - fwd.grad)
                / max(np.linalg.norm(fwd.grad), 1e-300)
            )
            worst = max(worst, rel)
    elapsed = time.time() - t_start
    report(2, "reverse/forward unrolled identity",
           worst <= 1e-10 and elapsed < 30.0,
           f"worst rel diff {worst:.2e} over 10 seeds x T in {{1,5,50}}, "
           f"{elapsed:.1f}s")


def test_criterion_3_engine_consistency():
    grid = Grid((12,))
    A = Identity(grid)
    rng = np.random.default_rng(3)
    hp = HyperParams(
        -1.0, [0.1], unit_norm_zero_mean_filters(rng, 1, (2,)),
        CornerRounded1Norm(0.1),
    )
    x_true = rng.standard_normal(12)
    y = x_true + 0.1 * rng.standard_normal(12)
    problem = LowerProblem(A, y, hp)
    loss = bind_loss(MSELoss(), y, A, x_true)
    x0 = A.adjoint(y)
    step = 1.0 / problem.lipschitz_grad()
    exact = hypergrad_minimizer(problem, loss, x0, GDConfig(
        step="one-over-L", max_iters=500_000, grad_tol=1e-13), 1e-13)
    x = x0.copy()
    n_steps = 0
    while np.linalg.norm(x - exact.x_final) > 1e-9:
        x -= step * problem.grad_x(x)
        n_steps += 1
        assert n_steps < 10**6
    unrolled = hypergrad_unrolled_reverse(problem, loss, x0, n_steps, step)
    rel = float(
        np.linalg.norm(unrolled.grad - exact.grad) / np.linalg.norm(exact.grad)
    )
    report(3, "unrolled matches minimizer at convergence", rel <= 1e-6,
           f"T={n_steps}, rel gap {rel:.2e}")


def test_criterion_4_gradient_angle_vs_tolerance():
    t_start = time.time()
    grid = Grid((32,))
    A = Identity(grid)
    x_true = gen_piecewise_constant(grid, 4, (0.0, 1.0), seed=401)
    y = add_noise(x_true, A, 0.05, seed=402)
    hp = HyperParams(0.0, [-1.0], [np.array([0.7, -0.7])],
                     CornerRounded1Norm(0.01))
    problem = LowerProblem(A, y, hp)
    loss = bind_loss(MSELoss(), y, A, x_true)
    x0 = A.adjoint(y)
    mask = theta_mask(hp, betas=False)  # the learnable figure parameters: taps
    estimates = {}
    for tol in (1e-1, 1e-2, 1e-4, 1e-8, 1e-12):
        estimates[tol] = hypergrad_minimizer(
            problem, loss, x0,
            GDConfig(step="one-over-L", max_iters=500_000, grad_tol=tol),
            min(tol, 1e-8),
        ).grad * mask
    ref = estimates[1e-12]
    angles = [grad_compare(estimates[t], ref)[0]
              for t in (1e-1, 1e-2, 1e-4, 1e-8)]
    strict = angles[3] < angles[1]
    monotone = all(b <= a * 1.1 + 1e-12 for a, b in zip(angles, angles[1:]))
    elapsed = time.time() - t_start
    report(4, "gradient-angle error shrinks with tolerance",
           strict and monotone and elapsed < 120.0,
           "angles " + ", ".join(f"{a:.2e}" for a in angles)
           + f", {elapsed:.1f}s")


def test_criterion_5_closed_form_bilevel_optimum():
    grid = Grid((1,))
    hp = HyperParams(0.0, [0.0], [np.array([1.0])], Quadratic())
    train = TrainSet(x_true=[np.array([1.5])], y=[np.array([2.0])],
                     A=Identity(grid))
    mask = theta_mask(hp, taps=False)
    cfg = GDConfig(step="one-over-L", max_iters=10_000, grad_tol=1e-12,
                   warm_start=True)
    target = 1.0 / 3.0
    results = {}
    budgets = {}
    t0 = time.time()
    theta_h, _ = hoag(hp, None, train, MSELoss(), eps_schedule=0.1,
                      step=Constant(0.5), max_upper=500, solver_cfg=cfg,
                      theta_rel_tol=1e-6, learn_mask=mask)
    budgets["hoag"] = time.time() - t0
    results["hoag"] = float(np.exp(theta_h.beta0 + theta_h.betas[0]))
    t0 = time.time()
    theta_b, _ = ba(hp, None, 0.5, "paper-default", 50, train, MSELoss(),
                    max_upper=500, theta_rel_tol=1e-6, learn_mask=mask)
    budgets["ba"] = time.time() - t0
    results["ba"] = float(np.exp(theta_b.beta0 + theta_b.betas[0]))
    t0 = time.time()
    theta_a, _ = adam_or_gd_upper(hp, None, train, MSELoss(),
                                  engine="minimizer", optimizer="adam",
                                  step=0.2, max_upper=500, solver_cfg=cfg,
                                  theta_rel_tol=1e-7, learn_mask=mask)
    budgets["adam"] = time.time() - t0
    results["adam"] = float(np.exp(theta_a.beta0 + theta_a.betas[0]))
    ok = all(abs(lam - target) <= 1e-3 for lam in results.values())
    ok = ok and all(t < 10.0 for t in budgets.values())
    report(5, "closed-form optimum e^(b0+b1) = 1/3",
           ok,
           ", ".join(f"{k}={v:.6f}" for k, v in results.items()))


def test_criterion_6_constant_annihilating_filter():
    t_start = time.time()
    grid = Grid((32,))
    A = Identity(grid)
    ratios = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        c0 = rng.standard_normal(2)
        c0 /= np.linalg.norm(c0)
        xs, ys = [], []
        for s in range(2):
            x = gen_piecewise_constant(grid, 4, (0.0, 1.0),
                                       seed=600 + 10 * seed + s)
            xs.append(x)
            ys.append(add_noise(x, A, 0.05, seed=650 + 10 * seed + s))
        train = TrainSet(x_true=xs, y=ys, A=A)
        hp = HyperParams(np.log(0.05), [0.0], [c0], CornerRounded1Norm(0.01))
        theta, _ = adam_or_gd_upper(
            hp, None, train, MSELoss(), engine="reverse", optimizer="adam",
            step=0.03, max_upper=150, unroll_steps=200, unroll_step=0.05,
            theta_rel_tol=0.0, learn_mask=theta_mask(hp, betas=False),
        )
        c = theta.filters[0]
        ratios.append(float(abs(c.sum()) / np.linalg.norm(c)))
    elapsed = time.time() - t_start
    report(6, "learned 2-tap filter annihilates constants",
           all(r <= 0.1 for r in ratios) and elapsed < 180.0,
           "sum/norm ratios " + ", ".join(f"{r:.4f}" for r in ratios)
           + f", {elapsed:.0f}s")


def test_criterion_7_noise_adaptivity():
    grid = Grid((24,))
    A = Identity(grid)
    cfg = GDConfig(step="one-over-L", max_iters=50_000, grad_tol=1e-8,
                   warm_start=True)

    def learned_beta0(sigma, seed):
        xs, ys = [], []
        for s in range(2):
            x = gen_piecewise_constant(grid, 4, (0.0, 1.0),
                                       seed=1000 * seed + s)
            xs.append(x)
            ys.append(add_noise(x, A, sigma, seed=2000 * seed + s))
        train = TrainSet(x_true=xs, y=ys, A=A)
        hp = HyperParams(-2.0, [0.0], [np.array([0.7, -0.7])],
                         CornerRounded1Norm(0.01), learn_beta0=True)
        theta, _ = adam_or_gd_upper(hp, None, train, MSELoss(),
                                    engine="minimizer", optimizer="adam",
                                    step=0.1, max_upper=25, solver_cfg=cfg,
                                    theta_rel_tol=0.0)
        return float(np.exp(theta.beta0))

    pairs = []
    for seed in (1, 2, 3):
        clean = learned_beta0(0.0, seed)
        noisy = learned_beta0(0.1, seed)
        pairs.append((clean, noisy))
    ok = all(clean < noisy for clean, noisy in pairs)
    report(7, "learned weight shrinks as noise vanishes", ok,
           ", ".join(f"{c:.3e}<{n:.3e}" for c, n in pairs))


def test_criterion_8_sure_fidelity():
    sigma = 0.2
    errs = []
    for seed in range(5):
        rng = np.random.default_rng(800 + seed)
        y = sigma * rng.standard_normal(4096)
        est = sure_mc(lambda yy: yy, y[np.newaxis], sigma, n_probes=100,
                      seed=seed)[0]
        errs.append(abs(est - sigma**2) / sigma**2)
    identity_ok = all(e <= 0.05 for e in errs)

    rng = np.random.default_rng(9)
    n = 16
    w = rng.standard_normal((n, n))
    y = rng.standard_normal(n)
    est = sure_mc(lambda yy: yy @ w.T, y[np.newaxis], 1.0, n_probes=2000,
                  seed=0)[0]
    r = y - w @ y
    div_est = (est - float(r @ r) / n + 1.0) * n / 2.0
    trace_rel = abs(div_est - np.trace(w)) / abs(np.trace(w))
    report(8, "Monte-Carlo SURE fidelity",
           identity_ok and trace_rel <= 0.05,
           f"identity rel errs <= {max(errs):.1e}, trace rel {trace_rel:.3f}")


def test_criterion_9_denoising_utility():
    t_start = time.time()
    grid = Grid((64,))
    A = Identity(grid)
    hp = HyperParams(0.0, [0.0], [np.array([1.0, -1.0])],
                     CornerRounded1Norm(0.01))
    train_x, train_y = [], []
    for s in range(4):
        x = gen_piecewise_constant(grid, 5, (0.0, 1.0), seed=900 + s)
        train_x.append(x)
        train_y.append(add_noise(x, A, 0.1, seed=950 + s))
    train = TrainSet(x_true=train_x, y=train_y, A=A)
    cfg = GDConfig(step="one-over-L", max_iters=50_000, grad_tol=1e-8,
                   warm_start=True)
    beta_grid = [-6.0, -5.0, -4.0, -3.0, -2.5, -2.0, -1.5, -1.0, -0.5, 0.0, 1.0]
    best, table = grid_search(beta_grid, hp, train, MSELoss(), cfg)
    interior = beta_grid[0] < best < beta_grid[-1]
    theta = replace(hp, beta0=best)
    gains = []
    for s in range(10):  # disjoint out-of-sample seeds
        x = gen_piecewise_constant(grid, 5, (0.0, 1.0), seed=7000 + s)
        y = add_noise(x, A, 0.1, seed=7500 + s)
        xhat = gd_minimize(LowerProblem(A, y, theta), A.adjoint(y), cfg).x
        gains.append(metrics(xhat, x).psnr_db - metrics(y, x).psnr_db)
    median_gain = float(np.median(gains))
    elapsed = time.time() - t_start
    report(9, "grid-searched weight beats no regularization by 1 dB",
           interior and median_gain >= 1.0,
           f"best b0 {best}, median PSNR gain {median_gain:.2f} dB, "
           f"{elapsed:.0f}s")


def test_criterion_10_structural_suite(tmp_path):
    rng = np.random.default_rng(10)
    checks = {}

    # adjoint identities: convolution and all forward variants
    grid = Grid((12,))
    ok = True
    for _ in range(10):
        x, u = rng.standard_normal((2, 12))
        c = rng.standard_normal(3)
        ok &= abs(np.vdot(circ_conv(x, c), u)
                  - np.vdot(x, circ_conv_adjoint(u, c))) <= 1e-12
    mask_vals = np.ones(12)
    mask_vals[::3] = 0.0
    mask_vals[0] = 1.0
    for model in (Identity(grid), Mask(grid, mask_vals),
                  Circulant(grid, np.array([1.0, -1.0]))):
        x, u = rng.standard_normal((2, 12))
        ok &= abs(np.vdot(model.apply(x), u)
                  - np.vdot(x, model.adjoint(u))) <= 1e-12
    checks["adjoints"] = bool(ok)

    # Hessian symmetry and positive semidefiniteness
    hp = HyperParams(-0.5, [0.2], [np.array([0.6, -0.6])],
                     CornerRounded1Norm(0.05))
    problem = LowerProblem(Identity(grid), rng.standard_normal(12), hp)
    lin = Linearization(problem, rng.standard_normal(12))
    ok = True
    for _ in range(10):
        v, w = rng.standard_normal((2, 12))
        hv = lin.hess_vec(v)
        ok &= abs(np.vdot(hv, w) - np.vdot(v, lin.hess_vec(w))) <= 1e-12
        ok &= np.vdot(v, lin.hess_vec(v)) >= -1e-12
    checks["hessian"] = bool(ok)

    # CG against a dense solve
    g = rng.standard_normal((10, 10))
    mat = g.T @ g + np.eye(10)
    b = rng.standard_normal(10)
    q = cg_solve(lambda v: mat @ v, b, tol=1e-12, diagonal=np.diag(mat),
                 max_iters=200).x
    checks["cg_vs_dense"] = bool(
        np.linalg.norm(q - np.linalg.solve(mat, b)) <= 1e-9
    )

    # sampled Lipschitz bound
    lip = problem.lipschitz_grad()
    ok = True
    for _ in range(100):
        x1, x2 = rng.standard_normal((2, 12))
        ok &= (np.linalg.norm(problem.grad_x(x1) - problem.grad_x(x2))
               <= lip * np.linalg.norm(x1 - x2) + 1e-12)
    checks["lipschitz"] = bool(ok)

    # file round-trips
    sig = rng.standard_normal((4, 5))
    sig_path = tmp_path / "roundtrip.sig"
    save_signal(sig_path, sig)
    par_path = tmp_path / "roundtrip.json"
    save_params(par_path, hp)
    back = load_params(par_path)
    checks["file_roundtrip"] = bool(
        np.array_equal(load_signal(sig_path), sig)
        and np.array_equal(pack_theta(back), pack_theta(hp))
        and back.potential.epsilon == hp.potential.epsilon
    )

    # full-pipeline byte determinism (wall-time column excluded)
    outputs = []
    for name in ("run_a", "run_b"):
        d = tmp_path / name
        d.mkdir()
        cfg_path = d / "cfg.json"
        doc = json.loads((CONFIGS / "toy_train.json").read_text())
        doc["optimizer"]["max_upper"] = 3
        doc["output"] = {"params": str(d / "params.json"),
                         "trace": str(d / "trace.csv")}
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        with open(d / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_ms")
        stripped = [[c for i, c in enumerate(r) if i != drop] for r in rows]
        outputs.append(((d / "params.json").read_bytes(), stripped))
    checks["determinism"] = bool(
        outputs[0][0] == outputs[1][0] and outputs[0][1] == outputs[1][1]
    )

    ok = all(checks.values())
    report(10, "structural invariants",
           ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
