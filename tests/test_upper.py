import re
from pathlib import Path

import numpy as np
import pytest

import bilevelreg.hypergrad as hypergrad
import bilevelreg.upper as upper
from bilevelreg.data import (
    DatasetSpec,
    add_noise,
    build_theta,
    build_train_set,
    gen_piecewise_constant,
    load_config,
)
from bilevelreg.errors import (
    ConfigError,
    DivergenceError,
    SpdViolationError,
    StepTooLargeError,
)
from bilevelreg.forward import Circulant, Identity, Mask
from bilevelreg.hypergrad import grad_compare, hypergrad_minimizer
from bilevelreg.losses import MSELoss, SureMCLoss, bind_loss, sure_mc
from bilevelreg.lower import (
    HyperParams,
    LowerProblem,
    pack_theta,
    theta_mask,
    unpack_theta,
)
from bilevelreg.potentials import CornerRounded1Norm, Quadratic
from bilevelreg.signals import Grid
from bilevelreg.solvers import GDConfig, cg_solve, gd_minimize
from bilevelreg.upper import (
    Constant,
    DecreaseAdaptive,
    PowerLaw,
    StableState,
    TrainSet,
    _StepController,
    adam_or_gd_upper,
    ba,
    clip_matrix_norm,
    evaluate_upper,
    grid_search,
    hoag,
    stable_run,
    stable_step,
    truncate_eigenvalues,
    ttsa,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TARGET_LAMBDA = 1.0 / 3.0  # argmin of (y/(1+lam) - x_true)^2 for y=2, x_true=1.5


def scalar_toy():
    grid = Grid((1,))
    hp = HyperParams(0.0, [0.0], [np.array([1.0])], Quadratic())
    train = TrainSet(x_true=[np.array([1.5])], y=[np.array([2.0])], A=Identity(grid))
    mask = theta_mask(hp, taps=False)
    cfg = GDConfig(step="one-over-L", max_iters=10_000, grad_tol=1e-12,
                   warm_start=True)
    return hp, train, mask, cfg


def filter_train_set(n_samples=3, n=32, sigma=0.05, seed0=100):
    grid = Grid((n,))
    A = Identity(grid)
    xs, ys = [], []
    for s in range(n_samples):
        x = gen_piecewise_constant(grid, 4, (0.0, 1.0), seed=seed0 + s)
        xs.append(x)
        ys.append(add_noise(x, A, sigma, seed=seed0 + 50 + s))
    return TrainSet(x_true=xs, y=ys, A=A)


def vanishing_blur_toy():
    """Two signals blurred by [0.5, 0.5], which vanishes at Nyquist, and a
    difference filter: a problem whose A has a null direction (mu = 0)."""
    A = Circulant(Grid((8,)), [0.5, 0.5])
    xs = [np.array([0.0, 0, 1, 1, 1, 0, 0, 0]), np.array([1.0, 1, 1, 0, 0, 0, 0, 1])]
    hp = HyperParams(0.0, [0.0], [np.array([1.0, -1.0])], CornerRounded1Norm(0.1))
    return hp, TrainSet(x_true=xs, y=[A.apply(x) for x in xs], A=A)


class TestEvaluateUpper:
    def test_vanishing_regularizer_recovers_truth(self):
        train = filter_train_set(sigma=0.0)
        hp = HyperParams(-30.0, [0.0], [np.array([1.0, -1.0])],
                         CornerRounded1Norm(0.01))
        cfg = GDConfig(step="one-over-L", max_iters=10_000, grad_tol=1e-10)
        value, per = evaluate_upper(hp, train, MSELoss(), cfg)
        assert value <= 1e-10
        assert len(per) == train.n_samples

    def test_scalar_closed_form_value(self):
        hp, train, _, cfg = scalar_toy()
        value, per = evaluate_upper(hp, train, MSELoss(), cfg)
        assert value == pytest.approx(0.125, abs=1e-10)

    def test_value_is_mean_of_per_sample(self):
        train = filter_train_set()
        hp = HyperParams(-1.0, [0.0], [np.array([1.0, -1.0])],
                         CornerRounded1Norm(0.1))
        cfg = GDConfig(step="one-over-L", max_iters=5_000, grad_tol=1e-8)
        value, per = evaluate_upper(hp, train, MSELoss(), cfg)
        assert value == float(np.mean(per))

    def test_sure_matches_a_test_side_denoiser(self):
        train = filter_train_set()
        hp = HyperParams(-1.0, [0.0], [np.array([1.0, -1.0])],
                         CornerRounded1Norm(0.1))
        cfg = GDConfig(step="one-over-L", max_iters=5_000, grad_tol=1e-8)
        spec = SureMCLoss(sigma=0.05, n_probes=2, seed=4)

        def denoiser(yy):
            problem = LowerProblem(train.A, yy, hp)
            return gd_minimize(problem, train.A.adjoint(yy), cfg).x

        _, per = evaluate_upper(hp, train, spec, cfg)
        expected = [sure_mc(denoiser, y, spec.sigma, spec.probe_eps,
                            spec.n_probes, spec.seed) for y in train.y]
        np.testing.assert_array_equal(per, expected)

    def test_sure_solves_each_sample_and_probe_once(self, monkeypatch):
        # S samples and P probes: one solve per sample, on the stack of the
        # sample and its P probes, and no solve whose result SURE would not read
        train = filter_train_set(n_samples=4)
        hp = HyperParams(-1.0, [0.0], [np.array([1.0, -1.0])],
                         CornerRounded1Norm(0.1))
        cfg = GDConfig(step="one-over-L", max_iters=5_000, grad_tol=1e-8)
        shapes = []

        def counting(problem, x0, solver_cfg):
            shapes.append(x0.shape)
            return gd_minimize(problem, x0, solver_cfg)

        monkeypatch.setattr(upper, "gd_minimize", counting)
        evaluate_upper(hp, train, SureMCLoss(sigma=0.05, n_probes=2), cfg)
        assert shapes == [(3, 32)] * 4

    def test_mean_hypergradient_is_the_slope_of_the_upper_loss(self):
        """At a fixed theta on a 2-D blur with 3x3 filters and tight solves,
        the mean minimizer-engine gradient along a direction equals the
        central-difference slope of ``evaluate_upper`` along it."""
        rng = np.random.default_rng(7)
        grid = Grid((8, 8))
        blur = np.outer([0.25, 0.5, 0.25], [0.25, 0.5, 0.25])
        A = Circulant(grid, blur)
        xs = [gen_piecewise_constant(grid, 3, (0.0, 1.0), seed=40 + s)
              for s in range(2)]
        train = TrainSet(xs, [add_noise(x, A, 0.05, seed=60 + s)
                              for s, x in enumerate(xs)], A)
        hp = HyperParams(-2.0, [0.1, -0.2],
                         [rng.standard_normal((3, 3)) for _ in range(2)],
                         CornerRounded1Norm(0.1), learn_beta0=True)
        tight = GDConfig(max_iters=500_000, grad_tol=1e-11)
        Y = np.stack(train.y)
        losses = [bind_loss(MSELoss(), y, A, x) for x, y in zip(train.x_true, train.y)]
        res = hypergrad_minimizer(LowerProblem(A, Y, hp), losses, A.adjoint(Y),
                                  tight, 1e-12)
        direction = rng.standard_normal(hp.theta_size())
        direction /= np.linalg.norm(direction)
        h = 1e-5
        plus, minus = (
            evaluate_upper(unpack_theta(hp, pack_theta(hp) + sign * h * direction),
                           train, MSELoss(), tight)[0]
            for sign in (1.0, -1.0)
        )
        slope = (plus - minus) / (2.0 * h)
        assert float(np.mean(res.grad, axis=0) @ direction) == pytest.approx(
            slope, rel=1e-5)


class TestHoag:
    def test_reaches_closed_form_optimum(self):
        hp, train, mask, cfg = scalar_toy()
        theta, trace = hoag(
            hp, None, train, MSELoss(), eps_schedule=0.1, step=Constant(0.5),
            max_upper=500, solver_cfg=cfg, theta_rel_tol=1e-6, learn_mask=mask,
        )
        lam = np.exp(theta.beta0 + theta.betas[0])
        assert abs(lam - TARGET_LAMBDA) <= 1e-3
        assert len(trace) <= 500
        assert trace.records[-1].loss <= trace.records[0].loss

    def test_disabled_inner_loop_is_stationary(self):
        # eps = inf keeps x at x0; with grad_loss(x0) = 0 theta cannot move
        grid = Grid((4,))
        A = Identity(grid)
        x_true = np.ones(4)
        train = TrainSet(x_true=[x_true], y=[x_true.copy()], A=A)
        hp = HyperParams(0.0, [0.0], [np.array([1.0, -1.0])],
                         CornerRounded1Norm(0.1))
        theta, trace = hoag(
            hp, x_true.copy(), train, MSELoss(),
            eps_schedule=lambda i: np.inf, step=Constant(0.5), max_upper=5,
            solver_cfg=GDConfig(step="one-over-L", max_iters=100, warm_start=True),
            theta_rel_tol=0.0,
        )
        np.testing.assert_array_equal(pack_theta(theta), pack_theta(hp))

    def test_trace_contract(self):
        hp, train, mask, cfg = scalar_toy()
        _, trace = hoag(hp, None, train, MSELoss(), eps_schedule=0.1,
                        step=Constant(0.2), max_upper=17, solver_cfg=cfg,
                        theta_rel_tol=0.0, learn_mask=mask)
        assert len(trace) == 17
        assert [r.iteration for r in trace.records] == list(range(1, 18))

    def test_no_warning_where_the_lower_solve_met_its_tolerance(self, monkeypatch):
        """The lower-gradient check honours the eps_i HOAG asked GD for, so
        a loose early solve that met it is not flagged."""
        cfg = load_config(CONFIGS / "toy_train.json")
        train = build_train_set(cfg.dataset, cfg.grid, cfg.forward)
        met = {}  # grad_tol of a solve -> whether each solve met it
        solve = hypergrad.gd_minimize

        def recording(problem, x0, solver_cfg):
            res = solve(problem, x0, solver_cfg)
            met.setdefault(solver_cfg.grad_tol, []).append(
                res.final_grad_norm <= solver_cfg.grad_tol
            )
            return res

        monkeypatch.setattr(hypergrad, "gd_minimize", recording)
        _, trace = hoag(build_theta(cfg, train), None, train, MSELoss(),
                        eps_schedule=0.1, step=DecreaseAdaptive(0.05),
                        max_upper=6, solver_cfg=cfg.solver, theta_rel_tol=0.0)
        assert train.A.spectral_bounds()[1] == 1.0  # so grad_tol = eps_i
        checked = [r for r in trace.records if all(met[r.extra["eps"]])]
        assert len(checked) == len(trace) == 6
        assert [r.extra["warnings"] for r in checked] == [0.0] * 6

    def test_warm_start_never_costs_inner_iterations(self):
        train = filter_train_set()
        hp = HyperParams(0.0, [-2.0], [np.array([0.7, -0.7])],
                         CornerRounded1Norm(0.1))
        mask = theta_mask(hp, betas=False)
        totals = {}
        for warm in (True, False):
            cfg = GDConfig(step="one-over-L", max_iters=100_000, grad_tol=1e-10,
                           warm_start=warm)
            _, trace = hoag(hp, None, train, MSELoss(), eps_schedule=0.1,
                            step=Constant(0.01), max_upper=15, solver_cfg=cfg,
                            theta_rel_tol=0.0, learn_mask=mask)
            totals[warm] = sum(r.lower_iters for r in trace.records)
        assert totals[True] <= 1.1 * totals[False]

    def test_vanishing_blur_solves_stop_at_tolerance(self):
        """With mu = 0 each lower solve stops at its eps_i, not at a
        vanishing eps_i * mu after its whole budget."""
        hp, train = vanishing_blur_toy()
        _, trace = hoag(hp, None, train, MSELoss(), max_upper=2,
                        solver_cfg=GDConfig(max_iters=3000), theta_rel_tol=0.0)
        assert len(trace) == 2
        assert all(r.lower_iters < 3000 for r in trace.records)


class TestStepController:
    def test_constant_streak_detector(self):
        ctl = _StepController(Constant(1.0))
        ctl.step(1, 1.0)
        with pytest.raises(StepTooLargeError):
            for i, loss in enumerate(np.linspace(1.1, 3.0, 15), start=2):
                ctl.step(i, loss)

    def test_streak_resets_on_decrease(self):
        ctl = _StepController(Constant(1.0))
        losses = [1.0, 1.2, 1.4, 1.0, 1.2, 1.4, 1.0, 1.2, 1.4, 1.0, 1.2, 1.4, 1.0]
        for i, loss in enumerate(losses, start=1):
            assert ctl.step(i, loss) == 1.0

    def test_tiny_jitter_does_not_fire(self):
        ctl = _StepController(Constant(1.0))
        loss = 1.0
        for i in range(1, 30):
            ctl.step(i, loss)
            loss *= 1.0 + 1e-9

    def test_decrease_adaptive(self):
        from bilevelreg.upper import DecreaseAdaptive

        ctl = _StepController(DecreaseAdaptive(1.0))
        assert ctl.step(1, 1.0) == 1.0
        assert ctl.step(2, 2.0) == 0.5       # increase halves
        assert ctl.step(3, 1.5) == 0.525     # decrease grows 1.05x

    def test_power_law(self):
        ctl = _StepController(PowerLaw(2.0, 0.5))
        assert ctl.step(1, 1.0) == 2.0
        assert ctl.step(4, 1.0) == 1.0


class TestBa:
    def test_matches_hoag_on_toy(self):
        hp, train, mask, cfg = scalar_toy()
        theta_h, _ = hoag(hp, None, train, MSELoss(), eps_schedule=0.1,
                          step=Constant(0.5), max_upper=500, solver_cfg=cfg,
                          theta_rel_tol=1e-6, learn_mask=mask)
        theta_b, _ = ba(hp, None, 0.5, "paper-default", 50, train, MSELoss(),
                        max_upper=500, theta_rel_tol=1e-6, learn_mask=mask)
        lam_h = np.exp(theta_h.beta0 + theta_h.betas[0])
        lam_b = np.exp(theta_b.beta0 + theta_b.betas[0])
        assert abs(lam_h - lam_b) <= 1e-3
        assert abs(lam_b - TARGET_LAMBDA) <= 1e-3

    def test_degenerate_box_freezes_theta(self):
        hp, train, mask, _ = scalar_toy()
        theta0_vec = pack_theta(hp)
        theta, _ = ba(hp, None, 0.5, "paper-default", 20, train, MSELoss(),
                      max_upper=10, box=(theta0_vec, theta0_vec),
                      theta_rel_tol=0.0)
        np.testing.assert_array_equal(pack_theta(theta), theta0_vec)

    def test_paper_default_step_requires_mu(self):
        grid = Grid((4,))
        from bilevelreg.forward import Mask

        A = Mask(grid, [1, 0, 1, 1])
        train = TrainSet(x_true=[np.ones(4)], y=[A.apply(np.ones(4))], A=A)
        hp = HyperParams(0.0, [0.0], [np.array([1.0, -1.0])],
                         CornerRounded1Norm(0.1))
        with pytest.raises(ConfigError):
            ba(hp, None, 0.1, "paper-default", 5, train, MSELoss(), max_upper=2)

    def test_paper_default_step_requires_mu_of_a_vanishing_blur(self):
        hp, train = vanishing_blur_toy()
        with pytest.raises(ConfigError):
            ba(hp, None, 0.1, "paper-default", 5, train, MSELoss(), max_upper=2)

    def test_growing_inner_budget_improves_gradient_angle(self):
        train = filter_train_set()
        hp = HyperParams(0.0, [-2.0], [np.array([0.7, -0.7])],
                         CornerRounded1Norm(0.1))
        mask = theta_mask(hp, betas=False)
        mu = 1.0

        def final_angle(inner_schedule, t_last):
            theta, _ = ba(hp, None, 0.1, "paper-default", inner_schedule, train,
                          MSELoss(), max_upper=30, theta_rel_tol=0.0,
                          learn_mask=mask)
            tight = GDConfig(step="one-over-L", max_iters=500_000, grad_tol=1e-11)
            grads, refs = [], []
            for j in range(train.n_samples):
                prob = LowerProblem(train.A, train.y[j], theta)
                loss = bind_loss(MSELoss(), train.y[j], train.A, train.x_true[j])
                step_low = 2.0 / (prob.lipschitz_grad() + mu)
                x0 = train.A.adjoint(train.y[j])
                budget = GDConfig(step=step_low, max_iters=t_last, grad_tol=0.0)
                grads.append(hypergrad_minimizer(prob, loss, x0, budget, 1e-10).grad)
                refs.append(hypergrad_minimizer(prob, loss, x0, tight, 1e-12).grad)
            return grad_compare(np.mean(grads, axis=0) * mask,
                                np.mean(refs, axis=0) * mask)[0]

        assert final_angle(lambda i: i, 30) < final_angle(1, 1)


class TestTtsa:
    def test_zero_upper_step_decouples(self):
        hp, train, mask, _ = scalar_toy()
        theta, trace = ttsa(hp, np.array([0.0]), PowerLaw(0.0, 0.75),
                            PowerLaw(0.4, 0.0), train, MSELoss(), batch=1,
                            seed=0, max_iter=200)
        np.testing.assert_array_equal(pack_theta(theta), pack_theta(hp))
        # x ran plain GD on the fixed-theta lower problem toward y/(1+lam)
        x_star = 2.0 / (1.0 + 1.0)
        assert trace.records[-1].loss == pytest.approx(
            0.5 * (x_star - 1.5) ** 2, abs=1e-3
        )

    @staticmethod
    def inpainting_run(**kwargs):
        # 1-D inpainting, every third sample dropped: beta0 grows without
        # bound, and with it L, until the lower step leaves the finite range
        grid = Grid((12,))
        values = np.ones(12)
        values[::3] = 0.0
        A = Mask(grid, values)
        xs = [gen_piecewise_constant(grid, 4, (0.0, 1.0), seed=100 + s)
              for s in range(2)]
        ys = [add_noise(x, A, 0.05, seed=150 + s) for s, x in enumerate(xs)]
        train = TrainSet(x_true=xs, y=ys, A=A)
        return ttsa(_two_filter_theta(), A.adjoint(ys[0]), PowerLaw(0.1, 0.75),
                    PowerLaw(0.3, 0.5), train, MSELoss(), batch=2, seed=5,
                    **kwargs)

    def test_weight_overflow_stops_the_run(self):
        """beta0 reaches about 1.9e11 at the tenth step, whose problems are
        built inside the located block."""
        with pytest.raises(DivergenceError) as info:
            self.inpainting_run(max_iter=20)
        assert re.fullmatch(
            r"upper iteration 10: tuning weight exp\(b0 \+ b_k\) of filter 0 "
            r"is not finite \(b0 \+ b_k = \S+\)", str(info.value))

    def test_non_finite_lower_iterate_stops_the_run(self):
        hp, train, _, _ = scalar_toy()
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as info:
            ttsa(hp, np.array([0.0]), PowerLaw(0.0, 0.75), PowerLaw(1e308, 0.0),
                 train, MSELoss(), batch=1, seed=0, max_iter=5)
        assert re.fullmatch(
            r"upper iteration (\d+): non-finite lower iterate after lower "
            r"step \1 \(step size \S+\)", str(info.value))
        assert info.value.iteration == 1

    def test_cg_failure_is_located(self, monkeypatch):
        calls = []

        def failing_cg(hess_action, b, tol, max_iters=None):
            calls.append(b)
            if len(calls) == 3:
                raise SpdViolationError("non-positive curvature p'Hp = nan "
                                        "at CG iteration 0")
            return cg_solve(hess_action, b, tol, max_iters)

        monkeypatch.setattr(upper, "cg_solve", failing_cg)
        with pytest.raises(SpdViolationError) as info:
            self.inpainting_run(max_iter=5)
        assert str(info.value) == (
            "upper iteration 3: non-positive curvature p'Hp = nan at CG "
            "iteration 0")

    def test_budget_matched_loss_close_to_hoag(self):
        hp, train, mask, cfg = scalar_toy()
        theta_h, trace_h = hoag(hp, None, train, MSELoss(), eps_schedule=0.1,
                                step=Constant(0.5), max_upper=100,
                                solver_cfg=cfg, theta_rel_tol=0.0,
                                learn_mask=mask)
        budget = sum(r.lower_iters for r in trace_h.records)
        loss_h = evaluate_upper(theta_h, train, MSELoss(), cfg)[0]
        finals = []
        for seed in range(10):
            theta_t, _ = ttsa(hp, np.array([0.0]), PowerLaw(4.0, 0.75),
                              PowerLaw(0.5, 0.5), train, MSELoss(), batch=1,
                              seed=seed, max_iter=budget, learn_mask=mask)
            finals.append(evaluate_upper(theta_t, train, MSELoss(), cfg)[0])
        assert np.median(finals) <= 2.0 * loss_h

    def test_trace_records_both_step_sizes(self):
        hp, train, mask, _ = scalar_toy()
        _, trace = ttsa(hp, np.array([0.0]), PowerLaw(0.1, 0.75),
                        PowerLaw(0.5, 0.5), train, MSELoss(), batch=1, seed=1,
                        max_iter=5, learn_mask=mask)
        for i, rec in enumerate(trace.records, start=1):
            assert rec.extra["step_upper"] == pytest.approx(0.1 * i**-0.75)
            assert rec.extra["step_lower"] == pytest.approx(0.5 * i**-0.5)

    def test_validates_batch_and_exponents(self):
        hp, train, mask, _ = scalar_toy()
        with pytest.raises(ConfigError):
            ttsa(hp, np.array([0.0]), PowerLaw(0.1, 0.75), PowerLaw(0.5, 0.5),
                 train, MSELoss(), batch=2, seed=0, max_iter=2)
        with pytest.raises(ConfigError):
            ttsa(hp, np.array([0.0]), PowerLaw(0.1, 0.5), PowerLaw(0.5, 0.75),
                 train, MSELoss(), batch=1, seed=0, max_iter=2)


class TestStable:
    def test_eigenvalue_truncation(self):
        h = np.diag([0.1, 2.0])
        out = truncate_eigenvalues(h, 0.5)
        np.testing.assert_allclose(np.linalg.eigvalsh(out), [0.5, 2.0])

    def test_norm_clip(self):
        m = np.array([[3.0, 0.0], [0.0, 1.0]])
        out = clip_matrix_norm(m, 2.0)
        assert np.linalg.norm(out, 2) == pytest.approx(2.0)
        np.testing.assert_allclose(clip_matrix_norm(m, 5.0), m)

    def test_fresh_estimates_at_tau_one(self):
        # tau = 1 discards the recursion memory: two steps from the same state
        # must not depend on the stored estimates
        hp, train, _, _ = scalar_toy()
        sample = (train.x_true[0], train.y[0])
        state = StableState(theta=hp, x=np.array([0.0]), step_upper=0.3,
                            step_lower=0.4)
        s1 = stable_step(state, sample, train.A, MSELoss(), 1.0, 10.0, 1.0)
        poisoned = StableState(
            theta=hp, x=np.array([0.0]), step_upper=0.3, step_lower=0.4,
            hess_est=np.array([[55.0]]),
            mixed_est=np.array([[7.0, -7.0]]),
            prev_hess=np.array([[9.0]]), prev_mixed=np.array([[3.0, 3.0]]),
        )
        s2 = stable_step(poisoned, sample, train.A, MSELoss(), 1.0, 10.0, 1.0)
        np.testing.assert_array_equal(pack_theta(s1.theta), pack_theta(s2.theta))
        np.testing.assert_array_equal(s1.x, s2.x)

    @pytest.mark.parametrize("tau", [1.0, 0.5])
    def test_matches_dense_scalar_reference(self, tau):
        hp, train, _, _ = scalar_toy()
        sample = (train.x_true[0], train.y[0])
        su, sl, mu, cap = 0.3, 0.4, 1.0, 10.0

        # independent dense reference with explicit scalar formulas
        b1, c, x = 0.0, 1.0, 0.0
        hbar = mbar = None
        prev = None
        ref = []
        for _ in range(20):
            lam = np.exp(b1)
            h = np.array([[1.0 + lam * c * c]])
            m = np.array([[lam * c * c * x, lam * 2 * c * x]])
            if prev is not None and tau < 1.0:
                b1p, cp, xp = prev
                lamp = np.exp(b1p)
                hp_ = np.array([[1.0 + lamp * cp * cp]])
                mp = np.array([[lamp * cp * cp * xp, lamp * 2 * cp * xp]])
                h_raw = (1 - tau) * (hbar - hp_) + h
                m_raw = (1 - tau) * (mbar - mp) + m
            else:
                h_raw, m_raw = h, m
            hbar = np.maximum(h_raw, mu)
            u, s, vt = np.linalg.svd(m_raw, full_matrices=False)
            mbar = (u * np.minimum(s, cap)) @ vt
            g_up = -mbar.T @ np.linalg.solve(hbar, np.array([x - 1.5]))
            prev = (b1, c, x)
            b1_new, c_new = np.array([b1, c]) - su * g_up
            grad_low = (x - 2.0) + lam * c * (c * x)
            corr = np.linalg.solve(
                hbar, mbar @ (np.array([b1_new, c_new]) - np.array([b1, c]))
            )
            x = x - sl * grad_low - corr[0]
            b1, c = b1_new, c_new
            ref.append((b1, c, x))

        state = StableState(theta=hp, x=np.array([0.0]), step_upper=su,
                            step_lower=sl)
        for i in range(20):
            state = stable_step(state, sample, train.A, MSELoss(), tau, cap, mu)
            got = (state.theta.betas[0], state.theta.filters[0][0], state.x[0])
            for gv, rv in zip(got, ref[i]):
                assert gv == pytest.approx(rv, rel=1e-8, abs=1e-12)

    def test_dense_size_gate(self):
        grid = Grid((80,))
        A = Identity(grid)
        hp = HyperParams(0.0, [0.0], [np.array([1.0, -1.0])],
                         CornerRounded1Norm(0.1))
        state = StableState(theta=hp, x=np.zeros(80), step_upper=0.1,
                            step_lower=0.1)
        from bilevelreg.errors import DimensionError

        with pytest.raises(DimensionError):
            stable_step(state, (np.zeros(80), np.zeros(80)), A, MSELoss(),
                        1.0, 10.0, 1.0)

    def test_one_dense_hessian_per_step(self, monkeypatch):
        # the recursion reuses the previous step's matrices at tau < 1
        hp, train, _, _ = scalar_toy()
        built = []
        monkeypatch.setattr(upper, "_dense_hessian",
                            lambda lin: built.append(lin) or np.array([[1.0]]))
        stable_run(hp, np.array([0.0]), train, MSELoss(), step_upper=0.3,
                   step_lower=0.4, tau=0.5, c_mix=10.0, mu=1.0, max_iter=5, seed=0)
        assert len(built) == 5

    def test_divergence_is_located(self):
        """A lower step far too large drives theta and x off to 1e47 within
        four steps; the fifth step's tuning weight is not finite, and the run
        raises at that upper iteration, before numpy warns of the overflow."""
        grid = Grid((16,))
        train = build_train_set(DatasetSpec(3, 3, (0.0, 1.0), 0.1, 5), grid,
                                Identity(grid))
        hp = HyperParams(-1.0, [0.0], [np.array([1.0, -1.0])],
                         CornerRounded1Norm(0.01))
        with pytest.raises(DivergenceError) as err:
            stable_run(hp, np.zeros(16), train, MSELoss(), step_upper=0.1,
                       step_lower=1e3, tau=1.0, c_mix=10.0, mu=1.0, max_iter=10)
        assert str(err.value) == ("upper iteration 5: tuning weight exp(b0 + b_k) "
                                  "of filter 0 is not finite (b0 + b_k = 1.36619e+47)")

    def test_non_finite_curvature_estimate_raises(self):
        """The recursion's difference of two huge curvatures overflows at
        tau < 1; the step raises rather than truncating an infinite matrix."""
        hp, train, _, _ = scalar_toy()
        sample = (train.x_true[0], train.y[0])
        state = StableState(theta=hp, x=np.array([0.0]), step_upper=0.3,
                            step_lower=0.4)
        state = stable_step(state, sample, train.A, MSELoss(), 1.0, 10.0, 1.0)
        state.hess_est, state.prev_hess = np.array([[1e308]]), np.array([[-1e308]])
        with np.errstate(over="ignore"), pytest.raises(
                DivergenceError, match="^non-finite curvature estimate$"):
            stable_step(state, sample, train.A, MSELoss(), 0.5, 10.0, 1.0)

    def test_non_finite_iterate_raises(self):
        hp, train, _, _ = scalar_toy()
        state = StableState(theta=hp, x=np.array([0.0]), step_upper=0.3,
                            step_lower=1e308)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError,
                                                      match="non-finite iterate"):
            stable_step(state, (train.x_true[0], train.y[0]), train.A, MSELoss(),
                        1.0, 10.0, 1.0)

    def test_run_converges_on_toy(self):
        hp, train, _, cfg = scalar_toy()
        theta, _ = stable_run(hp, np.array([0.0]), train, MSELoss(),
                              step_upper=0.3, step_lower=0.4, tau=1.0,
                              c_mix=10.0, mu=1.0, max_iter=200, seed=0)
        lam_eff = np.exp(theta.beta0 + theta.betas[0]) * theta.filters[0][0] ** 2
        assert lam_eff == pytest.approx(TARGET_LAMBDA, abs=1e-6)


class TestAdamOrGd:
    def test_zero_step_keeps_theta(self):
        hp, train, mask, cfg = scalar_toy()
        theta, _ = adam_or_gd_upper(hp, None, train, MSELoss(),
                                    engine="minimizer", optimizer="gd",
                                    step=0.0, max_upper=3, solver_cfg=cfg,
                                    theta_rel_tol=0.0)
        np.testing.assert_array_equal(pack_theta(theta), pack_theta(hp))

    def test_adam_and_gd_agree_on_first_step_direction(self):
        hp, train, mask, cfg = scalar_toy()
        theta_gd, _ = adam_or_gd_upper(hp, None, train, MSELoss(),
                                       engine="minimizer", optimizer="gd",
                                       step=0.1, max_upper=1, solver_cfg=cfg,
                                       theta_rel_tol=0.0)
        theta_ad, _ = adam_or_gd_upper(hp, None, train, MSELoss(),
                                       engine="minimizer", optimizer="adam",
                                       step=0.1, max_upper=1, solver_cfg=cfg,
                                       theta_rel_tol=0.0)
        d_gd = pack_theta(theta_gd) - pack_theta(hp)
        d_ad = pack_theta(theta_ad) - pack_theta(hp)
        assert np.all(np.sign(d_gd) == np.sign(d_ad))

    def test_reaches_closed_form_optimum(self):
        hp, train, mask, cfg = scalar_toy()
        theta, _ = adam_or_gd_upper(hp, None, train, MSELoss(),
                                    engine="minimizer", optimizer="adam",
                                    step=0.2, max_upper=500, solver_cfg=cfg,
                                    theta_rel_tol=1e-7, learn_mask=mask)
        lam = np.exp(theta.beta0 + theta.betas[0])
        assert abs(lam - TARGET_LAMBDA) <= 1e-3

    def test_unrolled_engine_requires_explicit_step(self):
        hp, train, mask, cfg = scalar_toy()
        with pytest.raises(ConfigError):
            adam_or_gd_upper(hp, None, train, MSELoss(), engine="reverse",
                             optimizer="gd", step=0.1, max_upper=2,
                             solver_cfg=cfg)

    def test_noise_adaptivity_of_effective_weight(self):
        # matched init and budget: cleaner data drives e^{b0+b1} lower
        grid = Grid((24,))
        A = Identity(grid)
        cfg = GDConfig(step="one-over-L", max_iters=50_000, grad_tol=1e-8,
                       warm_start=True)

        def learned_weight(sigma):
            xs, ys = [], []
            for s in range(2):
                x = gen_piecewise_constant(grid, 4, (0.0, 1.0), seed=500 + s)
                xs.append(x)
                ys.append(add_noise(x, A, sigma, seed=600 + s))
            train = TrainSet(x_true=xs, y=ys, A=A)
            hp = HyperParams(-2.0, [0.0], [np.array([0.7, -0.7])],
                             CornerRounded1Norm(0.01))
            theta, _ = adam_or_gd_upper(hp, None, train, MSELoss(),
                                        engine="minimizer", optimizer="adam",
                                        step=0.1, max_upper=25, solver_cfg=cfg,
                                        theta_rel_tol=0.0,
                                        learn_mask=theta_mask(hp, taps=False))
            return np.exp(theta.beta0 + theta.betas[0])

        assert learned_weight(0.0) < learned_weight(0.1)


class TestGridSearch:
    def test_single_point(self):
        hp, train, _, cfg = scalar_toy()
        best, table = grid_search([0.7], hp, train, MSELoss(), cfg)
        assert best == 0.7
        assert len(table) == 1

    def test_finds_closed_form_optimum_on_grid(self):
        hp, train, _, cfg = scalar_toy()
        grid_values = [-2.0, np.log(TARGET_LAMBDA), 0.0, 1.0]
        best, table = grid_search(grid_values, hp, train, MSELoss(), cfg)
        assert best == pytest.approx(np.log(TARGET_LAMBDA))

    def test_table_order_and_monotone_invariance(self):
        hp, train, _, cfg = scalar_toy()
        values = [1.0, -1.5, 0.25]
        best, table = grid_search(values, hp, train, MSELoss(), cfg)
        assert [row[0] for row in table] == values
        # argmin is invariant under a monotone transform of the losses
        transformed = min(table, key=lambda row: np.exp(3.0 * row[1]))[0]
        assert transformed == best


class TestDeterminism:
    def test_identical_seeds_reproduce_traces(self):
        train = filter_train_set()
        hp = HyperParams(-1.0, [0.0], [np.array([0.7, -0.7])],
                         CornerRounded1Norm(0.1))
        out = []
        for _ in range(2):
            theta, trace = ttsa(hp, train.A.adjoint(train.y[0]),
                                PowerLaw(0.2, 0.75), PowerLaw(0.5, 0.5), train,
                                MSELoss(), batch=2, seed=42, max_iter=20)
            out.append((pack_theta(theta),
                        [(r.loss, r.grad_norm, tuple(r.theta)) for r in trace.records]))
        np.testing.assert_array_equal(out[0][0], out[1][0])
        assert out[0][1] == out[1][1]


def _two_filter_theta():
    return HyperParams(-1.0, [0.0, -0.5],
                       [np.array([0.7, -0.7]), np.array([0.5, 0.1, -0.6])],
                       CornerRounded1Norm(0.1), learn_beta0=True)


_SOLVE = GDConfig(step="one-over-L", max_iters=5_000, grad_tol=1e-8,
                  warm_start=True)

# Every upper-level entry point, run for three steps under a learn mask.
UPPER_DRIVERS = {
    "hoag": lambda hp, train, loss, mask: hoag(
        hp, None, train, loss, eps_schedule=0.1, step=Constant(0.05),
        max_upper=3, solver_cfg=_SOLVE, theta_rel_tol=0.0, learn_mask=mask),
    "ba": lambda hp, train, loss, mask: ba(
        hp, None, 0.05, "paper-default", 10, train, loss, max_upper=3,
        theta_rel_tol=0.0, learn_mask=mask),
    **{
        f"{opt}-{engine}": (
            lambda hp, train, loss, mask, opt=opt, engine=engine:
            adam_or_gd_upper(hp, None, train, loss, engine=engine,
                             optimizer=opt, step=0.05, max_upper=3,
                             solver_cfg=_SOLVE, unroll_steps=20,
                             unroll_step=0.3, theta_rel_tol=0.0,
                             learn_mask=mask)
        )
        for opt in ("gd", "adam")
        for engine in ("minimizer", "reverse", "forward")
    },
    "ttsa": lambda hp, train, loss, mask: ttsa(
        hp, train.A.adjoint(train.y[0]), PowerLaw(0.1, 0.75),
        PowerLaw(0.5, 0.5), train, loss, batch=2, seed=0, max_iter=3,
        learn_mask=mask),
}


class TestLearnMask:
    @pytest.mark.parametrize("name", sorted(UPPER_DRIVERS))
    def test_frozen_taps_never_move(self, name):
        train = filter_train_set(n_samples=2, n=16)
        hp = _two_filter_theta()
        taps = theta_mask(hp, beta0=False, betas=False) == 1.0
        start = pack_theta(hp)
        theta, trace = UPPER_DRIVERS[name](
            hp, train, MSELoss(), theta_mask(hp, taps=False)
        )
        np.testing.assert_array_equal(pack_theta(theta)[taps], start[taps])
        for rec in trace.records:
            np.testing.assert_array_equal(rec.theta[taps], start[taps])
        # the unmasked weights do move, so the check is not vacuous
        assert np.any(pack_theta(theta)[~taps] != start[~taps])


class TestBindOnce:
    @pytest.mark.parametrize("name", sorted(UPPER_DRIVERS))
    def test_each_sample_is_bound_once_per_run(self, name, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return bind_loss(*args)

        monkeypatch.setattr(upper, "bind_loss", counting)
        train = filter_train_set(n_samples=2, n=16)
        UPPER_DRIVERS[name](_two_filter_theta(), train, MSELoss(), None)
        assert len(calls) == train.n_samples


class TestUpperFailures:
    @pytest.mark.parametrize("name", sorted(UPPER_DRIVERS))
    def test_value_only_loss_rejected_before_any_solve(self, name, monkeypatch):
        import bilevelreg.upper as upper

        def no_solve(*args, **kwargs):
            raise AssertionError("lower solve started")

        monkeypatch.setattr(upper, "gd_minimize", no_solve)
        monkeypatch.setattr(upper, "hypergrad_minimizer", no_solve)
        monkeypatch.setattr(upper, "hypergrad_unrolled_reverse", no_solve)
        monkeypatch.setattr(upper, "hypergrad_unrolled_forward", no_solve)
        hp = _two_filter_theta()
        train = filter_train_set(n_samples=2, n=16)
        with pytest.raises(ConfigError, match="sure-mc"):
            UPPER_DRIVERS[name](hp, train, SureMCLoss(0.05), None)

    def test_stable_step_rejects_value_only_loss(self):
        hp, train, _, _ = scalar_toy()
        state = StableState(theta=hp, x=np.array([0.0]), step_upper=0.3,
                            step_lower=0.4)
        with pytest.raises(ConfigError, match="sure-mc"):
            stable_step(state, (train.x_true[0], train.y[0]), train.A,
                        SureMCLoss(0.05), 1.0, 10.0, 1.0)

    @pytest.mark.parametrize("run", [
        lambda hp, train: ba(hp, None, 0.1, 10.0, 2_000, train, MSELoss(),
                             max_upper=2),
        lambda hp, train: adam_or_gd_upper(
            hp, None, train, MSELoss(), engine="minimizer", optimizer="adam",
            max_upper=2, solver_cfg=GDConfig(step=10.0, max_iters=2_000)),
        lambda hp, train: adam_or_gd_upper(
            hp, None, train, MSELoss(), engine="reverse", optimizer="gd",
            max_upper=2, unroll_steps=2_000, unroll_step=10.0),
        lambda hp, train: adam_or_gd_upper(
            hp, None, train, MSELoss(), engine="forward", optimizer="gd",
            max_upper=2, unroll_steps=2_000, unroll_step=10.0),
    ], ids=["ba", "adam-minimizer", "gd-reverse", "gd-forward"])
    def test_divergence_names_iteration_and_sample(self, run):
        hp, train, _, _ = scalar_toy()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError,
                               match="upper iteration 1, sample 0: ") as info:
                run(hp, train)
        assert info.value.iteration is not None

    @pytest.mark.parametrize("name", sorted(UPPER_DRIVERS))
    def test_weight_overflow_names_the_iteration(self, name):
        """The problem of one theta is shared by every sample, so the
        error names the upper iteration and no sample."""
        hp = _two_filter_theta()
        hp.beta0 = 800.0
        train = filter_train_set(n_samples=2, n=16)
        with pytest.raises(DivergenceError) as err:
            UPPER_DRIVERS[name](hp, train, MSELoss(), None)
        assert str(err.value) == ("upper iteration 1: tuning weight exp(b0 + b_k) "
                                  "of filter 0 is not finite (b0 + b_k = 800)")

    @pytest.mark.parametrize("loss", [MSELoss(), SureMCLoss(0.05, n_probes=2)],
                             ids=["mse", "sure-mc"])
    def test_weight_overflow_names_the_grid_value(self, loss):
        hp, train, _, cfg = scalar_toy()
        with pytest.raises(DivergenceError) as err:
            grid_search([0.0, 800.0, 900.0], hp, train, loss, cfg)
        assert str(err.value).startswith("beta0 800.0, sample 0: tuning weight ")

    @pytest.mark.parametrize("kwargs, message", [
        ({"engine": "newton"}, "unknown engine 'newton'"),
        ({"optimizer": "lbfgs"}, "unknown optimizer 'lbfgs'"),
        ({"engine": "reverse", "unroll_steps": 3},
         "unrolled engines require unroll_steps and an explicit unroll_step"),
        ({"engine": "forward", "unroll_step": 0.1},
         "unrolled engines require unroll_steps and an explicit unroll_step"),
    ], ids=["engine", "optimizer", "reverse-no-step", "forward-no-steps"])
    def test_adam_or_gd_rejects_its_arguments(self, kwargs, message, monkeypatch):
        monkeypatch.setattr(upper, "_double_loop", None)  # nothing may run
        hp, train, _, _ = scalar_toy()
        with pytest.raises(ConfigError) as err:
            adam_or_gd_upper(hp, None, train, MSELoss(), **kwargs)
        assert str(err.value) == message


class TestTraceExtras:
    def test_ba_records_warnings_and_cg_residual(self):
        # two GD steps and two CG iterations leave every sample's lower
        # gradient large and its CG residual far above the 1e-10 tolerance
        hp = _two_filter_theta()
        train = filter_train_set(n_samples=2, n=16)
        _, trace = ba(hp, None, 0.05, 0.05, 2, train, MSELoss(), max_upper=2,
                      cg_max_iters=2, theta_rel_tol=0.0)
        residuals, warned = [], 0
        for j in range(train.n_samples):
            problem = LowerProblem(train.A, train.y[j], hp)
            loss = bind_loss(MSELoss(), train.y[j], train.A, train.x_true[j])
            hg = hypergrad_minimizer(problem, loss, train.A.adjoint(train.y[j]),
                                     GDConfig(step=0.05, max_iters=2), 1e-10,
                                     cg_max_iters=2)
            residuals.append(hg.cg_residual)
            warned += hg.warning is not None
        assert warned == 2
        first = trace.records[0].extra
        assert first["warnings"] == 2.0
        assert first["cg_residual"] == max(residuals) > 1e-10
        assert all(r.extra["warnings"] == 2.0 and r.extra["cg_residual"] > 1e-10
                   for r in trace.records)

    def test_unrolled_engine_records_no_warning_and_no_residual(self):
        # the only warning an unrolled engine raises is a step above 2/L,
        # once per sample; these drivers' step 0.3 is above it (L ~ 10.9)
        hp = _two_filter_theta()
        train = filter_train_set(n_samples=2, n=16)
        _, trace = UPPER_DRIVERS["gd-reverse"](hp, train, MSELoss(), None)
        theta = hp
        for r in trace.records:
            lip = LowerProblem(train.A, train.y[0], theta).lipschitz_grad()
            assert r.extra["warnings"] == (2.0 if 0.3 * lip > 2.0 else 0.0)
            assert "cg_residual" not in r.extra
            theta = unpack_theta(theta, r.theta)
        assert trace.records[0].extra["warnings"] == 2.0

    @pytest.mark.parametrize("engine", ["reverse", "forward"])
    def test_unrolled_step_above_two_over_l_is_counted(self, engine):
        hp = _two_filter_theta()
        train = filter_train_set(n_samples=2, n=16)
        lip = LowerProblem(train.A, train.y[0], hp).lipschitz_grad()
        warned = {}
        for factor in (1.0, 3.0):
            _, trace = adam_or_gd_upper(
                hp, None, train, MSELoss(), engine=engine, optimizer="gd",
                max_upper=1, unroll_steps=3, unroll_step=factor / lip)
            warned[factor] = trace.records[0].extra["warnings"]
        assert warned == {1.0: 0.0, 3.0: 2.0}  # one per sample

    def test_ttsa_records_cg_residual(self):
        hp = _two_filter_theta()
        train = filter_train_set(n_samples=2, n=16)
        args = (hp, np.zeros(16), PowerLaw(0.1, 0.75), PowerLaw(0.05, 0.5),
                train, MSELoss(), 2, 3, 2)
        _, loose = ttsa(*args, cg_max_iters=1)
        _, tight = ttsa(*args, cg_tol=1e-10)
        assert all(r.extra["cg_residual"] > 1e-10 for r in loose.records)
        assert all(r.extra["cg_residual"] <= 1e-10 for r in tight.records)
        # a solve that stopped short of cg_tol is a warning, as in hoag and ba
        assert [r.extra["warnings"] for r in loose.records] == [1.0, 1.0]
        assert [r.extra["warnings"] for r in tight.records] == [0.0, 0.0]
