from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bilevelreg.lower as lower
from bilevelreg.data import build_theta, build_train_set, load_config
from bilevelreg.errors import DivergenceError, SpdViolationError
from bilevelreg.forward import Circulant, Identity, Mask
from bilevelreg.hypergrad import hypergrad_minimizer
from bilevelreg.losses import MSELoss, bind_loss
from bilevelreg.lower import HyperParams, Linearization, LowerProblem
from bilevelreg.potentials import CornerRounded1Norm, Quadratic
from bilevelreg.signals import Grid
from bilevelreg.solvers import CGResult, GDConfig, cg_solve, gd_minimize
from bilevelreg.upper import _dense_hessian

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def quadratic_problem(dims=(8,), k=1, lam=1.0, seed=0):
    rng = np.random.default_rng(seed)
    grid = Grid(dims)
    hp = HyperParams(
        beta0=0.0,
        betas=[np.log(lam)] * k,
        filters=[rng.standard_normal(3) for _ in range(k)],
        potential=Quadratic(),
    )
    y = rng.standard_normal(dims)
    return LowerProblem(Identity(grid), y, hp), rng


class TestGD:
    def test_exact_step_on_identity(self):
        grid = Grid((5,))
        y = np.arange(5.0)
        hp = HyperParams(0.0, [], [], CornerRounded1Norm(0.1))
        problem = LowerProblem(Identity(grid), y, hp)
        res = gd_minimize(problem, np.zeros(5), GDConfig(step=1.0, max_iters=10,
                                                         grad_tol=1e-14))
        assert res.iters_run == 1
        np.testing.assert_allclose(res.x, y, atol=1e-14)

    def test_monotone_cost_at_one_over_l(self):
        for seed in range(5):
            problem, rng = quadratic_problem(seed=seed)
            x0 = rng.standard_normal(8)
            res = gd_minimize(
                problem, x0,
                GDConfig(step="one-over-L", max_iters=50, record_trajectory=True),
            )
            costs = [problem.cost(x) for x in res.trajectory]
            assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_scalar_contraction_to_half_data(self):
        grid = Grid((1,))
        hp = HyperParams(0.0, [0.0], [np.array([1.0])], Quadratic())
        problem = LowerProblem(Identity(grid), np.array([2.0]), hp)
        res = gd_minimize(
            problem, np.array([0.0]), GDConfig(step=0.5, max_iters=60, grad_tol=0.0)
        )
        assert abs(res.x[0] - 1.0) <= 1e-10

    def test_trajectory_contract(self):
        problem, rng = quadratic_problem()
        x0 = rng.standard_normal(8)
        res = gd_minimize(problem, x0, GDConfig(step=0.1, max_iters=7,
                                                record_trajectory=True))
        assert len(res.trajectory) == 8
        np.testing.assert_array_equal(res.trajectory[0], x0)
        res2 = gd_minimize(problem, x0, GDConfig(step=0.1, max_iters=7))
        assert res2.trajectory is None

    def test_idempotent_once_converged(self):
        problem, rng = quadratic_problem()
        x0 = rng.standard_normal(8)
        cfg = GDConfig(step="one-over-L", max_iters=10_000, grad_tol=1e-10)
        first = gd_minimize(problem, x0, cfg)
        second = gd_minimize(problem, first.x, cfg)
        assert second.iters_run == 0
        np.testing.assert_array_equal(second.x, first.x)

    def test_geometric_contraction_to_dense_solution(self):
        problem, rng = quadratic_problem(dims=(6,), lam=0.5)
        # dense solve of (I + lam C'C) x = y
        n = 6
        h = np.zeros((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            h[:, i] = Linearization(problem, np.zeros(n)).hess_vec(e)
        x_star = np.linalg.solve(h, problem.y)
        x0 = rng.standard_normal(n)
        lip = problem.lipschitz_grad()
        mu = 1.0
        rate = 1.0 - mu / lip
        res = gd_minimize(problem, x0, GDConfig(step=1.0 / lip, max_iters=40,
                                                record_trajectory=True))
        errs = [np.linalg.norm(x - x_star) for x in res.trajectory]
        for before, after in zip(errs, errs[1:]):
            assert after <= rate * before + 1e-12

    def test_divergence_error_reports_iteration(self):
        problem, rng = quadratic_problem()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as err:
            gd_minimize(problem, rng.standard_normal(8),
                        GDConfig(step=1e12, max_iters=10_000))
        assert err.value.iteration is not None

    def test_checks_each_of_iters_plus_one_gradients(self):
        class CountingProblem:
            """grad_x = x / 2, made infinite on call number ``bad_call``."""

            A = Identity(Grid((3,)))

            def __init__(self, bad_call=None):
                self.calls, self.bad_call = 0, bad_call

            def grad_x(self, x):
                self.calls += 1
                return x * (np.inf if self.calls == self.bad_call else 0.5)

        fine = CountingProblem()
        res = gd_minimize(fine, np.ones(3), GDConfig(step=1.0, max_iters=5))
        assert (res.iters_run, fine.calls) == (5, 6)
        # the fourth gradient is taken at iteration 3, also when it is the last
        for max_iters, bad_call, iteration in [(3, 4, 3), (10, 4, 3), (0, 1, 0)]:
            with pytest.raises(DivergenceError) as err:
                gd_minimize(CountingProblem(bad_call), np.ones(3),
                            GDConfig(step=1.0, max_iters=max_iters))
            assert err.value.iteration == iteration

    def test_step_is_built_at_the_first_step(self, monkeypatch):
        """The step (1/L, or the majorizer's P+) takes one filter spectrum
        per filter, and a budget of 0, which takes no step, takes none."""
        grid = Grid((16,))
        A = Identity(grid)
        rng = np.random.default_rng(0)
        y, x_true = rng.standard_normal(16), rng.standard_normal(16)
        hp = HyperParams(-1.0, [0.0, -0.5], [np.array([1.0, -1.0]),
                                             np.array([0.5, 0.1, -0.6])],
                         CornerRounded1Norm(0.1))
        calls = []
        monkeypatch.setattr(lower, "filter_power",
                            lambda c, g, _f=lower.filter_power: calls.append(c) or _f(c, g))
        spectra = []
        for cfg in [GDConfig(max_iters=0), GDConfig(max_iters=5),
                    GDConfig(max_iters=500, grad_tol=1e-6), GDConfig(step=0.1, max_iters=5)]:
            calls.clear()
            hypergrad_minimizer(LowerProblem(A, y, hp),
                                bind_loss(MSELoss(), y, A, x_true), y, cfg, 1e-10)
            spectra.append(len(calls))
        assert spectra == [0, 2, 2, 0]  # zero budget, budget, tolerance, explicit step


class TestCG:
    def test_identity_single_iteration(self):
        b = np.array([1.0, 2.0, 3.0])
        res = cg_solve(lambda v: v, b, tol=1e-12, max_iters=10)
        assert isinstance(res, CGResult)
        assert res.iters_run == 1
        np.testing.assert_allclose(res.x, b, rtol=1e-12)

    def test_scaled_identity(self):
        b = np.array([2.0, -4.0])
        res = cg_solve(lambda v: 2.0 * v, b, tol=1e-12, max_iters=10)
        np.testing.assert_allclose(res.x, b / 2.0, rtol=1e-12)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(1)
        n = 12
        g = rng.standard_normal((n, n))
        mat = g.T @ g + np.eye(n)
        b = rng.standard_normal(n)
        res = cg_solve(lambda v: mat @ v, b, tol=1e-12, max_iters=200)
        np.testing.assert_allclose(res.x, np.linalg.solve(mat, b), rtol=1e-9)

    @pytest.mark.parametrize("n", [4, 16, 32])
    def test_converges_within_n_iterations(self, n):
        # finite termination is an exact-arithmetic property; in float64 it
        # survives only for modest condition numbers, so keep kappa ~ 5
        rng = np.random.default_rng(n)
        g = rng.standard_normal((n, n))
        mat = g.T @ g / n + np.eye(n)
        b = rng.standard_normal(n)
        res = cg_solve(lambda v: mat @ v, b, tol=1e-10, max_iters=n)
        assert res.residual_norm <= 1e-10

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_default_cap_is_ten_times_size(self, n):
        diag = np.logspace(0, 6, n)
        calls = []

        def hess(v):
            calls.append(v)
            return diag * v

        res = cg_solve(hess, np.ones(n), tol=0.0)
        assert res.iters_run == len(calls) == 10 * n

    def test_zero_rhs(self):
        res = cg_solve(lambda v: v, np.zeros(4), tol=1e-12, max_iters=10)
        assert res.iters_run == 0
        np.testing.assert_array_equal(res.x, np.zeros(4))

    def test_spd_violation(self):
        with pytest.raises(SpdViolationError):
            cg_solve(lambda v: -v, np.ones(3), tol=1e-12, max_iters=10)

    def test_nan_curvature_names_the_iteration(self):
        diag = np.arange(1.0, 6.0)
        calls = []

        def hess(v):
            calls.append(v)
            return diag * v * (np.nan if len(calls) == 3 else 1.0)

        with pytest.raises(SpdViolationError, match="nan at CG iteration 2"):
            cg_solve(hess, np.ones(5), tol=1e-12)
        assert len(calls) == 3

    def test_max_iters_reports_residual(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((20, 20))
        mat = g.T @ g + 1e-3 * np.eye(20)
        b = rng.standard_normal(20)
        res = cg_solve(lambda v: mat @ v, b, tol=1e-14, max_iters=3)
        assert res.iters_run == 3
        assert res.residual_norm > 0
        np.testing.assert_allclose(
            np.linalg.norm(mat @ res.x - b), res.residual_norm, rtol=1e-6
        )


class PoisonedRows:
    """grad_x = D x on each row, L = 2 and the constant symbol P = 2, with the gradient of row r made
    infinite at iteration ``bad[r]`` of the solve; a stack has ``rows``, one
    signal is row 0."""

    A = Identity(Grid((4,)))
    D = np.array([2.0, 1.0, 0.5, 0.1])

    def __init__(self, bad, rows=None, calls=None):
        self.bad, self.rows = bad, rows
        self.calls = [0] if calls is None else calls

    def lipschitz_grad(self):
        return 2.0

    def majorizer(self):
        return 2.0

    def _rows(self, keep):
        return PoisonedRows(self.bad, [self.rows[p] for p in keep], self.calls)

    def grad_x(self, x):
        iteration = self.calls[0]
        self.calls[0] += 1
        grad = self.D * x
        for p, r in enumerate([0] if self.rows is None else self.rows):
            if self.bad.get(r) == iteration:
                grad.reshape(-1, 4)[p] = np.inf
        return grad


ACCELERATED = GDConfig(step="one-over-L", max_iters=100_000, grad_tol=1e-8)


class TestAccelerated:
    """"one-over-L" with grad_tol > 0 takes restarted OGM steps."""

    def test_is_a_bare_restarted_ogm_loop(self):
        """Gradient points, count and result, bit for bit, of the rule
        written out on one signal: steps ``d = P+ g`` by rfft, with
        ``P = 1 + L_phi' sum_k w_k |c_k^|^2``; the run restarts, at least
        once on the gradient-sign test alone, and builds momentum again
        after a restart."""
        rng = np.random.default_rng(0)
        n = 32
        hp = HyperParams(-1.0, [0.0, -0.5], [rng.standard_normal(2), rng.standard_normal(3)],
                         CornerRounded1Norm(0.1))
        problem = LowerProblem(Identity(Grid((n,))), rng.standard_normal(n), hp)
        x0 = rng.standard_normal(n)
        p = 1.0
        for b, c in zip(hp.betas, hp.filters):
            p = p + np.exp(hp.beta0 + b) * hp.potential.curvature_bound() * (
                np.abs(np.fft.rfft(c, n)) ** 2)
        p_inv = np.divide(1.0, p, out=np.zeros_like(p), where=p > 0.0)
        x, y, t, g_prev = x0.copy(), x0.copy(), 1.0, np.zeros(n)
        path, restarts, sign_restarts = [x0.copy()], 0, 0
        momentum_after_restart = False
        while True:
            grad = problem.grad_x(y)
            if np.linalg.norm(grad) <= ACCELERATED.grad_tol:
                break
            d = np.fft.irfft(np.fft.rfft(grad) * p_inv, n)
            x_next = y - d
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            descent_restart = np.vdot(grad, x_next - x) > 0.0
            sign_restart = np.vdot(d, g_prev) < 0.0
            if descent_restart or sign_restart:
                a = b = 0.0
                t = 1.0
                restarts += 1
                sign_restarts += sign_restart and not descent_restart
            else:
                momentum_after_restart |= restarts > 0 and t > 1.0
                a, b = (t - 1.0) / t_next, t / t_next
                t = t_next
            y = x_next + a * (x_next - x) - b * d
            x, g_prev = x_next, grad
            path.append(y.copy())
        assert sign_restarts > 0 and momentum_after_restart
        cfg = replace(ACCELERATED, record_trajectory=True)
        res = gd_minimize(problem, x0, cfg)
        assert res.iters_run == len(path) - 1
        np.testing.assert_array_equal(np.array(res.trajectory), np.array(path))
        np.testing.assert_array_equal(res.x, path[-1])

    @pytest.mark.parametrize("filters", [[], [np.array([1.0, 1.0])]])
    def test_steps_by_the_pseudo_inverse_where_p_vanishes(self, filters):
        """A blur and a filter that both vanish at Nyquist make P exactly 0
        there, where the Hessian and the gradient vanish too: 1/P would
        step by inf, P+ steps by 0 and the solve converges."""
        grid = Grid((8,))
        A = Circulant(grid, [0.5, 0.5])
        hp = HyperParams(0.0, [0.0] * len(filters), filters, CornerRounded1Norm(0.1))
        y = np.random.default_rng(0).standard_normal(8)
        problem = LowerProblem(A, y, hp)
        p = problem.majorizer()
        assert p[-1] == 0.0 and np.all(p[:-1] > 0.0)
        res = gd_minimize(problem, A.adjoint(y), ACCELERATED)
        assert res.final_grad_norm <= ACCELERATED.grad_tol
        assert res.iters_run <= 60

    @pytest.mark.parametrize("b0", [-1.0, -0.5, 0.3, 1.0])
    @pytest.mark.parametrize("start", [0.0, 0.5, 1.3, 2.0])
    def test_stops_at_once_when_one_over_l_is_exact(self, b0, start):
        """One sample whose curvature is L everywhere: the first step lands
        on the minimizer and the (t / t+) term overshoots it, so the
        gradient turns and the row restarts onto the minimizer."""
        hp = HyperParams(b0, [0.0], [np.array([1.0])], Quadratic())
        problem = LowerProblem(Identity(Grid((1,))), np.array([1.0]), hp)
        res = gd_minimize(problem, np.array([start]), ACCELERATED)
        assert res.final_grad_norm <= ACCELERATED.grad_tol
        assert res.iters_run <= 3

    def test_counts_iters_plus_one_gradients(self):
        for max_iters in (100_000, 7):
            problem = PoisonedRows({})
            res = gd_minimize(problem, np.ones(4),
                              GDConfig(max_iters=max_iters, grad_tol=1e-8))
            assert 7 <= res.iters_run <= max_iters
            assert problem.calls == [res.iters_run + 1]

    def test_returns_the_point_of_its_last_gradient(self):
        problem, rng = quadratic_problem(dims=(16,), lam=3.0)
        res = gd_minimize(problem, rng.standard_normal(16), ACCELERATED)
        norm = np.linalg.norm(problem.grad_x(res.x))
        assert norm == res.final_grad_norm <= ACCELERATED.grad_tol

    def test_non_finite_gradient_names_the_row_and_its_iteration(self):
        """Row 0 stops at once, row 2 diverges at iteration 4 and row 1 at
        9; the lowest diverged row raises, with its own solve's iteration."""
        x0 = np.array([0.0, 1.0, 100.0])[:, None] * np.ones(4)
        bad = {1: 9, 2: 4}
        for r in (1, 2):
            with pytest.raises(DivergenceError) as err:
                gd_minimize(PoisonedRows({0: bad[r]}), x0[r], ACCELERATED)
            assert (err.value.row, err.value.iteration) == (None, bad[r])
        problem = PoisonedRows(bad, rows=[0, 1, 2])
        with pytest.raises(DivergenceError) as err:
            gd_minimize(problem, x0, ACCELERATED)
        assert (err.value.row, err.value.iteration) == (1, 9)
        assert problem.calls == [10]

    @pytest.mark.parametrize("kind", ["mask-1d", "circulant-2d"])
    @pytest.mark.parametrize("seed", range(3))
    def test_meets_the_tolerance_near_plain_gd(self, kind, seed):
        """A Mask observes two entries in three, so only the regularizer
        makes the problem strongly convex.  Both solves end within
        grad_tol / mu of the minimizer, mu the least Hessian eigenvalue."""
        rng = np.random.default_rng(seed)
        if kind == "mask-1d":
            grid = Grid((24,))
            mask = np.ones(grid.n)
            mask[::3] = 0.0
            A = Mask(grid, mask)
            filters = [np.array([0.7, -0.7]), np.array([0.5, 0.1, -0.6])]
        else:
            grid = Grid((8, 8))
            A = Circulant(grid, [[0.0, 0.1], [0.1, 0.8]])
            filters = [np.array([[1.0, -1.0]]), np.array([[1.0], [-1.0]])]
        hp = HyperParams(-1.0, [0.0, -0.5], filters, CornerRounded1Norm(0.1))
        problem = LowerProblem(A, rng.standard_normal(grid.dims), hp)
        x0 = A.adjoint(problem.y)
        tol = ACCELERATED.grad_tol
        fast = gd_minimize(problem, x0, ACCELERATED)
        plain = gd_minimize(problem, x0, GDConfig(
            step=1.0 / problem.lipschitz_grad(), max_iters=100_000, grad_tol=tol))
        assert np.linalg.norm(problem.grad_x(fast.x)) <= tol
        assert 0 < fast.iters_run < plain.iters_run < 100_000
        mu = np.linalg.eigvalsh(_dense_hessian(Linearization(problem, fast.x)))[0]
        assert mu > 0
        assert np.linalg.norm(fast.x - plain.x) <= 2.0 * tol / mu

    def test_sweep_takes_five_times_fewer_row_iterations(self):
        """configs/sweep.json's problem at three of its beta0 values."""
        cfg = load_config(CONFIGS / "sweep.json")
        train = build_train_set(cfg.dataset, cfg.grid, cfg.forward)
        theta = build_theta(cfg, train)
        Y = np.stack(train.y)
        fast = plain = 0
        for b0 in (-4.0, -2.0, 0.0):
            problem = LowerProblem(train.A, Y, replace(theta, beta0=b0))
            x0 = train.A.adjoint(Y)
            res = gd_minimize(problem, x0, cfg.solver)
            assert res.final_grad_norm <= cfg.solver.grad_tol
            fast += sum(res.row_iters)
            plain += sum(gd_minimize(problem, x0, replace(
                cfg.solver, step=1.0 / problem.lipschitz_grad())).row_iters)
        assert 5 * fast <= plain

