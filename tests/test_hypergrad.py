import tracemalloc

import numpy as np
import pytest

from bilevelreg.forward import Circulant, Identity, Mask
from bilevelreg.hypergrad import (
    UpperLoss,
    grad_compare,
    hypergrad_minimizer,
    hypergrad_unrolled_forward,
    hypergrad_unrolled_reverse,
)
from bilevelreg.losses import MSELoss, bind_loss
from bilevelreg.lower import (
    HyperParams, Linearization, LowerProblem, pack_theta, unpack_theta,
)
from bilevelreg.potentials import CornerRounded1Norm, Quadratic
from bilevelreg.signals import Grid
from bilevelreg.solvers import GDConfig, gd_minimize


# a lower budget of 0: the minimizer engine takes its start as the solution
AT_X = GDConfig(max_iters=0)


def make_instance(dims=(16,), k=2, taps=(3,), eps=0.1, seed=0, beta0=-1.0):
    rng = np.random.default_rng(seed)
    grid = Grid(dims)
    filters = []
    for _ in range(k):
        c = rng.standard_normal(taps)
        filters.append(c / np.linalg.norm(c))
    hp = HyperParams(
        beta0=beta0,
        betas=rng.standard_normal(k) * 0.3,
        filters=filters,
        potential=CornerRounded1Norm(eps),
    )
    x_true = rng.standard_normal(dims)
    y = x_true + 0.1 * rng.standard_normal(dims)
    problem = LowerProblem(Identity(grid), y, hp)
    loss = bind_loss(MSELoss(), y, problem.A, x_true)
    return problem, loss, x_true, rng


def fd_pipeline_gradient(problem, loss, x0, h=1e-6, grad_tol=1e-11):
    cfg = GDConfig(step="one-over-L", max_iters=500_000, grad_tol=grad_tol)
    theta_vec = pack_theta(problem.theta)
    grad = np.zeros_like(theta_vec)
    for p in range(theta_vec.size):
        vals = []
        for sign in (1.0, -1.0):
            shifted = theta_vec.copy()
            shifted[p] += sign * h
            prob = LowerProblem(
                problem.A, problem.y, unpack_theta(problem.theta, shifted)
            )
            vals.append(loss.value(gd_minimize(prob, x0, cfg).x))
        grad[p] = (vals[0] - vals[1]) / (2 * h)
    return grad


def scalar_toy():
    """N=1, quadratic potential, lam = 1: xhat = y/(1+lam)."""
    grid = Grid((1,))
    hp = HyperParams(0.0, [0.0], [np.array([1.0])], Quadratic())
    problem = LowerProblem(Identity(grid), np.array([2.0]), hp)
    loss = bind_loss(MSELoss(), problem.y, problem.A, np.array([1.5]))
    return problem, loss


class TestMinimizerEngine:
    def test_zero_residual_gives_zero_gradient(self):
        problem, loss, x_true, _ = make_instance()
        loss_at_truth = bind_loss(MSELoss(), problem.y, problem.A, x_true)
        res = hypergrad_minimizer(problem, loss_at_truth, x_true, AT_X, 1e-12)
        np.testing.assert_allclose(res.grad, 0.0, atol=1e-14)

    def test_scalar_closed_form(self):
        problem, loss = scalar_toy()
        res = hypergrad_minimizer(problem, loss, np.array([1.0]), AT_X, 1e-14)
        # q = H^{-1} grad_loss = -0.5/2; beta entry of J'q = lam*x*q = -0.25
        assert res.grad[0] == pytest.approx(0.25, abs=1e-12)
        assert res.cg_residual <= 1e-14

    def test_matches_end_to_end_finite_differences(self):
        problem, loss, _, _ = make_instance(dims=(16,), k=2, taps=(3,))
        x0 = problem.A.adjoint(problem.y)
        engine = hypergrad_minimizer(
            problem, loss, x0,
            GDConfig(step="one-over-L", max_iters=500_000, grad_tol=1e-11), 1e-12,
        )
        fd = fd_pipeline_gradient(problem, loss, x0)
        scale = float(np.max(np.abs(fd)))
        np.testing.assert_allclose(engine.grad, fd, atol=1e-5 * scale)

    def test_depends_only_on_x_argument(self):
        problem, loss, _, _ = make_instance()
        x0 = problem.A.adjoint(problem.y)
        a = hypergrad_minimizer(problem, loss, x0, GDConfig(
            step="one-over-L", max_iters=400_000, grad_tol=1e-12), 1e-13)
        lip = problem.lipschitz_grad()
        gb = hypergrad_minimizer(problem, loss, x0, GDConfig(
            step=0.5 / lip, max_iters=800_000, grad_tol=1e-12), 1e-13).grad
        # the same x again, taken as it is: bit-identical output
        gc1 = hypergrad_minimizer(problem, loss, a.x_final.copy(), AT_X, 1e-13).grad
        np.testing.assert_array_equal(a.grad, gc1)
        np.testing.assert_allclose(a.grad, gb, rtol=1e-6)

    def test_warns_away_from_stationarity(self):
        problem, loss, _, _ = make_instance()
        x_far = problem.A.adjoint(problem.y) + 5.0
        res = hypergrad_minimizer(problem, loss, x_far, AT_X, 1e-10)
        assert res.warning is not None

    def test_warns_when_cg_stops_above_tolerance(self):
        problem, loss, _, _ = make_instance()
        x0 = problem.A.adjoint(problem.y)
        cfg = GDConfig(step="one-over-L", max_iters=400_000, grad_tol=1e-12)
        full = hypergrad_minimizer(problem, loss, x0, cfg, 1e-12)
        assert full.warning is None
        capped = hypergrad_minimizer(problem, loss, x0, cfg, 1e-12, cg_max_iters=1)
        assert capped.cg_residual > 1e-12
        assert "CG stopped after 1 iterations" in capped.warning
        assert f"{capped.cg_residual:.3e}" in capped.warning


class TestMinimizerAtAcceleratedSolves:
    """Lower solves at "one-over-L" to a tolerance take restarted Nesterov
    steps; the minimizer engine at such a solve still matches end-to-end
    finite differences through solves of the same kind."""

    @pytest.mark.parametrize("dims", [(12,), (5, 4)])
    @pytest.mark.parametrize("kind", ["identity", "mask", "circulant"])
    def test_matches_end_to_end_finite_differences(self, kind, dims):
        rng = np.random.default_rng(11)
        grid = Grid(dims)
        shapes = [(2,), (3,)] if grid.rank == 1 else [(2, 2), (1, 3)]
        hp = HyperParams(-1.0, rng.standard_normal(2) * 0.3,
                         [rng.standard_normal(t) for t in shapes],
                         CornerRounded1Norm(0.1), learn_beta0=True)
        A = _pin_model(kind, grid, rng)
        x_true = rng.standard_normal(dims)
        y = A.apply(x_true) + 0.1 * rng.standard_normal(dims)
        problem = LowerProblem(A, y, hp)
        loss = bind_loss(MSELoss(), y, A, x_true)
        x0 = A.adjoint(y)
        engine = hypergrad_minimizer(
            problem, loss, x0, GDConfig(max_iters=500_000, grad_tol=1e-11), 1e-12)
        assert np.linalg.norm(problem.grad_x(engine.x_final)) <= 1e-11
        fd = fd_pipeline_gradient(problem, loss, x0)
        scale = float(np.max(np.abs(fd)))
        np.testing.assert_allclose(engine.grad, fd, atol=1e-5 * scale)


class TestUnrolledEngines:
    def test_zero_steps_gives_zero_gradient(self):
        problem, loss, _, _ = make_instance()
        x0 = problem.A.adjoint(problem.y)
        step = 1.0 / problem.lipschitz_grad()
        for fn in (hypergrad_unrolled_reverse, hypergrad_unrolled_forward):
            res = fn(problem, loss, x0, 0, step)
            np.testing.assert_array_equal(res.grad,
                                          np.zeros(problem.theta.theta_size()))

    @pytest.mark.parametrize("n_steps", [1, 5, 50])
    def test_reverse_equals_forward(self, n_steps):
        for seed in range(10):
            problem, loss, _, _ = make_instance(seed=seed)
            x0 = problem.A.adjoint(problem.y)
            step = 1.0 / problem.lipschitz_grad()
            rev = hypergrad_unrolled_reverse(problem, loss, x0, n_steps, step)
            fwd = hypergrad_unrolled_forward(problem, loss, x0, n_steps, step)
            scale = max(float(np.linalg.norm(fwd.grad)), 1e-30)
            assert np.linalg.norm(rev.grad - fwd.grad) <= 1e-10 * scale

    @pytest.mark.parametrize("fn", [hypergrad_unrolled_reverse,
                                    hypergrad_unrolled_forward])
    def test_warns_on_a_step_above_two_over_l(self, fn):
        problem, loss, _, _ = make_instance()
        x0 = problem.A.adjoint(problem.y)
        lip = problem.lipschitz_grad()
        assert fn(problem, loss, x0, 3, 1.0 / lip).warning is None
        warning = fn(problem, loss, x0, 3, 3.0 / lip).warning
        assert warning is not None and "exceeds 2/L" in warning

    def test_forward_sensitivity_matches_fd(self):
        problem, _, _, rng = make_instance(dims=(8,), k=1, taps=(2,))
        x0 = problem.A.adjoint(problem.y)
        step = 1.0 / problem.lipschitz_grad()
        n_steps = 20
        # the loss x_i reads column i of the sensitivity Z: grad[p] = Z[p]_i
        z = np.zeros((problem.theta.theta_size(), x0.size))
        for i in range(x0.size):
            e_i = np.zeros_like(x0)
            e_i[i] = 1.0
            probe = UpperLoss(value=lambda x, i=i: float(x[i]), grad_x=lambda x, e=e_i: e)
            z[:, i] = hypergrad_unrolled_forward(problem, probe, x0, n_steps, step).grad
        theta_vec = pack_theta(problem.theta)
        h = 1e-6
        cfg = GDConfig(step=step, max_iters=n_steps, grad_tol=0.0)
        for p in range(theta_vec.size):
            vals = []
            for sign in (1.0, -1.0):
                shifted = theta_vec.copy()
                shifted[p] += sign * h
                prob = LowerProblem(
                    problem.A, problem.y, unpack_theta(problem.theta, shifted)
                )
                vals.append(gd_minimize(prob, x0, cfg).x)
            fd_col = (vals[0] - vals[1]) / (2 * h)
            scale = max(float(np.max(np.abs(fd_col))), 1e-12)
            np.testing.assert_allclose(z[p], fd_col, atol=1e-5 * scale)

    def test_converges_to_minimizer_engine(self):
        problem, loss, _, _ = make_instance(dims=(12,), k=1, taps=(2,))
        x0 = problem.A.adjoint(problem.y)
        lip = problem.lipschitz_grad()
        step = 1.0 / lip
        exact = hypergrad_minimizer(problem, loss, x0, GDConfig(
            step="one-over-L", max_iters=500_000, grad_tol=1e-13), 1e-13)
        # pick T so the unrolled iterate is within 1e-9 of the minimizer
        n_steps = 0
        x = x0.copy()
        while np.linalg.norm(x - exact.x_final) > 1e-9:
            x -= step * problem.grad_x(x)
            n_steps += 1
            assert n_steps < 10**6
        unrolled = hypergrad_unrolled_reverse(problem, loss, x0, n_steps, step)
        rel = np.linalg.norm(unrolled.grad - exact.grad) / np.linalg.norm(exact.grad)
        assert rel <= 1e-6


def reference_unrolled_reverse(problem, loss, x0, n_steps, step):
    """The reverse sweep with one linearization per step, built at that
    step's iterate; the engine's linearization of each block of steps must
    give the same bits.  Returns (grad, x_T)."""
    cfg = GDConfig(step=step, max_iters=n_steps, grad_tol=0.0, record_trajectory=True)
    run = gd_minimize(problem, x0, cfg)
    stacked = problem.A.grid.is_stack(run.x)
    lead = run.x.shape[:1] if stacked else ()
    grad = np.zeros(lead + (problem.theta.theta_size(),))
    if stacked:
        delta = np.stack([f.grad_x(row) for f, row in zip(loss, run.x)])
    else:
        delta = loss.grad_x(run.x)
    for t in range(n_steps, 0, -1):
        lin = Linearization(problem, run.trajectory[t - 1])
        grad -= step * lin.jac_adjoint_apply(delta)
        delta = delta - step * lin.hess_vec(delta)
    return grad, run.x


def _pin_model(kind, grid, rng):
    if kind == "identity":
        return Identity(grid)
    if kind == "mask":
        return Mask(grid, (rng.random(grid.dims) < 0.7).astype(float))
    return Circulant(grid, rng.random((3,) if grid.rank == 1 else (2, 3)))


def _pin_case(kind, dims, learn_beta0, rows, shapes, seed=7):
    """A problem for ``hypergrad_unrolled_reverse``: its loss, start and 1/L
    step, with one filter of each shape in ``shapes``."""
    rng = np.random.default_rng(seed)
    grid = Grid(dims)
    hp = HyperParams(-1.0, rng.standard_normal(len(shapes)) * 0.3,
                     [rng.standard_normal(t) for t in shapes],
                     CornerRounded1Norm(0.1), learn_beta0=learn_beta0)
    A = _pin_model(kind, grid, rng)
    shape = ((rows,) if rows else ()) + dims
    x_true = rng.standard_normal(shape)
    y = A.apply(x_true) + 0.1 * rng.standard_normal(shape)
    problem = LowerProblem(A, y, hp)
    if rows:
        loss = [bind_loss(MSELoss(), yj, A, xj) for yj, xj in zip(y, x_true)]
    else:
        loss = bind_loss(MSELoss(), y, A, x_true)
    return problem, loss, A.adjoint(y), 1.0 / problem.lipschitz_grad()


def _filter_shapes(dims):
    return [(2,), (3,)] if len(dims) == 1 else [(2, 2), (1, 3)]


class TestReverseSweepPin:
    """The stacked-trajectory sweep against ``reference_unrolled_reverse``,
    bit for bit, over forward models, ranks, learnable b0, stacking and T.

    The sweep assembles M once per block of ``span = ceil(T / offsets)``
    steps, offsets 5 on the 1-D grid and 15 on the 2-D one: T = 1 and, in
    2-D, 7 lie below offsets (one step per block), 16 is a multiple of the
    span (4 in 1-D, 2 in 2-D) and 17 one step past it, 7 in 1-D too (span 2).
    """

    @pytest.mark.parametrize("n_steps", [0, 1, 7, 16, 17])
    @pytest.mark.parametrize("rows", [None, 2])
    @pytest.mark.parametrize("learn_beta0", [False, True])
    @pytest.mark.parametrize("dims", [(12,), (5, 4)])
    @pytest.mark.parametrize("kind", ["identity", "mask", "circulant"])
    def test_equals_a_linearization_per_step(self, kind, dims, learn_beta0,
                                             rows, n_steps):
        grad = self._check(kind, dims, learn_beta0, rows, n_steps, _filter_shapes(dims))
        if n_steps:
            assert np.any(grad != 0.0)

    @pytest.mark.parametrize("n_steps", [1, 16, 17])
    @pytest.mark.parametrize("rows", [None, 2])
    @pytest.mark.parametrize("learn_beta0", [False, True])
    @pytest.mark.parametrize("dims", [(12,), (5, 4)])
    @pytest.mark.parametrize("kind", ["identity", "mask", "circulant"])
    def test_no_filters_equal_a_linearization_per_step(self, kind, dims, learn_beta0,
                                                       rows, n_steps):
        # theta is empty, or b0 alone, whose entry sums no betas: all zeros
        grad = self._check(kind, dims, learn_beta0, rows, n_steps, [])
        assert grad.shape[-1] == (1 if learn_beta0 else 0)
        assert not np.any(grad)

    @staticmethod
    def _check(kind, dims, learn_beta0, rows, n_steps, shapes):
        problem, loss, x0, step = _pin_case(kind, dims, learn_beta0, rows, shapes)
        res = hypergrad_unrolled_reverse(problem, loss, x0, n_steps, step)
        grad, x_final = reference_unrolled_reverse(problem, loss, x0, n_steps, step)
        assert res.grad.shape == grad.shape
        np.testing.assert_array_equal(res.grad, grad)
        np.testing.assert_array_equal(res.x_final, x_final)
        assert res.lower_iters == ([n_steps] * rows if rows else n_steps)
        assert res.warning == ([None] * rows if rows else None)
        return grad


class TestReverseSweepCounts:
    """Per reverse call: T Hessian and T Jacobian-adjoint products, one
    stencil assembly per block of ``span = ceil(T / offsets)`` steps, and no
    M above (T + offsets) S N floats."""

    @pytest.mark.parametrize("n_steps", [1, 3, 7, 16, 17, 40])
    @pytest.mark.parametrize("rows", [None, 2])
    @pytest.mark.parametrize("dims,filters", [((12,), True), ((5, 4), True),
                                              ((12,), False)])
    @pytest.mark.parametrize("kind", ["identity", "circulant"])
    def test_products_and_assemblies(self, kind, dims, filters, rows, n_steps,
                                     monkeypatch):
        shapes = _filter_shapes(dims) if filters else []
        problem, loss, x0, step = _pin_case(kind, dims, False, rows, shapes)
        calls = {"hess_vec": 0, "jac_adjoint_apply": 0}
        for name in calls:
            def counted(self, v, _f=getattr(Linearization, name), _name=name):
                calls[_name] += 1
                return _f(self, v)
            monkeypatch.setattr(Linearization, name, counted)
        sizes = []
        stencil = Linearization._stencil

        def assembled(self):
            sizes.append(stencil(self)[1].size)
            return self._m
        monkeypatch.setattr(Linearization, "_stencil", assembled)
        hypergrad_unrolled_reverse(problem, loss, x0, n_steps, step)
        offsets = len(problem._stencil_plan()[1])
        span = -(-n_steps // offsets)
        assert calls == {"hess_vec": n_steps, "jac_adjoint_apply": n_steps}
        assert len(sizes) == -(-n_steps // span)
        assert max(sizes) <= (n_steps + offsets) * (rows or 1) * problem.A.grid.n


class TestReverseBlockMemory:
    """A reverse call holds the trajectory and a block's linearization, about
    T S N + span S N (taps + 4 + offsets) floats (README, engine costs),
    never a linearization of the whole path."""

    def test_peak_is_one_block_not_the_path(self, monkeypatch):
        # 16x16, a 2x3 blur and two 3x3 filters: 25 offsets, blocks of 4 of
        # T = 100 steps of 2 signals
        shapes = [(3, 3), (3, 3)]
        problem, loss, x0, step = _pin_case("circulant", (16, 16), True, 2, shapes)
        n_steps, rows, n = 100, 2, problem.A.grid.n
        offsets = len(problem._stencil_plan()[1])
        span = -(-n_steps // offsets)
        taps = sum(int(np.prod(t)) for t in shapes)
        floats = n_steps * rows * n + span * rows * n * (taps + 4 + offsets)
        hypergrad_unrolled_reverse(problem, loss, x0, n_steps, step)  # caches built
        built = []
        init = Linearization.__init__

        def recorded(self, problem, x):
            built.append(len(x))
            init(self, problem, x)
        monkeypatch.setattr(Linearization, "__init__", recorded)
        tracemalloc.start()
        try:
            hypergrad_unrolled_reverse(problem, loss, x0, n_steps, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built and max(built) <= span * rows
        # slack 3: the last block is held while the next is built, and the
        # formula leaves out the phi'' gather an assembly makes beside M, the
        # slope terms of the second filter and the products' temporaries
        assert peak <= 3 * 8 * floats


class TestReverseEqualsForwardMatrix:
    """Reverse and forward mode give one gradient over forward models, ranks,
    learnable b0, stacking and T: one block of steps and several (5 offsets
    on the 1-D grid, 15 on the 2-D one)."""

    @pytest.mark.parametrize("n_steps", [1, 7, 17])
    @pytest.mark.parametrize("rows", [None, 2])
    @pytest.mark.parametrize("learn_beta0", [False, True])
    @pytest.mark.parametrize("dims", [(12,), (5, 4)])
    @pytest.mark.parametrize("kind", ["identity", "mask", "circulant"])
    def test_reverse_equals_forward(self, kind, dims, learn_beta0, rows, n_steps):
        problem, loss, x0, step = _pin_case(kind, dims, learn_beta0, rows,
                                            _filter_shapes(dims))
        rev = hypergrad_unrolled_reverse(problem, loss, x0, n_steps, step)
        fwd = hypergrad_unrolled_forward(problem, loss, x0, n_steps, step)
        assert rev.grad.shape == fwd.grad.shape
        scale = float(np.linalg.norm(fwd.grad))
        assert scale > 0.0
        assert np.linalg.norm(rev.grad - fwd.grad) <= 1e-10 * scale


class TestAngleSweep:
    def test_angle_error_shrinks_with_tolerance(self):
        problem, loss, _, _ = make_instance(dims=(24,), k=1, taps=(2,), seed=3)
        x0 = problem.A.adjoint(problem.y)
        grads = {}
        for tol in (1e-1, 1e-2, 1e-4, 1e-8, 1e-12):
            cfg = GDConfig(step="one-over-L", max_iters=500_000, grad_tol=tol)
            grads[tol] = hypergrad_minimizer(problem, loss, x0, cfg, min(tol, 1e-8)).grad
        ref = grads[1e-12]
        angles = [grad_compare(grads[t], ref)[0] for t in (1e-1, 1e-2, 1e-4, 1e-8)]
        assert angles[3] < angles[1]
        for a, b in zip(angles, angles[1:]):
            assert b <= a * 1.1 + 1e-12


class TestGradCompare:
    def test_identical(self):
        g = np.array([1.0, 2.0])
        angle, rel = grad_compare(g, g)
        assert angle == pytest.approx(0.0, abs=1e-7)
        assert rel == 0.0

    def test_small_angles_resolved(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal(21)
        assert grad_compare(g, g.copy()) == (0.0, 0.0)
        u = g / np.linalg.norm(g)
        v = rng.standard_normal(21)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        angle, _ = grad_compare(np.cos(1e-10) * u + np.sin(1e-10) * v, u)
        assert angle == pytest.approx(1e-10, rel=1e-6)

    def test_opposite(self):
        g = np.array([1.0, 2.0])
        angle, rel = grad_compare(-g, g)
        assert angle == pytest.approx(np.pi)
        assert rel == pytest.approx(2.0)

    def test_orthogonal(self):
        angle, rel = grad_compare(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert angle == pytest.approx(np.pi / 2)
        assert rel == pytest.approx(np.sqrt(2.0))

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            grad_compare(np.ones(2), np.zeros(2))
