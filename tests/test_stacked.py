"""A stack of samples, shaped (S, *grid), against one sample at a time.

Every stacked operation must give each row, bit for bit, what the unstacked
call on that row gives.  A stacked lower solve stops each row on its own
gradient norm, so every byte of a sweep table depends on it.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bilevelreg.hypergrad as hypergrad
import bilevelreg.signals as signals
import bilevelreg.upper as upper
from bilevelreg.errors import DimensionError, DivergenceError, SpdViolationError
from bilevelreg.forward import Circulant, Identity, Mask
from bilevelreg.hypergrad import (
    hypergrad_minimizer,
    hypergrad_unrolled_forward,
    hypergrad_unrolled_reverse,
)
from bilevelreg.losses import MSELoss, SureMCLoss, bind_loss, sure_mc
from bilevelreg.lower import (
    HyperParams, Linearization, LowerProblem, pack_theta, unpack_theta,
)
from bilevelreg.potentials import CornerRounded1Norm, Quadratic
from bilevelreg.signals import Grid, circ_conv
from bilevelreg.solvers import GDConfig, gd_minimize
from bilevelreg.upper import (
    Constant,
    TrainSet,
    adam_or_gd_upper,
    ba,
    evaluate_upper,
    grid_search,
    hoag,
)

KINDS = ["identity", "mask", "circulant"]
DIMS = [(12,), (5, 5)]
S = 4


def make_model(kind, dims):
    grid = Grid(dims)
    if kind == "identity":
        return Identity(grid)
    if kind == "mask":
        values = np.ones(grid.n)
        values[::3] = 0.0
        return Mask(grid, values)
    taps = [0.2, 0.6, 0.2] if len(dims) == 1 else [[0.0, 0.1], [0.1, 0.8]]
    return Circulant(grid, taps)


def make_theta(rank, potential=None):
    if rank == 1:
        filters = [np.array([0.7, -0.7]), np.array([0.5, 0.1, -0.6])]
    else:
        filters = [np.array([[1.0, -1.0]]), np.array([[1.0], [-1.0]])]
    return HyperParams(-1.0, [0.0, -0.5], filters,
                       potential or CornerRounded1Norm(0.1))


def make_stack(dims, seed=0):
    """S signals at scales a factor 3 apart, so their solves stop at
    different iterations."""
    rng = np.random.default_rng(seed)
    scales = 3.0 ** np.arange(S).reshape((S,) + (1,) * len(dims))
    return scales * rng.standard_normal((S,) + dims)


@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("kind", KINDS)
class TestRowsMatch:
    def test_apply_and_adjoint(self, kind, dims):
        A = make_model(kind, dims)
        Y = make_stack(dims)
        applied, adjoint = A.apply(Y), A.adjoint(Y)
        assert applied.shape == adjoint.shape == Y.shape
        for j in range(S):
            np.testing.assert_array_equal(applied[j], A.apply(Y[j]))
            np.testing.assert_array_equal(adjoint[j], A.adjoint(Y[j]))

    def test_grad_x(self, kind, dims):
        A = make_model(kind, dims)
        hp = make_theta(len(dims))
        Y = make_stack(dims)
        X = make_stack(dims, seed=1)
        stacked = LowerProblem(A, Y, hp).grad_x(X)
        for j in range(S):
            np.testing.assert_array_equal(
                stacked[j], LowerProblem(A, Y[j], hp).grad_x(X[j])
            )

    def test_gd_minimize(self, kind, dims):
        """Rows stop at their own iterations, also when a cap cuts some of
        them short, and each ends where its own solve ends."""
        A = make_model(kind, dims)
        hp = make_theta(len(dims))
        Y = make_stack(dims)
        tol = GDConfig(max_iters=1500, grad_tol=1e-5)
        own = [gd_minimize(LowerProblem(A, y, hp), A.adjoint(y), tol) for y in Y]
        iters = [r.iters_run for r in own]
        cap = (min(iters) + max(iters)) // 2
        for cfg in (tol, GDConfig(max_iters=cap, grad_tol=1e-5)):
            per_row = [
                gd_minimize(LowerProblem(A, y, hp), A.adjoint(y), cfg) for y in Y
            ]
            res = gd_minimize(LowerProblem(A, Y, hp), A.adjoint(Y), cfg)
            for j, row in enumerate(per_row):
                np.testing.assert_array_equal(res.x[j], row.x)
            assert res.iters_run == max(r.iters_run for r in per_row)
            assert res.final_grad_norm == max(r.final_grad_norm for r in per_row)
        capped = [r.iters_run for r in per_row]
        assert min(capped) < cap == max(capped)  # the cap did cut rows short

    @pytest.mark.parametrize("per_row_b0", [False, True])
    def test_gd_minimize_drops_stopped_rows(self, kind, dims, per_row_b0):
        """Stopped rows leave the loop; each row still gets its own solve's
        x, iteration count and trajectory, full-shaped, with a stopped row
        held at its last iterate."""
        A = make_model(kind, dims)
        hp = make_theta(len(dims))
        Y = make_stack(dims)
        b0 = np.array([-1.0, -2.5, 0.3, -1.7]) if per_row_b0 else None
        own_hp = [hp] * S if b0 is None else [replace(hp, beta0=b) for b in b0]
        cfg = GDConfig(max_iters=2000, grad_tol=1e-5, record_trajectory=True)
        res = gd_minimize(LowerProblem(A, Y, hp, b0), A.adjoint(Y), cfg)
        own = [gd_minimize(LowerProblem(A, y, h), A.adjoint(y), cfg)
               for y, h in zip(Y, own_hp)]
        iters = [r.iters_run for r in own]
        assert min(iters) < max(iters)  # some rows stop while others step
        assert res.row_iters == iters and res.iters_run == max(iters)
        assert res.final_grad_norm == max(r.final_grad_norm for r in own)
        for j, row in enumerate(own):
            np.testing.assert_array_equal(res.x[j], row.x)
        held = [[row.trajectory[min(t, row.iters_run)] for row in own]
                for t in range(res.iters_run + 1)]
        np.testing.assert_array_equal(np.array(res.trajectory), np.array(held))

    @pytest.mark.parametrize("per_row_b0", [False, True])
    def test_row_drops_build_no_problem(self, kind, dims, per_row_b0, monkeypatch):
        """A row drop views the live rows of the problem: the loop builds no
        ``LowerProblem``, so nothing re-checks the stack or recomputes w_k."""
        A = make_model(kind, dims)
        b0 = np.array([-1.0, -2.5, 0.3, -1.7]) if per_row_b0 else None
        problem = LowerProblem(A, make_stack(dims), make_theta(len(dims)), b0)
        built = []

        def counted(self, _init=LowerProblem.__post_init__):
            built.append(self)
            _init(self)

        monkeypatch.setattr(LowerProblem, "__post_init__", counted)
        cfg = GDConfig(max_iters=2000, grad_tol=1e-5)
        res = gd_minimize(problem, A.adjoint(problem.y), cfg)
        assert min(res.row_iters) < max(res.row_iters)  # some rows dropped
        assert built == []

    @pytest.mark.parametrize("per_row_b0", [False, True])
    def test_accelerated_rows_meet_the_tolerance(self, kind, dims, per_row_b0):
        """"one-over-L" at a tolerance: every returned row's recomputed
        gradient norm is within grad_tol, and final_grad_norm is the
        largest of them."""
        A = make_model(kind, dims)
        hp = make_theta(len(dims))
        Y = make_stack(dims)
        b0 = np.array([-1.0, -2.5, 0.3, -1.7]) if per_row_b0 else None
        own_hp = [hp] * S if b0 is None else [replace(hp, beta0=b) for b in b0]
        cfg = GDConfig(max_iters=10_000, grad_tol=1e-5)
        res = gd_minimize(LowerProblem(A, Y, hp, b0), A.adjoint(Y), cfg)
        norms = [np.linalg.norm(LowerProblem(A, y, h).grad_x(x))
                 for y, h, x in zip(Y, own_hp, res.x)]
        assert max(res.row_iters) < cfg.max_iters
        assert max(norms) <= cfg.grad_tol
        assert res.final_grad_norm == max(norms)

    @pytest.mark.parametrize("per_row_b0", [False, True])
    def test_row_stopped_at_its_start_takes_no_step(self, kind, dims, per_row_b0):
        """A row that starts within grad_tol stops before the first step,
        which is then built for the live rows alone: every row still gets
        its own solve's x and iteration count, bit for bit."""
        A = make_model(kind, dims)
        hp = make_theta(len(dims))
        Y = make_stack(dims)
        b0 = np.array([-1.0, -2.5, 0.3, -1.7]) if per_row_b0 else None
        own_hp = [hp] * S if b0 is None else [replace(hp, beta0=b) for b in b0]
        cfg = GDConfig(max_iters=2000, grad_tol=1e-5)
        X0 = A.adjoint(Y)
        X0[1] = gd_minimize(LowerProblem(A, Y[1], own_hp[1]), X0[1],
                            GDConfig(max_iters=2000, grad_tol=1e-9)).x
        res = gd_minimize(LowerProblem(A, Y, hp, b0), X0, cfg)
        own = [gd_minimize(LowerProblem(A, y, h), x0, cfg)
               for y, h, x0 in zip(Y, own_hp, X0)]
        assert res.row_iters == [r.iters_run for r in own] and res.row_iters[1] == 0
        for j, row in enumerate(own):
            np.testing.assert_array_equal(res.x[j], row.x)

    @pytest.mark.parametrize("cfg", [
        GDConfig(max_iters=40, record_trajectory=True),
        GDConfig(step=0.05, max_iters=3000, grad_tol=1e-5, record_trajectory=True),
    ], ids=["budget-one-over-L", "explicit-step-tol"])
    def test_plain_steps_are_a_bare_loop(self, kind, dims, cfg):
        """A fixed budget and an explicit step take plain steps: each row's
        x, iteration count and trajectory are those of a bare
        ``x -= step * grad_x(x)`` loop on that row alone, bit for bit."""
        A = make_model(kind, dims)
        hp = make_theta(len(dims))
        Y = make_stack(dims)
        b0 = np.array([-1.0, -2.5, 0.3, -1.7])
        res = gd_minimize(LowerProblem(A, Y, hp, b0), A.adjoint(Y), cfg)
        paths = []
        for y, b in zip(Y, b0):
            own = LowerProblem(A, y, replace(hp, beta0=b))
            step = 1.0 / own.lipschitz_grad() if cfg.step == "one-over-L" else cfg.step
            x = A.adjoint(y)
            paths.append([x.copy()])
            for _ in range(cfg.max_iters):
                grad = own.grad_x(x)
                if np.linalg.norm(grad) <= cfg.grad_tol:
                    break
                x -= step * grad
                paths[-1].append(x.copy())
        assert res.row_iters == [len(path) - 1 for path in paths]
        for j, path in enumerate(paths):
            np.testing.assert_array_equal(res.x[j], path[-1])
        held = [[path[min(t, len(path) - 1)] for path in paths]
                for t in range(res.iters_run + 1)]
        np.testing.assert_array_equal(np.array(res.trajectory), np.array(held))

    @pytest.mark.parametrize("per_row_b0", [False, True])
    @pytest.mark.parametrize("cfg", [
        GDConfig(max_iters=10_000, grad_tol=1e-5),
        GDConfig(max_iters=40),
        GDConfig(step=0.05, max_iters=3000, grad_tol=1e-5),
    ], ids=["ogm-tol", "budget-one-over-L", "explicit-step-tol"])
    def test_row_grad_norms_are_their_own(self, kind, dims, per_row_b0, cfg):
        """Each row's final gradient norm is ``np.linalg.norm`` of its own
        problem's gradient at its returned x, bit for bit."""
        A = make_model(kind, dims)
        hp = make_theta(len(dims))
        Y = make_stack(dims)
        b0 = np.array([-1.0, -2.5, 0.3, -1.7]) if per_row_b0 else None
        own_hp = [hp] * S if b0 is None else [replace(hp, beta0=b) for b in b0]
        res = gd_minimize(LowerProblem(A, Y, hp, b0), A.adjoint(Y), cfg)
        norms = [float(np.linalg.norm(LowerProblem(A, y, h).grad_x(x)))
                 for y, h, x in zip(Y, own_hp, res.x)]
        assert res.row_grad_norms == norms
        assert res.final_grad_norm == max(norms)

    @pytest.mark.parametrize("learn_b0", [False, True])
    def test_minimizer_engine(self, kind, dims, learn_b0):
        """Row j of a stacked call equals the one-signal call on row j in
        every field, where a row's lower solve stops at its budget above its
        tolerance and where a row's CG stops at its cap."""
        A = make_model(kind, dims)
        hp = replace(make_theta(len(dims)), learn_beta0=learn_b0)
        Y, x_true = make_stack(dims), make_stack(dims, seed=2)
        losses = [bind_loss(MSELoss(), y, A, xt) for y, xt in zip(Y, x_true)]
        cfg, cg_tol, cg_cap = GDConfig(max_iters=25, grad_tol=1e-6), 1e-8, 6
        res = hypergrad_minimizer(LowerProblem(A, Y, hp), losses, A.adjoint(Y),
                                  cfg, cg_tol, cg_cap)
        assert res.grad.shape == (S, hp.theta_size())
        stopped_above = []
        for j in range(S):
            problem = LowerProblem(A, Y[j], hp)
            own = hypergrad_minimizer(problem, losses[j], A.adjoint(Y[j]), cfg,
                                      cg_tol, cg_cap)
            np.testing.assert_array_equal(res.grad[j], own.grad)
            np.testing.assert_array_equal(res.x_final[j], own.x_final)
            assert res.lower_iters[j] == own.lower_iters
            assert res.cg_residual[j] == own.cg_residual
            assert res.warning[j] == own.warning
            stopped_above.append(
                np.linalg.norm(problem.grad_x(own.x_final)) > cfg.grad_tol)
        assert any(stopped_above)
        assert max(res.cg_residual) > cg_tol

    def test_per_row_beta0(self, kind, dims):
        """A row with its own b0 gets the gradient and the Lipschitz
        constant of the problem that has that b0 as its scalar."""
        A = make_model(kind, dims)
        hp = make_theta(len(dims))
        Y, X = make_stack(dims), make_stack(dims, seed=1)
        b0 = np.random.default_rng(4).uniform(-4.0, 3.0, S)
        problem = LowerProblem(A, Y, hp, b0)
        grads, lips = problem.grad_x(X), problem.lipschitz_grad()
        assert lips.shape == (S,)
        for j in range(S):
            own = LowerProblem(A, Y[j], replace(hp, beta0=b0[j]))
            np.testing.assert_array_equal(grads[j], own.grad_x(X[j]))
            assert lips[j] == own.lipschitz_grad()

    @pytest.mark.parametrize("learn_b0", [False, True])
    def test_linearization(self, kind, dims, learn_b0):
        """Every product of a stacked linearization, row by row."""
        A = make_model(kind, dims)
        hp = replace(make_theta(len(dims)), learn_beta0=learn_b0)
        Y, X, V = (make_stack(dims, seed=k) for k in range(3))
        lin = Linearization(LowerProblem(A, Y, hp), X)
        hv, jtv, cols = lin.hess_vec(V), lin.jac_adjoint_apply(V), lin.jac_columns()
        assert jtv.shape == (S, hp.theta_size())
        assert cols.shape == (hp.theta_size(), S) + dims
        for j in range(S):
            own = Linearization(LowerProblem(A, Y[j], hp), X[j])
            np.testing.assert_array_equal(hv[j], own.hess_vec(V[j]))
            np.testing.assert_array_equal(jtv[j], own.jac_adjoint_apply(V[j]))
            np.testing.assert_array_equal(cols[:, j], own.jac_columns())

    @pytest.mark.parametrize("fn", [hypergrad_unrolled_reverse,
                                    hypergrad_unrolled_forward])
    def test_unrolled_engines(self, kind, dims, fn):
        A = make_model(kind, dims)
        hp = replace(make_theta(len(dims)), learn_beta0=True)
        Y, X0 = make_stack(dims), make_stack(dims, seed=1)
        x_true = make_stack(dims, seed=2)
        losses = [bind_loss(MSELoss(), y, A, xt) for y, xt in zip(Y, x_true)]
        res = fn(LowerProblem(A, Y, hp), losses, X0, 6, 0.01)
        assert res.grad.shape == (S, hp.theta_size())
        for j in range(S):
            own = fn(LowerProblem(A, Y[j], hp), losses[j], X0[j], 6, 0.01)
            np.testing.assert_array_equal(res.grad[j], own.grad)
            np.testing.assert_array_equal(res.x_final[j], own.x_final)
            assert res.lower_iters[j] == own.lower_iters
            assert res.warning[j] == own.warning
        assert res.cg_residual is None

    def test_evaluate_upper_per_sample_values(self, kind, dims):
        A = make_model(kind, dims)
        hp = make_theta(len(dims))
        Y = make_stack(dims)
        x_true = list(make_stack(dims, seed=2))
        train = TrainSet(x_true, list(Y), A)
        cfg = GDConfig(max_iters=1500, grad_tol=1e-5)
        value, per_sample = evaluate_upper(hp, train, MSELoss(), cfg)
        for j, y in enumerate(Y):
            x = gd_minimize(LowerProblem(A, y, hp), A.adjoint(y), cfg).x
            d = x - x_true[j]
            assert per_sample[j] == 0.5 * float(np.vdot(d, d))
        assert value == float(np.mean(per_sample))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 4),
    n=st.sampled_from([1, 2, 3, 7, 64, 1024]),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-150, 150),
)
@example(rows=1, n=1024, seed=0, exponent=0)
@example(rows=4, n=1024, seed=1, exponent=0)
def test_row_norms_are_linalg_norm(rows, n, seed, exponent):
    """gd_minimize's row norms sqrt(vecdot) are np.linalg.norm of each row,
    bit for bit.  (einsum and (G*G).sum(1) round differently from N=64.)"""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((rows, n)) * 10.0**exponent
    norms = np.sqrt(np.vecdot(G, G))
    for row, norm in zip(G, norms):
        assert norm == np.linalg.norm(row)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 4),
    dims=st.sampled_from([(1,), (2,), (7,), (64,), (1024,), (3, 5), (16, 16)]),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-150, 150),
)
@example(rows=4, dims=(1024,), seed=0, exponent=0)
@example(rows=3, dims=(16, 16), seed=1, exponent=0)
def test_grid_dots_are_vdot(rows, dims, seed, exponent):
    """Grid.dots over (taps, rows) against one row each is float(np.vdot)
    of every pair bit for bit, as the unstacked Jacobian products took it."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, rows) + dims) * 10.0**exponent
    b = rng.standard_normal((rows,) + dims)
    dots = Grid(dims).dots(a, b)
    assert dots.shape == (3, rows)
    for k in range(3):
        for j in range(rows):
            assert dots[k, j] == float(np.vdot(a[k, j], b[j]))


@pytest.mark.parametrize("dims", [(8,), (8, 8), (3, 5)])
@pytest.mark.parametrize("lead", [(0,), (0, 2), (2, 0)])
def test_grid_dots_on_an_empty_leading_axis(dims, lead):
    """No sample, or no tap: an empty leading axis gives an empty result of
    the leading shape, on either rank."""
    a = np.ones(lead + dims)
    b = np.ones(lead[1:] + dims)
    dots = Grid(dims).dots(a, b)
    assert dots.shape == lead
    assert Grid(dims).dots(b, a).shape == lead


class TestShapeChecks:
    def test_unlifted_filter_rank_still_raises(self):
        with pytest.raises(DimensionError):
            circ_conv(np.zeros((3, 3)), np.ones(2))

    @pytest.mark.parametrize("lead", [(), (S,)])
    def test_one_d_filter_on_a_two_d_grid_raises(self, lead):
        dims = (5, 5)
        hp = make_theta(1)
        problem = LowerProblem(Identity(Grid(dims)), np.zeros(lead + dims), hp)
        with pytest.raises(DimensionError):
            problem.grad_x(np.zeros(lead + dims))

    @pytest.mark.parametrize("dims", DIMS)
    def test_two_leading_axes_are_rejected(self, dims):
        A = make_model("circulant", dims)
        Y = np.zeros((2, S) + dims)
        with pytest.raises(DimensionError, match="does not match grid"):
            LowerProblem(A, Y, make_theta(len(dims)))
        with pytest.raises(DimensionError):
            A.apply(Y)


class TestPerRowBeta0Checks:
    def test_only_grad_and_lipschitz_serve_it(self):
        dims = (12,)
        Y = make_stack(dims)
        problem = LowerProblem(make_model("mask", dims), Y, make_theta(1),
                               np.zeros(S))
        with pytest.raises(ValueError, match="one b0 for every row"):
            Linearization(problem, Y)
        with pytest.raises(ValueError, match="one b0 for every row"):
            problem.cost(Y[0])
        with pytest.raises(ValueError, match="one b0 for every row"):
            problem.regularity_report(1.0)

    @pytest.mark.parametrize("lead, n_b0", [((S,), S - 1), ((), 1)])
    def test_one_b0_per_row_of_a_stack(self, lead, n_b0):
        dims = (12,)
        with pytest.raises(ValueError, match="one entry per row"):
            LowerProblem(make_model("mask", dims), np.zeros(lead + dims),
                         make_theta(1), np.zeros(n_b0))

    def test_b0_must_be_finite(self):
        dims = (12,)
        with pytest.raises(ValueError, match="finite"):
            LowerProblem(make_model("mask", dims), np.zeros((2,) + dims),
                         make_theta(1), np.array([0.0, np.nan]))


class TestStackedDivergence:
    @staticmethod
    def diverging_train():
        """Quadratic rows whose divergence starts at different scales: row 1
        overflows first, row 0 later, and row 2 sits at its minimizer."""
        dims = (8,)
        v = np.random.default_rng(3).standard_normal(dims)
        Y = [1e-3 * v, 1e3 * v, np.zeros(dims)]
        hp = make_theta(1, Quadratic())
        return TrainSet([np.zeros(dims)] * 3, Y, Identity(Grid(dims))), hp

    def test_lowest_row_raises_with_its_own_iteration(self):
        train, hp = self.diverging_train()
        cfg = GDConfig(step=3.0, max_iters=10_000, grad_tol=1e-12)
        own = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for y in train.y:
                try:
                    gd_minimize(LowerProblem(train.A, y, hp), y, cfg)
                    own.append(None)
                except DivergenceError as exc:
                    own.append(exc.iteration)
        seen = {str(w.message) for w in caught}
        assert own[1] < own[0] and own[2] is None
        Y = np.stack(train.y)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DivergenceError) as err:
                gd_minimize(LowerProblem(train.A, Y, hp), Y, cfg)
        assert (err.value.row, err.value.iteration) == (0, own[0])
        # stacking adds no warning the per-sample solves do not raise
        assert {str(w.message) for w in caught} <= seen

    def test_per_row_beta0_lowest_row_raises_with_its_own_iteration(self):
        """One signal in every row: the row with the largest b0 overflows
        first and leaves the loop, the lowest diverged row still raises."""
        dims = (8,)
        v = np.random.default_rng(3).standard_normal(dims)
        A = Identity(Grid(dims))
        hp = make_theta(1, Quadratic())
        b0 = np.array([1.0, 3.0, -8.0])
        cfg = GDConfig(step=1.5, max_iters=10_000, grad_tol=1e-12)
        own = []
        with np.errstate(over="ignore", invalid="ignore"):
            for b in b0:
                try:
                    gd_minimize(LowerProblem(A, v, replace(hp, beta0=b)), v, cfg)
                    own.append(None)
                except DivergenceError as exc:
                    own.append(exc.iteration)
            assert own[1] < own[0] and own[2] is None
            Y = np.stack([v] * 3)
            with pytest.raises(DivergenceError) as err:
                gd_minimize(LowerProblem(A, Y, hp, b0), Y, cfg)
        assert (err.value.row, err.value.iteration) == (0, own[0])

    def test_grid_search_names_the_grid_value_and_sample(self):
        train, hp = self.diverging_train()
        cfg = GDConfig(step=3.0, max_iters=10_000, grad_tol=1e-12)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as own:
                gd_minimize(LowerProblem(train.A, train.y[0], hp), train.y[0], cfg)
            with pytest.raises(DivergenceError) as err:
                grid_search([hp.beta0, -30.0], hp, train, MSELoss(), cfg)
        k = own.value.iteration
        assert str(err.value) == (f"beta0 {hp.beta0}, sample 0: non-finite "
                                  f"cost/gradient at lower-level iteration {k}")
        assert err.value.iteration == k

    def test_evaluate_upper_names_the_sample(self):
        train, hp = self.diverging_train()
        cfg = GDConfig(step=3.0, max_iters=10_000, grad_tol=1e-12)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as own:
                gd_minimize(LowerProblem(train.A, train.y[0], hp), train.y[0], cfg)
            with pytest.raises(DivergenceError) as err:
                evaluate_upper(hp, train, MSELoss(), cfg)
        k = own.value.iteration
        assert str(err.value) == (
            f"sample 0: non-finite cost/gradient at lower-level iteration {k}"
        )
        assert err.value.iteration == k


def test_grid_search_solves_each_point_once(monkeypatch):
    """Every (grid value, sample) pair is one row of one stacked solve, with
    one grad_x call per iteration plus the last check, on a stack that
    shrinks as rows stop."""
    dims = (12,)
    A = make_model("mask", dims)
    Y = make_stack(dims)
    train = TrainSet(list(make_stack(dims, seed=2)), list(Y), A)
    runs, grad_calls = [], []
    solve, grad_x = upper.gd_minimize, LowerProblem.grad_x

    def counting_solve(problem, x0, cfg):
        res = solve(problem, x0, cfg)
        runs.append((x0.shape, res.iters_run))
        return res

    def counting_grad(self, x):
        grad_calls.append(len(x))
        return grad_x(self, x)

    monkeypatch.setattr(upper, "gd_minimize", counting_solve)
    monkeypatch.setattr(LowerProblem, "grad_x", counting_grad)
    grid = [-3.0, -1.0, 0.0, 1.0, 2.0]
    grid_search(grid, make_theta(1), train, MSELoss(),
                GDConfig(max_iters=1500, grad_tol=1e-5))
    [(shape, iters)] = runs  # one solve; the per-point loop made len(grid)
    assert shape == (len(grid) * S,) + dims
    assert len(grad_calls) == iters + 1
    assert grad_calls[0] == len(grid) * S
    assert all(a >= b for a, b in zip(grad_calls, grad_calls[1:]))
    assert grad_calls[-1] < grad_calls[0]  # stopped rows left the stack


@pytest.mark.parametrize("dims", DIMS)
def test_shrinking_stack_builds_each_gather_index_once(monkeypatch, dims):
    """A solve whose live rows shrink builds at most one tap-shift index per
    (filter shape, grid, sign) key, however many row counts it visits."""
    A = make_model("circulant", dims)
    theta = make_theta(len(dims))
    Y = np.concatenate([make_stack(dims), make_stack(dims, seed=1)])
    b0 = np.linspace(-3.0, 1.0, len(Y))
    problem = LowerProblem(A, Y, theta, row_beta0=b0)
    builds, rows = [], []
    build, grad_x = signals._gather_index, LowerProblem.grad_x

    def counting_build(shape, offsets):
        builds.append(shape)
        return build(shape, offsets)

    def counting_grad(self, x):
        rows.append(len(x))
        return grad_x(self, x)

    monkeypatch.setattr(signals, "_gather_index", counting_build)
    monkeypatch.setattr(LowerProblem, "grad_x", counting_grad)
    signals._shift_index.cache_clear()
    signals._stack_slot.cache_clear()
    res = gd_minimize(problem, A.adjoint(Y), GDConfig(max_iters=5000, grad_tol=1e-8))
    assert res.final_grad_norm <= 1e-8
    assert len(set(rows)) >= 4  # the stack shrank through several sizes
    keys = {(c.shape, sign) for c in [A.taps, *theta.filters] for sign in (1, -1)}
    assert len(builds) <= len(keys)


@pytest.mark.parametrize("spec", [MSELoss(), SureMCLoss(sigma=0.1, n_probes=2, seed=3)])
def test_grid_search_equals_per_point_reference(spec):
    """The table of the one stacked solve, bit for bit against solving
    every grid value and sample alone (and against evaluate_upper at each
    grid value)."""
    dims = (12,)
    A = make_model("mask", dims)
    Y = make_stack(dims)[1:3]
    x_true = list(make_stack(dims, seed=2)[1:3])
    train = TrainSet(x_true, list(Y), A)
    hp = make_theta(1)
    cfg = GDConfig(max_iters=1500, grad_tol=1e-5)
    grid = [-3.0, -1.0, 0.0, 1.0]
    best, table = grid_search(grid, hp, train, spec, cfg)
    reference = []
    for b0 in grid:
        point = replace(hp, beta0=b0)

        def alone(yy, point=point):  # one row at a time
            return np.stack([gd_minimize(LowerProblem(A, y, point), A.adjoint(y), cfg).x
                             for y in yy])

        if isinstance(spec, SureMCLoss):
            values = [sure_mc(alone, y[np.newaxis], spec.sigma, spec.probe_eps,
                              spec.n_probes, spec.seed)[0] for y in Y]
        else:
            values = [bind_loss(spec, y, A, xt).value(x)
                      for y, xt, x in zip(Y, x_true, alone(Y))]
        reference.append((b0, float(np.mean(values))))
        assert evaluate_upper(point, train, spec, cfg) == (reference[-1][1], values)
    assert table == reference
    assert best == min(reference, key=lambda row: row[1])[0]


# --- the double loop: one stacked engine call per upper iteration ---------

UNROLL = dict(unroll_steps=12, unroll_step=0.05)
TIGHT = GDConfig(max_iters=5000, grad_tol=1e-7, warm_start=True)


def driver_train():
    """3 samples at scales a factor 3 apart on a 1-D mask, so tolerance
    solves stop at different iterations in every row."""
    dims = (12,)
    A = make_model("mask", dims)
    Y = [A.apply(y) for y in make_stack(dims)[:3]]
    return TrainSet(list(make_stack(dims, seed=3)[:3]), Y, A)


def implicit(accuracy, cg_max_iters=None):
    """One sample's implicit hypergradient, solved alone; ``accuracy(i)``
    gives the lower solve's settings and the CG tolerance."""
    def grad(i, problem, loss, start):
        cfg, cg_tol = accuracy(i)
        return hypergrad_minimizer(problem, loss, start, cfg, cg_tol, cg_max_iters)
    return grad


def unrolled(fn):
    def grad(i, problem, loss, start):
        return fn(problem, loss, start, UNROLL["unroll_steps"],
                  UNROLL["unroll_step"])
    return grad


def adam_update(step):
    m, v = 0.0, 0.0

    def update(i, theta_vec, g):
        nonlocal m, v
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat, v_hat = m / (1.0 - 0.9**i), v / (1.0 - 0.999**i)
        return theta_vec - step * m_hat / (np.sqrt(v_hat) + 1e-8), {}
    return update


def reference_run(hp, train, sample_grad, update, warm_start, max_upper=3):
    """The double loop solved one sample at a time, each from its own start;
    returns the final flat theta, the trace rows and each iteration's
    per-sample lower iterations."""
    losses = [bind_loss(MSELoss(), y, train.A, xt)
              for xt, y in zip(train.x_true, train.y)]
    starts = [train.A.adjoint(y) for y in train.y]
    theta, rows, lower = hp, [], []
    for i in range(1, max_upper + 1):
        results = []
        for j, loss in enumerate(losses):
            problem = LowerProblem(train.A, train.y[j], theta)
            results.append(sample_grad(i, problem, loss, starts[j]))
            if warm_start:
                starts[j] = results[-1].x_final
        g = np.mean([r.grad for r in results], axis=0)
        value = float(np.mean([f.value(r.x_final) for f, r in zip(losses, results)]))
        new_vec, extra = update(i, pack_theta(theta), g)
        extra["warnings"] = float(sum(r.warning is not None for r in results))
        residuals = [r.cg_residual for r in results if r.cg_residual is not None]
        if residuals:
            extra["cg_residual"] = max(residuals)
        theta = unpack_theta(theta, new_vec)
        lower.append([r.lower_iters for r in results])
        rows.append((i, value, float(np.linalg.norm(g)), sum(lower[-1]),
                     new_vec.tolist(), extra))
    return pack_theta(theta), rows, lower


def _hoag_case(warm):
    cfg = replace(TIGHT, warm_start=warm)

    def accuracy(i):
        eps = 0.1 / i**2
        return replace(cfg, grad_tol=eps), eps  # mu = 0 on a mask

    return (
        lambda hp, train: hoag(hp, None, train, MSELoss(), 0.1, Constant(0.05),
                               3, cfg, 0.0),
        implicit(accuracy),
        lambda i, vec, g: (vec - 0.05 * g, {"eps": 0.1 / i**2, "step": 0.05}),
        warm,
    )


def _adam_case(engine):
    grads = {"minimizer": implicit(lambda i: (TIGHT, 1e-10)),
             "reverse": unrolled(hypergrad_unrolled_reverse),
             "forward": unrolled(hypergrad_unrolled_forward)}
    return (
        lambda hp, train: adam_or_gd_upper(
            hp, None, train, MSELoss(), engine=engine, optimizer="adam",
            step=0.05, max_upper=3, solver_cfg=TIGHT, theta_rel_tol=0.0,
            **UNROLL),
        grads[engine],
        adam_update(0.05),
        engine == "minimizer",
    )


def driver_cases():
    """name -> (driver, one-sample gradient, update rule, warm start)."""
    budget = GDConfig(step=0.05, max_iters=25)
    return {
        "hoag-warm": _hoag_case(True),
        "hoag-cold": _hoag_case(False),
        "ba": (
            lambda hp, train: ba(hp, None, 1e-3, 0.05, 25, train, MSELoss(),
                                 max_upper=3, cg_max_iters=4, theta_rel_tol=0.0),
            implicit(lambda i: (budget, 1e-10), 4),
            lambda i, vec, g: (vec - 1e-3 * g, {"inner_iters": 25.0}),
            False,
        ),
        **{f"adam-{e}": _adam_case(e) for e in ("minimizer", "reverse", "forward")},
    }


class TestStackedDrivers:
    @pytest.mark.parametrize("name", sorted(driver_cases()))
    def test_trace_equals_the_per_sample_reference(self, name):
        run, sample_grad, update, warm = driver_cases()[name]
        train = driver_train()
        hp = replace(make_theta(1), learn_beta0=True)
        theta, trace = run(hp, train)
        ref_theta, ref_rows, lower = reference_run(hp, train, sample_grad,
                                                   update, warm)
        rows = [(r.iteration, r.loss, r.grad_norm, r.lower_iters,
                 r.theta.tolist(), r.extra) for r in trace.records]
        assert rows == ref_rows
        np.testing.assert_array_equal(pack_theta(theta), ref_theta)
        if name.startswith("hoag") or name == "adam-minimizer":
            assert all(len(set(per_row)) == 3 for per_row in lower)

    @pytest.mark.parametrize("engine, entry", [
        ("minimizer", "gd_minimize"),
        ("reverse", "hypergrad_unrolled_reverse"),
        ("forward", "hypergrad_unrolled_forward"),
    ])
    def test_one_engine_call_per_upper_iteration(self, engine, entry, monkeypatch):
        # the minimizer engine runs its own lower solve
        module = hypergrad if engine == "minimizer" else upper
        calls = []
        original = getattr(module, entry)

        def counting(problem, *args):
            calls.append(problem.y.shape)
            return original(problem, *args)

        monkeypatch.setattr(module, entry, counting)
        train = driver_train()
        _, trace = adam_or_gd_upper(
            make_theta(1), None, train, MSELoss(), engine=engine, max_upper=3,
            solver_cfg=TIGHT, theta_rel_tol=0.0, **UNROLL)
        assert len(trace) == 3
        assert calls == [(3, 12)] * 3  # one (S, N) stack per upper iteration

    @pytest.mark.parametrize("run", [
        lambda train: hoag(make_theta(1), None, train, MSELoss(), 0.1,
                           Constant(0.05), 3, TIGHT, 0.0),
        lambda train: ba(make_theta(1), None, 1e-3, 0.05, 25, train, MSELoss(),
                         max_upper=3, cg_max_iters=4, theta_rel_tol=0.0),
    ], ids=["hoag", "ba"])
    def test_implicit_work_per_upper_iteration(self, run, monkeypatch):
        """Each upper iteration makes one stacked lower solve, one full
        linearization (row views aside) and one Jacobian-adjoint product,
        and every ``grad_x`` call is one of the solves' ``iters_run + 1``:
        the stationarity check reads the solve's own norms."""
        counts = {"grad_x": 0, "linearizations": 0, "jac_adjoint": 0}
        solves = []
        solve, grad_x = hypergrad.gd_minimize, LowerProblem.grad_x
        init, jac = Linearization.__init__, Linearization.jac_adjoint_apply

        def counting_solve(problem, x0, cfg):
            res = solve(problem, x0, cfg)
            solves.append(res.iters_run)
            return res

        def counting_grad(self, x):
            counts["grad_x"] += 1
            return grad_x(self, x)

        def counting_init(self, problem, x):  # row views are built without it
            counts["linearizations"] += 1
            init(self, problem, x)

        def counting_jac(self, u):
            counts["jac_adjoint"] += 1
            return jac(self, u)

        monkeypatch.setattr(hypergrad, "gd_minimize", counting_solve)
        monkeypatch.setattr(LowerProblem, "grad_x", counting_grad)
        monkeypatch.setattr(Linearization, "__init__", counting_init)
        monkeypatch.setattr(Linearization, "jac_adjoint_apply", counting_jac)
        _, trace = run(driver_train())
        assert len(trace) == len(solves) == 3
        assert counts == {"grad_x": sum(n + 1 for n in solves),
                          "linearizations": 3, "jac_adjoint": 3}

    @pytest.mark.parametrize("run", [
        lambda hp, train: ba(hp, None, 0.1, 10.0, 2_000, train, MSELoss(),
                             max_upper=2),
        lambda hp, train: adam_or_gd_upper(
            hp, None, train, MSELoss(), engine="minimizer", optimizer="gd",
            max_upper=2, solver_cfg=GDConfig(step=10.0, max_iters=2_000)),
        lambda hp, train: adam_or_gd_upper(
            hp, None, train, MSELoss(), engine="reverse", optimizer="gd",
            max_upper=2, unroll_steps=2_000, unroll_step=10.0),
        lambda hp, train: adam_or_gd_upper(
            hp, None, train, MSELoss(), engine="forward", optimizer="gd",
            max_upper=2, unroll_steps=2_000, unroll_step=10.0),
    ], ids=["ba", "gd-minimizer", "gd-reverse", "gd-forward"])
    @pytest.mark.parametrize("scales, failing", [((1.0, 1e3), 0), ((0.0, 1.0), 1)])
    def test_lowest_diverged_sample_is_named(self, run, scales, failing):
        """Sample 1 overflows first; the error still names the lowest
        sample that diverges, with the iteration of its own run."""
        hp = HyperParams(0.0, [0.0], [np.array([1.0])], Quadratic())
        ys = [np.array([2.0 * s]) for s in scales]
        train = TrainSet([np.array([1.5])] * 2, ys, Identity(Grid((1,))))
        solo = TrainSet([np.array([1.5])], [ys[failing]], train.A)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as own:
                run(hp, solo)
            with pytest.raises(DivergenceError) as err:
                run(hp, train)
        assert str(err.value) == str(own.value).replace(
            "sample 0", f"sample {failing}")
        assert err.value.iteration == own.value.iteration

    def test_cg_failure_names_its_sample(self, monkeypatch):
        """Each row's CG runs on its own, and a failure names the row."""
        import bilevelreg.hypergrad as hypergrad

        calls = []
        original = hypergrad.cg_solve

        def failing_cg(hess_action, b, tol, diagonal, max_iters=None):
            calls.append(b)
            if len(calls) == 5:  # upper iteration 2, sample 1
                raise SpdViolationError("non-positive curvature p'Hp = nan "
                                        "at CG iteration 0")
            return original(hess_action, b, tol, diagonal, max_iters)

        monkeypatch.setattr(hypergrad, "cg_solve", failing_cg)
        with pytest.raises(SpdViolationError) as info:
            adam_or_gd_upper(make_theta(1), None, driver_train(), MSELoss(),
                             max_upper=3, solver_cfg=TIGHT, theta_rel_tol=0.0)
        assert str(info.value) == ("upper iteration 2, sample 1: non-positive "
                                   "curvature p'Hp = nan at CG iteration 0")
