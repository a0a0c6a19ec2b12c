"""A stack of samples, shaped (S, *grid), against one sample at a time.

Every stacked operation must give each row, bit for bit, what the unstacked
call on that row gives.  A stacked lower solve stops each row on its own
gradient norm, so every byte of a sweep table depends on it.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bilevelreg.upper as upper
from bilevelreg.errors import DimensionError, DivergenceError
from bilevelreg.forward import Circulant, Identity, Mask
from bilevelreg.losses import MSELoss
from bilevelreg.lower import HyperParams, LowerProblem
from bilevelreg.potentials import CornerRounded1Norm, Quadratic
from bilevelreg.signals import Grid, circ_conv
from bilevelreg.solvers import GDConfig, gd_minimize
from bilevelreg.upper import TrainSet, evaluate_upper, grid_search

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
    """One stacked solve per grid point, and one grad_x call per iteration
    of it plus the last check."""
    dims = (12,)
    A = make_model("mask", dims)
    Y = make_stack(dims)
    train = TrainSet(list(make_stack(dims, seed=2)), list(Y), A)
    runs, grad_calls = [], []
    solve, grad_x = upper.gd_minimize, LowerProblem.grad_x

    def counting_solve(problem, x0, cfg):
        res = solve(problem, x0, cfg)
        runs.append(res.iters_run)
        return res

    def counting_grad(self, x):
        grad_calls.append(x.shape)
        return grad_x(self, x)

    monkeypatch.setattr(upper, "gd_minimize", counting_solve)
    monkeypatch.setattr(LowerProblem, "grad_x", counting_grad)
    grid = [-3.0, -1.0, 0.0, 1.0, 2.0]
    grid_search(grid, make_theta(1), train, MSELoss(),
                GDConfig(max_iters=1500, grad_tol=1e-5))
    assert len(runs) == len(grid)  # the per-sample loop made len(grid) * S
    assert len(grad_calls) == sum(k + 1 for k in runs)
    assert set(grad_calls) == {(S,) + dims}
