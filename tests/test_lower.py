import ast
from pathlib import Path

import numpy as np
import pytest

from bilevelreg import lower
from bilevelreg.errors import DivergenceError
from bilevelreg.forward import Circulant, Identity, Mask
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


def make_problem(dims=(16,), k=2, taps=(3,), eps=0.1, seed=0, learn_beta0=False,
                 potential=None):
    rng = np.random.default_rng(seed)
    grid = Grid(dims)
    filters = [rng.standard_normal(taps) for _ in range(k)]
    hp = HyperParams(
        beta0=0.3,
        betas=rng.standard_normal(k) * 0.2,
        filters=filters,
        potential=potential or CornerRounded1Norm(eps),
        learn_beta0=learn_beta0,
    )
    y = rng.standard_normal(dims)
    return LowerProblem(Identity(grid), y, hp), rng


def scalar_problem(lam=1.0, y=2.0):
    """N=1 instance with quadratic potential: cost = (x-y)^2/2 + lam x^2/2."""
    grid = Grid((1,))
    hp = HyperParams(
        beta0=0.0,
        betas=[np.log(lam)],
        filters=[np.array([1.0])],
        potential=Quadratic(),
    )
    return LowerProblem(Identity(grid), np.array([y]), hp)


class TestThetaLayout:
    def test_roundtrip(self):
        problem, _ = make_problem(k=3, learn_beta0=True)
        hp = problem.theta
        vec = pack_theta(hp)
        assert vec.size == hp.theta_size() == 1 + 3 + 9
        back = unpack_theta(hp, vec)
        assert back.beta0 == hp.beta0
        np.testing.assert_array_equal(back.betas, hp.betas)
        for a, b in zip(back.filters, hp.filters):
            np.testing.assert_array_equal(a, b)

    def test_beta0_excluded_when_fixed(self):
        problem, _ = make_problem(k=1, taps=(2,), learn_beta0=False)
        assert pack_theta(problem.theta).size == 1 + 2
        shifted = pack_theta(problem.theta) + 1.0
        back = unpack_theta(problem.theta, shifted)
        assert back.beta0 == problem.theta.beta0

    def test_mixed_tap_shapes(self):
        hp = HyperParams(
            beta0=0.0,
            betas=[0.0, 0.0],
            filters=[np.ones(2), np.ones(3)],
            potential=Quadratic(),
        )
        vec = pack_theta(hp)
        assert vec.size == 2 + 5
        np.testing.assert_array_equal(unpack_theta(hp, vec).filters[1], np.ones(3))

    @pytest.mark.parametrize("learn_beta0", [False, True])
    def test_no_filters(self, learn_beta0):
        hp = HyperParams(0.5, [], [], Quadratic(), learn_beta0=learn_beta0)
        shape = (1,) if learn_beta0 else (0,)
        vec = pack_theta(hp)
        assert vec.shape == shape and vec.dtype == np.float64
        np.testing.assert_array_equal(vec, [0.5] if learn_beta0 else [])
        back = unpack_theta(hp, vec + 1.0)
        assert back.beta0 == (1.5 if learn_beta0 else 0.5)
        assert back.betas.shape == (0,) and back.filters == []
        with pytest.raises(ValueError, match="layout size"):
            unpack_theta(hp, np.zeros(2))
        for mask in (theta_mask(hp), theta_mask(hp, beta0=False)):
            assert mask.shape == shape and mask.dtype == np.float64
        np.testing.assert_array_equal(theta_mask(hp, beta0=False), np.zeros(shape))
        np.testing.assert_array_equal(theta_mask(hp, betas=False, taps=False),
                                      np.ones(shape))


class TestCost:
    def test_pure_least_squares_at_optimum(self):
        grid = Grid((5,))
        y = np.arange(5.0)
        hp = HyperParams(0.0, [], [], CornerRounded1Norm(0.1))
        assert LowerProblem(Identity(grid), y, hp).cost(y) == 0.0

    def test_regularizer_at_zero(self):
        grid = Grid((4,))
        hp = HyperParams(0.0, [0.0], [np.array([1.0])], CornerRounded1Norm(0.1))
        problem = LowerProblem(Identity(grid), np.zeros(4), hp)
        assert problem.cost(np.zeros(4)) == pytest.approx(0.4)

    def test_scalar_quadratic_closed_form(self):
        problem = scalar_problem(lam=1.0, y=2.0)
        assert problem.cost(np.array([1.0])) == pytest.approx(1.0)


class TestWeights:
    """w_k = exp(b0 + b_k) past the float range fails at construction, with
    an error naming the filter and, under ``row_beta0``, the lowest row."""

    @staticmethod
    def theta(beta0, betas):
        return HyperParams(beta0, betas, [np.array([1.0, -1.0])] * len(betas),
                           Quadratic())

    @pytest.mark.parametrize("beta0, betas, k, total", [
        (400.0, [0.0, 400.0], 1, "800"),
        (800.0, [0.0, 0.0], 0, "800"),
        (1e308, [1e308], 0, "inf"),
    ])
    def test_overflow_names_the_filter(self, beta0, betas, k, total):
        with pytest.raises(DivergenceError) as err:
            LowerProblem(Identity(Grid((4,))), np.zeros(4), self.theta(beta0, betas))
        assert str(err.value) == (f"tuning weight exp(b0 + b_k) of filter {k} "
                                  f"is not finite (b0 + b_k = {total})")
        assert err.value.row is None

    def test_row_beta0_names_the_lowest_row(self):
        hp = self.theta(0.0, [0.0, 400.0])
        with pytest.raises(DivergenceError) as err:
            LowerProblem(Identity(Grid((4,))), np.zeros((4, 4)), hp,
                         row_beta0=[0.0, 800.0, 400.0, 900.0])
        assert err.value.row == 1
        assert "of filter 0 " in str(err.value)

    def test_large_finite_weight_is_kept(self):
        problem = LowerProblem(Identity(Grid((4,))), np.zeros(4),
                               self.theta(700.0, [0.0]))
        assert problem.grad_x(np.zeros(4)).tolist() == [0.0] * 4


class TestGradX:
    def test_zero_at_least_squares_minimizer(self):
        grid = Grid((6,))
        y = np.linspace(0, 1, 6)
        hp = HyperParams(0.0, [], [], CornerRounded1Norm(0.1))
        g = LowerProblem(Identity(grid), y, hp).grad_x(y)
        np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_directional_finite_differences(self):
        problem, rng = make_problem()
        x = rng.standard_normal(problem.A.grid.dims)
        h = 1e-6
        g = problem.grad_x(x)
        for _ in range(20):
            d = rng.standard_normal(x.shape)
            d /= np.linalg.norm(d)
            fd = (problem.cost(x + h * d) - problem.cost(x - h * d)) / (2 * h)
            assert abs(fd - np.vdot(g, d)) <= 1e-6 * max(abs(fd), 1.0)

    def test_scalar_closed_form(self):
        problem = scalar_problem(lam=1.0, y=2.0)
        x = np.array([1.0])
        np.testing.assert_allclose(problem.grad_x(x), (x - 2.0) + x)
        np.testing.assert_allclose(problem.grad_x(np.array([1.0])), [0.0], atol=1e-15)

    def test_affine_with_quadratic_potential(self):
        problem, rng = make_problem(potential=Quadratic())
        x1 = rng.standard_normal(problem.A.grid.dims)
        x2 = rng.standard_normal(problem.A.grid.dims)
        zero = np.zeros_like(x1)
        residual = (
            problem.grad_x(x1 + x2)
            - problem.grad_x(x1)
            - problem.grad_x(x2)
            + problem.grad_x(zero)
        )
        np.testing.assert_allclose(residual, 0.0, atol=1e-12)


class TestHessVec:
    def test_scalar_case(self):
        problem = scalar_problem(lam=1.0)
        v = np.array([3.0])
        lin = Linearization(problem, np.array([1.0]))
        np.testing.assert_allclose(lin.hess_vec(v), 2.0 * v)

    def test_symmetry(self):
        problem, rng = make_problem()
        x = rng.standard_normal(problem.A.grid.dims)
        lin = Linearization(problem, x)
        for _ in range(10):
            v = rng.standard_normal(x.shape)
            w = rng.standard_normal(x.shape)
            lhs = np.vdot(lin.hess_vec(v), w)
            rhs = np.vdot(v, lin.hess_vec(w))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_matches_dense_fd_of_gradient(self):
        problem, rng = make_problem(dims=(8,), k=1, taps=(2,))
        x = rng.standard_normal(8)
        h = 1e-6
        dense = np.zeros((8, 8))
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            dense[:, i] = (problem.grad_x(x + e) - problem.grad_x(x - e)) / (2 * h)
        for _ in range(5):
            v = rng.standard_normal(8)
            np.testing.assert_allclose(
                Linearization(problem, x).hess_vec(v), dense @ v, rtol=1e-5, atol=1e-8
            )

    def test_positive_semidefinite_with_mu(self):
        problem, rng = make_problem()
        x = rng.standard_normal(problem.A.grid.dims)
        mu = problem.regularity_report(1.0)["mu"]
        for _ in range(20):
            v = rng.standard_normal(x.shape)
            quad = float(np.vdot(v, Linearization(problem, x).hess_vec(v)))
            assert quad >= mu * float(np.vdot(v, v)) - 1e-10


class TestMixedJacobian:
    def test_empty_theta(self):
        grid = Grid((4,))
        hp = HyperParams(0.0, [], [], CornerRounded1Norm(0.1))
        problem = LowerProblem(Identity(grid), np.zeros(4), hp)
        assert Linearization(problem, np.zeros(4)).jac_adjoint_apply(np.ones(4)).size == 0

    def test_scalar_beta_entry(self):
        problem = scalar_problem(lam=1.0)
        out = Linearization(problem, np.array([1.0])).jac_adjoint_apply(np.array([-0.5]))
        assert out[0] == pytest.approx(-0.5)

    @pytest.mark.parametrize("learn_beta0", [False, True])
    def test_every_entry_matches_fd(self, learn_beta0):
        problem, rng = make_problem(dims=(16,), k=2, taps=(3,), learn_beta0=learn_beta0)
        x = rng.standard_normal(16)
        u = rng.standard_normal(16)
        theta_vec = pack_theta(problem.theta)
        h = 1e-6
        out = Linearization(problem, x).jac_adjoint_apply(u)
        assert out.size == theta_vec.size
        for p in range(theta_vec.size):
            tp = theta_vec.copy()
            tp[p] += h
            tm = theta_vec.copy()
            tm[p] -= h
            gp = LowerProblem(problem.A, problem.y, unpack_theta(problem.theta, tp))
            gm = LowerProblem(problem.A, problem.y, unpack_theta(problem.theta, tm))
            fd = np.vdot((gp.grad_x(x) - gm.grad_x(x)) / (2 * h), u)
            assert abs(fd - out[p]) <= 1e-6 * max(abs(fd), 1.0)

    def test_2d_entries_match_fd(self):
        rng = np.random.default_rng(3)
        grid = Grid((6, 5))
        hp = HyperParams(
            beta0=-0.1,
            betas=[0.1],
            filters=[rng.standard_normal((2, 2))],
            potential=CornerRounded1Norm(0.1),
        )
        problem = LowerProblem(Identity(grid), rng.standard_normal(grid.dims), hp)
        x = rng.standard_normal(grid.dims)
        u = rng.standard_normal(grid.dims)
        theta_vec = pack_theta(hp)
        out = Linearization(problem, x).jac_adjoint_apply(u)
        h = 1e-6
        for p in range(theta_vec.size):
            tp = theta_vec.copy()
            tp[p] += h
            tm = theta_vec.copy()
            tm[p] -= h
            gp = LowerProblem(problem.A, problem.y, unpack_theta(hp, tp))
            gm = LowerProblem(problem.A, problem.y, unpack_theta(hp, tm))
            fd = np.vdot((gp.grad_x(x) - gm.grad_x(x)) / (2 * h), u)
            assert abs(fd - out[p]) <= 1e-6 * max(abs(fd), 1.0)


class TestJacColumns:
    """J d is ``jac_columns()`` contracted with d, and its adjoint is
    ``jac_adjoint_apply``."""

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("learn_beta0", [False, True])
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("model", ["identity", "mask", "circulant"])
    def test_transpose_identity(self, model, rank, learn_beta0, stacked):
        lin, _, rng = stencil_case(model, rank, "mixed", stacked, learn_beta0=learn_beta0)
        cols = lin.jac_columns()
        for _ in range(10):
            u = rng.standard_normal(lin.x.shape)
            d = rng.standard_normal(len(cols))
            jd, jtu = np.tensordot(d, cols, axes=1), lin.jac_adjoint_apply(u)
            rows = zip(jd, u, jtu) if stacked else [(jd, u, jtu)]
            for jd_row, u_row, jtu_row in rows:
                lhs = np.vdot(jd_row, u_row)
                rhs = np.vdot(d, jtu_row)
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_scalar_beta_column(self):
        problem = scalar_problem(lam=1.0)
        x = np.array([1.5])
        np.testing.assert_allclose(Linearization(problem, x).jac_columns()[0], 1.0 * x)


def _roll(x, s):
    return np.roll(x, s, axis=tuple(range(x.ndim)))


def _neg(s):
    return tuple(-k for k in s)


# The per-call derivative formulas that recompute z_k = c_k * x and
# phi'/phi'' on every product; a linearization must give the same bits.
def reference_hess_vec(problem, x, v):
    h = problem.A.adjoint(problem.A.apply(v))
    hp = problem.theta
    pot = hp.potential
    for w, c in zip(np.exp(hp.beta0 + hp.betas), hp.filters):
        curv = pot.derivatives(circ_conv(x, c))[2]
        h += w * circ_conv_adjoint(curv * circ_conv(v, c), c)
    return h


def reference_jac_adjoint_apply(problem, x, u):
    hp = problem.theta
    pot = hp.potential
    out = np.zeros(hp.theta_size())
    pos = 1 if hp.learn_beta0 else 0
    tap_pos = pos + hp.n_filters
    beta_total = 0.0
    for k, (w, c) in enumerate(zip(np.exp(hp.beta0 + hp.betas), hp.filters)):
        z = circ_conv(x, c)
        slope = pot.dphi(z)
        curv_cu = pot.derivatives(z)[2] * circ_conv(u, c)
        beta_entry = w * float(np.vdot(circ_conv_adjoint(slope, c), u))
        out[pos + k] = beta_entry
        beta_total += beta_entry
        for s in np.ndindex(c.shape):
            out[tap_pos] = w * (float(np.vdot(slope, _roll(u, s)))
                                + float(np.vdot(_roll(x, s), curv_cu)))
            tap_pos += 1
    if hp.learn_beta0:
        out[0] = beta_total
    return out


def reference_jac_columns(problem, x):
    hp = problem.theta
    pot = hp.potential
    cols = np.zeros((hp.theta_size(),) + x.shape)
    pos = 1 if hp.learn_beta0 else 0
    tap_pos = pos + hp.n_filters
    for k, (w, c) in enumerate(zip(np.exp(hp.beta0 + hp.betas), hp.filters)):
        z = circ_conv(x, c)
        slope = pot.dphi(z)
        curv = pot.derivatives(z)[2]
        beta_col = w * circ_conv_adjoint(slope, c)
        cols[pos + k] = beta_col
        if hp.learn_beta0:
            cols[0] += beta_col
        for s in np.ndindex(c.shape):
            cols[tap_pos] = w * (_roll(slope, _neg(s))
                                 + circ_conv_adjoint(curv * _roll(x, s), c))
            tap_pos += 1
    return cols


def _forward_model(kind, grid, rng, taps=None):
    if kind == "identity":
        return Identity(grid)
    if kind == "mask":
        values = (rng.random(grid.dims) < 0.7).astype(float)
        values.reshape(-1)[0] = 1.0
        return Mask(grid, values)
    if taps is None:
        taps = (3,) if grid.rank == 1 else (3, 2)
    return Circulant(grid, rng.random(taps))


# A stencil product sums the same terms as ``reference_hess_vec``, grouped
# by offset instead of by filter.
STENCIL_RTOL = 1e-13


def assert_stencil_close(got, ref):
    """Within STENCIL_RTOL x max|ref| of the reference product, entrywise."""
    scale = float(np.max(np.abs(ref)))
    assert float(np.max(np.abs(got - ref))) <= STENCIL_RTOL * scale


def stencil_case(model, rank, filters, stacked, seed=3, learn_beta0=False):
    """A linearization at a random x, and ``reference_hess_vec`` at that x
    (row by row for a stack) as a function of v.

    ``filters``: "equal" shapes, "mixed" shapes, "narrow" filters under a
    wider blur (A's taps wider than the filters), or "none".
    """
    rng = np.random.default_rng(seed)
    dims = (16,) if rank == 1 else (6, 5)
    shapes = {
        "equal": [(2,), (2,)] if rank == 1 else [(2, 2), (2, 2)],
        "mixed": [(2,), (3,)] if rank == 1 else [(2, 2), (1, 3)],
        "narrow": [(2,)] if rank == 1 else [(1, 2)],
        "none": [],
    }[filters]
    a_taps = None if filters != "narrow" else ((5,) if rank == 1 else (3, 4))
    grid = Grid(dims)
    hp = HyperParams(
        beta0=-0.4,
        betas=rng.standard_normal(len(shapes)) * 0.3,
        filters=[rng.standard_normal(t) for t in shapes],
        potential=CornerRounded1Norm(0.1),
        learn_beta0=learn_beta0,
    )
    shape = ((3,) if stacked else ()) + dims
    problem = LowerProblem(_forward_model(model, grid, rng, a_taps),
                           rng.standard_normal(shape), hp)
    x = rng.standard_normal(shape)

    def reference(v):
        if not stacked:
            return reference_hess_vec(problem, x, v)
        return np.stack([reference_hess_vec(problem, *row) for row in zip(x, v)])

    return Linearization(problem, x), reference, rng


class TestLinearization:
    @pytest.mark.parametrize("learn_beta0", [False, True])
    # nine filters pin the left-to-right order of the b0 entry and column
    # (numpy's pairwise sum regroups from eight terms up); no filters pin
    # the empty shapes (0,), (1,) and (P, *grid)
    @pytest.mark.parametrize("dims,taps", [((16,), [(2,), (3,)]),
                                           ((6, 5), [(2, 2), (1, 3)]),
                                           ((16,), [(2,)] * 9),
                                           ((6, 5), [(1, 2)] * 9),
                                           ((16,), []),
                                           ((6, 5), [])])
    @pytest.mark.parametrize("model", ["identity", "mask", "circulant"])
    def test_products_equal_per_call_formulas_bitwise(self, model, dims, taps,
                                                      learn_beta0):
        rng = np.random.default_rng(14)
        grid = Grid(dims)
        hp = HyperParams(
            beta0=-0.4,
            betas=rng.standard_normal(len(taps)) * 0.3,
            filters=[rng.standard_normal(t) for t in taps],
            potential=CornerRounded1Norm(0.1),
            learn_beta0=learn_beta0,
        )
        problem = LowerProblem(_forward_model(model, grid, rng),
                               rng.standard_normal(dims), hp)
        x, v = rng.standard_normal((2,) + dims)
        lin = Linearization(problem, x)
        x[...] = 0.0  # the linearization keeps its own copy of x
        x = lin.x
        for _ in range(2):  # products do not disturb the cached state
            # hess_vec applies the assembled stencil, whose sums are grouped
            # by offset, so it matches to rounding (TestStencil pins its bytes)
            assert_stencil_close(lin.hess_vec(v), reference_hess_vec(problem, x, v))
            np.testing.assert_array_equal(
                lin.jac_adjoint_apply(v), reference_jac_adjoint_apply(problem, x, v))
            np.testing.assert_array_equal(lin.jac_columns(),
                                          reference_jac_columns(problem, x))


STENCIL_CASES = [
    (model, rank, filters)
    for model in ("identity", "mask", "circulant")
    for rank in (1, 2)
    for filters in ("equal", "mixed", "narrow", "none")
]


class TestStencil:
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("model,rank,filters", STENCIL_CASES)
    def test_matches_matrix_free(self, model, rank, filters, stacked):
        lin, reference, rng = stencil_case(model, rank, filters, stacked)
        for _ in range(4):  # the first product assembles M, every one applies it
            v = rng.standard_normal(lin.x.shape)
            assert_stencil_close(lin.hess_vec(v), reference(v))

    @pytest.mark.parametrize("model,rank,filters", STENCIL_CASES)
    def test_repeated_and_stacked_products_bitwise(self, model, rank, filters):
        # one formula: the first product at an x equals every later one, and
        # each row's own first and later products
        lin, _, rng = stencil_case(model, rank, filters, stacked=True)
        v = rng.standard_normal(lin.x.shape)
        stack = lin.hess_vec(v)
        for _ in range(2):
            np.testing.assert_array_equal(lin.hess_vec(v), stack)
        problem = lin.problem
        for j in range(len(v)):
            own = Linearization(
                LowerProblem(problem.A, problem.y[j], problem.theta), lin.x[j])
            for _ in range(2):
                np.testing.assert_array_equal(own.hess_vec(v[j]), stack[j])

    def test_dense_hessian_is_symmetric_and_matches_matrix_free(self):
        # STABLE's dense Hessian takes N stencil products at one x
        from bilevelreg.upper import _dense_hessian

        lin, reference, _ = stencil_case("circulant", 2, "mixed", stacked=False)
        h = _dense_hessian(lin)
        eye = np.eye(lin.x.size)
        cols = np.stack([reference(e.reshape(lin.x.shape)).reshape(-1) for e in eye],
                        axis=1)
        assert_stencil_close(h, cols)
        assert_stencil_close(h, h.T)


class TestRowView:
    """``Linearization._rows``: the linearization at some rows of a stacked
    x, sliced from the stack's arrays (the reverse engine's per-step view)."""

    @pytest.mark.parametrize("model,rank,filters", STENCIL_CASES)
    def test_products_equal_own_linearization_bitwise(self, model, rank, filters):
        lin, _, rng = stencil_case(model, rank, filters, stacked=True)
        problem = lin.problem
        for keep in (1, slice(1, 3)):
            view = lin._rows(keep)
            own = Linearization(
                LowerProblem(problem.A, problem.y[keep], problem.theta), lin.x[keep])
            np.testing.assert_array_equal(view.x, own.x)
            for _ in range(3):  # the first product assembles M, then reuses it
                v = rng.standard_normal(own.x.shape)
                np.testing.assert_array_equal(view.hess_vec(v), own.hess_vec(v))
                np.testing.assert_array_equal(view.jac_adjoint_apply(v),
                                              own.jac_adjoint_apply(v))
            np.testing.assert_array_equal(view.jac_columns(), own.jac_columns())

    def test_views_share_the_stack_slope_term(self, monkeypatch):
        """Linearizing the stack takes one z_k = c_k * x and one c~_k * phi'
        per filter for all its rows; its views take none, and each view's
        Jacobian product convolves only its own u."""
        built, _, rng = stencil_case("identity", 1, "mixed", stacked=True)
        calls = {"circ_conv": 0, "circ_conv_adjoint": 0}
        for name in calls:
            def counted(*args, _f=getattr(lower, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(lower, name, counted)
        lin = Linearization(built.problem, built.x)
        assert calls == {"circ_conv": 2, "circ_conv_adjoint": 2}
        views = [lin._rows(j) for j in range(len(lin.x))]
        assert calls == {"circ_conv": 2, "circ_conv_adjoint": 2}
        for view in views:
            for _ in range(2):
                view.jac_adjoint_apply(rng.standard_normal(view.x.shape))
        assert calls == {"circ_conv": 2 + 2 * 2 * len(views), "circ_conv_adjoint": 2}


class TestLipschitz:
    def test_closed_form_difference_filter(self):
        grid = Grid((4,))
        hp = HyperParams(
            0.0, [0.0], [np.array([1.0, -1.0])], CornerRounded1Norm(0.1)
        )
        problem = LowerProblem(Identity(grid), np.zeros(4), hp)
        assert problem.lipschitz_grad() == pytest.approx(1.0 + 10.0 * 4.0)

    def test_pure_least_squares(self):
        grid = Grid((4,))
        hp = HyperParams(0.0, [], [], CornerRounded1Norm(0.1))
        assert LowerProblem(Identity(grid), np.zeros(4), hp).lipschitz_grad() == 1.0

    def test_sampled_lipschitz_bound(self):
        problem, rng = make_problem()
        lip = problem.lipschitz_grad()
        for _ in range(100):
            x1 = rng.standard_normal(problem.A.grid.dims)
            x2 = rng.standard_normal(problem.A.grid.dims)
            lhs = np.linalg.norm(problem.grad_x(x1) - problem.grad_x(x2))
            assert lhs <= lip * np.linalg.norm(x1 - x2) + 1e-12

    @pytest.mark.parametrize("kind", ["identity", "mask", "circulant"])
    @pytest.mark.parametrize("dims", [(12,), (6, 8)])
    @pytest.mark.parametrize("row_beta0", [None, [-1.0, 0.5, 1.5]])
    def test_is_the_majorizer_peak(self, kind, dims, row_beta0):
        """L is the largest value of P, per row under ``row_beta0``, and at
        most the sum of each term's own peak."""
        rng = np.random.default_rng(len(dims) + 3 * len(kind))
        grid = Grid(dims)
        A = _forward(kind, grid, rng)
        taps = (2,) if grid.rank == 1 else (2, 2)
        hp = HyperParams(0.5, [0.0, -1.0], [rng.standard_normal(taps) for _ in range(2)],
                         CornerRounded1Norm(0.1))
        y = rng.standard_normal((3,) + dims)
        problem = LowerProblem(A, y, hp, row_beta0=row_beta0)
        lip, p = problem.lipschitz_grad(), problem.majorizer()
        if row_beta0 is None:
            assert isinstance(lip, float) and lip == np.max(p)
        else:
            assert lip.shape == (3,)
            assert list(lip) == [np.max(row) for row in p]
        b0 = hp.beta0 if row_beta0 is None else np.asarray(row_beta0)
        assert np.all(lip <= summed_peaks(A, hp, b0) * (1.0 + 1e-12))

    def test_tighter_than_summed_peaks(self):
        """The three filters of ``TestRegularityReport`` peak at different
        frequencies, so L = max P is strictly below the sum of the peaks."""
        problem, _ = make_problem(k=3)
        old = summed_peaks(problem.A, problem.theta, problem.theta.beta0)
        assert old == pytest.approx(88.497, abs=1e-3)
        assert problem.lipschitz_grad() == pytest.approx(75.236, abs=1e-3)


def summed_peaks(A, hp, b0):
    """sigma1^2(A) + L_phi' sum_k w_k max|C_k^|^2, with w_k = e^{b0 + b_k}
    and each peak from a full-grid FFT: a Lipschitz constant of grad_x that
    adds up the peak of every term wherever it falls."""
    dims = A.grid.dims
    total = A.spectral_bounds()[0]
    for b, c in zip(hp.betas, hp.filters):
        peak = np.max(np.abs(np.fft.fftn(c, s=dims, axes=tuple(range(len(dims))))) ** 2)
        total = total + np.exp(b0 + b) * hp.potential.curvature_bound() * peak
    return total


def _forward(kind, grid, rng):
    if kind == "identity":
        return Identity(grid)
    if kind == "mask":
        return Mask(grid, (rng.random(grid.dims) < 0.7).astype(float))
    taps = rng.random((3,) if grid.rank == 1 else (2, 3))
    return Circulant(grid, taps / taps.sum())


class TestMajorizer:
    """P, the symbol of a circulant bound on the Hessian, on the rfft grid."""

    @pytest.mark.parametrize("kind", ["identity", "mask", "circulant"])
    @pytest.mark.parametrize("dims", [(12,), (6, 8)])
    @pytest.mark.parametrize("per_row", [False, True])
    def test_bounds_the_hessian(self, kind, dims, per_row):
        """v'H(x)v <= v'Pv over random x and v, at x = 0 (where phi'' is
        its bound L_phi' everywhere, so P is tight for a circulant A) and
        at pure frequencies v.  With ``row_beta0`` each row's P bounds the
        Hessian of that row's own b0."""
        rng = np.random.default_rng(len(dims) + 3 * len(kind))
        grid = Grid(dims)
        A = _forward(kind, grid, rng)
        taps = (2,) if grid.rank == 1 else (2, 2)
        hp = HyperParams(0.5, [0.0, -1.0], [rng.standard_normal(taps) for _ in range(2)],
                         CornerRounded1Norm(0.1))
        b0 = [-1.0, 0.5, 1.5]
        y = rng.standard_normal((len(b0),) + dims)
        if per_row:
            p = LowerProblem(A, y, hp, row_beta0=b0).majorizer()
            assert p.shape[0] == len(b0)
            rows = [(LowerProblem(A, y[r], HyperParams(b, hp.betas, hp.filters,
                                                        hp.potential)), p[r])
                    for r, b in enumerate(b0)]
        else:
            problem = LowerProblem(A, y[0], hp)
            rows = [(problem, problem.majorizer())]
        waves = [np.cos(2 * np.pi * sum(k * i / n for k, i, n in zip(f, np.indices(dims), dims)))
                 for f in [(0,) * len(dims), (1,) * len(dims), tuple(d // 2 for d in dims)]]
        for problem, symbol in rows:
            for x in (np.zeros(dims), rng.standard_normal(dims)):
                lin = Linearization(problem, x)
                for v in waves + [rng.standard_normal(dims) for _ in range(5)]:
                    vhv = np.vdot(v, lin.hess_vec(v))
                    vpv = np.vdot(v, grid.fourier_multiply(v, symbol))
                    assert vhv <= vpv * (1.0 + 1e-12) + 1e-12

    def test_a_row_equals_its_own_problem(self):
        problem, rng = make_problem(dims=(6, 8), taps=(2, 2))
        hp = problem.theta
        A = Circulant(problem.A.grid, [[0.5, 0.25], [0.25, 0.0]])
        b0 = np.array([-0.5, 2.0])
        p = LowerProblem(A, rng.standard_normal((2, 6, 8)), hp, row_beta0=b0).majorizer()
        for r in range(2):
            own = LowerProblem(A, problem.y, HyperParams(b0[r], hp.betas, hp.filters,
                                                          hp.potential))
            np.testing.assert_array_equal(p[r], own.majorizer())

    def test_identity_without_filters_is_sigma1_squared(self):
        hp = HyperParams(0.0, [], [], CornerRounded1Norm(0.1))
        assert LowerProblem(Identity(Grid((4,))), np.zeros(4), hp).majorizer() == 1.0


class TestRegularityReport:
    def test_identity_strongly_convex(self):
        problem, _ = make_problem()
        report = problem.regularity_report(1.0)
        assert report["mu"] == 1.0
        assert report["strongly_convex"]

    def test_mask_flags_degeneracy(self):
        grid = Grid((4,))
        hp = HyperParams(0.0, [0.0], [np.array([1.0, -1.0])], CornerRounded1Norm(0.1))
        problem = LowerProblem(Mask(grid, [1, 0, 1, 1]), np.zeros(4), hp)
        report = problem.regularity_report(1.0)
        assert report["mu"] == 0.0
        assert not report["strongly_convex"]

    def test_vanishing_blur_is_not_strongly_convex(self):
        # the blur [0.5, 0.5] vanishes at Nyquist, so A has a null direction
        grid = Grid((8,))
        hp = HyperParams(0.0, [0.0], [np.array([1.0, -1.0])], CornerRounded1Norm(0.1))
        problem = LowerProblem(Circulant(grid, [0.5, 0.5]), np.zeros(8), hp)
        report = problem.regularity_report(1.0)
        assert report["mu"] == 0.0
        assert not report["strongly_convex"]

    def test_gradient_constant_consistency(self):
        problem, _ = make_problem(k=3)
        report = problem.regularity_report(2.0)
        assert report["L_grad_x"] == problem.lipschitz_grad()

    @pytest.mark.parametrize("case", ["1d-difference", "2d-two-filters"])
    def test_hessian_lipschitz_bounds_the_dense_ratio(self, case):
        """``L_hess_x`` bounds ||H(x) - H(x')|| / ||x - x'|| over random
        pairs near 0, where phi'' changes fastest; dense Hessians from
        ``hess_vec`` columns."""
        if case == "1d-difference":
            hp = HyperParams(0.0, [0.0], [np.array([1.0, -1.0])],
                             CornerRounded1Norm(0.01))
            A = Identity(Grid((16,)))
        else:
            hp = HyperParams(-0.5, [0.0, 0.3],
                             [np.array([[1.0, -1.0]]), np.array([[1.0], [-1.0]])],
                             CornerRounded1Norm(0.05))
            A = Circulant(Grid((6, 6)), [[0.6, 0.2], [0.2, 0.0]])
        dims = A.grid.dims
        problem = LowerProblem(A, np.zeros(dims), hp)
        basis = np.eye(A.grid.n).reshape((A.grid.n,) + dims)

        def dense(x):
            lin = Linearization(problem, x)
            return np.stack([lin.hess_vec(e).reshape(-1) for e in basis], axis=1)

        rng = np.random.default_rng(21)
        ratios = []
        for _ in range(100):
            x = 0.01 * rng.standard_normal(dims)
            x2 = x + 0.001 * rng.standard_normal(dims)
            diff = np.linalg.norm(dense(x) - dense(x2), 2)
            ratios.append(diff / np.linalg.norm(x - x2))
        assert max(ratios) <= problem.regularity_report(1.0)["L_hess_x"]


SRC = Path(lower.__file__).resolve().parent
LAYOUT_HOMES = {
    ("lower.py", "HyperParams.theta_size"),
    ("lower.py", "_join"),
    ("lower.py", "_split"),
    ("data.py", "save_params"),
}


def _learn_beta0_reads(node, scope=""):
    """(enclosing qualified name, line) of every ``.learn_beta0`` read."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _learn_beta0_reads(
                child, f"{scope}.{child.name}" if scope else child.name
            )
            continue
        if (isinstance(child, ast.Attribute) and child.attr == "learn_beta0"
                and isinstance(child.ctx, ast.Load)):
            yield scope, child.lineno
        yield from _learn_beta0_reads(child, scope)


def test_theta_layout_is_coded_only_in_join_and_split():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for scope, line in _learn_beta0_reads(ast.parse(path.read_text())):
            found.setdefault((path.name, scope), []).append(line)
    missing = LAYOUT_HOMES - set(found)
    assert not missing, f"the check no longer sees these reads: {missing}"
    elsewhere = {key: lines for key, lines in found.items()
                 if key not in LAYOUT_HOMES}
    assert not elsewhere, f".learn_beta0 read outside the layout: {elsewhere}"
