import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevelreg.potentials import CornerRounded1Norm, Quadratic


class TestDerivativeTriples:
    def test_hyperbola_at_zero(self):
        phi, dphi, ddphi = CornerRounded1Norm(0.1).derivatives(0.0)
        assert phi == pytest.approx(0.1)
        assert dphi == pytest.approx(0.0)
        assert ddphi == pytest.approx(10.0)

    def test_hyperbola_at_one(self):
        phi, dphi, ddphi = CornerRounded1Norm(0.01).derivatives(1.0)
        assert phi == pytest.approx(np.sqrt(1.0001))
        assert dphi == pytest.approx(1.0 / np.sqrt(1.0001))
        assert ddphi == pytest.approx(1e-4 / 1.0001**1.5)

    def test_quadratic(self):
        phi, dphi, ddphi = Quadratic().derivatives(3.0)
        assert (phi, dphi, ddphi) == (4.5, 3.0, 1.0)

    def test_vectorized(self):
        pot = CornerRounded1Norm(0.5)
        z = np.array([-1.0, 0.0, 2.0])
        phi, dphi, ddphi = pot.derivatives(z)
        assert phi.shape == dphi.shape == ddphi.shape == (3,)


class TestBounds:
    def test_hyperbola_bounds(self):
        assert CornerRounded1Norm(0.1).curvature_bound() == pytest.approx(10.0)
        assert CornerRounded1Norm(0.5).curvature_bound() == pytest.approx(2.0)

    def test_quadratic_curvature(self):
        assert Quadratic().curvature_bound() == 1.0

    def test_third_derivative_sup(self):
        # analytic sup of |phi'''| is (3/2)(4/5)^{5/2} / eps^2, at z = eps/2
        eps = 0.2
        expected = 1.5 * (0.8**2.5) / eps**2
        assert CornerRounded1Norm(eps).curvature_lipschitz() == expected
        # no point of a fine grid over t = z/eps exceeds it
        t = np.linspace(0.0, 4.0, 400001)
        grid_sup = np.max(3.0 * t / (t**2 + 1.0) ** 2.5) / eps**2
        assert grid_sup <= expected * (1.0 + 1e-15)
        assert Quadratic().curvature_lipschitz() == 0.0


class TestFiniteDifferences:
    @pytest.mark.parametrize("eps", [0.1, 1.0])
    def test_matches_at_stated_tolerance(self, eps):
        pot = CornerRounded1Norm(eps)
        h = 1e-5
        for z in np.linspace(-5.0, 5.0, 41):
            fd1 = (pot.phi(z + h) - pot.phi(z - h)) / (2 * h)
            fd2 = (pot.dphi(z + h) - pot.dphi(z - h)) / (2 * h)
            assert abs(fd1 - pot.dphi(z)) <= 1e-7
            assert abs(fd2 - pot.derivatives(z)[2]) <= 1e-7

    def test_small_eps_scales_as_h_squared(self):
        # central-difference error is O(h^2) with constants from the next
        # derivative: |phi'''| <= curvature_lipschitz, |phi''''| <= 3/eps^3
        eps = 0.01
        pot = CornerRounded1Norm(eps)
        h = 1e-5
        tol1 = max(1e-7, h**2 * pot.curvature_lipschitz())
        tol2 = max(1e-7, h**2 * 3.0 / eps**3)
        for z in np.linspace(-5.0, 5.0, 41):
            fd1 = (pot.phi(z + h) - pot.phi(z - h)) / (2 * h)
            fd2 = (pot.dphi(z + h) - pot.dphi(z - h)) / (2 * h)
            assert abs(fd1 - pot.dphi(z)) <= tol1
            assert abs(fd2 - pot.derivatives(z)[2]) <= tol2


class TestRangeInvariants:
    def test_slope_and_curvature_ranges(self):
        pot = CornerRounded1Norm(0.05)
        z = np.linspace(-50.0, 50.0, 1001)
        assert np.all(np.abs(pot.dphi(z)) < 1.0)
        curv = pot.derivatives(z)[2]
        assert np.all(curv > 0.0)
        assert np.all(curv <= 1.0 / 0.05 + 1e-12)

    def test_approaches_absolute_value(self):
        eps = 0.02
        pot = CornerRounded1Norm(eps)
        for z in (100 * eps, -100 * eps):
            gap = pot.phi(z) - abs(z)
            assert 0.0 <= gap <= eps**2 / abs(z)
        assert np.all(pot.phi(np.linspace(-3, 3, 100)) >= np.abs(np.linspace(-3, 3, 100)))


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(1e-3, 10.0))
def test_symmetry(z, eps):
    pot = CornerRounded1Norm(eps)
    assert pot.phi(-z) == pot.phi(z)
    assert pot.dphi(-z) == -pot.dphi(z)
    assert pot.derivatives(-z)[2] == pot.derivatives(z)[2]
