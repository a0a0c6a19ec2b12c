import numpy as np
import pytest

from bilevelreg import forward
from bilevelreg.errors import DimensionError
from bilevelreg.forward import Circulant, Identity, Mask
from bilevelreg.signals import Grid, filter_power


def all_models(grid):
    rng = np.random.default_rng(0)
    mask = (rng.uniform(size=grid.dims) > 0.4).astype(float)
    mask.reshape(-1)[0] = 1.0
    return [
        Identity(grid),
        Mask(grid, mask),
        Circulant(grid, np.array([1.0, -1.0]) if grid.rank == 1 else np.ones((2, 2))),
    ]


class TestApply:
    def test_identity(self):
        grid = Grid((4,))
        x = np.arange(4.0)
        np.testing.assert_array_equal(Identity(grid).apply(x), x)

    def test_mask(self):
        grid = Grid((4,))
        model = Mask(grid, [1.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(
            model.apply(np.array([1.0, 2.0, 3.0, 4.0])), [1.0, 0.0, 3.0, 0.0]
        )

    def test_circulant_matches_conv(self):
        grid = Grid((4,))
        model = Circulant(grid, [1.0, -1.0])
        np.testing.assert_allclose(
            model.apply(np.array([1.0, 2.0, 3.0, 4.0])), [-3.0, 1.0, 1.0, 1.0]
        )

    def test_grid_mismatch(self):
        with pytest.raises(DimensionError):
            Identity(Grid((4,))).apply(np.zeros(5))


class TestAdjoint:
    @pytest.mark.parametrize("dims", [(8,), (4, 5)])
    def test_adjoint_identity_all_variants(self, dims):
        grid = Grid(dims)
        rng = np.random.default_rng(1)
        for model in all_models(grid):
            for _ in range(10):
                x = rng.standard_normal(dims)
                u = rng.standard_normal(dims)
                lhs = np.vdot(model.apply(x), u)
                rhs = np.vdot(x, model.adjoint(u))
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_identity_and_mask_self_adjoint(self):
        grid = Grid((6,))
        u = np.arange(6.0)
        np.testing.assert_array_equal(Identity(grid).adjoint(u), u)
        mask = Mask(grid, [1, 1, 0, 1, 0, 1])
        np.testing.assert_array_equal(mask.adjoint(u), mask.apply(u))


class TestSpectralBounds:
    def test_identity(self):
        assert Identity(Grid((5,))).spectral_bounds() == (1.0, 1.0)

    def test_mask(self):
        grid = Grid((4,))
        assert Mask(grid, [1, 0, 1, 0]).spectral_bounds() == (1.0, 0.0)
        assert Mask(grid, [1, 1, 1, 1]).spectral_bounds() == (1.0, 1.0)

    def test_circulant_difference_kernel(self):
        # zero frequency annihilated, Nyquist doubled
        hi, lo = Circulant(Grid((4,)), [1.0, -1.0]).spectral_bounds()
        assert hi == pytest.approx(4.0, abs=1e-12)
        assert lo == pytest.approx(0.0, abs=1e-12)

    def test_vanishing_blur_has_an_exact_zero(self):
        # [0.5, 0.5] vanishes at Nyquist by symmetry: sigmaN^2 is 0, not tiny
        assert Circulant(Grid((8,)), [0.5, 0.5]).spectral_bounds()[1] == 0.0

    @pytest.mark.parametrize("dims", [(8,), (4, 4)])
    def test_bounds_sandwich_norms(self, dims):
        grid = Grid(dims)
        rng = np.random.default_rng(2)
        for model in all_models(grid):
            hi, lo = model.spectral_bounds()
            for _ in range(20):
                x = rng.standard_normal(dims)
                ax = float(np.vdot(model.apply(x), model.apply(x)))
                xx = float(np.vdot(x, x))
                assert lo * xx - 1e-10 <= ax <= hi * xx + 1e-10

    def test_circulant_symbol_is_taken_once(self, monkeypatch):
        """A blur's |A^|^2 is one FFT per operator, shared read-only by
        ``gram_symbol`` and ``spectral_bounds``, and equal to a fresh one."""
        calls = []
        monkeypatch.setattr(forward, "filter_power",
                            lambda c, g, _f=forward.filter_power: calls.append(c) or _f(c, g))
        grid = Grid((6, 8))
        model = Circulant(grid, [[0.5, 0.25], [0.25, 0.0]])
        symbol = model.gram_symbol()
        assert model.gram_symbol() is symbol and not symbol.flags.writeable
        assert model.spectral_bounds() == (float(np.max(symbol)), float(np.min(symbol)))
        assert len(calls) == 1
        np.testing.assert_array_equal(symbol, filter_power(model.taps, grid))


class TestValidation:
    def test_mask_values(self):
        grid = Grid((3,))
        with pytest.raises(ValueError):
            Mask(grid, [0.5, 1.0, 0.0])
        with pytest.raises(ValueError):
            Mask(grid, [0.0, 0.0, 0.0])

    def test_circulant_kernel_fits(self):
        with pytest.raises(DimensionError):
            Circulant(Grid((2,)), [1.0, 2.0, 3.0])

    def test_circulant_kernel_rank_matches_grid(self):
        """A 2-D kernel on a 1-D grid fails at construction, not at the
        first apply; an oversized kernel reads the shared filter check's
        text."""
        with pytest.raises(DimensionError,
                           match=r"^filter rank 2 does not match grid rank 1$"):
            Circulant(Grid((8,)), [[0.1, 0.8], [0.05, 0.05]])
        with pytest.raises(DimensionError,
                           match=r"^filter extents \(3,\) exceed grid extents \(2,\)$"):
            Circulant(Grid((2,)), [1.0, 2.0, 3.0])
