"""Measurement operators: identity, binary mask, and circulant blur.

Measurements share the image grid (missing mask samples are zeros), so every
operator is square and ``adjoint`` is a true transpose.  ``apply`` and
``adjoint`` also take a stack of signals shaped ``(S, *grid)`` and act on
each row as on one signal, bit for bit.
"""

from __future__ import annotations

import functools

import numpy as np

from .signals import (
    Grid,
    _check_filter_fits,
    as_filter,
    circ_conv,
    circ_conv_adjoint,
    filter_power,
    pair_index,
)


class ForwardModel:
    """Linear measurement operator A with apply/adjoint/spectral queries."""

    grid: Grid

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def spectral_bounds(self) -> tuple[float, float]:
        """Return (sigma1^2, sigmaN^2) of A: the largest and the smallest
        eigenvalue of A'A.  A sigmaN^2 of 0 means A has a null direction,
        and the lower cost need not be strongly convex in x."""
        raise NotImplementedError

    def gram_symbol(self):
        """A'A's share of the lower Hessian's circulant majorizer
        (``LowerProblem.majorizer``): a DFT symbol on the rfft grid that
        bounds A'A from above.  By default sigma1^2, a constant."""
        return self.spectral_bounds()[0]

    def gram_stencil(self) -> np.ndarray:
        """A'A as a stencil G over centred offsets d in -h..h:
        (A'A v)_i = sum_d G[d, i] v_{i+d}.

        Shaped ``(*box, *grid)`` with box extents 2 h + 1 (see
        ``signals.centred_rows``); the grid axes have extent 1 where G does
        not depend on position.
        """
        raise NotImplementedError

    def _check(self, x: np.ndarray) -> None:
        """Accept one signal on the grid or a stack along one leading axis."""
        self.grid.is_stack(x)


class Identity(ForwardModel):
    def __init__(self, grid: Grid):
        self.grid = grid

    def apply(self, x):
        self._check(x)
        return x.copy()

    def adjoint(self, u):
        self._check(u)
        return u.copy()

    def spectral_bounds(self):
        return (1.0, 1.0)

    def gram_stencil(self):
        return np.ones((1,) * (2 * self.grid.rank))


class Mask(ForwardModel):
    """Diagonal 0/1 sampling operator (inpainting); self-adjoint."""

    def __init__(self, grid: Grid, values):
        self.grid = grid
        mask = np.asarray(values, dtype=np.float64).reshape(grid.dims)
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise ValueError("mask values must be 0 or 1")
        if not np.any(mask == 1.0):
            raise ValueError("mask must keep at least one sample")
        self.values = mask

    def apply(self, x):
        self._check(x)
        return self.values * x

    def adjoint(self, u):
        return self.apply(u)

    def spectral_bounds(self):
        smin = 0.0 if np.any(self.values == 0.0) else 1.0
        return (1.0, smin)

    def gram_stencil(self):
        # a 0/1 mask squares to itself: the mask at offset 0
        return self.values.reshape((1,) * self.grid.rank + self.grid.dims)


class Circulant(ForwardModel):
    """Circular convolution with a fixed kernel (e.g. blur)."""

    def __init__(self, grid: Grid, taps):
        self.grid = grid
        self.taps = as_filter(taps)
        _check_filter_fits(grid.dims, self.taps.shape)

    def apply(self, x):
        return circ_conv(x, self.grid.lift(x, self.taps))

    def adjoint(self, u):
        return circ_conv_adjoint(u, self.grid.lift(u, self.taps))

    @functools.cached_property
    def _power(self) -> np.ndarray:
        """|A^|^2, taken once per operator; read-only, as it is shared."""
        power = filter_power(self.taps, self.grid)
        power.flags.writeable = False
        return power

    def spectral_bounds(self):
        return (float(np.max(self._power)), float(np.min(self._power)))

    def gram_symbol(self):
        # A'A is circulant: its own symbol |A^|^2
        return self._power

    def gram_stencil(self):
        # the autocorrelation of the taps, the same at every position
        shape = self.taps.shape
        flat = self.taps.reshape(-1)
        gram = np.append(flat, 0.0)[pair_index(shape, tuple(n - 1 for n in shape))] @ flat
        return gram.reshape(tuple(2 * n - 1 for n in shape) + (1,) * self.grid.rank)
