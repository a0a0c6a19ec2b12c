"""Measurement operators: identity, binary mask, and circulant blur.

Measurements share the image grid (missing mask samples are zeros), so every
operator is square and ``adjoint`` is a true transpose.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .signals import Grid, as_filter, circ_conv, circ_conv_adjoint, filter_spectrum


class ForwardModel:
    """Linear measurement operator A with apply/adjoint/spectral queries."""

    grid: Grid

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def spectral_bounds(self) -> tuple[float, float]:
        """Return (sigma1^2, sigmaN^2) of A."""
        raise NotImplementedError

    def _check(self, x: np.ndarray) -> None:
        if x.shape != self.grid.dims:
            raise DimensionError(
                f"signal shape {x.shape} does not match grid {self.grid.dims}"
            )


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


class Circulant(ForwardModel):
    """Circular convolution with a fixed kernel (e.g. blur)."""

    def __init__(self, grid: Grid, taps):
        self.grid = grid
        self.taps = as_filter(taps)
        if any(rc > rg for rc, rg in zip(self.taps.shape, grid.dims)):
            raise DimensionError(
                f"kernel extents {self.taps.shape} exceed grid {grid.dims}"
            )

    def apply(self, x):
        self._check(x)
        return circ_conv(x, self.taps)

    def adjoint(self, u):
        self._check(u)
        return circ_conv_adjoint(u, self.taps)

    def spectral_bounds(self):
        mags = filter_spectrum(self.taps, self.grid)
        return (float(np.max(mags) ** 2), float(np.min(mags) ** 2))
