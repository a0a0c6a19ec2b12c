"""Signal algebra on periodic grids.

Signals live on a 1-D or 2-D circular grid and are represented as float64
numpy arrays whose shape equals the grid extents.  Filters are small arrays
of taps indexed by nonnegative offsets.  All convolutions are circular and
follow the convention

    (c * x)_i = sum_s c_s x_{i-s},

so applying the mirrored filter ``c~`` realizes the adjoint (transpose) of
the convolution matrix.  ``circshift`` follows the convention
``circshift(x, s)_i = x_{i-s}`` (``numpy.roll`` with the same shift), which
is the convention pinned by the worked shift examples; see README
"Conventions" for how the derivative formulas depend on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True)
class Grid:
    """Extents of a periodic sampling grid (rank 1 or 2)."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) not in (1, 2):
            raise DimensionError(f"grid rank must be 1 or 2, got {len(dims)}")
        if any(d < 1 for d in dims):
            raise DimensionError(f"grid extents must be >= 1, got {dims}")

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        return math.prod(self.dims)

    def is_stack(self, x: np.ndarray) -> bool:
        """False for one signal on the grid, True for a stack ``(S, *dims)``.

        Any other shape, two leading axes included, raises DimensionError.
        """
        if x.shape == self.dims:
            return False
        if x.shape[1:] == self.dims:
            return True
        raise DimensionError(f"signal shape {x.shape} does not match grid {self.dims}")

    def lift(self, x: np.ndarray, taps: np.ndarray) -> np.ndarray:
        """The taps that convolve ``x``: as given for one signal, and lifted
        by a unit leading axis for a stack, which convolution treats as a
        grid of rank + 1."""
        return taps[None] if self.is_stack(x) else taps

    def per_row(self, v):
        """Per-row values ``(S,)`` shaped ``(S, 1, ...)`` to scale the rows
        of a stack; a scalar as is."""
        return np.reshape(v, np.shape(v) + (1,) * self.rank) if np.ndim(v) else v

    def dots(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """<a, b> over the grid axes, one per leading index (sample, tap, ...),
        with numpy broadcasting over the leading axes.

        ``np.vecdot`` of contiguous rows equals ``float(np.vdot(...))`` of
        each pair bit for bit: both reach the same dot kernel.  It contracts
        the last axis, so only a grid of several axes is flattened first, by
        its size ``n``, which an empty leading axis leaves well defined.
        ``lower`` and ``hypergrad`` take every grid inner product here.
        """
        if len(self.dims) > 1:
            a = a.reshape(a.shape[: a.ndim - len(self.dims)] + (self.n,))
            b = b.reshape(b.shape[: b.ndim - len(self.dims)] + (self.n,))
        return np.vecdot(a, b)

    def fourier_multiply(self, x: np.ndarray, symbol) -> np.ndarray:
        """irfft(symbol . rfft(x)) over the grid axes of one signal or of
        each row of a stack: the circulant operator of a real, even DFT
        symbol, given on the rfft grid (the last axis halved, as
        ``filter_power`` returns it; per row, ``(S, *rfft grid)``)."""
        if self.rank == 1:
            spectrum = np.fft.rfft(x)
            spectrum *= symbol
            return np.fft.irfft(spectrum, n=self.dims[0])
        spectrum = np.fft.rfft2(x)
        spectrum *= symbol
        return np.fft.irfft2(spectrum, s=self.dims)


def as_filter(taps) -> np.ndarray:
    """Validate and return filter taps as a float64 array."""
    c = np.asarray(taps, dtype=np.float64)
    if c.ndim not in (1, 2):
        raise DimensionError(f"filter rank must be 1 or 2, got {c.ndim}")
    if c.size == 0:
        raise DimensionError("filter must have at least one tap")
    if not np.all(np.isfinite(c)):
        raise ValueError("filter contains non-finite taps")
    return c


def _check_filter_fits(grid: tuple[int, ...], c_shape: tuple[int, ...]) -> None:
    if len(c_shape) != len(grid):
        raise DimensionError(
            f"filter rank {len(c_shape)} does not match grid rank {len(grid)}"
        )
    if any(rc > rg for rc, rg in zip(c_shape, grid)):
        raise DimensionError(
            f"filter extents {c_shape} exceed grid extents {grid}"
        )


def _gather_index(shape: tuple[int, ...], offsets) -> np.ndarray:
    """Read-only flat gather index whose row k holds the flat indices of
    ``circshift(x, offsets[k])`` for an x of ``shape``."""
    flat = np.arange(int(np.prod(shape))).reshape(shape)
    index = np.stack([circshift(flat, s).reshape(-1) for s in offsets])
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=32)
def _shift_index(c_shape: tuple[int, ...], shape: tuple[int, ...], sign: int) -> np.ndarray:
    """Flat gather index of every tap shift, shaped (taps, N) and read-only.

    Row s (taps in row-major order) holds the flat indices of
    ``circshift(x, sign * s)``, so ``x.reshape(-1)[index]`` stacks all the
    shifts a filter of shape ``c_shape`` reads from an x of ``shape``.  Only
    shapes are keys, so the few grids and filter shapes of a run share a
    handful of entries.  A filter of extent 1 along the first of several
    axes (a stack, under lifted taps) never shifts along it, so a stack's
    index is the leading columns of the index of any larger stack: it is
    copied from the one ``_stack_slot`` keeps for the most rows asked, and a
    stack that shrinks, as a lower solve's live rows do, builds no new
    index.  A filter that does not fit raises DimensionError; ``lru_cache``
    keeps no exception, so each good shape pair is checked once and every
    call with a bad one raises.
    """
    _check_filter_fits(shape, c_shape)
    offsets = [tuple(sign * k for k in s) for s in np.ndindex(c_shape)]
    if len(shape) == 1 or c_shape[0] != 1:
        return _gather_index(shape, offsets)
    slot = _stack_slot(c_shape, shape[1:], sign)
    if slot[0] is None or slot[0].shape[1] < math.prod(shape):
        slot[0] = _gather_index(shape, offsets)
    index = np.ascontiguousarray(slot[0][:, : math.prod(shape)])
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=32)
def _stack_slot(c_shape: tuple[int, ...], grid: tuple[int, ...], sign: int) -> list:
    """A one-entry list: the index of the largest stack on ``grid`` that
    ``_shift_index`` was asked for, or None."""
    return [None]


def _tap_rows(x: np.ndarray, c_shape: tuple[int, ...], sign: int) -> np.ndarray:
    """circshift(x, sign * s) for every tap s of a ``c_shape`` filter, as (taps, N)."""
    return x.reshape(-1)[_shift_index(c_shape, x.shape, sign)]


def _conv(x: np.ndarray, c: np.ndarray, sign: int) -> np.ndarray:
    """sum_s c_s circshift(x, sign * s), accumulated in row-major tap order.

    ``np.add.reduce`` over the tap axis, which is not the fast axis, adds the
    rows one after another onto the +0.0 start, so every output entry is the
    sum ``0 + c_0 x_.. + c_1 x_.. + ...`` in the order of a per-tap loop.
    """
    rows = _tap_rows(x, c.shape, sign)
    rows *= c.reshape(-1, 1)
    return np.add.reduce(rows, axis=0, initial=0.0).reshape(x.shape)


def circ_conv(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Circular convolution (c * x)_i = sum_s c_s x_{i-s}."""
    return _conv(x, c, 1)


def circ_conv_adjoint(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Adjoint of ``circ_conv(., c)``: correlation with c, i.e. c~ * u."""
    return _conv(u, c, -1)


def shifted(x: np.ndarray, c_shape: tuple[int, ...], sign: int) -> np.ndarray:
    """Every tap shift of ``x`` for a filter of shape ``c_shape``.

    Returns an array shaped ``(taps, *x.shape)`` whose entry s, taps in
    row-major order, is ``circshift(x, sign * s)``; ``sign`` is +1 or -1.
    """
    if sign not in (1, -1):
        raise ValueError(f"shift sign must be +1 or -1, got {sign}")
    rows = _tap_rows(x, tuple(c_shape), sign)
    return rows.reshape((len(rows),) + x.shape)


@functools.lru_cache(maxsize=32)
def _centred_index(half: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
    """Flat gather index of every centred offset, read-only: shaped
    (offsets, N) for one signal of ``shape`` on a grid of rank
    ``len(half)``, and (rows, offsets, N) for a stack along one leading axis.

    Entry [..., k, i] (offsets d in -half..half, row-major) is the flat index
    of x_{i+d}, an entry of ``circshift(x, -d)``; the leading axis does not
    shift.
    """
    lead = (0,) * (len(shape) - len(half))
    box = np.ndindex(tuple(2 * h + 1 for h in half))
    index = _gather_index(shape, [lead + tuple(h - k for k, h in zip(d, half)) for d in box])
    if lead:  # each row's offsets side by side
        index = index.reshape(len(index), shape[0], -1).transpose(1, 0, 2).copy()
        index.flags.writeable = False
    return index


def centred_rows(x: np.ndarray, half: tuple[int, ...]) -> np.ndarray:
    """x_{i+d} for every offset d of the box -half..half: shaped (offsets, N)
    for one signal and (rows, offsets, N) for a stack ``(rows, *grid)``.

    Offsets are in row-major order over the trailing ``len(half)`` axes of
    ``x`` (the grid); a stack's leading axis does not shift.  So a stencil M
    of the same shape applies as (M v)_i = sum_d M[..., d, i] v_{i+d}, and
    each row of a stack reads a contiguous block of it.
    """
    return x.reshape(-1)[_centred_index(tuple(half), x.shape)]


@functools.lru_cache(maxsize=32)
def pair_index(c_shape: tuple[int, ...], half: tuple[int, ...]) -> np.ndarray:
    """Which tap pairs each centred offset collects, shaped (offsets, taps).

    Entry [d, s] (offsets as in ``centred_rows``, taps s row-major) is the
    flat index of the tap t = s - d of a ``c_shape`` filter, or the tap
    count where there is none.  With ``c0 = np.append(c, 0.0)``,
    ``sum_s u_s c0[index[d, s]]`` sums c_t u_s over the pairs s - t = d:
    for u = c, the stencil of C'C.  Read-only.
    """
    taps = np.arange(int(np.prod(c_shape))).reshape(c_shape)
    index = np.full((int(np.prod([2 * h + 1 for h in half])), taps.size), taps.size)
    for row, d in enumerate(np.ndindex(tuple(2 * h + 1 for h in half))):
        for s in np.ndindex(c_shape):
            t = tuple(a - (b - h) for a, b, h in zip(s, d, half))
            if all(0 <= a < n for a, n in zip(t, c_shape)):
                index[row, taps[s]] = taps[t]
    index.flags.writeable = False
    return index


def circshift(x: np.ndarray, offset) -> np.ndarray:
    """Circular shift with ``circshift(x, s)_i = x_{i-s}``."""
    offset = np.atleast_1d(np.asarray(offset, dtype=int))
    if offset.size != x.ndim:
        raise DimensionError(
            f"offset length {offset.size} does not match grid rank {x.ndim}"
        )
    return np.roll(x, tuple(offset), axis=tuple(range(x.ndim)))


def filter_power(c: np.ndarray, grid: Grid) -> np.ndarray:
    """|c^|^2 on the rfft grid of ``grid`` (the last axis halved): the DFT
    symbol of C'C, by one FFT of the zero-padded taps.  Every spectrum the
    library reads comes from here; real taps give |c^(-m)| = |c^(m)|, so
    the half grid holds every value of the full one.

    ``c`` may also be a bank of K filters zero-padded to one shape and
    stacked along a leading axis, ``(K, *taps)``: one FFT then gives one
    symbol per filter, ``(K, *rfft grid)``, each equal to that filter's own
    bit for bit (zero padding changes no value the transform reads).

    A kernel that vanishes at a frequency by symmetry, such as ``[0.5, 0.5]``
    at Nyquist, gives an exact 0 there.
    """
    c = np.asarray(c, dtype=np.float64)
    lead = 1 if c.ndim == grid.rank + 1 else 0  # a bank's filter axis
    _check_filter_fits(grid.dims, c.shape[lead:])
    axes = tuple(range(lead, c.ndim))
    return np.abs(np.fft.rfftn(c, s=grid.dims, axes=axes)) ** 2
