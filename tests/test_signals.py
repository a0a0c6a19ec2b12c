import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevelreg import signals
from bilevelreg.errors import DimensionError
from bilevelreg.signals import (
    Grid,
    as_filter,
    circ_conv,
    circ_conv_adjoint,
    circshift,
    filter_power,
    shifted,
)

SRC = Path(signals.__file__).resolve().parent


def conv_reference(x, c):
    """Direct double-sum oracle: out_i = sum_s c_s x_{i-s}, circular."""
    out = np.zeros_like(x, dtype=np.float64)
    for i in np.ndindex(x.shape):
        for s in np.ndindex(c.shape):
            idx = tuple((ii - ss) % n for ii, ss, n in zip(i, s, x.shape))
            out[i] += c[s] * x[idx]
    return out


def roll_conv(x, c, sign):
    """The per-tap roll loop: out = 0; out += c_s * roll(x, sign * s)."""
    axes = tuple(range(x.ndim))
    out = np.zeros_like(x)
    for s in np.ndindex(c.shape):
        out += c[s] * np.roll(x, tuple(sign * k for k in s), axis=axes)
    return out


def dense_conv_matrix(c, grid):
    """Brute-force dense convolution matrix from the double-sum oracle."""
    n = grid.n
    mat = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        mat[:, i] = conv_reference(e.reshape(grid.dims), c).ravel()
    return mat


class TestGrid:
    def test_sizes(self):
        assert Grid((4,)).n == 4
        assert Grid((3, 5)).n == 15
        assert Grid((3, 5)).rank == 2

    def test_invalid(self):
        with pytest.raises(DimensionError):
            Grid((0,))
        with pytest.raises(DimensionError):
            Grid((2, 2, 2))

    def test_filter_validation(self):
        with pytest.raises(ValueError):
            as_filter([np.inf])


class TestCircConv:
    def test_two_tap_example(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        c = np.array([1.0, -1.0])
        expected = conv_reference(x, c)
        np.testing.assert_allclose(expected, [-3.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(circ_conv(x, c), expected)

    def test_delta_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(7)
        np.testing.assert_array_equal(circ_conv(x, np.array([1.0])), x)

    def test_zero_sum_annihilates_constants(self):
        x = np.full(4, 5.0)
        np.testing.assert_allclose(
            circ_conv(x, np.array([1.0, -1.0])), np.zeros(4)
        )

    def test_matches_reference_2d(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 6))
        c = rng.standard_normal((2, 3))
        np.testing.assert_allclose(circ_conv(x, c), conv_reference(x, c), rtol=1e-13)

    def test_filter_too_large(self):
        with pytest.raises(DimensionError):
            circ_conv(np.zeros(3), np.ones(4))
        with pytest.raises(DimensionError):
            circ_conv(np.zeros((3, 3)), np.ones(2))

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x, z = rng.standard_normal((2, 8))
        c = rng.standard_normal(3)
        a, b = 1.7, -0.3
        np.testing.assert_allclose(
            circ_conv(a * x + b * z, c),
            a * circ_conv(x, c) + b * circ_conv(z, c),
            rtol=1e-12, atol=1e-14,
        )

    def test_shift_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(9)
        c = rng.standard_normal(3)
        for s in (-2, 1, 4):
            np.testing.assert_allclose(
                circshift(circ_conv(x, c), s),
                circ_conv(circshift(x, s), c),
                rtol=1e-12, atol=1e-14,
            )


class TestAdjoint:
    def test_delta_identity(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(6)
        np.testing.assert_array_equal(circ_conv_adjoint(u, np.array([1.0])), u)

    @pytest.mark.parametrize("dims,taps", [((8,), (3,)), ((4, 5), (2, 2))])
    def test_adjoint_identity(self, dims, taps):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal(dims)
            u = rng.standard_normal(dims)
            c = rng.standard_normal(taps)
            lhs = np.vdot(circ_conv(x, c), u)
            rhs = np.vdot(x, circ_conv_adjoint(u, c))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_matches_dense_transpose(self):
        grid = Grid((4,))
        c = np.array([1.0, -1.0])
        dense = dense_conv_matrix(c, grid)
        u = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(circ_conv_adjoint(u, c), dense.T @ u)
        rng = np.random.default_rng(6)
        v = rng.standard_normal(4)
        np.testing.assert_allclose(circ_conv_adjoint(v, c), dense.T @ v, rtol=1e-13)


class TestCircshift:
    def test_worked_example(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(circshift(x, -1), [2.0, 3.0, 4.0, 1.0])

    def test_zero_offset(self):
        x = np.arange(5.0)
        np.testing.assert_array_equal(circshift(x, 0), x)

    def test_inverse_shift(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4))
        s = (1, -2)
        np.testing.assert_array_equal(
            circshift(circshift(x, s), tuple(-k for k in s)), x
        )

    def test_rank_mismatch(self):
        with pytest.raises(DimensionError):
            circshift(np.zeros((2, 2)), 1)


def power_max(c, grid):
    """sigma1^2, the top eigenvalue of C'C for c's convolution matrix C, as
    ``lower`` and ``forward`` take it."""
    return float(np.max(filter_power(c, grid)))


class TestSpectrum:
    def test_two_tap_on_four_grid(self):
        # |1 - e^{-i pi m / 2}| peaks at m=2, where it is 2
        assert power_max(np.array([1.0, -1.0]), Grid((4,))) == pytest.approx(
            4.0, abs=1e-14
        )

    def test_delta_all_pass(self):
        assert power_max(np.array([1.0]), Grid((9,))) == pytest.approx(1.0)
        assert power_max(np.array([[1.0]]), Grid((3, 4))) == pytest.approx(1.0)

    def test_filter_that_does_not_fit_is_rejected(self):
        # the same check, and message, as the convolution's
        with pytest.raises(DimensionError, match="exceed grid extents"):
            filter_power(np.ones(5), Grid((4,)))
        with pytest.raises(DimensionError, match="does not match grid rank"):
            filter_power(np.ones(2), Grid((4, 4)))
        with pytest.raises(DimensionError, match="does not match grid rank"):
            circ_conv(np.zeros((3, 3)), np.ones(2))

    def test_one_norm_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            c = rng.standard_normal(rng.integers(1, 5))
            grid = Grid((rng.integers(c.size, 17),))
            assert power_max(c, grid) <= np.sum(np.abs(c)) ** 2 * (1.0 + 1e-12)

    @pytest.mark.parametrize("dims,taps", [((6,), (2,)), ((12,), (3,)), ((4, 4), (2, 2))])
    def test_matches_dense_gram_eigenvalue(self, dims, taps):
        rng = np.random.default_rng(9)
        grid = Grid(dims)
        c = rng.standard_normal(taps)
        dense = dense_conv_matrix(c, grid)
        top = np.max(np.linalg.eigvalsh(dense.T @ dense))
        assert power_max(c, grid) == pytest.approx(top, abs=1e-10)

    @pytest.mark.parametrize("dims,shapes", [((16,), [(2,), (4,), (1,)]),
                                             ((15,), [(3,), (2,)]),
                                             ((6, 8), [(2, 3), (3, 1), (1, 1)]),
                                             ((5, 7), [(3, 2), (2, 3)])])
    @pytest.mark.parametrize("pad_to", ["taps", "grid"])
    def test_filter_bank_equals_each_filter_bitwise(self, dims, shapes, pad_to):
        """One FFT of a bank of mixed filter shapes, zero-padded to their
        common extents or to the grid and stacked, gives each filter's own
        symbol bit for bit."""
        rng = np.random.default_rng(11)
        grid = Grid(dims)
        filters = [rng.standard_normal(shape) for shape in shapes]
        extents = dims if pad_to == "grid" else tuple(np.max(shapes, axis=0))
        bank = np.zeros((len(filters),) + extents)
        for row, c in zip(bank, filters):
            row[tuple(slice(0, n) for n in c.shape)] = c
        powers = filter_power(bank, grid)
        assert powers.shape == (len(filters),) + dims[:-1] + (dims[-1] // 2 + 1,)
        for power, c in zip(powers, filters):
            np.testing.assert_array_equal(power, filter_power(c, grid))

    def test_filter_bank_that_does_not_fit_is_rejected(self):
        with pytest.raises(DimensionError, match=r"filter extents \(2, 5\) exceed"):
            filter_power(np.ones((3, 2, 5)), Grid((4, 4)))

    @pytest.mark.parametrize("dims,taps", [((16,), (4,)), ((15,), (4,)),
                                           ((6, 8), (2, 3)), ((5, 7), (3, 2))])
    def test_half_grid_holds_the_full_grid_extremes(self, dims, taps):
        """The rfft half grid holds the largest and the smallest value of
        |c^|^2 over every grid frequency, for odd and even extents."""
        c = np.random.default_rng(10).standard_normal(taps)
        padded = np.zeros(dims)
        padded[tuple(slice(0, t) for t in taps)] = c
        full = np.abs(np.fft.fftn(padded)) ** 2
        power = filter_power(c, Grid(dims))
        assert power.shape == dims[:-1] + (dims[-1] // 2 + 1,)
        # equal up to the FFTs' rounding, which differs between rfftn and fftn
        tol = 1e-13 * np.max(full)
        assert np.max(power) == pytest.approx(np.max(full), abs=tol)
        assert np.min(power) == pytest.approx(np.min(full), abs=tol)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=7),
)
def test_conv_matches_reference_property(taps, shift):
    c = np.asarray(taps)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(8)
    np.testing.assert_allclose(
        circ_conv(np.roll(x, shift), c),
        conv_reference(np.roll(x, shift), c),
        rtol=1e-12, atol=1e-12,
    )


# Values include signed zeros, so the sign of a zero sum is checked too.
_values = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-10, 10)


@st.composite
def grid_and_filter(draw):
    rank = draw(st.integers(1, 2))
    dims = tuple(draw(st.integers(1, 6)) for _ in range(rank))
    # filter extents up to the grid's own, so 1x1, rectangular and full-grid
    # filters all occur
    taps = tuple(draw(st.integers(1, d)) for d in dims)
    x = draw(st.lists(_values, min_size=int(np.prod(dims)),
                      max_size=int(np.prod(dims))))
    c = draw(st.lists(_values, min_size=int(np.prod(taps)),
                      max_size=int(np.prod(taps))))
    return np.reshape(x, dims), np.reshape(c, taps)


def assert_bit_equal(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=200, deadline=None)
@given(grid_and_filter())
def test_conv_is_bit_identical_to_the_roll_loop(case):
    x, c = case
    assert_bit_equal(circ_conv(x, c), roll_conv(x, c, 1))
    assert_bit_equal(circ_conv_adjoint(x, c), roll_conv(x, c, -1))


@pytest.mark.parametrize("dims,taps", [
    ((7,), (1,)), ((7,), (7,)), ((32,), (2,)), ((1, 1), (1, 1)),
    ((5, 6), (2, 3)), ((5, 6), (5, 6)), ((32, 32), (3, 3)),
])
def test_conv_is_bit_identical_on_fixed_shapes(dims, taps):
    rng = np.random.default_rng(12)
    x = rng.standard_normal(dims)
    c = rng.standard_normal(taps)
    assert_bit_equal(circ_conv(x, c), roll_conv(x, c, 1))
    assert_bit_equal(circ_conv_adjoint(x, c), roll_conv(x, c, -1))


def test_shift_index_is_read_only():
    x = np.arange(12.0).reshape(3, 4)
    circ_conv(x, np.ones((2, 3)))
    for sign in (1, -1):
        index = signals._shift_index((2, 3), (3, 4), sign)
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0] = 1


@pytest.mark.parametrize("grid, taps", [((7,), (2,)), ((4, 5), (2, 3))])
def test_stack_index_is_a_contiguous_slice_of_the_largest(grid, taps):
    """A stack's index under lifted taps is a contiguous, read-only copy of
    the leading rows of the largest stack's index, equal to an index built
    for its own shape; only a stack larger than any before builds one."""
    signals._shift_index.cache_clear()
    signals._stack_slot.cache_clear()
    x = np.random.default_rng(14).standard_normal((5,) + grid)
    c = np.ones((1,) + taps)
    for sign in (1, -1):
        for rows in (5, 3, 1, 4):
            index = signals._shift_index(c.shape, (rows,) + grid, sign)
            assert index.flags.c_contiguous and not index.flags.writeable
            np.testing.assert_array_equal(index, signals._gather_index(
                (rows,) + grid, [(0,) + tuple(sign * k for k in s) for s in np.ndindex(taps)]))
        assert signals._stack_slot(c.shape, grid, sign)[0].shape[1] == 5 * int(np.prod(grid))
    for rows in (5, 3, 1):
        assert_bit_equal(circ_conv(x[:rows], c), roll_conv(x[:rows], c, 1))
        assert_bit_equal(circ_conv_adjoint(x[:rows], c), roll_conv(x[:rows], c, -1))


@pytest.mark.parametrize("dims, taps, message", [
    ((3,), (4,), "filter extents (4,) exceed grid extents (3,)"),
    ((3, 3), (2,), "filter rank 1 does not match grid rank 2"),
    ((2, 4), (1, 3, 1), "filter rank 3 does not match grid rank 2"),
])
def test_bad_filter_raises_the_same_message_on_every_call(dims, taps, message):
    """The fit is checked inside the cached shift index, and a cache keeps
    no exception: every call with a bad shape pair raises, not the first only."""
    x = np.zeros(dims)
    for _ in range(2):
        for call in (lambda: circ_conv(x, np.ones(taps)),
                     lambda: circ_conv_adjoint(x, np.ones(taps)),
                     lambda: shifted(x, taps, 1)):
            with pytest.raises(DimensionError) as err:
                call()
            assert str(err.value) == message


class TestShifted:
    @pytest.mark.parametrize("dims,taps", [((6,), (3,)), ((4, 5), (2, 3))])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_entries_are_circshifts(self, dims, taps, sign):
        x = np.random.default_rng(13).standard_normal(dims)
        rows = shifted(x, taps, sign)
        assert rows.shape == (int(np.prod(taps)),) + dims
        for row, s in zip(rows, np.ndindex(taps)):
            np.testing.assert_array_equal(row, circshift(x, [sign * k for k in s]))

    def test_rejects_bad_sign_and_shape(self):
        with pytest.raises(ValueError):
            shifted(np.zeros(4), (2,), 2)
        with pytest.raises(DimensionError):
            shifted(np.zeros(4), (5,), 1)
        with pytest.raises(DimensionError):
            shifted(np.zeros(4), (1, 1), 1)


def _roll_uses(tree):
    """Lines of ``np.roll``/``numpy.roll`` uses and ``from numpy import roll``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "roll"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            yield node.lineno
        if (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                and any(alias.name == "roll" for alias in node.names)):
            yield node.lineno


def test_shift_convention_is_coded_only_in_signals():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = {name: list(_roll_uses(tree)) for name, tree in trees.items()}
    shift = next(node for node in ast.walk(trees["signals.py"])
                 if isinstance(node, ast.FunctionDef) and node.name == "circshift")
    lines = found.pop("signals.py")
    assert len(lines) == 1 and shift.lineno <= lines[0] <= shift.end_lineno, (
        f"signals.py must use np.roll once, inside circshift; it does on lines {lines}"
    )
    elsewhere = {name: lines for name, lines in found.items() if lines}
    assert not elsewhere, f"np.roll outside signals.py: {elsewhere}"


SPECTRUM_HOMES = {("signals.py", "Grid.fourier_multiply"), ("signals.py", "filter_power")}


def _is_dft(node) -> bool:
    """A use of ``np.fft``/``numpy.fft``, an import of it, or an imaginary
    literal, which a DFT written out as a sum of exponentials needs."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "fft" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.ImportFrom):
        return node.module == "numpy.fft" or (
            node.module == "numpy" and any(alias.name == "fft" for alias in node.names))
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.fft") for alias in node.names)
    return isinstance(node, ast.Constant) and isinstance(node.value, complex)


def _dft_uses(node, scope=""):
    """(enclosing qualified name, line) of every ``_is_dft`` node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _dft_uses(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        if _is_dft(child):
            yield scope, child.lineno
        yield from _dft_uses(child, scope)


def test_filter_dft_is_coded_only_in_filter_power():
    """A filter's DFT is taken in ``filter_power`` alone, and the only other
    FFT is ``Grid.fourier_multiply``, which applies such a symbol."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for scope, line in _dft_uses(ast.parse(path.read_text())):
            found.setdefault((path.name, scope), []).append(line)
    missing = SPECTRUM_HOMES - set(found)
    assert not missing, f"the check no longer sees these FFTs: {missing}"
    elsewhere = {key: lines for key, lines in found.items() if key not in SPECTRUM_HOMES}
    assert not elsewhere, f"a DFT outside filter_power and fourier_multiply: {elsewhere}"
