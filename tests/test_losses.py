import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bilevelreg.losses as losses
from bilevelreg.errors import ConfigError
from bilevelreg.forward import Identity, Mask
from bilevelreg.losses import (
    DiscrepancyLoss,
    HuberLoss,
    MSELoss,
    NoiseCorridorLoss,
    SureMCLoss,
    bind_loss,
    loss_value_grad,
    metrics,
    sure_mc,
)
from bilevelreg.signals import Grid


GRID = Grid((8,))
A = Identity(GRID)


def fd_check(spec, xhat, y, x_true=None, h=1e-6, rel=1e-6):
    rng = np.random.default_rng(0)
    _, grad = loss_value_grad(spec, xhat, y, A, x_true)
    for _ in range(10):
        d = rng.standard_normal(xhat.shape)
        d /= np.linalg.norm(d)
        vp = loss_value_grad(spec, xhat + h * d, y, A, x_true)[0]
        vm = loss_value_grad(spec, xhat - h * d, y, A, x_true)[0]
        fd = (vp - vm) / (2 * h)
        assert abs(fd - np.vdot(grad, d)) <= rel * max(abs(fd), 1.0)


class TestValueGrad:
    def test_mse_at_reference(self):
        x = np.arange(8.0)
        value, grad = loss_value_grad(MSELoss(), x, x, A, x_true=x)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros(8))

    def test_mse_requires_reference(self):
        with pytest.raises(ValueError):
            loss_value_grad(MSELoss(), np.zeros(8), np.zeros(8), A)

    def test_discrepancy_zero_at_noise_level(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(8)
        xhat = np.zeros(8)
        sigma = float(np.linalg.norm(y) / np.sqrt(8))
        value, _ = loss_value_grad(DiscrepancyLoss(sigma), xhat, y, A)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_corridor_vanishes_inside(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(8)
        xhat = y + 0.1  # residual power 0.01 everywhere
        spec = NoiseCorridorLoss(var_low=0.005, var_high=0.02)
        value, grad = loss_value_grad(spec, xhat, y, A)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros(8))

    def test_supervised_gradients_match_fd(self):
        rng = np.random.default_rng(3)
        x_true = rng.standard_normal(8)
        y = x_true + 0.2 * rng.standard_normal(8)
        xhat = y + 0.3 * rng.standard_normal(8)
        fd_check(MSELoss(), xhat, y, x_true)
        fd_check(HuberLoss(0.05), xhat, y, x_true)

    def test_unsupervised_gradients_match_fd(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(8)
        xhat = y + 0.5 * rng.standard_normal(8)
        fd_check(DiscrepancyLoss(0.3), xhat, y)
        fd_check(NoiseCorridorLoss(0.01, 0.04), xhat, y)

    def test_corridor_gradient_with_mask_and_weights(self):
        rng = np.random.default_rng(5)
        grid = Grid((8,))
        mask = Mask(grid, [1, 1, 0, 1, 0, 1, 1, 1])
        y = rng.standard_normal(8)
        xhat = y + 0.5 * rng.standard_normal(8)
        spec = NoiseCorridorLoss(0.01, 0.04, weights=rng.uniform(0.5, 2.0, 8))
        _, grad = loss_value_grad(spec, xhat, y, mask)
        h = 1e-6
        for _ in range(5):
            d = rng.standard_normal(8)
            d /= np.linalg.norm(d)
            vp = loss_value_grad(spec, xhat + h * d, y, mask)[0]
            vm = loss_value_grad(spec, xhat - h * d, y, mask)[0]
            fd = (vp - vm) / (2 * h)
            assert abs(fd - np.vdot(grad, d)) <= 1e-6 * max(abs(fd), 1.0)

    def test_huber_ranks_like_mse_when_smooth(self):
        # with eps far above the residual scale, huber ordering matches mse
        rng = np.random.default_rng(6)
        x_true = rng.standard_normal(8)
        spec = HuberLoss(100.0)
        for _ in range(20):
            a = x_true + 0.1 * rng.standard_normal(8)
            b = x_true + 0.1 * rng.standard_normal(8)
            mse_order = (
                loss_value_grad(MSELoss(), a, a, A, x_true)[0]
                < loss_value_grad(MSELoss(), b, b, A, x_true)[0]
            )
            hub_order = (
                loss_value_grad(spec, a, a, A, x_true)[0]
                < loss_value_grad(spec, b, b, A, x_true)[0]
            )
            assert mse_order == hub_order

    def test_sure_spec_is_rejected(self):
        spec = SureMCLoss(sigma=0.1, n_probes=2, seed=0)
        with pytest.raises(ConfigError, match="loss kind 'sure-mc' is value-only"):
            bind_loss(spec, np.zeros(8), A)
        with pytest.raises(TypeError, match=r"SureMCLoss\(sigma=0\.1"):
            loss_value_grad(spec, np.zeros(8), np.zeros(8), A)


class TestSureMC:
    def test_identity_denoiser_recovers_sigma_squared(self):
        rng = np.random.default_rng(7)
        sigma = 0.2
        y = rng.standard_normal(4096) * sigma
        est = sure_mc(lambda yy: yy, y[np.newaxis], sigma, n_probes=100, seed=1)[0]
        # residual term vanishes and b'b = N exactly for Rademacher probes
        assert est == pytest.approx(sigma**2, rel=1e-12)

    def test_zero_denoiser_concentrates_near_zero(self):
        rng = np.random.default_rng(8)
        sigma = 0.3
        y = sigma * rng.standard_normal(4096)
        est = sure_mc(lambda yy: np.zeros_like(yy), y[np.newaxis], sigma,
                      n_probes=10, seed=2)[0]
        assert abs(est) <= 0.05 * sigma**2

    def test_divergence_matches_trace(self):
        # unbiased estimator; tolerance holds for the pinned probe seed
        rng = np.random.default_rng(9)
        n = 16
        w = rng.standard_normal((n, n))
        y = rng.standard_normal(n)
        sigma = 1.0
        est = sure_mc(lambda yy: yy @ w.T, y[np.newaxis], sigma, n_probes=2000,
                      seed=0)[0]
        # back out the divergence estimate from the returned value
        r = y - w @ y
        div_est = (est - float(r @ r) / n + sigma**2) * n / (2 * sigma**2)
        assert div_est == pytest.approx(np.trace(w), rel=0.05)

    def test_one_stacked_call_equals_a_call_per_probe(self):
        # the probes drawn in order, the denoiser called once on the stack
        # [y, y + eps b_1, ...], and the formula of one call per probe
        rng = np.random.default_rng(11)
        y = rng.standard_normal(24)
        calls = []

        def denoiser(yy):
            calls.append(yy.shape)
            return np.tanh(yy) * 0.7

        est = sure_mc(denoiser, y[np.newaxis], 0.3, n_probes=3, seed=5)[0]
        assert calls == [(4, 24)]
        probes = np.random.Generator(np.random.PCG64(5))
        eps = 1e-3 * float(np.linalg.norm(y)) / np.sqrt(y.size)
        x_base = np.tanh(y) * 0.7
        div = 0.0
        for _ in range(3):
            b = probes.integers(0, 2, size=y.shape).astype(np.float64) * 2.0 - 1.0
            div += float(np.vdot(b, np.tanh(y + eps * b) * 0.7 - x_base)) / eps
        r = y - x_base
        assert est == float(np.vdot(r, r)) / y.size - 0.3**2 + (
            2.0 * 0.3**2 / y.size) * (div / 3)

        # a stack equals one call per row, bit for bit, from one call on
        # [Y, Y + eps b_1, ...]; its zero row takes eps 1e-3
        Y = np.stack([y, np.zeros_like(y), -2.0 * y])
        inputs = []

        def recording(yy):
            inputs.append(yy)
            return np.tanh(yy) * 0.7

        stacked = sure_mc(recording, Y, 0.3, n_probes=3, seed=5)
        assert [yy.shape for yy in inputs] == [(12, 24)]
        assert stacked == [sure_mc(denoiser, row[np.newaxis], 0.3, n_probes=3,
                                   seed=5)[0] for row in Y]
        rng = np.random.Generator(np.random.PCG64(5))
        b_1 = rng.integers(0, 2, size=24) * 2.0 - 1.0
        np.testing.assert_array_equal(inputs[0][4], 1e-3 * b_1)

    def test_probe_statistics(self):
        # Rademacher probes have unit variance by construction; check the
        # divergence of a diagonal map matches the diagonal sum tightly
        rng = np.random.default_rng(10)
        n = 1000
        d = rng.uniform(0.5, 1.5, n)
        y = rng.standard_normal(n)
        est = sure_mc(lambda yy: d * yy, y[np.newaxis], 1.0, n_probes=100,
                      seed=4)[0]
        r = y - d * y
        div_est = (est - float(r @ r) / n + 1.0) * n / 2.0
        assert div_est == pytest.approx(np.sum(d), rel=0.02)


class TestMetrics:
    def test_exact_match_sentinels(self):
        x = np.arange(4.0)
        m = metrics(x, x)
        assert m.mse == 0.0 and m.mae == 0.0
        assert np.isinf(m.snr_db) and np.isinf(m.psnr_db)

    def test_hand_computed_example(self):
        x_true = np.ones(4)
        xhat = np.array([1.0, 1.0, 1.0, 0.0])
        m = metrics(xhat, x_true)
        assert m.mse == pytest.approx(0.25)
        assert m.mae == pytest.approx(0.25)
        assert m.snr_db == pytest.approx(10 * np.log10(4.0), abs=1e-4)
        assert m.psnr_db == pytest.approx(10 * np.log10(4.0), abs=1e-4)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(11)
        x_true = rng.standard_normal(16)
        xhat = x_true + rng.standard_normal(16) * 0.1
        m1 = metrics(xhat, x_true)
        m2 = metrics(2 * xhat, 2 * x_true)
        assert m2.snr_db == pytest.approx(m1.snr_db, rel=1e-12)
        assert m2.mse == pytest.approx(4 * m1.mse, rel=1e-12)

    def test_mse_loss_metric_convention(self):
        rng = np.random.default_rng(12)
        x_true = rng.standard_normal(10)
        xhat = x_true + rng.standard_normal(10)
        value, _ = loss_value_grad(MSELoss(), xhat, xhat, A_ := Identity(Grid((10,))),
                                   x_true=x_true)
        assert value == pytest.approx(10 / 2 * metrics(xhat, x_true).mse, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 10.0))
def test_metric_scale_invariance_property(scale):
    rng = np.random.default_rng(13)
    x_true = rng.standard_normal(12) + 2.0
    xhat = x_true + 0.3
    base = metrics(xhat, x_true)
    scaled = metrics(scale * xhat, scale * x_true)
    assert scaled.snr_db == pytest.approx(base.snr_db, rel=1e-9)
    assert scaled.psnr_db == pytest.approx(base.psnr_db, rel=1e-9)


SRC = Path(losses.__file__).resolve().parent
SURE_FILES = {"losses.py", "data.py", "__init__.py"}


def _sure_names(node, scope=""):
    """(enclosing qualified name, line, is_import) of every SureMCLoss name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _sure_names(
                child, f"{scope}.{child.name}" if scope else child.name
            )
            continue
        if ((isinstance(child, ast.Name) and child.id == "SureMCLoss")
                or (isinstance(child, ast.Attribute) and child.attr == "SureMCLoss")):
            yield scope, child.lineno, False
        if (isinstance(child, ast.ImportFrom)
                and any(alias.name == "SureMCLoss" for alias in child.names)):
            yield scope, child.lineno, True
        yield from _sure_names(child, scope)


def test_sure_is_decided_only_in_bind_loss_and_evaluate_upper():
    # bind_loss rejects SURE for every hypergradient driver, and only
    # evaluate_upper, which owns the denoiser, computes it; upper.py may
    # import the name for that one use
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for scope, line, is_import in _sure_names(ast.parse(path.read_text())):
            found.setdefault((path.name, scope, is_import), []).append(line)
    assert ("upper.py", "evaluate_upper", False) in found, (
        "the check no longer sees evaluate_upper's use"
    )
    elsewhere = {
        key: lines for key, lines in found.items()
        if key[0] not in SURE_FILES
        and key[:2] != ("upper.py", "evaluate_upper")
        and key != ("upper.py", "", True)
    }
    assert not elsewhere, f"SureMCLoss named outside its homes: {elsewhere}"
