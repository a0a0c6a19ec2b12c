"""Upper-level losses (value + x-gradient) and evaluation metrics.

Supervised losses compare the reconstruction against a reference image;
unsupervised ones use only the measurements and the known noise level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .forward import ForwardModel
from .hypergrad import UpperLoss
from .potentials import CornerRounded1Norm


@dataclass(frozen=True)
class MSELoss:
    """Half the squared error against the reference image."""


@dataclass(frozen=True)
class HuberLoss:
    """Smoothed absolute-error loss: sum of sqrt(d_i^2 + eps^2) over residuals."""

    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("huber epsilon must be positive")


@dataclass(frozen=True)
class DiscrepancyLoss:
    """Squared gap between measurement-residual power and the noise variance."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class NoiseCorridorLoss:
    """Penalty on weighted squared residuals outside [var_low, var_high]."""

    var_low: float
    var_high: float
    weights: np.ndarray | None = None

    def __post_init__(self):
        if not 0 <= self.var_low <= self.var_high:
            raise ValueError("corridor bounds must satisfy 0 <= low <= high")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if np.any(w < 0):
                raise ValueError("corridor weights must be nonnegative")
            object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class SureMCLoss:
    """Monte-Carlo SURE estimate of the denoising MSE; value only."""

    sigma: float
    probe_eps: float | None = None
    n_probes: int = 1
    seed: int = 0

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.probe_eps is not None and not self.probe_eps > 0:
            raise ValueError("probe_eps must be positive")
        if self.n_probes < 1:
            raise ValueError("n_probes must be >= 1")


LossSpec = MSELoss | HuberLoss | DiscrepancyLoss | NoiseCorridorLoss | SureMCLoss


def loss_value_grad(
    spec: LossSpec,
    xhat: np.ndarray,
    y: np.ndarray,
    A: ForwardModel,
    x_true: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Loss value and its gradient w.r.t. the reconstruction.

    Supervised variants require ``x_true``.  Monte-Carlo SURE is a function
    of the denoiser, not of one reconstruction, so it is rejected here; it is
    computed by ``sure_mc``.
    """
    if isinstance(spec, MSELoss):
        if x_true is None:
            raise ValueError("mse loss requires a reference image")
        d = xhat - x_true
        return 0.5 * float(np.vdot(d, d)), d
    if isinstance(spec, HuberLoss):
        if x_true is None:
            raise ValueError("huber loss requires a reference image")
        pot = CornerRounded1Norm(spec.epsilon)
        d = xhat - x_true
        return float(np.sum(pot.phi(d))), pot.dphi(d)
    if isinstance(spec, DiscrepancyLoss):
        r = A.apply(xhat) - y
        n = r.size
        gap = float(np.vdot(r, r)) / n - spec.sigma**2
        grad = (4.0 * gap / n) * A.adjoint(r)
        return gap**2, grad
    if isinstance(spec, NoiseCorridorLoss):
        r = A.apply(xhat) - y
        w = spec.weights if spec.weights is not None else np.ones_like(r)
        p = w * r * r
        over = np.maximum(p - spec.var_high, 0.0)
        under = np.minimum(p - spec.var_low, 0.0)
        value = 0.5 * float(np.sum(over**2 + under**2))
        grad = A.adjoint((over + under) * 2.0 * w * r)
        return value, grad
    raise TypeError(f"loss spec {spec!r} is not a function of one reconstruction")


def bind_loss(
    spec: LossSpec,
    y: np.ndarray,
    A: ForwardModel,
    x_true: np.ndarray | None = None,
) -> UpperLoss:
    """Close a loss spec over one sample, yielding value/grad callbacks.

    The one place that decides whether a loss can drive hypergradient steps:
    value-only losses raise ConfigError here, before any solve.
    """
    if isinstance(spec, SureMCLoss):
        raise ConfigError(
            "loss kind 'sure-mc' is value-only and cannot drive "
            "hypergradient steps; use it with evaluate_upper or a grid search"
        )

    def value(x):
        return loss_value_grad(spec, x, y, A, x_true)[0]

    def grad(x):
        return loss_value_grad(spec, x, y, A, x_true)[1]

    return UpperLoss(value=value, grad_x=grad)


def sure_mc(
    denoiser: Callable[[np.ndarray], np.ndarray],
    Y: np.ndarray,
    sigma: float,
    probe_eps: float | None = None,
    n_probes: int = 1,
    seed: int = 0,
) -> list[float]:
    """Monte-Carlo SURE of each row y of the stack ``Y``, shaped ``(S, *grid)``:
    residual power - sigma^2 + (2 sigma^2 / N) div.

    The divergence of the denoiser is probed with Rademacher vectors b:
    div ~ b' (xhat(y + eps b) - xhat(y)) / eps, averaged over probes.  The
    probes are drawn once from ``seed`` and shared by every row; each row
    takes its own eps, ``probe_eps`` or 1e-3 ||y|| / sqrt(N) (1e-3 for a
    zero row).  The denoiser is called once, on the ``S (1 + P)``-row stack
    ``[Y, Y + eps b_1, ...]``, and returns one reconstruction per row.  One
    signal is the stack ``y[np.newaxis]``.
    """
    n = Y[0].size
    # a zero row's derived eps, 0, falls back to 1e-3
    eps = [probe_eps] * len(Y) if probe_eps is not None else [
        1e-3 * float(np.linalg.norm(y)) / np.sqrt(n) or 1e-3 for y in Y]
    rng = np.random.Generator(np.random.PCG64(seed))
    probes = [rng.integers(0, 2, size=Y.shape[1:]).astype(np.float64) * 2.0 - 1.0
              for _ in range(n_probes)]
    eps_col = np.reshape(eps, (-1,) + (1,) * (Y.ndim - 1))
    xs = denoiser(np.concatenate([Y] + [Y + eps_col * b for b in probes]))
    x_base, *x_probes = np.split(xs, 1 + n_probes)
    values = []
    for j, (y, e) in enumerate(zip(Y, eps)):
        div = sum(float(np.vdot(b, x_probe[j] - x_base[j])) / e
                  for b, x_probe in zip(probes, x_probes)) / n_probes
        r = y - x_base[j]
        values.append(float(np.vdot(r, r)) / n - sigma**2 + (2.0 * sigma**2 / n) * div)
    return values


class Metrics(NamedTuple):
    mse: float
    mae: float
    snr_db: float
    psnr_db: float


def metrics(xhat: np.ndarray, x_true: np.ndarray) -> Metrics:
    """Per-pixel MSE/MAE and SNR/PSNR in dB (squared-peak PSNR convention)."""
    if xhat.shape != x_true.shape:
        raise ValueError(
            f"shape mismatch: estimate {xhat.shape} vs reference {x_true.shape}"
        )
    d = xhat - x_true
    n = d.size
    err_power = float(np.vdot(d, d))
    mse = err_power / n
    mae = float(np.sum(np.abs(d))) / n
    if err_power == 0.0:
        return Metrics(mse=0.0, mae=mae, snr_db=np.inf, psnr_db=np.inf)
    snr = 10.0 * np.log10(float(np.vdot(x_true, x_true)) / err_power)
    peak = float(np.max(np.abs(x_true)))
    psnr = 10.0 * np.log10(n * peak**2 / err_power)
    return Metrics(mse=mse, mae=mae, snr_db=float(snr), psnr_db=float(psnr))
