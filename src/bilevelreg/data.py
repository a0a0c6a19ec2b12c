"""Synthetic data, noise injection, file formats, and experiment configs.

File formats
------------
Signal files: four text header lines (magic, rank, extents, count) followed
by the raw little-endian float64 payload in row-major order; round trips are
bit-exact.  Parameter files: JSON with an explicit schema version and the
frozen theta layout tag; floats rely on shortest-round-trip repr so loading
reproduces the values exactly.

All randomness uses numpy's PCG64 bit generator behind explicit seeds; there
is no global RNG state anywhere in the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .forward import Circulant, ForwardModel, Identity, Mask
from .losses import (
    DiscrepancyLoss,
    HuberLoss,
    LossSpec,
    MSELoss,
    NoiseCorridorLoss,
    SureMCLoss,
)
from .lower import THETA_LAYOUT, HyperParams
from .potentials import CornerRounded1Norm, Potential, Quadratic
from .signals import Grid
from .solvers import GDConfig
from .upper import TrainSet

SIGNAL_MAGIC = "BLVL-SIG v1"
PARAMS_SCHEMA_VERSION = 1


def gen_piecewise_constant(
    grid: Grid, n_jumps: int, amplitude: tuple[float, float], seed: int
) -> np.ndarray:
    """Seeded piecewise-constant signal: 1-D level segments or 2-D blocks.

    In 1-D the non-circular first difference is nonzero in exactly n_jumps
    positions (the wrap-around difference is unconstrained).
    """
    if n_jumps < 0:
        raise ValueError("n_jumps must be >= 0")
    if n_jumps >= grid.n:
        raise ValueError(f"n_jumps {n_jumps} must be < grid size {grid.n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    lo, hi = float(amplitude[0]), float(amplitude[1])

    def draw_levels(count):
        levels = rng.uniform(lo, hi, size=count)
        # adjacent equal levels would hide a jump; a.s. impossible for lo<hi
        for i in range(1, count):
            while levels[i] == levels[i - 1]:
                levels[i] = rng.uniform(lo, hi)
        return levels

    if grid.rank == 1:
        n = grid.dims[0]
        if n_jumps > 0:
            cuts = np.sort(rng.choice(np.arange(1, n), size=n_jumps, replace=False))
        else:
            cuts = np.array([], dtype=int)
        levels = draw_levels(n_jumps + 1)
        x = np.empty(n)
        bounds = np.concatenate(([0], cuts, [n]))
        for i in range(len(bounds) - 1):
            x[bounds[i] : bounds[i + 1]] = levels[i]
        return x

    rows, cols = grid.dims
    cuts_r = (
        np.sort(rng.choice(np.arange(1, rows), size=min(n_jumps, rows - 1),
                           replace=False))
        if n_jumps > 0 and rows > 1
        else np.array([], dtype=int)
    )
    cuts_c = (
        np.sort(rng.choice(np.arange(1, cols), size=min(n_jumps, cols - 1),
                           replace=False))
        if n_jumps > 0 and cols > 1
        else np.array([], dtype=int)
    )
    x = np.empty(grid.dims)
    bounds_r = np.concatenate(([0], cuts_r, [rows]))
    bounds_c = np.concatenate(([0], cuts_c, [cols]))
    for i in range(len(bounds_r) - 1):
        for j in range(len(bounds_c) - 1):
            x[bounds_r[i] : bounds_r[i + 1], bounds_c[j] : bounds_c[j + 1]] = (
                rng.uniform(lo, hi)
            )
    return x


def add_noise(x: np.ndarray, A: ForwardModel, sigma: float, seed: int) -> np.ndarray:
    """y = A x + n with seeded i.i.d. Gaussian noise of standard deviation sigma."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    y = A.apply(x)
    if sigma > 0:
        rng = np.random.Generator(np.random.PCG64(seed))
        y = y + sigma * rng.standard_normal(y.shape)
    return y


def save_signal(path, x: np.ndarray) -> None:
    x = np.asarray(x, dtype=np.float64)
    header = (
        f"{SIGNAL_MAGIC}\n"
        f"rank {x.ndim}\n"
        f"extents {' '.join(str(d) for d in x.shape)}\n"
        f"count {x.size}\n"
    )
    payload = np.ascontiguousarray(x, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def load_signal(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    offset = 0
    fields = {}
    for expect in ("magic", "rank", "extents", "count"):
        end = raw.find(b"\n", offset)
        if end < 0:
            raise FormatError(
                f"truncated signal header at byte {offset}: missing {expect} line"
            )
        line = raw[offset:end].decode("ascii", errors="replace")
        fields[expect] = line
        offset = end + 1
    if fields["magic"] != SIGNAL_MAGIC:
        raise FormatError(
            f"bad signal magic at byte 0: {fields['magic']!r} "
            f"(expected {SIGNAL_MAGIC!r})"
        )
    try:
        rank = int(fields["rank"].removeprefix("rank "))
        extents = tuple(
            int(t) for t in fields["extents"].removeprefix("extents ").split()
        )
        count = int(fields["count"].removeprefix("count "))
    except ValueError as exc:
        raise FormatError(f"unparsable signal header field: {exc}") from exc
    if rank not in (1, 2) or len(extents) != rank:
        raise FormatError(f"inconsistent rank {rank} and extents {extents}")
    if count != int(np.prod(extents)):
        raise FormatError(
            f"count {count} does not match product of extents {extents}"
        )
    expected = count * 8
    payload = raw[offset:]
    if len(payload) != expected:
        raise FormatError(
            f"truncated payload at byte {offset}: expected {expected} bytes, "
            f"got {len(payload)}"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(extents).copy()


def save_params(path, hp: HyperParams) -> None:
    pot = hp.potential
    doc = {
        "schema_version": PARAMS_SCHEMA_VERSION,
        "layout": THETA_LAYOUT,
        "beta0": hp.beta0,
        "learn_beta0": hp.learn_beta0,
        "betas": [float(b) for b in hp.betas],
        "potential": "cr1n" if isinstance(pot, CornerRounded1Norm) else "quadratic",
        "epsilon": pot.epsilon if isinstance(pot, CornerRounded1Norm) else None,
        "filters": [
            {"extents": list(c.shape), "taps": [float(t) for t in c.ravel()]}
            for c in hp.filters
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_params(path) -> HyperParams:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"params file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("params file must contain a JSON object")
    version = doc.get("schema_version")
    if version != PARAMS_SCHEMA_VERSION:
        raise FormatError(
            f"unsupported params schema version {version!r} "
            f"(this build reads version {PARAMS_SCHEMA_VERSION})"
        )
    if doc.get("layout") != THETA_LAYOUT:
        raise FormatError(
            f"unsupported theta layout {doc.get('layout')!r} "
            f"(expected {THETA_LAYOUT!r})"
        )
    known = {
        "schema_version", "layout", "beta0", "learn_beta0", "betas",
        "potential", "epsilon", "filters",
    }
    unknown = set(doc) - known
    if unknown:
        raise FormatError(f"unknown params key {sorted(unknown)[0]!r}")
    if doc["potential"] == "cr1n":
        potential = CornerRounded1Norm(doc["epsilon"])
    elif doc["potential"] == "quadratic":
        potential = Quadratic()
    else:
        raise FormatError(f"unknown potential {doc['potential']!r}")
    filters = [
        np.asarray(f["taps"], dtype=np.float64).reshape(f["extents"])
        for f in doc["filters"]
    ]
    return HyperParams(
        beta0=doc["beta0"],
        betas=np.asarray(doc["betas"], dtype=np.float64),
        filters=filters,
        potential=potential,
        learn_beta0=bool(doc["learn_beta0"]),
    )


_REQUIRED = object()


class _Section:
    """Dict wrapper that tracks consumed keys and rejects leftovers."""

    def __init__(self, name: str, data: dict):
        if not isinstance(data, dict):
            raise ConfigError(f"config section '{name}' must be an object")
        self.name = name
        self.data = dict(data)

    def take(self, key, default=_REQUIRED):
        if key in self.data:
            return self.data.pop(key)
        if default is _REQUIRED:
            where = f"{self.name}.{key}" if self.name else key
            raise ConfigError(f"missing config key '{where}'")
        return default

    def finish(self):
        if self.data:
            key = sorted(self.data)[0]
            where = f"{self.name}.{key}" if self.name else key
            raise ConfigError(f"unknown config key '{where}'")


def build_grid(spec) -> Grid:
    if not isinstance(spec, list) or not spec:
        raise ConfigError("config key 'grid' must be a list of extents")
    return Grid(tuple(int(d) for d in spec))


def build_forward(grid: Grid, spec: dict) -> ForwardModel:
    sec = _Section("forward", spec)
    kind = sec.take("kind")
    if kind == "identity":
        sec.finish()
        return Identity(grid)
    if kind == "mask":
        values = sec.take("values")
        sec.finish()
        return Mask(grid, np.asarray(values, dtype=np.float64))
    if kind == "circulant":
        taps = sec.take("taps")
        sec.finish()
        return Circulant(grid, np.asarray(taps, dtype=np.float64))
    raise ConfigError(f"unknown config value 'forward.kind' = {kind!r}")


def build_potential(spec: dict) -> Potential:
    sec = _Section("potential", spec)
    kind = sec.take("kind")
    if kind == "cr1n":
        eps = float(sec.take("epsilon", 0.01))
        sec.finish()
        return CornerRounded1Norm(eps)
    if kind == "quadratic":
        sec.finish()
        return Quadratic()
    raise ConfigError(f"unknown config value 'potential.kind' = {kind!r}")


def build_loss(spec: dict) -> LossSpec:
    sec = _Section("loss", spec)
    kind = sec.take("kind")
    if kind == "mse":
        sec.finish()
        return MSELoss()
    if kind == "huber":
        eps = float(sec.take("epsilon"))
        sec.finish()
        return HuberLoss(eps)
    if kind == "discrepancy":
        sigma = float(sec.take("sigma"))
        sec.finish()
        return DiscrepancyLoss(sigma)
    if kind == "noise-corridor":
        low = float(sec.take("var_low"))
        high = float(sec.take("var_high"))
        weights = sec.take("weights", None)
        sec.finish()
        return NoiseCorridorLoss(
            low, high,
            None if weights is None else np.asarray(weights, dtype=np.float64),
        )
    if kind == "sure-mc":
        sigma = float(sec.take("sigma"))
        probe_eps = sec.take("probe_eps", None)
        n_probes = int(sec.take("n_probes", 1))
        seed = int(sec.take("seed", 0))
        sec.finish()
        return SureMCLoss(
            sigma,
            None if probe_eps is None else float(probe_eps),
            n_probes,
            seed,
        )
    raise ConfigError(f"unknown config value 'loss.kind' = {kind!r}")


def build_solver(spec: dict, grid: Grid) -> GDConfig:
    sec = _Section("solver", spec)
    step = sec.take("step", "one-over-L")
    max_iters = int(sec.take("max_iters", 2000))
    grad_tol = sec.take("grad_tol", None)
    warm_start = bool(sec.take("warm_start", True))
    sec.finish()
    if grad_tol is None:
        # default stop for unit-scale signals
        grad_tol = 1e-6 * np.sqrt(grid.n)
    return GDConfig(
        step=step if isinstance(step, str) else float(step),
        max_iters=max_iters,
        grad_tol=float(grad_tol),
        warm_start=warm_start,
    )


@dataclass
class DatasetSpec:
    generator: str
    count: int
    n_jumps: int
    amplitude: tuple[float, float]
    noise_sigma: float
    seed: int
    realizations_per_image: int = 1


def build_dataset_spec(spec: dict) -> DatasetSpec:
    sec = _Section("dataset", spec)
    generator = sec.take("generator", "piecewise-constant")
    if generator != "piecewise-constant":
        raise ConfigError(
            f"unknown config value 'dataset.generator' = {generator!r}"
        )
    count = int(sec.take("count"))
    n_jumps = int(sec.take("n_jumps", 4))
    amplitude = sec.take("amplitude", [0.0, 1.0])
    noise_sigma = float(sec.take("noise_sigma"))
    seed = int(sec.take("seed"))
    realizations = int(sec.take("realizations_per_image", 1))
    sec.finish()
    if count < 1 or realizations < 1:
        raise ConfigError("dataset.count and realizations_per_image must be >= 1")
    return DatasetSpec(
        generator=generator,
        count=count,
        n_jumps=n_jumps,
        amplitude=(float(amplitude[0]), float(amplitude[1])),
        noise_sigma=noise_sigma,
        seed=seed,
        realizations_per_image=realizations,
    )


def build_train_set(ds: DatasetSpec, grid: Grid, A: ForwardModel) -> TrainSet:
    """Generate the seeded dataset: one clean image per sub-seed, with one or
    more noise realizations each (disjoint noise sub-seeds)."""
    x_true, ys = [], []
    for i in range(ds.count):
        x = gen_piecewise_constant(grid, ds.n_jumps, ds.amplitude, ds.seed + i)
        for r in range(ds.realizations_per_image):
            noise_seed = ds.seed + 10_000 + i * ds.realizations_per_image + r
            x_true.append(x)
            ys.append(add_noise(x, A, ds.noise_sigma, noise_seed))
    return TrainSet(x_true=x_true, y=ys, A=A)


def build_engine(spec: dict) -> dict:
    sec = _Section("engine", spec)
    kind = sec.take("kind", "minimizer")
    out = {"kind": kind}
    if kind == "minimizer":
        out["cg_tol"] = float(sec.take("cg_tol", 1e-10))
    elif kind in ("reverse", "forward"):
        out["unroll_steps"] = int(sec.take("unroll_steps"))
        out["unroll_step"] = float(sec.take("unroll_step"))
    else:
        raise ConfigError(f"unknown config value 'engine.kind' = {kind!r}")
    sec.finish()
    return out


def build_optimizer(spec: dict) -> dict:
    sec = _Section("optimizer", spec)
    kind = sec.take("kind")
    out = {
        "kind": kind,
        "max_upper": int(sec.take("max_upper", 100)),
    }
    if kind in ("adam", "gd"):
        out["step"] = float(sec.take("step", 0.05))
        out["theta_rel_tol"] = float(sec.take("theta_rel_tol", 0.01))
    elif kind == "hoag":
        out["eps0"] = float(sec.take("eps0", 0.1))
        out["step"] = sec.take("step", 0.1)
        out["theta_rel_tol"] = float(sec.take("theta_rel_tol", 0.01))
    elif kind == "ba":
        out["ss_upper"] = float(sec.take("ss_upper"))
        ss_lower = sec.take("ss_lower", "paper-default")
        positive = (isinstance(ss_lower, (int, float))
                    and not isinstance(ss_lower, bool) and ss_lower > 0)
        if ss_lower != "paper-default" and not positive:
            raise ConfigError(
                "config key 'optimizer.ss_lower' must be a positive number or "
                f"'paper-default', got {ss_lower!r}"
            )
        out["ss_lower"] = ss_lower if isinstance(ss_lower, str) else float(ss_lower)
        out["inner_iters"] = int(sec.take("inner_iters", 10))
        out["warm_start"] = bool(sec.take("warm_start", False))
        out["theta_rel_tol"] = float(sec.take("theta_rel_tol", 0.01))
    elif kind == "ttsa":
        out["up_a"] = float(sec.take("up_a", 0.1))
        out["up_exponent"] = float(sec.take("up_exponent", 0.75))
        out["low_a"] = float(sec.take("low_a", 0.5))
        out["low_exponent"] = float(sec.take("low_exponent", 0.5))
        out["batch"] = int(sec.take("batch", 4))
    else:
        raise ConfigError(f"unknown config value 'optimizer.kind' = {kind!r}")
    sec.finish()
    return out


def build_output(spec: dict) -> dict:
    sec = _Section("output", spec)
    out = {
        "params": sec.take("params", "params.json"),
        "trace": sec.take("trace", "trace.csv"),
        "report": sec.take("report", "gradcheck_report.txt"),
        "angles": sec.take("angles", "gradcheck_angles.csv"),
        "table": sec.take("table", "sweep.csv"),
    }
    sec.finish()
    return out


def build_sweep(spec: dict | None) -> dict | None:
    if spec is None:
        return None
    sec = _Section("sweep", spec)
    grid = [float(b) for b in sec.take("beta0_grid")]
    sec.finish()
    if not grid:
        raise ConfigError("config key 'sweep.beta0_grid' must be nonempty")
    return {"beta0_grid": grid}


def build_gradcheck(spec: dict | None) -> dict:
    sec = _Section("gradcheck", spec if spec is not None else {})
    out = {
        "tolerances": [
            float(t) for t in sec.take("tolerances", [1e-1, 1e-2, 1e-4, 1e-8])
        ],
        "fd_step": float(sec.take("fd_step", 1e-6)),
        "fd_rel_tol": float(sec.take("fd_rel_tol", 1e-4)),
        "unroll_steps": int(sec.take("unroll_steps", 50)),
    }
    sec.finish()
    return out


@dataclass
class ExperimentConfig:
    seed: int
    grid: Grid
    forward: ForwardModel
    potential: Potential
    theta_init: dict
    engine: dict
    optimizer: dict
    loss: LossSpec
    dataset: DatasetSpec
    solver: GDConfig
    output: dict
    sweep: dict | None = None
    gradcheck: dict | None = None


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    sec = _Section("", doc)
    seed = sec.take("seed")
    grid = build_grid(sec.take("grid"))
    forward = build_forward(grid, sec.take("forward", {"kind": "identity"}))
    potential = build_potential(sec.take("potential", {"kind": "cr1n"}))
    theta_init = sec.take("theta_init")
    engine = build_engine(sec.take("engine", {"kind": "minimizer"}))
    optimizer = build_optimizer(
        sec.take("optimizer", {"kind": "adam", "step": 0.05, "max_upper": 100})
    )
    loss = build_loss(sec.take("loss", {"kind": "mse"}))
    dataset = build_dataset_spec(sec.take("dataset"))
    solver = build_solver(sec.take("solver", {}), grid)
    output = build_output(sec.take("output", {}))
    sweep = build_sweep(sec.take("sweep", None))
    gradcheck = build_gradcheck(sec.take("gradcheck", None))
    sec.finish()
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("config key 'seed' must be an integer")
    if not isinstance(theta_init, dict):
        raise ConfigError("config section 'theta_init' must be an object")
    return ExperimentConfig(
        seed=seed,
        grid=grid,
        forward=forward,
        potential=potential,
        theta_init=theta_init,
        engine=engine,
        optimizer=optimizer,
        loss=loss,
        dataset=dataset,
        solver=solver,
        output=output,
        sweep=sweep,
        gradcheck=gradcheck,
    )


def build_theta(cfg: ExperimentConfig, train: TrainSet | None) -> HyperParams:
    from .upper import default_theta_init

    sec = _Section("theta_init", cfg.theta_init)
    learn_beta0 = bool(sec.take("learn_beta0", False))
    explicit_filters = sec.take("filters", None)
    if explicit_filters is not None:
        beta0 = float(sec.take("beta0", 0.0))
        betas = sec.take("betas", None)
        sec.finish()
        filters = [np.asarray(c, dtype=np.float64) for c in explicit_filters]
        if betas is None:
            betas = np.zeros(len(filters))
        return HyperParams(
            beta0=beta0,
            betas=np.asarray(betas, dtype=np.float64),
            filters=filters,
            potential=cfg.potential,
            learn_beta0=learn_beta0,
        )
    n_filters = int(sec.take("n_filters"))
    tap_extents = tuple(int(t) for t in sec.take("tap_extents"))
    seed = int(sec.take("seed", cfg.seed))
    beta0 = sec.take("beta0", "auto")
    sec.finish()
    return default_theta_init(
        cfg.grid,
        n_filters,
        tap_extents,
        cfg.potential,
        seed,
        learn_beta0=learn_beta0,
        beta0=None if beta0 == "auto" else float(beta0),
        train=train,
    )
