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
import math
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
from .upper import (
    Constant, DecreaseAdaptive, PowerLaw, StepSchedule, TrainSet, default_theta_init,
)

SIGNAL_MAGIC = "BLVL-SIG v1"
PARAMS_SCHEMA_VERSION = 1


def gen_piecewise_constant(
    grid: Grid, n_jumps: int, amplitude: tuple[float, float], seed: int
) -> np.ndarray:
    """Seeded piecewise-constant signal: a grid of constant blocks.

    Each axis of extent d is cut at min(n_jumps, d - 1) distinct sorted
    positions, one level per block is drawn from U(lo, hi) in row-major
    order, and each level fills its block.  In 1-D equal neighbouring levels
    are redrawn, so the non-circular first difference is nonzero in exactly
    n_jumps positions (the wrap-around difference is unconstrained).
    """
    if n_jumps < 0:
        raise ValueError("n_jumps must be >= 0")
    if n_jumps >= grid.n:
        raise ValueError(f"n_jumps {n_jumps} must be < grid size {grid.n}")
    lo, hi = float(amplitude[0]), float(amplitude[1])
    if n_jumps > 0 and lo == hi:
        raise ValueError(f"amplitude bounds ({lo}, {hi}) are equal, "
                         f"so n_jumps {n_jumps} cannot be drawn")
    rng = np.random.Generator(np.random.PCG64(seed))
    cuts = [np.sort(rng.choice(np.arange(1, d), size=min(n_jumps, d - 1), replace=False))
            for d in grid.dims]
    x = rng.uniform(lo, hi, size=tuple(c.size + 1 for c in cuts))
    if grid.rank == 1:
        for i in range(1, x.size):  # a.s. never loops for lo != hi
            while x[i] == x[i - 1]:
                x[i] = rng.uniform(lo, hi)
    for axis, (d, c) in enumerate(zip(grid.dims, cuts)):
        x = np.repeat(x, np.diff(np.concatenate(([0], c, [d]))), axis=axis)
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

    def typed(key, wanted, ok, listed=False, obj=doc, where=""):
        """``obj[key]`` if ``ok`` holds for it (for each entry of a list with
        ``listed``); a missing key or anything else is a FormatError naming
        ``where + key``."""
        if key not in obj:
            raise FormatError(f"params file lacks key '{where}{key}'")
        value = obj[key]
        if not (isinstance(value, list) and all(map(ok, value)) if listed else ok(value)):
            raise FormatError(f"params key '{where}{key}' must be {wanted}, got {value!r}")
        return value

    def read_filter(k, f):
        """Filter k's taps, shaped by its extents."""
        where = f"filters[{k}]."
        unknown = set(f) - {"extents", "taps"}
        if unknown:
            raise FormatError(f"unknown params key '{where}{sorted(unknown)[0]}'")
        shape = tuple(int(e) for e in typed(
            "extents", "a list of 1 or 2 integers >= 1",
            lambda v: _fits_all(v, (1, 2), integer=True, positive=True), obj=f, where=where))
        size = math.prod(shape)
        taps = typed("taps", f"a list of {size} finite numbers",
                     lambda v: _fits_all(v, (size,)), obj=f, where=where)
        return np.asarray(taps, dtype=np.float64).reshape(shape)

    unknown = set(doc) - known
    if unknown:
        raise FormatError(f"unknown params key {sorted(unknown)[0]!r}")
    kind = typed("potential", '"cr1n" or "quadratic"', lambda v: v in ("cr1n", "quadratic"))
    potential = (CornerRounded1Norm(typed("epsilon", "a finite number", _fits))
                 if kind == "cr1n" else Quadratic())
    filters = [read_filter(k, f) for k, f in enumerate(
        typed("filters", "a list of objects", lambda f: isinstance(f, dict), listed=True))]
    return HyperParams(
        beta0=typed("beta0", "a finite number", _fits),
        betas=np.asarray(typed("betas", "a list of finite numbers", _fits, listed=True),
                         dtype=np.float64),
        filters=filters,
        potential=potential,
        learn_beta0=typed("learn_beta0", "true or false", lambda v: isinstance(v, bool)),
    )


_REQUIRED = object()


def _fits(value, integer=False, positive=False, nonneg=False) -> bool:
    """A finite JSON number, bools excluded: an integer with ``integer``,
    > 0 with ``positive``, >= 0 with ``nonneg``."""
    return (type(value) in (int, float) and math.isfinite(value)
            and (not integer or value == int(value))
            and (not positive or value > 0) and (not nonneg or value >= 0))


def _fits_all(value, lengths=(), integer=False, positive=False) -> bool:
    """A JSON list of numbers that each ``_fits``: as many as one of
    ``lengths``, or at least one when no ``lengths`` are given."""
    return (isinstance(value, list)
            and (len(value) in lengths if lengths else len(value) > 0)
            and all(_fits(v, integer, positive) for v in value))


def _is_taps(value) -> bool:
    """Filter taps in JSON: a list of numbers, or of equal-length such lists."""
    nested = isinstance(value, list) and value and all(isinstance(r, list) for r in value)
    rows = value if nested else [value]
    return all(map(_fits_all, rows)) and len({len(row) for row in rows}) == 1


def _wanted(integer, positive, nonneg=False) -> str:
    wanted = "an integer" if integer else "a finite number"
    if positive:
        wanted += " >= 1" if integer else " > 0"
    elif nonneg:
        wanted += " >= 0"
    return wanted


class _Section:
    """Dict wrapper that tracks consumed keys and rejects leftovers."""

    def __init__(self, name: str, data: dict):
        if not isinstance(data, dict):
            raise ConfigError(f"config section '{name}' must be an object")
        self.name = name
        self.data = dict(data)

    def _where(self, key) -> str:
        return f"{self.name}.{key}" if self.name else key

    def take(self, key, default=_REQUIRED):
        if key in self.data:
            return self.data.pop(key)
        if default is _REQUIRED:
            raise ConfigError(f"missing config key '{self._where(key)}'")
        return default

    def reject(self, key, wanted, value):
        """Raise the ConfigError that names the key and what it must be."""
        raise ConfigError(
            f"config key '{self._where(key)}' must be {wanted}, got {value!r}"
        )

    def flag(self, key, default=_REQUIRED) -> bool:
        """true or false; anything else is a ConfigError naming the key."""
        value = self.take(key, default)
        if not isinstance(value, bool):
            self.reject(key, "true or false", value)
        return value

    def number(self, key, default=_REQUIRED, integer=False, positive=False,
               nonneg=False):
        """A finite number: an integer with ``integer``, > 0 with ``positive``
        (an integer >= 1 with both), >= 0 with ``nonneg``.  A default that is
        no number ("auto", "one-over-L", None) is returned as is, also when
        given.  Anything else is a ConfigError naming the key."""
        value = self.take(key, default)
        if _fits(value, integer, positive, nonneg):
            return int(value) if integer else float(value)
        special = type(default) not in (int, float) and default is not _REQUIRED
        if special and value == default:
            return value
        wanted = _wanted(integer, positive, nonneg)
        if special:
            wanted += f" or {json.dumps(default)}"
        self.reject(key, wanted, value)

    def numbers(self, key, default=_REQUIRED, lengths=(), integer=False,
                positive=False):
        """A list of numbers (as many as one of ``lengths``, or at least one
        when no ``lengths`` are given), each read as ``number`` reads one, as
        a tuple.  Anything else is a ConfigError naming the key."""
        value = self.take(key, default)
        if _fits_all(value, lengths, integer=integer, positive=positive):
            return tuple(int(v) if integer else float(v) for v in value)
        count = " or ".join(map(str, lengths)) + " " if lengths else ""
        self.reject(key, f"a list of {count}numbers, each "
                         f"{_wanted(integer, positive)}", value)

    def finish(self):
        if self.data:
            key = sorted(self.data)[0]
            raise ConfigError(f"unknown config key '{self._where(key)}'")


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
        eps = sec.number("epsilon", 0.01, positive=True)
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
        eps = sec.number("epsilon", positive=True)
        sec.finish()
        return HuberLoss(eps)
    if kind == "discrepancy":
        sigma = sec.number("sigma", positive=True)
        sec.finish()
        return DiscrepancyLoss(sigma)
    if kind == "noise-corridor":
        low = sec.number("var_low", nonneg=True)
        high = sec.number("var_high", nonneg=True)
        if high < low:
            sec.reject("var_high", f"a finite number >= var_low {low!r}", high)
        weights = sec.take("weights", None)
        sec.finish()
        return NoiseCorridorLoss(
            low, high,
            None if weights is None else np.asarray(weights, dtype=np.float64),
        )
    if kind == "sure-mc":
        sigma = sec.number("sigma", positive=True)
        probe_eps = sec.number("probe_eps", None, positive=True)
        n_probes = sec.number("n_probes", 1, integer=True, positive=True)
        seed = sec.number("seed", 0, integer=True)
        sec.finish()
        return SureMCLoss(sigma, probe_eps, n_probes, seed)
    raise ConfigError(f"unknown config value 'loss.kind' = {kind!r}")


def build_solver(spec: dict, grid: Grid) -> GDConfig:
    sec = _Section("solver", spec)
    step = sec.number("step", "one-over-L", positive=True)
    max_iters = sec.number("max_iters", 2000, integer=True, nonneg=True)
    grad_tol = sec.number("grad_tol", None, nonneg=True)
    warm_start = sec.flag("warm_start", True)
    sec.finish()
    if grad_tol is None:
        # default stop for unit-scale signals
        grad_tol = float(1e-6 * np.sqrt(grid.n))
    return GDConfig(step=step, max_iters=max_iters, grad_tol=grad_tol,
                    warm_start=warm_start)


@dataclass
class DatasetSpec:
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
    count = sec.number("count", integer=True, positive=True)
    n_jumps = sec.number("n_jumps", 4, integer=True, nonneg=True)
    amplitude = sec.numbers("amplitude", [0.0, 1.0], lengths=(2,))
    if amplitude[0] > amplitude[1] or (n_jumps > 0 and amplitude[0] == amplitude[1]):
        sec.reject("amplitude", "[lo, hi] with lo <= hi, and lo < hi when n_jumps > 0",
                   list(amplitude))
    noise_sigma = sec.number("noise_sigma", nonneg=True)
    seed = sec.number("seed", integer=True)
    realizations = sec.number("realizations_per_image", 1, integer=True, positive=True)
    sec.finish()
    return DatasetSpec(
        count=count,
        n_jumps=n_jumps,
        amplitude=amplitude,
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
        out["cg_tol"] = sec.number("cg_tol", 1e-10, positive=True)
    elif kind in ("reverse", "forward"):
        out["unroll_steps"] = sec.number("unroll_steps", integer=True, positive=True)
        out["unroll_step"] = sec.number("unroll_step", positive=True)
    else:
        raise ConfigError(f"unknown config value 'engine.kind' = {kind!r}")
    sec.finish()
    return out


def _step_schedule(spec) -> StepSchedule:
    """HOAG's step: a number (constant) or an object with a ``kind``."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return Constant(float(spec))
    sec = _Section("optimizer.step", spec)
    kind = sec.take("kind")
    if kind == "constant":
        step = Constant(sec.number("alpha"))
    elif kind == "decrease-adaptive":
        step = DecreaseAdaptive(
            sec.number("alpha0"), sec.number("shrink", 0.5), sec.number("grow", 1.05)
        )
    elif kind == "power-law":
        step = PowerLaw(sec.number("a"), sec.number("exponent"))
    else:
        raise ConfigError(f"unknown config value 'optimizer.step.kind' = {kind!r}")
    sec.finish()
    return step


def build_optimizer(spec: dict) -> dict:
    sec = _Section("optimizer", spec)
    kind = sec.take("kind")
    out = {
        "kind": kind,
        "max_upper": sec.number("max_upper", 100, integer=True, positive=True),
    }
    if kind in ("adam", "gd"):
        out["step"] = sec.number("step", 0.05)
        out["theta_rel_tol"] = sec.number("theta_rel_tol", 0.01)
    elif kind == "hoag":
        out["eps0"] = sec.number("eps0", 0.1)
        out["step"] = _step_schedule(sec.take("step", 0.1))
        out["theta_rel_tol"] = sec.number("theta_rel_tol", 0.01)
    elif kind == "ba":
        out["ss_upper"] = sec.number("ss_upper")
        out["ss_lower"] = sec.number("ss_lower", "paper-default", positive=True)
        out["inner_iters"] = sec.number("inner_iters", 10, integer=True)
        out["warm_start"] = sec.flag("warm_start", False)
        out["theta_rel_tol"] = sec.number("theta_rel_tol", 0.01)
    elif kind == "ttsa":
        out["up_a"] = sec.number("up_a", 0.1)
        out["up_exponent"] = sec.number("up_exponent", 0.75)
        out["low_a"] = sec.number("low_a", 0.5)
        out["low_exponent"] = sec.number("low_exponent", 0.5)
        out["batch"] = sec.number("batch", 4, integer=True, positive=True)
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
    grid = sec.numbers("beta0_grid")
    sec.finish()
    return {"beta0_grid": grid}


def build_gradcheck(spec: dict | None) -> dict:
    sec = _Section("gradcheck", spec if spec is not None else {})
    out = {
        "tolerances": sec.numbers("tolerances", [1e-1, 1e-2, 1e-4, 1e-8]),
        "fd_step": sec.number("fd_step", 1e-6),
        "fd_rel_tol": sec.number("fd_rel_tol", 1e-4),
        "unroll_steps": sec.number("unroll_steps", 50, integer=True),
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
    grid = Grid(sec.numbers("grid", lengths=(1, 2), integer=True, positive=True))
    forward = build_forward(grid, sec.take("forward", {"kind": "identity"}))
    potential = build_potential(sec.take("potential", {"kind": "cr1n"}))
    theta_init = sec.take("theta_init")
    engine_spec = sec.take("engine", {"kind": "minimizer"})
    engine = build_engine(engine_spec)
    optimizer = build_optimizer(
        sec.take("optimizer", {"kind": "adam", "step": 0.05, "max_upper": 100})
    )
    loss = build_loss(sec.take("loss", {"kind": "mse"}))
    dataset = build_dataset_spec(sec.take("dataset"))
    if dataset.n_jumps >= grid.n:
        sec.reject("dataset.n_jumps", f"below the grid size {grid.n}", dataset.n_jumps)
    solver = build_solver(sec.take("solver", {}), grid)
    output = build_output(sec.take("output", {}))
    sweep = build_sweep(sec.take("sweep", None))
    gradcheck = build_gradcheck(sec.take("gradcheck", None))
    sec.finish()
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("config key 'seed' must be an integer")
    if not isinstance(theta_init, dict):
        raise ConfigError("config section 'theta_init' must be an object")
    if optimizer["kind"] in ("hoag", "ba", "ttsa") and engine["kind"] != "minimizer":
        raise ConfigError(
            f"optimizer {optimizer['kind']!r} requires engine.kind 'minimizer'"
        )
    if optimizer["kind"] == "hoag" and "cg_tol" in engine_spec:
        raise ConfigError(
            "config key 'engine.cg_tol' is not used by optimizer 'hoag', "
            "which solves CG to its own eps_i; remove it"
        )
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
    sec = _Section("theta_init", cfg.theta_init)
    learn_beta0 = sec.flag("learn_beta0", False)
    filters = sec.take("filters", None)
    if filters is not None:
        if not (isinstance(filters, list) and all(map(_is_taps, filters))):
            sec.reject("filters", "a list of filters, each a list of numbers or of "
                       "equal-length lists of numbers", filters)
        beta0 = sec.number("beta0", 0.0)
        betas = sec.numbers("betas", [0.0] * len(filters), lengths=(len(filters),))
        sec.finish()
        return HyperParams(
            beta0=beta0,
            betas=np.asarray(betas, dtype=np.float64),
            filters=[np.asarray(c, dtype=np.float64) for c in filters],
            potential=cfg.potential,
            learn_beta0=learn_beta0,
        )
    n_filters = sec.number("n_filters", integer=True)
    tap_extents = sec.numbers("tap_extents", integer=True, positive=True)
    seed = sec.number("seed", cfg.seed, integer=True)
    beta0 = sec.number("beta0", "auto")
    sec.finish()
    return default_theta_init(
        n_filters,
        tap_extents,
        cfg.potential,
        seed,
        learn_beta0=learn_beta0,
        beta0=None if beta0 == "auto" else beta0,
        train=train,
    )
