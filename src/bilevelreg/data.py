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

from .errors import ConfigError, DimensionError, FormatError
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
from .signals import Grid, _check_filter_fits
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
    sec = _read_json(path, "params")
    version = sec.take("schema_version", None)
    if version != PARAMS_SCHEMA_VERSION:
        raise FormatError(
            f"unsupported params schema version {version!r} "
            f"(this build reads version {PARAMS_SCHEMA_VERSION})"
        )
    layout = sec.take("layout", None)
    if layout != THETA_LAYOUT:
        raise FormatError(
            f"unsupported theta layout {layout!r} (expected {THETA_LAYOUT!r})"
        )
    if sec.kind("potential", ("cr1n", "quadratic")) == "cr1n":
        potential = CornerRounded1Norm(sec.number("epsilon"))
    else:
        sec.take("epsilon", None)  # saved as null, unused
        potential = Quadratic()
    beta0 = sec.number("beta0")
    learn_beta0 = sec.flag("learn_beta0")
    entries = sec.take("filters")
    if not (isinstance(entries, list) and all(isinstance(f, dict) for f in entries)):
        sec.reject("filters", "a list of objects", entries)
    filters = []
    for k, entry in enumerate(entries):
        fsec = _Section(f"filters[{k}]", entry, "params")
        shape = fsec.numbers("extents", lengths=(1, 2), integer=True, positive=True)
        taps = fsec.numbers("taps", lengths=(math.prod(shape),))
        fsec.finish()
        filters.append(np.reshape(taps, shape))
    betas = sec.numbers("betas", lengths=(len(filters),))
    sec.finish()
    return HyperParams(
        beta0=beta0,
        betas=betas,
        filters=filters,
        potential=potential,
        learn_beta0=learn_beta0,
    )


_REQUIRED = object()


def _fits(value, integer=False, positive=False, nonneg=False) -> bool:
    """A finite JSON number, bools excluded: an integer with ``integer``,
    > 0 with ``positive``, >= 0 with ``nonneg``."""
    return (type(value) in (int, float) and math.isfinite(value)
            and (not integer or value == int(value))
            and (not positive or value > 0) and (not nonneg or value >= 0))


def _fits_all(value, lengths=(), integer=False, positive=False, nonneg=False) -> bool:
    """A JSON list of numbers that each ``_fits``: as many as one of
    ``lengths``, or at least one when no ``lengths`` are given."""
    return (isinstance(value, list)
            and (len(value) in lengths if lengths else len(value) > 0)
            and all(_fits(v, integer, positive, nonneg) for v in value))


def _is_taps(value) -> bool:
    """An array in JSON (filter taps, a mask, weights): a list of numbers,
    or of equal-length such lists."""
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


_ERRORS = {"config": ConfigError, "params": FormatError}
_SHOWN = 100  # characters of a rejected value's repr shown in an error


def _read_json(path, doc: str) -> _Section:
    """The JSON object in the file at ``path``, as the top section of ``doc``."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise _ERRORS[doc](f"{doc} file is not valid JSON: {exc}") from exc
    return _Section("", data, doc)


class _Section:
    """Dict wrapper that tracks consumed keys and rejects leftovers.

    ``doc`` names the document read, "config" or "params": every error
    names it and the key, as a ConfigError or a FormatError.
    """

    def __init__(self, name: str, data: dict, doc: str = "config"):
        self.doc, self.error = doc, _ERRORS[doc]
        if not isinstance(data, dict):
            raise self.error(f"{doc} section '{name}' must be an object" if name
                             else f"{doc} file must hold a JSON object")
        self.name = name
        self.data = dict(data)

    def _where(self, key) -> str:
        return f"{self.name}.{key}" if self.name else key

    def take(self, key, default=_REQUIRED):
        if key in self.data:
            return self.data.pop(key)
        if default is _REQUIRED:
            raise self.error(f"missing {self.doc} key '{self._where(key)}'")
        return default

    def reject(self, key, wanted, value):
        """Raise the error that names the key and what it must be.  A value
        whose repr is long is cut, with its length named."""
        shown = repr(value)
        if len(shown) > _SHOWN:
            size = f" ({len(value)} entries)" if isinstance(value, list) else ""
            shown = f"{shown[:_SHOWN]} ...{size}"
        raise self.error(
            f"{self.doc} key '{self._where(key)}' must be {wanted}, got {shown}"
        )

    def build(self, key, make, *args):
        """``make(*args)``, with a ValueError or DimensionError it raises on
        the value of ``key`` re-raised as the error that names the key."""
        try:
            return make(*args)
        except (ValueError, DimensionError) as exc:
            raise self.error(f"{self.doc} key '{self._where(key)}': {exc}") from None

    def kind(self, key, choices, default=_REQUIRED) -> str:
        """One of the strings ``choices``; anything else is an error naming
        the key and every choice."""
        value = self.take(key, default)
        if value not in choices:
            *rest, last = map(json.dumps, choices)
            self.reject(key, f"{', '.join(rest)} or {last}" if rest else last, value)
        return value

    def flag(self, key, default=_REQUIRED) -> bool:
        """true or false; anything else is an error naming the key."""
        value = self.take(key, default)
        if not isinstance(value, bool):
            self.reject(key, "true or false", value)
        return value

    def number(self, key, default=_REQUIRED, integer=False, positive=False,
               nonneg=False):
        """A finite number: an integer with ``integer``, > 0 with ``positive``
        (an integer >= 1 with both), >= 0 with ``nonneg``.  A default that is
        no number ("auto", "one-over-L", None) is returned as is, also when
        given.  Anything else is an error naming the key."""
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
                positive=False, nonneg=False):
        """A list of numbers (as many as one of ``lengths``, or at least one
        when no ``lengths`` are given), each read as ``number`` reads one, as
        a tuple.  Anything else is an error naming the key."""
        value = self.take(key, default)
        if _fits_all(value, lengths, integer, positive, nonneg):
            return tuple(int(v) if integer else float(v) for v in value)
        count = " or ".join(map(str, lengths)) + " " if lengths else ""
        self.reject(key, f"a list of {count}numbers, each "
                         f"{_wanted(integer, positive, nonneg)}", value)

    def array(self, key, default=_REQUIRED, scalar=False, many=False):
        """A float64 array from a list of finite numbers or of equal-length
        such lists, or with ``scalar`` from one number; with ``many``, a list
        of such arrays from a list of such lists.  A None default is
        returned as is.  Anything else is an error naming the key."""
        value = self.take(key, default)
        if value is None and default is None:
            return None
        items = value if many else [value]
        if (not many or isinstance(value, list)) and all(
                _is_taps(v) or (scalar and _fits(v)) for v in items):
            arrays = [np.asarray(v, dtype=np.float64) for v in items]
            return arrays if many else arrays[0]
        self.reject(key, ("a list of filters, each " if many else "")
                    + ("a number or " if scalar else "")
                    + "a list of numbers or of equal-length lists of numbers", value)

    def finish(self):
        if self.data:
            key = sorted(self.data)[0]
            raise self.error(f"unknown {self.doc} key '{self._where(key)}'")


def build_forward(grid: Grid, spec: dict) -> ForwardModel:
    sec = _Section("forward", spec)
    kind = sec.kind("kind", ("identity", "mask", "circulant"))
    if kind == "identity":
        sec.finish()
        return Identity(grid)
    if kind == "mask":
        values = sec.array("values")
        if values.size != grid.n:
            sec.reject("values", f"{grid.n} numbers, flat or nested", values.tolist())
        sec.finish()
        return sec.build("values", Mask, grid, values)
    taps = sec.array("taps")  # circulant
    sec.finish()
    return sec.build("taps", Circulant, grid, taps)


def build_potential(spec: dict) -> Potential:
    sec = _Section("potential", spec)
    if sec.kind("kind", ("cr1n", "quadratic")) == "cr1n":
        eps = sec.number("epsilon", 0.01, positive=True)
        sec.finish()
        return CornerRounded1Norm(eps)
    sec.finish()
    return Quadratic()


def build_loss(spec: dict) -> LossSpec:
    sec = _Section("loss", spec)
    kind = sec.kind("kind", ("mse", "huber", "discrepancy", "noise-corridor", "sure-mc"))
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
        weights = sec.array("weights", None, scalar=True)
        sec.finish()
        return sec.build("weights", NoiseCorridorLoss, low, high, weights)
    sigma = sec.number("sigma", positive=True)  # sure-mc
    probe_eps = sec.number("probe_eps", None, positive=True)
    n_probes = sec.number("n_probes", 1, integer=True, positive=True)
    seed = sec.number("seed", 0, integer=True)
    sec.finish()
    return SureMCLoss(sigma, probe_eps, n_probes, seed)


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
    sec.kind("generator", ("piecewise-constant",), "piecewise-constant")
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
    kind = sec.kind("kind", ("minimizer", "reverse", "forward"), "minimizer")
    out = {"kind": kind}
    if kind == "minimizer":
        out["cg_tol"] = sec.number("cg_tol", 1e-10, positive=True)
    else:  # reverse or forward
        out["unroll_steps"] = sec.number("unroll_steps", integer=True, positive=True)
        out["unroll_step"] = sec.number("unroll_step", positive=True)
    sec.finish()
    return out


def _step_schedule(spec) -> StepSchedule:
    """HOAG's step: a number (constant) or an object with a ``kind``."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return Constant(float(spec))
    sec = _Section("optimizer.step", spec)
    kind = sec.kind("kind", ("constant", "decrease-adaptive", "power-law"))
    if kind == "constant":
        step = Constant(sec.number("alpha"))
    elif kind == "decrease-adaptive":
        step = DecreaseAdaptive(
            sec.number("alpha0"), sec.number("shrink", 0.5), sec.number("grow", 1.05)
        )
    else:  # power-law
        step = PowerLaw(sec.number("a"), sec.number("exponent"))
    sec.finish()
    return step


def build_optimizer(spec: dict) -> dict:
    sec = _Section("optimizer", spec)
    kind = sec.kind("kind", ("adam", "gd", "hoag", "ba", "ttsa"))
    out = {
        "kind": kind,
        "max_upper": sec.number("max_upper", 100, integer=True, positive=True),
    }
    if kind in ("adam", "gd"):
        out["step"] = sec.number("step", 0.05)
        out["theta_rel_tol"] = sec.number("theta_rel_tol", 0.01)
    elif kind == "hoag":
        out["eps0"] = sec.number("eps0", 0.1, nonneg=True)
        out["step"] = _step_schedule(sec.take("step", 0.1))
        out["theta_rel_tol"] = sec.number("theta_rel_tol", 0.01)
    elif kind == "ba":
        out["ss_upper"] = sec.number("ss_upper")
        out["ss_lower"] = sec.number("ss_lower", "paper-default", positive=True)
        out["inner_iters"] = sec.number("inner_iters", 10, integer=True, nonneg=True)
        out["warm_start"] = sec.flag("warm_start", False)
        out["theta_rel_tol"] = sec.number("theta_rel_tol", 0.01)
    else:  # ttsa
        out["up_a"] = sec.number("up_a", 0.1)
        out["up_exponent"] = sec.number("up_exponent", 0.75)
        out["low_a"] = sec.number("low_a", 0.5, positive=True)
        out["low_exponent"] = sec.number("low_exponent", 0.5)
        if out["up_a"] != 0.0 and out["up_exponent"] <= out["low_exponent"]:
            sec.reject("up_exponent", f"a finite number > low_exponent "
                       f"{out['low_exponent']!r} when up_a != 0", out["up_exponent"])
        out["batch"] = sec.number("batch", 4, integer=True, positive=True)
    sec.finish()
    return out


def build_output(spec: dict) -> dict:
    sec = _Section("output", spec)
    out = {}
    for key, default in (("params", "params.json"), ("trace", "trace.csv"),
                         ("report", "gradcheck_report.txt"),
                         ("angles", "gradcheck_angles.csv"), ("table", "sweep.csv")):
        out[key] = path = sec.take(key, default)
        if not (isinstance(path, str) and path):
            sec.reject(key, "a non-empty string", path)
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
        "tolerances": sec.numbers("tolerances", [1e-1, 1e-2, 1e-4, 1e-8], nonneg=True),
        "fd_step": sec.number("fd_step", 1e-6, positive=True),
        "fd_rel_tol": sec.number("fd_rel_tol", 1e-4),
        "unroll_steps": sec.number("unroll_steps", 50, integer=True, nonneg=True),
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
    sec = _read_json(path, "config")
    seed = sec.number("seed", integer=True)
    grid = Grid(sec.numbers("grid", lengths=(1, 2), integer=True, positive=True))
    forward = build_forward(grid, sec.take("forward", {"kind": "identity"}))
    potential = build_potential(sec.take("potential", {"kind": "cr1n"}))
    theta_init = _Section("theta_init", sec.take("theta_init")).data
    engine_spec = sec.take("engine", {"kind": "minimizer"})
    engine = build_engine(engine_spec)
    optimizer = build_optimizer(
        sec.take("optimizer", {"kind": "adam", "step": 0.05, "max_upper": 100})
    )
    loss = build_loss(sec.take("loss", {"kind": "mse"}))
    weights = getattr(loss, "weights", None)
    if weights is not None and not (weights.ndim <= grid.rank and all(
            w in (1, d) for w, d in zip(weights.shape[::-1], grid.dims[::-1]))):
        sec.reject("loss.weights", f"a number or numbers that broadcast to the grid "
                   f"{list(grid.dims)}", weights.tolist())
    dataset = build_dataset_spec(sec.take("dataset"))
    if dataset.n_jumps >= grid.n:
        sec.reject("dataset.n_jumps", f"below the grid size {grid.n}", dataset.n_jumps)
    solver = build_solver(sec.take("solver", {}), grid)
    output = build_output(sec.take("output", {}))
    sweep = build_sweep(sec.take("sweep", None))
    gradcheck = build_gradcheck(sec.take("gradcheck", None))
    sec.finish()
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
    filters = sec.array("filters", None, many=True)
    if filters is not None:
        for c in filters:
            sec.build("filters", _check_filter_fits, cfg.grid.dims, c.shape)
        beta0 = sec.number("beta0", 0.0)
        betas = sec.numbers("betas", [0.0] * len(filters), lengths=(len(filters),))
        sec.finish()
        return HyperParams(
            beta0=beta0,
            betas=betas,
            filters=filters,
            potential=cfg.potential,
            learn_beta0=learn_beta0,
        )
    n_filters = sec.number("n_filters", integer=True, nonneg=True)
    tap_extents = sec.numbers("tap_extents", integer=True, positive=True)
    sec.build("tap_extents", _check_filter_fits, cfg.grid.dims, tap_extents)
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
