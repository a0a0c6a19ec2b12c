import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from bilevelreg.data import (
    add_noise,
    build_dataset_spec,
    build_forward,
    build_loss,
    build_optimizer,
    build_potential,
    build_theta,
    build_train_set,
    gen_piecewise_constant,
    load_config,
    load_params,
    load_signal,
    save_params,
    save_signal,
)
from bilevelreg.errors import ConfigError, FormatError
from bilevelreg.forward import Circulant, Identity, Mask
from bilevelreg.losses import (
    DiscrepancyLoss, HuberLoss, MSELoss, NoiseCorridorLoss, SureMCLoss,
)
from bilevelreg.lower import HyperParams, LowerProblem
from bilevelreg.potentials import CornerRounded1Norm, Quadratic
from bilevelreg.signals import Grid
from bilevelreg.upper import DecreaseAdaptive, PowerLaw


class TestGenerator:
    def test_no_jumps_is_constant(self):
        x = gen_piecewise_constant(Grid((16,)), 0, (0.0, 1.0), seed=0)
        assert np.ptp(x) == 0.0

    def test_deterministic_per_seed(self):
        a = gen_piecewise_constant(Grid((32,)), 5, (0.0, 1.0), seed=7)
        b = gen_piecewise_constant(Grid((32,)), 5, (0.0, 1.0), seed=7)
        np.testing.assert_array_equal(a, b)
        c = gen_piecewise_constant(Grid((32,)), 5, (0.0, 1.0), seed=8)
        assert np.any(a != c)

    @pytest.mark.parametrize("n_jumps", [1, 3, 7])
    def test_exact_jump_count(self, n_jumps):
        for seed in range(10):
            x = gen_piecewise_constant(Grid((64,)), n_jumps, (0.0, 1.0), seed=seed)
            diff = np.diff(x)  # non-circular by construction
            assert int(np.count_nonzero(diff)) == n_jumps

    def test_2d_blocks(self):
        x = gen_piecewise_constant(Grid((8, 8)), 2, (0.0, 1.0), seed=1)
        assert x.shape == (8, 8)
        assert len(np.unique(x)) <= 9

    def test_jump_count_validation(self):
        with pytest.raises(ValueError):
            gen_piecewise_constant(Grid((4,)), 4, (0.0, 1.0), seed=0)

    @pytest.mark.parametrize("dims", [(8,), (4, 4), (1, 5)])
    def test_equal_bounds_need_no_jumps(self, dims):
        # no level can differ from its neighbour, so a jump cannot be drawn
        with pytest.raises(ValueError) as info:
            gen_piecewise_constant(Grid(dims), 2, (0.5, 0.5), seed=0)
        assert str(info.value) == ("amplitude bounds (0.5, 0.5) are equal, "
                                   "so n_jumps 2 cannot be drawn")
        x = gen_piecewise_constant(Grid(dims), 0, (0.5, 0.5), seed=0)
        assert x.shape == dims and np.all(x == 0.5)

    GRIDS = [(1,), (2,), (7,), (32,), (64,), (1, 1), (1, 5), (5, 1), (3, 3), (8, 8),
             (32, 32), (16, 40)]

    def test_pinned_bytes(self):
        # digest of every signal over grids x n_jumps 0-6 x seeds 0-39 x two
        # amplitude ranges; reversed bounds (lo > hi) raise at every rank
        digest = hashlib.sha256()
        for dims in self.GRIDS:
            grid = Grid(dims)
            for n_jumps in range(min(7, grid.n)):
                for seed in range(40):
                    for amplitude in ((0.0, 1.0), (-2.5, 0.75)):
                        x = gen_piecewise_constant(grid, n_jumps, amplitude, seed)
                        assert x.shape == dims and x.dtype == np.float64
                        digest.update(x.tobytes())
                    with pytest.raises(ValueError):
                        gen_piecewise_constant(grid, n_jumps, (1.0, -0.5), seed)
        assert digest.hexdigest() == (
            "75a0a9e17da37b47259af72149c760fa6b45c20ae65249b37edcbbbf5611013a")


class TestNoise:
    def test_zero_sigma_exact(self):
        grid = Grid((8,))
        x = gen_piecewise_constant(grid, 2, (0.0, 1.0), seed=0)
        y = add_noise(x, Identity(grid), 0.0, seed=0)
        np.testing.assert_array_equal(y, x)

    def test_empirical_std(self):
        grid = Grid((100_000,))
        x = np.zeros(100_000)
        y = add_noise(x, Identity(grid), 0.3, seed=1)
        assert np.std(y) == pytest.approx(0.3, rel=0.02)

    def test_deterministic(self):
        grid = Grid((16,))
        x = np.ones(16)
        a = add_noise(x, Identity(grid), 0.1, seed=5)
        b = add_noise(x, Identity(grid), 0.1, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_applies_forward_model(self):
        grid = Grid((4,))
        mask = Mask(grid, [1, 0, 1, 0])
        y = add_noise(np.ones(4), mask, 0.0, seed=0)
        np.testing.assert_array_equal(y, [1.0, 0.0, 1.0, 0.0])


class TestSignalFile:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        for shape in [(17,), (5, 9)]:
            x = rng.standard_normal(shape)
            path = tmp_path / "sig.sig"
            save_signal(path, x)
            back = load_signal(path)
            assert back.dtype == np.float64
            assert back.shape == x.shape
            assert np.array_equal(
                back.view(np.uint64), x.view(np.uint64)
            )

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "sig.sig"
        save_signal(path, np.zeros(4))
        raw = path.read_bytes()
        path.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(FormatError, match="magic"):
            load_signal(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "sig.sig"
        save_signal(path, np.arange(8.0))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError, match="byte"):
            load_signal(path)

    def test_count_extents_mismatch(self, tmp_path):
        path = tmp_path / "sig.sig"
        payload = np.zeros(4).tobytes()
        path.write_bytes(b"BLVL-SIG v1\nrank 1\nextents 4\ncount 5\n" + payload)
        with pytest.raises(FormatError):
            load_signal(path)


class TestParamsFile:
    def make_params(self):
        return HyperParams(
            beta0=-1.2345678901234567,
            betas=[0.1, -2.0],
            filters=[np.array([0.5, -0.5]), np.array([[1.0, 2.0], [3.0, 4.0]])],
            potential=CornerRounded1Norm(0.0123),
            learn_beta0=True,
        )

    def test_exact_roundtrip(self, tmp_path):
        hp = self.make_params()
        path = tmp_path / "params.json"
        save_params(path, hp)
        back = load_params(path)
        assert back.beta0 == hp.beta0
        assert back.learn_beta0 == hp.learn_beta0
        np.testing.assert_array_equal(back.betas, hp.betas)
        for a, b in zip(back.filters, hp.filters):
            np.testing.assert_array_equal(a, b)
        assert isinstance(back.potential, CornerRounded1Norm)
        assert back.potential.epsilon == hp.potential.epsilon

    def test_quadratic_roundtrip(self, tmp_path):
        hp = HyperParams(0.0, [0.0], [np.array([1.0])], Quadratic())
        path = tmp_path / "params.json"
        save_params(path, hp)
        assert isinstance(load_params(path).potential, Quadratic)

    def test_newer_schema_rejected(self, tmp_path):
        hp = self.make_params()
        path = tmp_path / "params.json"
        save_params(path, hp)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="schema version"):
            load_params(path)

    def test_unknown_key_rejected(self, tmp_path):
        hp = self.make_params()
        path = tmp_path / "params.json"
        save_params(path, hp)
        doc = json.loads(path.read_text())
        doc["surprise"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="surprise"):
            load_params(path)

    @pytest.mark.parametrize("key", ["beta0", "learn_beta0", "betas", "potential",
                                     "epsilon", "filters", "taps", "extents"])
    def test_missing_key_named(self, tmp_path, key):
        path = tmp_path / "params.json"
        save_params(path, self.make_params())
        doc = json.loads(path.read_text())
        in_filter = key in ("taps", "extents")
        del (doc["filters"][1] if in_filter else doc)[key]
        path.write_text(json.dumps(doc))
        named = f"filters[1].{key}" if in_filter else key
        with pytest.raises(FormatError, match=f"missing params key '{re.escape(named)}'"):
            load_params(path)

    @pytest.mark.parametrize("key,value", [("epsilon", None), ("epsilon", "0.1"),
                                           ("filters", [[0.7, -0.7]]), ("filters", 3),
                                           ("learn_beta0", "false"), ("learn_beta0", 0),
                                           ("beta0", "1.5"), ("beta0", None),
                                           ("betas", [True]), ("betas", 0.5),
                                           ("betas", ["-1.0"]), ("betas", [0.1]),
                                           ("filters[0].extents", "ab"),
                                           ("filters[0].extents", [0]),
                                           ("filters[0].extents", [2.5]),
                                           ("filters[1].extents", [1, 2, 2]),
                                           ("filters[0].taps", ["x", 1.0]),
                                           ("filters[0].taps", [1.0, None]),
                                           ("filters[0].taps", 0.5),
                                           ("filters[1].taps", [1.0, 2.0, 3.0])])
    def test_mistyped_value_named(self, tmp_path, key, value):
        path = tmp_path / "params.json"
        save_params(path, self.make_params())
        doc = json.loads(path.read_text())
        if key.startswith("filters["):  # filters[k].entry
            doc["filters"][int(key[8])][key.split(".")[1]] = value
        else:
            doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"params key '{re.escape(key)}' must be"):
            load_params(path)

    def test_extents_that_do_not_match_the_taps_named(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(path, self.make_params())
        doc = json.loads(path.read_text())
        doc["filters"][0]["extents"] = [3]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as info:
            load_params(path)
        assert str(info.value) == ("params key 'filters[0].taps' must be a list of 3 "
                                   "numbers, each a finite number, got [0.5, -0.5]")

    def test_integral_extents_keep_their_shape(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(path, self.make_params())
        doc = json.loads(path.read_text())
        doc["filters"][1]["extents"] = [2.0, 2]
        path.write_text(json.dumps(doc))
        assert load_params(path).filters[1].shape == (2, 2)

    def test_unknown_filter_key_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(path, self.make_params())
        doc = json.loads(path.read_text())
        doc["filters"][1]["origin"] = [0, 0]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=re.escape("unknown params key 'filters[1].origin'")):
            load_params(path)

    def test_unknown_potential_names_both(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(path, self.make_params())
        doc = json.loads(path.read_text())
        doc["potential"] = "tv"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as info:
            load_params(path)
        assert str(info.value) == ("params key 'potential' must be \"cr1n\" or "
                                   "\"quadratic\", got 'tv'")

    def test_quadratic_needs_no_epsilon(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(path, HyperParams(0.0, [0.0], [np.array([1.0])], Quadratic()))
        doc = json.loads(path.read_text())
        del doc["epsilon"]
        path.write_text(json.dumps(doc))
        assert isinstance(load_params(path).potential, Quadratic)


class TestOneReader:
    """A config and a params file are read by one reader: the same fault
    gives the same message, with the document name and the key swapped."""

    @staticmethod
    def make_fault(doc, key, fault):
        """Delete ``key`` (a dotted path such as ``filters[0].taps``) for a
        missing key, else set it to "x"."""
        *sections, last = key.split(".")
        for section in sections:
            name, _, index = section.partition("[")
            doc = doc[name][int(index[:-1])] if index else doc[name]
        if fault == "missing":
            del doc[last]
        else:
            doc[last] = "x"

    @pytest.mark.parametrize("fault,config_key,params_key", [
        ("missing", "dataset", "betas"),
        ("missing", "dataset.count", "filters[0].taps"),
        ("unknown", "surprise", "surprise"),
        ("mistyped", "optimizer.step", "beta0"),
    ])
    def test_params_message_is_the_config_message(self, tmp_path, fault, config_key,
                                                   params_key):
        config = TestConfig().write_config(tmp_path)
        params = tmp_path / "params.json"
        save_params(params, HyperParams(0.0, [0.0], [np.array([0.7, -0.7])],
                                        CornerRounded1Norm(0.01)))
        for path, key in ((config, config_key), (params, params_key)):
            doc = json.loads(path.read_text())
            self.make_fault(doc, key, fault)
            path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as config_error:
            load_config(config)
        with pytest.raises(FormatError) as params_error:
            load_params(params)
        assert str(params_error.value) == str(config_error.value).replace(
            "config", "params").replace(f"'{config_key}'", f"'{params_key}'")


class TestBuilders:
    def test_forward_variants(self):
        grid = Grid((8,))
        assert isinstance(build_forward(grid, {"kind": "identity"}), Identity)
        assert isinstance(
            build_forward(grid, {"kind": "mask", "values": [1] * 8}), Mask
        )
        assert isinstance(
            build_forward(grid, {"kind": "circulant", "taps": [1, -1]}), Circulant
        )
        with pytest.raises(ConfigError, match="forward.kind"):
            build_forward(grid, {"kind": "fourier"})

    def test_potential_variants(self):
        pot = build_potential({"kind": "cr1n", "epsilon": 0.05})
        assert isinstance(pot, CornerRounded1Norm) and pot.epsilon == 0.05
        assert isinstance(build_potential({"kind": "quadratic"}), Quadratic)

    def test_loss_variants(self):
        assert isinstance(build_loss({"kind": "mse"}), MSELoss)
        assert isinstance(build_loss({"kind": "huber", "epsilon": 0.1}), HuberLoss)
        corridor = build_loss(
            {"kind": "noise-corridor", "var_low": 0.01, "var_high": 0.02}
        )
        assert isinstance(corridor, NoiseCorridorLoss)
        sure = build_loss({"kind": "sure-mc", "sigma": 0.1, "n_probes": 3})
        assert isinstance(sure, SureMCLoss)
        assert build_loss({"kind": "discrepancy", "sigma": 0.05}) == DiscrepancyLoss(0.05)

    def test_hoag_step_schedules(self):
        adaptive = {"kind": "decrease-adaptive", "alpha0": 0.01, "shrink": 0.25, "grow": 1.1}
        assert build_optimizer({"kind": "hoag", "step": adaptive})["step"] == (
            DecreaseAdaptive(0.01, 0.25, 1.1))
        defaults = {"kind": "decrease-adaptive", "alpha0": 0.02}
        assert build_optimizer({"kind": "hoag", "step": defaults})["step"] == (
            DecreaseAdaptive(0.02, 0.5, 1.05))
        power = {"kind": "power-law", "a": 0.1, "exponent": 0.75}
        assert build_optimizer({"kind": "hoag", "step": power})["step"] == PowerLaw(0.1, 0.75)

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="loss.flavor"):
            build_loss({"kind": "mse", "flavor": "ranch"})

    @pytest.mark.parametrize("ss_lower", ["paper_default", 0, -0.5, True, None])
    def test_ba_lower_step_validated(self, ss_lower):
        with pytest.raises(ConfigError, match="optimizer.ss_lower"):
            build_optimizer({"kind": "ba", "ss_upper": 0.1, "ss_lower": ss_lower})

    def test_ba_lower_step_message(self):
        with pytest.raises(ConfigError) as info:
            build_optimizer({"kind": "ba", "ss_upper": 0.1, "ss_lower": 0})
        assert str(info.value) == ("config key 'optimizer.ss_lower' must be a finite "
                                   'number > 0 or "paper-default", got 0')

    def test_ba_lower_step_accepted_values(self):
        default = build_optimizer({"kind": "ba", "ss_upper": 0.1})
        assert default["ss_lower"] == "paper-default"
        fixed = build_optimizer({"kind": "ba", "ss_upper": 0.1, "ss_lower": 1})
        assert fixed["ss_lower"] == 1.0 and isinstance(fixed["ss_lower"], float)

    def test_dataset_and_train_set(self):
        ds = build_dataset_spec(
            {"count": 2, "noise_sigma": 0.1, "seed": 3, "n_jumps": 2}
        )
        grid = Grid((16,))
        train = build_train_set(ds, grid, Identity(grid))
        assert train.n_samples == 2
        ds2 = build_dataset_spec(
            {"count": 2, "noise_sigma": 0.1, "seed": 3, "n_jumps": 2,
             "realizations_per_image": 3}
        )
        train2 = build_train_set(ds2, grid, Identity(grid))
        assert train2.n_samples == 6
        # same clean image across its realizations, distinct noise
        np.testing.assert_array_equal(train2.x_true[0], train2.x_true[1])
        assert np.any(train2.y[0] != train2.y[1])


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# every kind key of a config: its section path in the config and its choices
KIND_KEYS = {
    "forward.kind": '"identity", "mask" or "circulant"',
    "potential.kind": '"cr1n" or "quadratic"',
    "loss.kind": '"mse", "huber", "discrepancy", "noise-corridor" or "sure-mc"',
    "dataset.generator": '"piecewise-constant"',
    "engine.kind": '"minimizer", "reverse" or "forward"',
    "optimizer.kind": '"adam", "gd", "hoag", "ba" or "ttsa"',
    "optimizer.step.kind": '"constant", "decrease-adaptive" or "power-law"',
}

ARRAY_WANTED = "a list of numbers or of equal-length lists of numbers"
FILTERS_WANTED = re.escape("a list of filters, each " + ARRAY_WANTED)


class TestConfig:
    def write_config(self, tmp_path, **overrides):
        doc = {
            "seed": 1,
            "grid": [16],
            "forward": {"kind": "identity"},
            "potential": {"kind": "cr1n", "epsilon": 0.01},
            "theta_init": {"n_filters": 1, "tap_extents": [2], "seed": 2},
            "optimizer": {"kind": "adam", "step": 0.05, "max_upper": 3},
            "dataset": {"count": 1, "noise_sigma": 0.05, "seed": 3},
            "solver": {"max_iters": 200},
            "output": {},
        }
        doc.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_loads_and_defaults(self, tmp_path):
        cfg = load_config(self.write_config(tmp_path))
        assert cfg.seed == 1
        assert cfg.grid.dims == (16,)
        assert cfg.solver.grad_tol == pytest.approx(1e-6 * 4.0)
        assert cfg.engine == {"kind": "minimizer", "cg_tol": 1e-10}

    def test_unknown_top_level_key(self, tmp_path):
        path = self.write_config(tmp_path, volume=11)
        with pytest.raises(ConfigError, match="volume"):
            load_config(path)

    def test_unknown_nested_key(self, tmp_path):
        path = self.write_config(
            tmp_path, dataset={"count": 1, "noise_sigma": 0.0, "seed": 3,
                               "extra": True}
        )
        with pytest.raises(ConfigError, match="dataset.extra"):
            load_config(path)

    @pytest.mark.parametrize("kind", ["hoag", "ba", "ttsa"])
    def test_minimizer_only_optimizers_reject_unrolled_engine(self, tmp_path, kind):
        optimizer = {"kind": kind, "max_upper": 3}
        if kind == "ba":
            optimizer["ss_upper"] = 0.1
        path = self.write_config(
            tmp_path, optimizer=optimizer,
            engine={"kind": "reverse", "unroll_steps": 5, "unroll_step": 0.1},
        )
        with pytest.raises(ConfigError, match="requires engine.kind 'minimizer'"):
            load_config(path)

    @pytest.mark.parametrize("value", [0, -3, 2.5, "5", True])
    def test_unroll_steps_must_be_a_positive_integer(self, tmp_path, value):
        path = self.write_config(
            tmp_path, engine={"kind": "reverse", "unroll_steps": value, "unroll_step": 0.1},
        )
        with pytest.raises(ConfigError, match="'engine.unroll_steps' must be an integer >= 1"):
            load_config(path)

    @pytest.mark.parametrize("value", [0.0, -0.1, float("nan"), float("inf"), "0.1"])
    def test_unroll_step_must_be_finite_and_positive(self, tmp_path, value):
        path = self.write_config(
            tmp_path, engine={"kind": "forward", "unroll_steps": 5, "unroll_step": value},
        )
        with pytest.raises(ConfigError, match="'engine.unroll_step' must be a finite number > 0"):
            load_config(path)

    @pytest.mark.parametrize("value", [-1, 0, float("nan"), float("inf"), None])
    def test_cg_tol_must_be_finite_and_positive(self, tmp_path, value):
        path = self.write_config(tmp_path, engine={"kind": "minimizer", "cg_tol": value})
        with pytest.raises(ConfigError, match="'engine.cg_tol' must be a finite number > 0"):
            load_config(path)

    def test_engine_numbers_keep_their_values(self, tmp_path):
        path = self.write_config(
            tmp_path, engine={"kind": "reverse", "unroll_steps": 7.0, "unroll_step": 1},
        )
        engine = load_config(path).engine
        assert engine == {"kind": "reverse", "unroll_steps": 7, "unroll_step": 1.0}
        assert type(engine["unroll_steps"]) is int and type(engine["unroll_step"]) is float

    @pytest.mark.parametrize("value", [0, -1, 2.5, "4", True])
    def test_ttsa_batch_must_be_a_positive_integer(self, tmp_path, value):
        path = self.write_config(
            tmp_path, optimizer={"kind": "ttsa", "max_upper": 3, "batch": value})
        with pytest.raises(ConfigError, match="'optimizer.batch' must be an integer >= 1"):
            load_config(path)

    @pytest.mark.parametrize("value", [1.0, [1.0], [0.0, 1.0, 2.0], [0, "1"], [0, None],
                                       [True, 1.0], {"lo": 0.0}])
    def test_amplitude_must_be_two_numbers(self, tmp_path, value):
        path = self.write_config(
            tmp_path, dataset={"count": 1, "noise_sigma": 0.0, "seed": 3,
                               "amplitude": value})
        with pytest.raises(ConfigError,
                           match="'dataset.amplitude' must be a list of 2 numbers"):
            load_config(path)

    def test_amplitude_keeps_its_values(self, tmp_path):
        path = self.write_config(
            tmp_path, dataset={"count": 1, "noise_sigma": 0.0, "seed": 3,
                               "amplitude": [-1, 2.5]})
        assert load_config(path).dataset.amplitude == (-1.0, 2.5)

    @pytest.mark.parametrize("value", [3, "3", ["3"], [2, None], {"rows": 2},
                                       [2.7], [True], [0], [2, 1.5], []])
    def test_tap_extents_must_be_a_list_of_numbers(self, tmp_path, value):
        cfg = load_config(self.write_config(
            tmp_path, theta_init={"n_filters": 1, "tap_extents": value, "seed": 2}))
        with pytest.raises(ConfigError,
                           match="'theta_init.tap_extents' must be a list of numbers"):
            build_theta(cfg, None)

    @pytest.mark.parametrize("value", [[32.9], ["a"], [True, 4], [0], [16, -2], [],
                                       16, "16", [4, 4, 4]])
    def test_grid_must_be_integers_of_at_least_1(self, tmp_path, value):
        path = self.write_config(tmp_path, grid=value)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == ("config key 'grid' must be a list of 1 or 2 "
                                   "numbers, each an integer >= 1, got "
                                   f"{value!r}")

    def test_extents_keep_their_values(self, tmp_path):
        cfg = load_config(self.write_config(
            tmp_path, grid=[4, 6.0],
            theta_init={"n_filters": 1, "tap_extents": [2.0, 3], "seed": 2}))
        assert cfg.grid.dims == (4, 6)
        theta = build_theta(cfg, None)
        assert [c.shape for c in theta.filters] == [(2, 3)]

    @pytest.mark.parametrize("section,key,value,wanted", [
        ("solver", "warm_start", "false", "true or false"),
        ("solver", "warm_start", 0, "true or false"),
        ("solver", "max_iters", 2.7, "an integer >= 0"),
        ("solver", "step", "fixed", 'a finite number > 0 or "one-over-L"'),
        ("solver", "grad_tol", [1e-8], "a finite number >= 0 or null"),
        ("optimizer", "step", [0.1], "a finite number"),
        ("optimizer", "max_upper", "3", "an integer >= 1"),
        ("dataset", "noise_sigma", None, "a finite number >= 0"),
        ("dataset", "seed", float("nan"), "an integer"),
        ("dataset", "count", 0, "an integer >= 1"),
        ("dataset", "realizations_per_image", 0, "an integer >= 1"),
        ("potential", "epsilon", True, "a finite number > 0"),
        ("solver", "step", -1, 'a finite number > 0 or "one-over-L"'),
        ("solver", "max_iters", -5, "an integer >= 0"),
        ("solver", "grad_tol", -1, 'a finite number >= 0 or null'),
        ("optimizer", "max_upper", 0, "an integer >= 1"),
        ("optimizer", "max_upper", -3, "an integer >= 1"),
        ("dataset", "n_jumps", -1, "an integer >= 0"),
        ("dataset", "n_jumps", 16, "below the grid size 16"),
        ("dataset", "noise_sigma", -0.1, "a finite number >= 0"),
        ("dataset", "amplitude", [1.0, 0.0],
         "[lo, hi] with lo <= hi, and lo < hi when n_jumps > 0"),
        ("dataset", "amplitude", [0.5, 0.5],
         "[lo, hi] with lo <= hi, and lo < hi when n_jumps > 0"),
        ("potential", "epsilon", 0, "a finite number > 0"),
        ("loss", "epsilon", 0, "a finite number > 0"),
        ("loss", "sigma", -1, "a finite number > 0"),
        ("loss", "var_high", 0.01, "a finite number >= var_low 0.02"),
        ("forward", "values", "ab", ARRAY_WANTED),
        ("forward", "values", [[1.0], [1.0, 0.0]], ARRAY_WANTED),
        ("forward", "values", [1.0] * 15, "16 numbers, flat or nested"),
        ("forward", "taps", 5, ARRAY_WANTED),
        ("forward", "taps", [[1.0], [1.0, 2.0]], ARRAY_WANTED),
        ("loss", "weights", "w", "a number or " + ARRAY_WANTED),
        ("loss", "weights", [1.0, 2.0, 3.0],
         "a number or numbers that broadcast to the grid [16]"),
        ("loss", "weights", [[1.0] * 16], "a number or numbers that broadcast to the grid [16]"),
        ("output", "params", 1, "a non-empty string"),
        ("output", "trace", None, "a non-empty string"),
        ("output", "table", "", "a non-empty string"),
        ("optimizer", "inner_iters", -1, "an integer >= 0"),
        ("optimizer", "eps0", -0.1, "a finite number >= 0"),
        ("optimizer", "up_exponent", 0.5,
         "a finite number > low_exponent 0.75 when up_a != 0"),
        ("gradcheck", "fd_step", 0, "a finite number > 0"),
        ("gradcheck", "unroll_steps", -3, "an integer >= 0"),
        ("gradcheck", "tolerances", [-1.0], "a list of numbers, each a finite number >= 0"),
    ])
    def test_mistyped_scalar_named(self, tmp_path, section, key, value, wanted):
        doc = json.loads(self.write_config(tmp_path).read_text())
        # a section of the kind that reads the key
        corridor = {"kind": "noise-corridor", "var_low": 0.02}
        doc.update({
            ("loss", "epsilon"): {"loss": {"kind": "huber"}},
            ("loss", "sigma"): {"loss": {"kind": "discrepancy"}},
            ("loss", "var_high"): {"loss": corridor},
            ("loss", "weights"): {"loss": {**corridor, "var_high": 0.03}},
            ("forward", "values"): {"forward": {"kind": "mask"}},
            ("forward", "taps"): {"forward": {"kind": "circulant"}},
            ("optimizer", "inner_iters"): {"optimizer": {"kind": "ba", "ss_upper": 0.1}},
            ("optimizer", "eps0"): {"optimizer": {"kind": "hoag"}},
            ("optimizer", "up_exponent"): {"optimizer": {"kind": "ttsa",
                                                         "low_exponent": 0.75}},
        }.get((section, key), {}))
        doc.setdefault(section, {})[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == (f"config key '{section}.{key}' must be {wanted}, "
                                   f"got {value!r}")

    @pytest.mark.parametrize("grid,forward,weights", [
        ([16], {"kind": "mask", "values": [1.0, 0.0] * 8}, 0.5),
        ([4, 4], {"kind": "mask", "values": [[1, 0, 1, 1]] * 4}, [2.0, 1.0, 1.0, 1.0]),
        ([4, 4], {"kind": "mask", "values": [1] * 16}, [[1.0] * 4] * 4),
        ([4, 4], {"kind": "circulant", "taps": [[0.5, 0.5]]}, [[1.0]]),
    ])
    def test_arrays_keep_their_forms(self, tmp_path, grid, forward, weights):
        cfg = load_config(self.write_config(
            tmp_path, grid=grid, forward=forward,
            loss={"kind": "noise-corridor", "var_low": 0.0, "var_high": 0.01,
                  "weights": weights}))
        np.testing.assert_array_equal(cfg.loss.weights, weights)
        if forward["kind"] == "mask":
            np.testing.assert_array_equal(cfg.forward.values.ravel(),
                                          np.ravel(forward["values"]))
        else:
            np.testing.assert_array_equal(cfg.forward.taps, forward["taps"])

    def test_bounds_keep_their_edges(self, tmp_path):
        for optimizer in ({"kind": "adam", "step": 0.0}, {"kind": "gd", "step": 0.0},
                          {"kind": "ba", "ss_upper": 0.1, "inner_iters": 0},
                          {"kind": "hoag", "eps0": 0},
                          {"kind": "ttsa", "up_a": 0.0, "up_exponent": 0.5}):
            load_config(self.write_config(tmp_path, optimizer=optimizer))
        gradcheck = {"tolerances": [0.0], "unroll_steps": 0}
        assert load_config(self.write_config(tmp_path, gradcheck=gradcheck)).gradcheck == {
            "tolerances": (0.0,), "fd_step": 1e-6, "fd_rel_tol": 1e-4, "unroll_steps": 0}

    @pytest.mark.parametrize("theta_init,key,wanted", [
        ({"n_filters": 1, "tap_extents": [2], "learn_beta0": "yes"}, "learn_beta0",
         "true or false"),
        ({"n_filters": 1.5, "tap_extents": [2]}, "n_filters", "an integer >= 0"),
        ({"n_filters": 1, "tap_extents": [2], "beta0": None}, "beta0",
         'a finite number or "auto"'),
        ({"filters": [[1.0, -1.0]], "beta0": "auto"}, "beta0", "a finite number"),
        ({"filters": 5, "betas": [0.0]}, "filters", FILTERS_WANTED),
        ({"filters": [["x", 1.0]]}, "filters", FILTERS_WANTED),
        ({"filters": [[[1.0], [1.0, -1.0]]]}, "filters", FILTERS_WANTED),
        ({"filters": [[1.0, -1.0]], "betas": 5}, "betas",
         "a list of 1 numbers, each a finite number"),
        ({"filters": [[1.0, -1.0]], "betas": [0.0, 0.0]}, "betas",
         "a list of 1 numbers, each a finite number"),
    ])
    def test_mistyped_theta_init_named(self, tmp_path, theta_init, key, wanted):
        cfg = load_config(self.write_config(tmp_path, theta_init=theta_init))
        with pytest.raises(ConfigError,
                           match=f"^config key 'theta_init.{key}' must be {wanted}, got"):
            build_theta(cfg, None)

    def test_scalars_keep_their_values(self, tmp_path):
        path = self.write_config(
            tmp_path, solver={"step": 0.5, "max_iters": 7.0, "grad_tol": 0,
                              "warm_start": False},
            theta_init={"n_filters": 1, "tap_extents": [2], "beta0": -1,
                        "learn_beta0": True})
        cfg = load_config(path)
        assert (cfg.solver.step, cfg.solver.max_iters, cfg.solver.grad_tol) == (0.5, 7, 0.0)
        assert type(cfg.solver.max_iters) is int and cfg.solver.warm_start is False
        theta = build_theta(cfg, None)
        assert theta.beta0 == -1.0 and theta.learn_beta0 is True
        defaults = load_config(self.write_config(tmp_path, solver={}))
        assert defaults.solver.step == "one-over-L" and defaults.solver.warm_start

    @pytest.mark.parametrize("grid,blur,tap_extents", [
        ([16], [0.25, 0.5, 0.25], [3]),
        ([8, 8], [[0.0, 0.1, 0.0], [0.1, 0.6, 0.1], [0.0, 0.1, 0.0]], [2, 2]),
    ])
    def test_auto_beta0_balances_the_gradients(self, tmp_path, grid, blur, tap_extents):
        # a blur, so the data-fit gradient at the adjoint start A'y is not zero
        cfg = load_config(self.write_config(
            tmp_path, grid=grid, forward={"kind": "circulant", "taps": blur},
            dataset={"count": 2, "noise_sigma": 0.1, "seed": 3},
            theta_init={"n_filters": 2, "tap_extents": tap_extents, "seed": 2}))
        train = build_train_set(cfg.dataset, cfg.grid, cfg.forward)
        theta = build_theta(cfg, train)
        assert theta.beta0 != 0.0
        A, y = train.A, train.y[0]
        x = A.adjoint(y)
        g_data = A.adjoint(A.apply(x) - y)
        g_reg = LowerProblem(A, y, theta).grad_x(x) - g_data
        data_norm = np.linalg.norm(g_data)
        assert abs(np.linalg.norm(g_reg) - data_norm) <= 1e-12 * data_norm

    @pytest.mark.parametrize("grid,tap_extents", [([16], [1]), ([8, 8], [1, 1])])
    def test_one_tap_random_filter_is_the_unit_delta(self, tmp_path, grid, tap_extents):
        cfg = load_config(self.write_config(
            tmp_path, grid=grid,
            theta_init={"n_filters": 2, "tap_extents": tap_extents, "seed": 2}))
        for c in build_theta(cfg, build_train_set(cfg.dataset, cfg.grid, cfg.forward)).filters:
            np.testing.assert_array_equal(c, np.ones(tap_extents))

    @pytest.mark.parametrize("key", sorted(KIND_KEYS))
    def test_unknown_kind_names_every_choice(self, tmp_path, key):
        doc = json.loads((CONFIGS / "toy_train.json").read_text())
        if key == "optimizer.step.kind":  # HOAG reads a step object
            doc["optimizer"] = {"kind": "hoag", "step": {}}
        *sections, last = key.split(".")
        section = doc
        for name in sections:
            section = section.setdefault(name, {})
        section[last] = "sgd"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == (f"config key '{key}' must be {KIND_KEYS[key]}, "
                                   "got 'sgd'")

    def test_seed_mandatory(self, tmp_path):
        doc = json.loads(self.write_config(tmp_path).read_text())
        del doc["seed"]
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)
