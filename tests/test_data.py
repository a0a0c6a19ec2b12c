import json

import numpy as np
import pytest

from bilevelreg.data import (
    add_noise,
    build_dataset_spec,
    build_forward,
    build_grid,
    build_loss,
    build_optimizer,
    build_potential,
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
from bilevelreg.losses import HuberLoss, MSELoss, NoiseCorridorLoss, SureMCLoss
from bilevelreg.lower import HyperParams
from bilevelreg.potentials import CornerRounded1Norm, Quadratic
from bilevelreg.signals import Grid


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


class TestBuilders:
    def test_forward_variants(self):
        grid = build_grid([8])
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

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="loss.flavor"):
            build_loss({"kind": "mse", "flavor": "ranch"})

    @pytest.mark.parametrize("ss_lower", ["paper_default", 0, -0.5, True, None])
    def test_ba_lower_step_validated(self, ss_lower):
        with pytest.raises(ConfigError, match="optimizer.ss_lower"):
            build_optimizer({"kind": "ba", "ss_upper": 0.1, "ss_lower": ss_lower})

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

    def test_seed_mandatory(self, tmp_path):
        doc = json.loads(self.write_config(tmp_path).read_text())
        del doc["seed"]
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)
