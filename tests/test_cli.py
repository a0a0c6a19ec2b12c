import ast
import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from bilevelreg import cli
from bilevelreg.cli import main
from bilevelreg.data import load_params, load_signal, save_params, save_signal
from bilevelreg.errors import ConfigError
from bilevelreg.lower import HyperParams
from bilevelreg.potentials import CornerRounded1Norm

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_in(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    return main(argv)


def strip_wall_time(csv_path):
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    drop = header.index("wall_ms")
    return [
        [cell for i, cell in enumerate(row) if i != drop] for row in rows
    ]


class TestTrain:
    def test_toy_config_smoke(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        shutil.copy(CONFIGS / "toy_train.json", cfg)
        code = run_in(tmp_path, monkeypatch, ["train", "--config", str(cfg)])
        assert code == 0
        assert (tmp_path / "params.json").exists()
        assert (tmp_path / "trace.csv").exists()
        theta = load_params(tmp_path / "params.json")
        assert theta.n_filters == 1
        rows = strip_wall_time(tmp_path / "trace.csv")
        assert rows[0][:4] == ["iteration", "loss", "grad_norm", "lower_iters"]
        assert len(rows) == 11

    @pytest.mark.parametrize("unroll_step,warned", [(0.05, None), (2.0, 3)])
    def test_warning_summary_line(self, tmp_path, monkeypatch, capsys,
                                  unroll_step, warned):
        # L of the toy problem is about 17 at its theta_init (2/L ~ 0.11), so
        # a step of 2.0 is above 2/L at every iteration and 0.05 at none
        doc = json.loads((CONFIGS / "toy_train.json").read_text())
        doc["engine"] = {"kind": "reverse", "unroll_steps": 3, "unroll_step": unroll_step}
        doc["optimizer"]["max_upper"] = 3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_in(tmp_path, monkeypatch, ["train", "--config", str(cfg)]) == 0
        err = capsys.readouterr().err
        with open(tmp_path / "trace.csv", newline="") as fh:
            counts = [float(row["warnings"]) for row in csv.DictReader(fh)]
        if warned is None:
            assert err == "" and counts == [0.0] * 3
        else:
            assert counts == [2.0] * 3  # both samples, every iteration
            assert err.splitlines() == [
                f"warning: {warned} of 3 iterations raised a hypergradient "
                "warning (the trace's warnings column counts them)"
            ]

    def test_ba_writes_inner_iters(self, tmp_path, monkeypatch):
        doc = json.loads((CONFIGS / "toy_train.json").read_text())
        doc["optimizer"] = {"kind": "ba", "ss_upper": 0.01, "inner_iters": 5,
                            "max_upper": 3, "theta_rel_tol": 0.0}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_in(tmp_path, monkeypatch, ["train", "--config", str(cfg)]) == 0
        with open(tmp_path / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert [row["inner_iters"] for row in rows] == ["5.0"] * 3
        assert [row["lower_iters"] for row in rows] == ["10"] * 3  # 5 per sample
        assert load_params(tmp_path / "params.json").n_filters == 1

    def test_byte_determinism_excluding_wall_time(self, tmp_path, monkeypatch):
        outputs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            cfg = d / "cfg.json"
            shutil.copy(CONFIGS / "toy_train.json", cfg)
            assert run_in(d, monkeypatch, ["train", "--config", str(cfg)]) == 0
            outputs.append(d)
        a, b = outputs
        assert (a / "params.json").read_bytes() == (b / "params.json").read_bytes()
        assert strip_wall_time(a / "trace.csv") == strip_wall_time(b / "trace.csv")


class TestReconstructAndEval:
    def test_roundtrip_pipeline(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        shutil.copy(CONFIGS / "toy_train.json", cfg)
        assert run_in(tmp_path, monkeypatch, ["train", "--config", str(cfg)]) == 0
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg),
                     "--output-dir", str(data_dir)]) == 0
        y_files = sorted(data_dir.glob("y_*.sig"))
        x_files = sorted(data_dir.glob("x_true_*.sig"))
        assert len(y_files) == len(x_files) == 2
        out = tmp_path / "xhat.sig"
        assert main(["reconstruct", "--config", str(cfg),
                     "--params", str(tmp_path / "params.json"),
                     "--input", str(y_files[0]), "--output", str(out)]) == 0
        xhat = load_signal(out)
        assert xhat.shape == (32,)
        metrics_csv = tmp_path / "metrics.csv"
        assert main(["eval", "--estimate", str(out),
                     "--reference", str(x_files[0]),
                     "--output", str(metrics_csv)]) == 0
        with open(metrics_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mse", "mae", "snr_db", "psnr_db"]
        assert float(rows[1][0]) > 0

    def test_reconstruct_denoises(self, tmp_path, monkeypatch):
        # reconstruction with a difference filter beats the raw noisy input
        cfg = tmp_path / "cfg.json"
        doc = json.loads((CONFIGS / "sweep.json").read_text())
        doc["theta_init"]["beta0"] = -2.5
        cfg.write_text(json.dumps(doc))
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg),
                     "--output-dir", str(data_dir)]) == 0
        params = tmp_path / "p.json"
        from bilevelreg.data import save_params
        from bilevelreg.lower import HyperParams
        from bilevelreg.potentials import CornerRounded1Norm

        save_params(params, HyperParams(-2.5, [0.0], [np.array([1.0, -1.0])],
                                        CornerRounded1Norm(0.01)))
        out = tmp_path / "xhat.sig"
        assert main(["reconstruct", "--config", str(cfg), "--params", str(params),
                     "--input", str(data_dir / "y_000.sig"),
                     "--output", str(out)]) == 0
        from bilevelreg.losses import metrics

        x_true = load_signal(data_dir / "x_true_000.sig")
        y = load_signal(data_dir / "y_000.sig")
        assert metrics(load_signal(out), x_true).psnr_db > metrics(y, x_true).psnr_db


class TestGradcheck:
    def test_report_and_angles(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        shutil.copy(CONFIGS / "gradcheck.json", cfg)
        code = run_in(tmp_path, monkeypatch, ["gradcheck", "--config", str(cfg)])
        assert code == 0
        report = (tmp_path / "gradcheck_report.txt").read_text().splitlines()
        assert all(line.endswith("PASS") for line in report)
        with open(tmp_path / "gradcheck_angles.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tolerance", "angle_rad", "rel_norm_err"]
        angles = [float(r[1]) for r in rows[1:]]
        assert len(angles) == 4
        # the sweep column is monotone (within the report's slack criterion)
        assert all(b <= a * 1.1 + 1e-12 for a, b in zip(angles, angles[1:]))


class TestSweep:
    def test_writes_table(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        shutil.copy(CONFIGS / "sweep.json", cfg)
        code = run_in(tmp_path, monkeypatch, ["sweep", "--config", str(cfg)])
        assert code == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["beta0", "loss"]
        assert len(rows) == 12


class TestErrors:
    def test_unknown_subcommand_usage_exit(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_config_is_runtime_error(self, capsys):
        assert main(["train", "--config", "/nonexistent/cfg.json"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_config_error_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        doc = json.loads((CONFIGS / "toy_train.json").read_text())
        doc["dataset"]["mystery"] = 1
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 1
        assert "dataset.mystery" in capsys.readouterr().err

    def test_value_only_loss_is_one_line_error(self, tmp_path, monkeypatch,
                                               capsys):
        doc = json.loads((CONFIGS / "toy_train.json").read_text())
        doc["optimizer"] = {"kind": "ttsa", "max_upper": 3}
        doc["loss"] = {"kind": "sure-mc", "sigma": 0.05}
        cfg = tmp_path / "sure.json"
        cfg.write_text(json.dumps(doc))
        assert run_in(tmp_path, monkeypatch, ["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "sure-mc" in err
        assert not (tmp_path / "params.json").exists()

    @pytest.mark.parametrize("step", [
        {"kind": "constant"},
        "fast",
        {"kind": "constant", "alpha": 0.1, "typo": 3},
    ])
    def test_bad_hoag_step_is_one_line_error(self, tmp_path, monkeypatch, capsys,
                                             step):
        doc = json.loads((CONFIGS / "toy_train.json").read_text())
        doc["optimizer"] = {"kind": "hoag", "step": step, "max_upper": 2}
        cfg = tmp_path / "hoag.json"
        cfg.write_text(json.dumps(doc))
        assert run_in(tmp_path, monkeypatch, ["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "optimizer.step" in err

    def test_hoag_rejects_engine_cg_tol(self, tmp_path, monkeypatch, capsys):
        # HOAG solves CG to its own eps_i, so a cg_tol would be ignored
        doc = json.loads((CONFIGS / "toy_train.json").read_text())
        doc["optimizer"] = {"kind": "hoag", "max_upper": 2}
        cfg = tmp_path / "hoag.json"
        cfg.write_text(json.dumps(doc))
        assert run_in(tmp_path, monkeypatch, ["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "engine.cg_tol" in err
        assert not (tmp_path / "params.json").exists()
        doc["engine"] = {"kind": "minimizer"}
        cfg.write_text(json.dumps(doc))
        assert run_in(tmp_path, monkeypatch, ["train", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("section,key,value", [
        ("optimizer", "batch", 0),
        ("dataset", "amplitude", 1.0),
        ("theta_init", "tap_extents", 3),
        ("solver", "warm_start", "false"),
        ("solver", "max_iters", 2.7),
        ("optimizer", "step", [0.1]),
        ("theta_init", "learn_beta0", "no"),
        ("solver", "step", -1),
        ("solver", "max_iters", -5),
        ("solver", "grad_tol", -1),
        ("dataset", "n_jumps", -1),
        ("dataset", "n_jumps", 40),
        ("dataset", "noise_sigma", -0.1),
        ("dataset", "amplitude", [1.0, 0.0]),
        ("dataset", "amplitude", [0.5, 0.5]),
        ("potential", "epsilon", 0),
        ("loss", "epsilon", 0),
        ("loss", "sigma", -1),
        ("loss", "var_high", 0.01),
        ("optimizer", "max_upper", -3),
        ("optimizer", "max_upper", 0),
        ("theta_init", "filters", 5),
        ("theta_init", "betas", 5),
        ("output", "params", 1),
        ("output", "params", True),
        ("output", "params", None),
        ("forward", "values", "ab"),
        ("forward", "values", [1.0] * 31),
        ("forward", "taps", 5),
        ("loss", "weights", [1.0, 2.0, 3.0]),
        ("optimizer", "inner_iters", -1),
        ("optimizer", "eps0", -0.1),
        ("optimizer", "up_exponent", 0.5),
        ("gradcheck", "fd_step", 0),
        ("gradcheck", "unroll_steps", -3),
        ("gradcheck", "tolerances", [-1.0]),
        ("forward", "values", [0.5] * 32),
        ("forward", "taps", [[0.5, 0.5], [0.0, 0.0]]),
        ("forward", "taps", [1.0] * 40),
        ("theta_init", "filters", [[1.0] * 40]),
        ("theta_init", "tap_extents", [40]),
        ("theta_init", "tap_extents", [2, 2]),
        ("loss", "weights", -1.0),
    ])
    def test_bad_config_value_is_one_line_error(self, tmp_path, monkeypatch, capsys,
                                                recwarn, section, key, value):
        doc = json.loads((CONFIGS / "toy_train.json").read_text())
        # a section of the kind that reads the key, where the config has another
        doc.update({
            ("optimizer", "batch"): {"optimizer": {"kind": "ttsa", "max_upper": 2}},
            ("loss", "epsilon"): {"loss": {"kind": "huber"}},
            ("loss", "sigma"): {"loss": {"kind": "discrepancy"}},
            ("loss", "var_high"): {"loss": {"kind": "noise-corridor", "var_low": 0.02}},
            ("theta_init", "betas"): {"theta_init": {"filters": [[0.7, -0.7]]}},
            ("theta_init", "filters"): {"theta_init": {}},
            ("forward", "values"): {"forward": {"kind": "mask"}},
            ("forward", "taps"): {"forward": {"kind": "circulant"}},
            ("loss", "weights"): {"loss": {"kind": "noise-corridor", "var_low": 0.0,
                                           "var_high": 0.01}},
            ("optimizer", "inner_iters"): {"optimizer": {"kind": "ba", "ss_upper": 0.01,
                                                         "max_upper": 2}},
            ("optimizer", "eps0"): {"optimizer": {"kind": "hoag", "max_upper": 2},
                                    "engine": {"kind": "minimizer"}},
            ("optimizer", "up_exponent"): {"optimizer": {"kind": "ttsa", "max_upper": 2,
                                                         "low_exponent": 0.75}},
        }.get((section, key), {}))
        doc.setdefault(section, {})[key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert run_in(tmp_path, monkeypatch, ["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"'{section}.{key}'" in err
        assert not recwarn.list  # no numpy warning from a run that started
        assert not (tmp_path / "params.json").exists()

    def test_unknown_kind_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        doc = json.loads((CONFIGS / "toy_train.json").read_text())
        doc["optimizer"]["kind"] = "sgd"
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert run_in(tmp_path, monkeypatch, ["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: config key 'optimizer.kind' must be \"adam\", \"gd\", \"hoag\", "
            "\"ba\" or \"ttsa\", got 'sgd'\n")
        assert not (tmp_path / "params.json").exists()

    def test_long_value_is_cut_in_a_one_line_error(self, tmp_path, monkeypatch, capsys):
        """A 1,023-number mask on a 32x32 grid is named by its length, not
        printed whole."""
        doc = json.loads((CONFIGS / "toy_train.json").read_text())
        doc.update(grid=[32, 32], forward={"kind": "mask", "values": [1.0] * 1023})
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert run_in(tmp_path, monkeypatch, ["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'forward.values' must be 1024 numbers")
        assert err.count("\n") == 1 and len(err) <= 250
        assert err.endswith(", 1.0, ... (1023 entries)\n")

    @pytest.mark.parametrize("command,section,key", [
        ("sweep", "sweep", "beta0_grid"),
        ("gradcheck", "gradcheck", "tolerances"),
    ])
    def test_scalar_for_a_list_is_one_line_error(self, tmp_path, monkeypatch, capsys,
                                                 command, section, key):
        doc = json.loads((CONFIGS / f"{command}.json").read_text())
        doc[section][key] = 0.5
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert run_in(tmp_path, monkeypatch, [command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"'{section}.{key}'" in err

    def test_equal_amplitude_bounds_is_one_line_error(self, tmp_path, capsys):
        doc = json.loads((CONFIGS / "sweep.json").read_text())
        doc["dataset"]["amplitude"] = [0.5, 0.5]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg),
                     "--output-dir", str(data_dir)]) == 1
        assert capsys.readouterr().err == (
            "error: config key 'dataset.amplitude' must be [lo, hi] with lo <= hi, "
            "and lo < hi when n_jumps > 0, got [0.5, 0.5]\n")
        assert not data_dir.exists()

    def test_gen_data_failure_leaves_no_directory(self, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise ValueError("no dataset")

        monkeypatch.setattr(cli, "build_train_set", fail)
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", str(CONFIGS / "sweep.json"),
                     "--output-dir", str(data_dir)]) == 1
        assert capsys.readouterr().err == "error: no dataset\n"
        assert not data_dir.exists()

    @pytest.mark.parametrize("key,value", [("epsilon", None), ("filters", [[0.7, -0.7]])])
    def test_params_file_mistyped_value_is_one_line_error(self, tmp_path, capsys,
                                                          key, value):
        cfg = tmp_path / "cfg.json"
        shutil.copy(CONFIGS / "toy_train.json", cfg)
        params = tmp_path / "params.json"
        save_params(params, HyperParams(0.0, [0.0], [np.array([0.7, -0.7])],
                                        CornerRounded1Norm(0.01)))
        doc = json.loads(params.read_text())
        doc[key] = value
        params.write_text(json.dumps(doc))
        y = tmp_path / "y.sig"
        save_signal(y, np.zeros(32))
        assert main(["reconstruct", "--config", str(cfg), "--params", str(params),
                     "--input", str(y), "--output", str(tmp_path / "xhat.sig")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: params key '{key}' must be")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("entry,key", [
        ({"extents": "ab", "taps": [0.7, -0.7]}, "filters[0].extents"),
        ({"extents": [2], "taps": ["x", 1.0]}, "filters[0].taps"),
        ({"extents": [3], "taps": [0.7, -0.7]}, "filters[0].taps"),
    ])
    def test_params_file_mistyped_filter_is_one_line_error(self, tmp_path, capsys,
                                                           entry, key):
        cfg = tmp_path / "cfg.json"
        shutil.copy(CONFIGS / "toy_train.json", cfg)
        params = tmp_path / "params.json"
        save_params(params, HyperParams(0.0, [0.0], [np.array([0.7, -0.7])],
                                        CornerRounded1Norm(0.01)))
        doc = json.loads(params.read_text())
        doc["filters"] = [entry]
        params.write_text(json.dumps(doc))
        y = tmp_path / "y.sig"
        save_signal(y, np.zeros(32))
        assert main(["reconstruct", "--config", str(cfg), "--params", str(params),
                     "--input", str(y), "--output", str(tmp_path / "xhat.sig")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: params key '{key}' must be")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key", ["betas", "taps"])
    def test_params_file_missing_key_is_one_line_error(self, tmp_path, monkeypatch,
                                                       capsys, key):
        cfg = tmp_path / "cfg.json"
        shutil.copy(CONFIGS / "toy_train.json", cfg)
        assert run_in(tmp_path, monkeypatch, ["train", "--config", str(cfg)]) == 0
        params = tmp_path / "params.json"
        doc = json.loads(params.read_text())
        del (doc["filters"][0] if key == "taps" else doc)[key]
        params.write_text(json.dumps(doc))
        y = tmp_path / "y.sig"
        save_signal(y, np.zeros(32))
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(cfg), "--params", str(params),
                     "--input", str(y), "--output", str(tmp_path / "xhat.sig")]) == 1
        err = capsys.readouterr().err
        named = "filters[0].taps" if key == "taps" else key
        assert err == f"error: missing params key '{named}'\n"

    def test_bad_signal_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.sig"
        bad.write_bytes(b"not a signal")
        ref = tmp_path / "ref.sig"
        save_signal(ref, np.zeros(4))
        assert main(["eval", "--estimate", str(bad), "--reference", str(ref),
                     "--output", str(tmp_path / "m.csv")]) == 1


COMMANDS = ("train", "reconstruct", "eval", "gradcheck", "sweep", "gen-data")


class TestCommandTable:
    def test_each_command_is_named_once(self):
        """The subcommand table is the only place a command is named, and
        ``main`` dispatches through it without a branch per command."""
        tree = ast.parse(Path(cli.__file__).read_text())
        names = [node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and node.value in COMMANDS]
        assert sorted(names) == sorted(COMMANDS), names
        main_def = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "main")
        branches = [ast.unparse(node.test) for node in ast.walk(main_def)
                    if isinstance(node, ast.If) and "command" in ast.unparse(node.test)]
        assert not branches, branches

    def test_run_looks_up_module_globals_when_called(self, monkeypatch, capsys):
        def fail(path):
            raise ConfigError(f"patched load of {path}")

        monkeypatch.setattr(cli, "load_config", fail)
        assert main(["sweep", "--config", "c.json"]) == 1
        assert capsys.readouterr().err == "error: patched load of c.json\n"

    @pytest.mark.parametrize("engine, passed", [
        ({"kind": "minimizer", "cg_tol": 1e-7}, {"cg_tol": 1e-7}),
        ({"kind": "reverse", "unroll_steps": 3, "unroll_step": 0.05},
         {"unroll_steps": 3, "unroll_step": 0.05}),
    ])
    def test_train_passes_the_engine_section(self, tmp_path, monkeypatch, engine,
                                             passed):
        seen = {}

        def capture(*args, **kwargs):
            seen.update(kwargs)
            raise ConfigError("captured")

        monkeypatch.setattr(cli, "adam_or_gd_upper", capture)
        cfg = tmp_path / "engine.json"
        doc = json.loads((CONFIGS / "toy_train.json").read_text())
        doc["engine"] = engine
        cfg.write_text(json.dumps(doc))
        assert run_in(tmp_path, monkeypatch, ["train", "--config", str(cfg)]) == 1
        assert seen["engine"] == engine["kind"]
        engine_args = {k: seen[k] for k in ("cg_tol", "unroll_steps", "unroll_step")
                       if k in seen}
        assert engine_args == passed
