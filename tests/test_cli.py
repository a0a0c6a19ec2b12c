import csv
import json
import shutil
from pathlib import Path

import numpy as np

from bilevelreg.cli import main
from bilevelreg.data import load_params, load_signal, save_signal

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

    def test_bad_signal_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.sig"
        bad.write_bytes(b"not a signal")
        ref = tmp_path / "ref.sig"
        save_signal(ref, np.zeros(4))
        assert main(["eval", "--estimate", str(bad), "--reference", str(ref),
                     "--output", str(tmp_path / "m.csv")]) == 1
