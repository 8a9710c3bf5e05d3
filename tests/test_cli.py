"""CLI behavior: outputs, exit codes, manifests, reproducibility."""

import json
import os

import numpy as np
import pytest

from mtkl import BoundInputs, multitask_epsilon
from mtkl.cli import main
from mtkl.kernels import family_to_dict, KernelFamily, rbf_kernel


@pytest.fixture()
def family_file(tmp_path):
    fam = KernelFamily(variant="convex_combo",
                       dictionary=(rbf_kernel(0.5, dims=(0, 1)),
                                   rbf_kernel(1.0, dims=(0, 1))))
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family_to_dict(fam)))
    return str(path)


@pytest.fixture()
def data_file(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    for task in range(2):
        X = rng.uniform(-1, 1, (10, 2))
        y = np.where(X[:, 0] >= 0, 1, -1)
        for row, label in zip(X, y):
            lines.append(f"t{task},{row[0]},{row[1]},{label}")
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_all(out_dir):
    artifacts = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            artifacts[name] = fh.read()
    return artifacts


class TestBoundCommand:
    def test_multitask_matches_library(self, capsys):
        rc = main(["bound", "--mode", "multitask", "--n", "4", "--m", "64",
                   "--dphi", "3", "--gamma", "0.25", "--delta", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        row = out.strip().splitlines()[-1].split(",")
        expected = multitask_epsilon(BoundInputs(
            n=4, m=64, d_phi=3.0, B=1.0, gamma=0.25, delta=0.05))
        assert float(row[1]) == expected.epsilon
        assert row[2] == "True"

    def test_lifelong_requires_epsilon(self, capsys):
        rc = main(["bound", "--mode", "lifelong", "--n", "4", "--m", "64",
                   "--dphi", "3", "--gamma", "0.25", "--delta", "0.05"])
        assert rc == 2

    def test_invert_infeasible_exit_code(self, capsys):
        rc = main(["bound", "--mode", "invert", "--n", "4", "--m", "16",
                   "--dphi", "2", "--gamma", "0.25", "--delta", "0.05"])
        assert rc == 2


class TestLearnCommand:
    def test_learn_writes_artifacts(self, family_file, data_file, tmp_path,
                                    capsys):
        out_dir = str(tmp_path / "out")
        rc = main(["learn", "--family", family_file, "--data", data_file,
                   "--gamma", "0.1", "--out-dir", out_dir, "--seed", "7"])
        assert rc == 0
        assert set(os.listdir(out_dir)) == {"solution.json", "errors.csv",
                                            "manifest.json"}
        solution = json.loads((tmp_path / "out" / "solution.json").read_text())
        assert len(solution["alphas"]) == 2
        assert solution["nonconverged_fits"] == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert "config_sha256" in manifest

    def test_nonconverged_fits_reported(self, family_file, data_file, tmp_path):
        out_dir = tmp_path / "out"
        rc = main(["learn", "--family", family_file, "--data", data_file,
                   "--gamma", "0.1", "--out-dir", str(out_dir), "--max-iters", "1"])
        assert rc == 0
        solution = json.loads((out_dir / "solution.json").read_text())
        assert solution["nonconverged_fits"] == 2

    def test_rerun_bitwise_identical(self, family_file, data_file, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["learn", "--family", family_file, "--data", data_file,
                "--gamma", "0.1", "--seed", "7"]
        assert main(args + ["--out-dir", out_a]) == 0
        assert main(args + ["--out-dir", out_b]) == 0
        assert read_all(out_a) == read_all(out_b)

    def test_missing_family_file(self, data_file, tmp_path, capsys):
        rc = main(["learn", "--family", str(tmp_path / "nope.json"),
                   "--data", data_file, "--gamma", "0.1",
                   "--out-dir", str(tmp_path / "o")])
        assert rc != 0

    def test_non_object_family_file_exit2(self, data_file, tmp_path, capsys):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(["variant"]))
        rc = main(["learn", "--family", str(path), "--data", data_file,
                   "--gamma", "0.1", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "error-category: input" in capsys.readouterr().err


class TestShatterCoverCommands:
    def test_shatter_outputs(self, family_file, tmp_path, capsys):
        out_dir = str(tmp_path / "sh")
        rc = main(["shatter", "--family", family_file, "--dim", "2",
                   "--pool-size", "5", "--max-n", "2", "--trials-per-n", "4",
                   "--out-dir", out_dir, "--seed", "3"])
        assert rc == 0
        assert {"shatter.csv", "witness.json", "manifest.json"} <= \
            set(os.listdir(out_dir))
        witness = json.loads((tmp_path / "sh" / "witness.json").read_text())
        assert witness["lower_bound"] >= 0

    def test_cover_outputs(self, family_file, tmp_path, capsys):
        out_dir = str(tmp_path / "cv")
        rc = main(["cover", "--family", family_file, "--metric", "kernel_sup",
                   "--epsilon", "0.5", "0.05", "--dim", "2", "--pool-size", "6",
                   "--out-dir", out_dir, "--seed", "3"])
        assert rc == 0
        lines = (tmp_path / "cv" / "cover.csv").read_text().strip().splitlines()
        assert lines[0].startswith("# mtkl-csv")
        assert len(lines) == 4  # comment + header + one row per epsilon


class TestExperimentCommand:
    def _config(self, tmp_path, mode, **extra):
        env_spec = {
            "input_law": {"kind": "uniform_cube", "dim": 4},
            "dictionary": [{"type": "rbf", "bandwidth": 0.6, "dims": [0, 1]},
                           {"type": "rbf", "bandwidth": 0.6, "dims": [2, 3]}],
            "clusters": [{"weight": 1.0, "kernel_index": 0,
                          "margin_gap": 0.25, "flip_rate": 0.1}],
        }
        config = {"mode": mode, "environment": env_spec, "gamma": 0.1,
                  "trials": 2, "mc_samples": 1000, **extra}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_sandwich_experiment(self, tmp_path, capsys):
        cfg = self._config(tmp_path, "sandwich", n=2, m=12)
        out_dir = str(tmp_path / "exp")
        rc = main(["experiment", "--config", cfg, "--out-dir", out_dir,
                   "--seed", "5"])
        assert rc == 0
        names = set(os.listdir(out_dir))
        assert {"trials.csv", "curve.svg", "manifest.json"} <= names
        svg = (tmp_path / "exp" / "curve.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_overhead_experiment(self, tmp_path, capsys):
        cfg = self._config(tmp_path, "overhead", m=10, n_grid=[1, 2])
        out_dir = str(tmp_path / "exp2")
        rc = main(["experiment", "--config", cfg, "--out-dir", out_dir,
                   "--seed", "5"])
        assert rc == 0
        rows = (tmp_path / "exp2" / "trials.csv").read_text().strip().splitlines()
        assert rows[1].split(",")[0] == "n"
        assert len(rows) == 2 + 2 * 2  # comment, header, n_grid x trials

    def test_unknown_config_key_exit2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"mode": "sandwich", "environment": {},
                                        "trils": 3}))
        rc = main(["experiment", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "trils" in err and "error-category: input" in err

    @pytest.mark.parametrize("key,value", [("input_law", 3), ("clusters", [5])])
    def test_non_object_environment_part_exit2(self, tmp_path, capsys, key,
                                               value):
        cfg_path = self._config(tmp_path, "sandwich", n=2, m=12)
        with open(cfg_path, encoding="utf-8") as fh:
            config = json.load(fh)
        config["environment"][key] = value
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        rc = main(["experiment", "--config", cfg_path,
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "error-category: input" in capsys.readouterr().err

    def test_rerun_bitwise_identical(self, tmp_path):
        cfg = self._config(tmp_path, "sandwich", n=2, m=10)
        out_a, out_b = str(tmp_path / "ra"), str(tmp_path / "rb")
        assert main(["experiment", "--config", cfg, "--out-dir", out_a,
                     "--seed", "9"]) == 0
        assert main(["experiment", "--config", cfg, "--out-dir", out_b,
                     "--seed", "9"]) == 0
        assert read_all(out_a) == read_all(out_b)
