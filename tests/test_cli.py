"""CLI behavior: outputs, exit codes, manifests, reproducibility."""

import argparse
import csv
import io
import json
import math
import os
import shlex
import warnings

import numpy as np
import pytest

from mtkl import (BoundConstants, BoundInputs, InputError, lifelong_delta,
                  linear_kernel, load_multitask_sample, margin,
                  multitask_epsilon, psd_defect, svgplot)
from mtkl.cli import build_parser, main
from mtkl.kernels import BaseKernel, family_to_dict, KernelFamily, rbf_kernel


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


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def subcommand_dests(name):
    """Option dests the subcommand's parser registers, read off argparse."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[name]._actions if a.dest != "help"}


def argv_from_manifest(manifest, out_dir):
    """The command line a manifest records, writing to ``out_dir``."""
    argv = [manifest["command"], "--seed", str(manifest["seed"]),
            "--out-dir", out_dir]
    for key, value in manifest["config"].items():
        values = value if isinstance(value, list) else [value]
        argv += ["--" + key.replace("_", "-"), *map(str, values)]
    return argv


class TestBoundCommand:
    def test_multitask_matches_library(self, capsys):
        rc = main(["bound", "--mode", "multitask", "--n", "4", "--m", "64",
                   "--dphi", "3", "--gamma", "0.25", "--delta", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        row = out.strip().splitlines()[-1].split(",")
        expected = multitask_epsilon(BoundInputs(
            n=4, m=64, d_phi=3.0, B=1.0, gamma=0.25), 0.05)
        assert float(row[1]) == expected.epsilon
        assert row[2] == "True"

    def test_multitask_infinite_radius_not_valid(self, capsys):
        rc = main(["bound", "--mode", "multitask", "--n", "3", "--m", "32",
                   "--dphi", "4", "--gamma", "0.1", "--delta", "0.05",
                   "--B", "1e300"])
        assert rc == 0
        row = next(csv.reader(io.StringIO(
            capsys.readouterr().out.splitlines()[-1])))
        assert row[1:3] == ["inf", "False"] and row[6] == "inf"
        assert "kernel_overhead = inf" in row[-1]

    @pytest.mark.parametrize("flags, row", [
        (["--mode", "lifelong", "--B", "1e300", "--gamma", "1e-100",
          "--epsilon", "0.5"], ["lifelong", "1.0", "False", "True", "inf"]),
        (["--mode", "multitask", "--B", "1e300", "--gamma", "1e-10",
          "--delta", "0.05"], ["multitask", "inf", "False", ""]),
    ], ids=["lifelong", "multitask"])
    def test_overflowing_exponent_prints_no_nan(self, capsys, flags, row):
        # a log clamped to 0 beside an exponent that overflowed to inf
        # once printed nan
        assert main(["bound", "--n", "1", "--m", "10", "--dphi", "1",
                     *flags]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out
        printed = next(csv.reader(io.StringIO(out.splitlines()[-1])))
        assert printed[:len(row)] == row

    def test_lifelong_requires_epsilon(self, capsys):
        rc = main(["bound", "--mode", "lifelong", "--n", "4", "--m", "64",
                   "--dphi", "3", "--gamma", "0.25"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error-category: input" in captured.err
        assert "requires --epsilon" in captured.err

    def test_negative_exponent_reaches_its_check(self, capsys):
        # argparse took "-1e-3" for an option and said "expected one argument"
        rc = main(["bound", "--mode", "multitask", *self.PROBLEM,
                   "--delta", "0.05", "--B", "-1e-3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "B must be positive" in captured.err

    def test_invert_infeasible_exit_code(self, capsys):
        rc = main(["bound", "--mode", "invert", "--n", "4", "--m", "16",
                   "--dphi", "2", "--gamma", "0.25", "--delta", "0.05"])
        assert rc == 2
        # the row is computed before the CSV comment and header are written
        assert capsys.readouterr().out == ""

    PROBLEM = ["--n", "4", "--m", "64", "--dphi", "3", "--gamma", "0.25"]

    @pytest.mark.parametrize("mode,flags,needle", [
        ("multitask", [], "requires --delta"),
        ("multitask", ["--delta", "0.05", "--epsilon", "7"],
         "does not read --epsilon"),
        ("multitask", ["--delta", "0.05", "--C", "2"], "does not read --C"),
        ("lifelong", ["--C", "2"], "requires --epsilon"),
        ("lifelong", ["--epsilon", "0.5", "--delta", "0.05"],
         "does not read --delta"),
        ("invert", ["--C", "2"], "requires --delta"),
        ("invert", ["--delta", "0.3", "--epsilon", "0.5"],
         "does not read --epsilon"),
    ])
    def test_mode_takes_only_the_flags_it_reads(self, capsys, mode, flags,
                                                needle):
        rc = main(["bound", "--mode", mode, *self.PROBLEM, *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error-category: input" in captured.err and needle in captured.err

    @pytest.mark.parametrize("flags", [
        ["--mode", "multitask", "--n", "0", "--m", "64", "--dphi", "3",
         "--gamma", "0.25", "--delta", "0.05"],
        ["--mode", "multitask", *PROBLEM, "--delta", "1.5"],
        ["--mode", "lifelong", *PROBLEM, "--epsilon", "0"],
        ["--mode", "invert", *PROBLEM, "--delta", "0.3", "--C", "-1"],
    ], ids=["n_zero", "delta_above_one", "epsilon_zero", "C_negative"])
    def test_bad_value_exit2_with_empty_stdout(self, capsys, flags):
        assert main(["bound", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error-category: input" in captured.err

    def test_sample_size_constant_flag_is_gone(self, capsys):
        # no mode reads c: only appendix_sample_size does
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--mode", "multitask", *self.PROBLEM,
                  "--delta", "0.05", "--c", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_lifelong_constant_read(self, capsys):
        rows = []
        for extra in ([], ["--C", "1"], ["--C", "7"]):
            assert main(["bound", "--mode", "lifelong", *self.PROBLEM,
                         "--epsilon", "0.5", *extra]) == 0
            rows.append(capsys.readouterr().out.splitlines()[-1].split(","))
        assert rows[0] == rows[1]
        expected = lifelong_delta(BoundInputs(n=4, m=64, d_phi=3.0, B=1.0,
                                              gamma=0.25), 0.5,
                                  BoundConstants(C=7.0))
        assert float(rows[2][5]) == expected.log_environment_term
        assert rows[2][5] != rows[0][5]


def readme_bound_commands():
    """Every ``mtkl bound`` command in README.md, continuation lines joined,
    as argv lists."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("mtkl bound ")]


# The rows the README's three bound examples printed when these tests were
# written (the lifelong one then also passed an unread --delta 0.05)
README_BOUND_ROWS = [
    "multitask,161.13268889440528,True,,0.5477533293342352,0.6931471805599453,"
    "56.95805428893257,830781.5908161195,",
    "lifelong,1.0,True,True,69569376899.77115,48.83366401137545,,,",
    "invert,0.5216454275847,True,,,,,,",
]


def test_readme_bound_commands_run_and_print_pinned_rows(capsys):
    commands = readme_bound_commands()
    assert len(commands) == len(README_BOUND_ROWS)
    for argv, row in zip(commands, README_BOUND_ROWS):
        assert main(argv) == 0, argv
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"# mtkl-csv v1 bound-{argv[argv.index('--mode') + 1]}"
        assert out[2:] == [row]


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

    def test_nonconverged_fits_reported(self, family_file, data_file, tmp_path,
                                        monkeypatch):
        monkeypatch.setattr(margin, "PGD_MAX_ITERS", 1)
        out_dir = tmp_path / "out"
        rc = main(["learn", "--family", family_file, "--data", data_file,
                   "--gamma", "0.1", "--out-dir", str(out_dir)])
        assert rc == 0
        solution = json.loads((out_dir / "solution.json").read_text())
        assert solution["nonconverged_fits"] == 2

    def test_iteration_cap_is_not_a_flag(self, family_file, data_file, tmp_path,
                                         capsys):
        with pytest.raises(SystemExit) as exc:
            main(["learn", "--family", family_file, "--data", data_file,
                  "--gamma", "0.1", "--out-dir", str(tmp_path / "out"),
                  "--max-iters", "5"])
        assert exc.value.code == 2
        assert "--max-iters" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    ROWS = ["t0,0.5,-0.2,1", "t0,-0.5,0.3,-1", "t1,0.1,0.2,1", "t1,-0.3,0.4,-1"]

    @pytest.mark.parametrize("changes,needle", [
        ({0: "t0,nan,-0.2,1"}, "non-finite"),
        ({0: "t0,0.5,inf,1"}, "non-finite"),
        ({1: "t0,-0.5,0.3,0.9,-1"}, "line 2"),
        ({2: "t1,0.1,0.2,0.7,1", 3: "t1,-0.3,0.4,0.1,-1"}, "line 3"),
        # the label is named as a Python float, not as np.float64(inf)
        ({0: "t0,0.5,-0.2,inf"}, "labels must be -1 or +1, got inf\n"),
    ], ids=["nan", "inf", "ragged_task", "tasks_differ", "label_inf"])
    def test_bad_data_file_exit2(self, family_file, tmp_path, capsys, changes,
                                 needle):
        rows = [changes.get(i, row) for i, row in enumerate(self.ROWS)]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows) + "\n")
        rc = main(["learn", "--family", family_file, "--data", str(path),
                   "--gamma", "0.1", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error-category: input" in err and needle in err

    def test_non_utf8_data_file_exit2(self, family_file, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xff\xfet0,0.5,-0.2,1\nt0,-0.5,0.3,-1\n")
        rc = main(["learn", "--family", family_file, "--data", str(path),
                   "--gamma", "0.1", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error-category: input" in err and str(path) in err

    @pytest.mark.parametrize("family_part", [
        {"dictionary": [{"type": "rbf", "bandwidth": "0.6"}]},
        {"dictionary": [{"type": "rbf", "dims": [0.5]}]},
        {"dictionary": [{"type": "rbf", "dims": "01"}]},
        {"variant": "sparse_combo", "sparsity": "1"},
        {"dictionary": 5},
    ], ids=["bandwidth_string", "dims_float", "dims_string", "sparsity_string",
            "dictionary_not_list"])
    def test_malformed_family_field_exit2(self, data_file, tmp_path, capsys,
                                          family_part):
        family = {"variant": "convex_combo",
                  "dictionary": [{"type": "rbf", "bandwidth": 0.5}],
                  **family_part}
        path = tmp_path / "family.json"
        path.write_text(json.dumps(family))
        rc = main(["learn", "--family", str(path), "--data", data_file,
                   "--gamma", "0.1", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "error-category: input" in capsys.readouterr().err

    def test_rbf_bandwidth_whose_square_underflows_exit2(self, data_file,
                                                        tmp_path, capsys):
        # bandwidth**2 == 0: the cross-Gram divided by -0.0, a NaN margin on
        # coincident points never counted as an error, and the broken
        # candidate 0 was selected with exit 0
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"variant": "convex_combo", "dictionary": [
            {"type": "rbf", "bandwidth": 1e-200},
            {"type": "rbf", "bandwidth": 1.0}]}))
        rc = main(["learn", "--family", str(path), "--data", data_file,
                   "--gamma", "0.1", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error-category: input" in err
        assert "rbf kernel bandwidth 1e-200 is too small" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_exit2(self, family_file, data_file, tmp_path,
                                    capsys, gamma):
        # both pass a plain gamma > 0 test and would run, reporting margin
        # error 0 (nan) or 1 (inf)
        rc = main(["learn", "--family", family_file, "--data", data_file,
                   "--gamma", gamma, "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error-category: input" in err and "gamma" in err

    def test_refine_rounds_on_gaussian_family_exit2(self, data_file, tmp_path,
                                                    capsys):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"variant": "gaussian_covariance",
                                    "dimension": 2}))
        out_dir = tmp_path / "o"
        rc = main(["learn", "--family", str(path), "--data", data_file,
                   "--gamma", "0.1", "--refine-rounds", "3",
                   "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error-category: input" in err and "refine_rounds" in err
        assert not out_dir.exists()

    def test_dims_past_data_width_exit2(self, tmp_path, capsys):
        # numpy indexing raises IndexError (exit 1) for an entry past the
        # data's width
        family = {"variant": "convex_combo",
                  "dictionary": [{"type": "rbf", "dims": [2, 3]}]}
        family_path = tmp_path / "family.json"
        family_path.write_text(json.dumps(family))
        data_path = tmp_path / "data.csv"
        data_path.write_text("t0,0.1,0.2,0.3,1\nt0,-0.1,0.2,-0.3,-1\n"
                             "t1,0.4,0.1,0.3,1\nt1,-0.4,0.2,-0.1,-1\n")
        rc = main(["learn", "--family", str(family_path), "--data",
                   str(data_path), "--gamma", "0.1",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error-category: input" in err
        assert "dims entry 3" in err and "width 3" in err


    @pytest.mark.parametrize("dictionary,flags,code,category", [
        ([{"type": "linear", "scale": -1.0}], [], 3, "numeric"),
        ([{"type": "rbf", "bandwidth": 0.5}, {"type": "rbf", "bandwidth": 1.0}],
         ["--grid-resolution", "4", "--max-candidates", "2"], 4, "budget"),
    ], ids=["negative_linear_scale", "grid_over_candidate_budget"])
    def test_numeric_and_budget_errors_exit_3_and_4(
            self, data_file, tmp_path, capsys, dictionary, flags, code,
            category):
        # a negative scale makes every Gram negative semidefinite; a grid of
        # resolution 4 over two kernels holds more than two candidates
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"variant": "convex_combo",
                                    "dictionary": dictionary}))
        out_dir = tmp_path / "o"
        rc = main(["learn", "--family", str(path), "--data", data_file,
                   "--gamma", "0.1", "--out-dir", str(out_dir), *flags])
        assert rc == code
        err = capsys.readouterr().err
        assert f"error-category: {category}\n" in err
        assert not out_dir.exists()
        if category == "numeric":
            # candidate 0 on task t0, the data file's first task, of 10 points
            X = load_multitask_sample(data_file).tasks[0].X
            defect = psd_defect(linear_kernel(scale=-1.0).gram(X))
            assert (f"training Gram of kernel 0 on task 0 (m=10) is indefinite "
                    f"beyond tolerance: PSD defect {defect!r}\n") in err

    # a degree-3 poly kernel of scale 1e110 overflows to inf while the Gram
    # is built; eigvalsh then raised LinAlgError, a traceback and exit 1
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_gram_exit_3(self, data_file, tmp_path, capsys):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"variant": "convex_combo", "dictionary": [
            {"type": "poly", "degree": 3, "scale": 1e110}]}))
        out_dir = tmp_path / "o"
        rc = main(["learn", "--family", str(path), "--data", data_file,
                   "--gamma", "0.1", "--out-dir", str(out_dir)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "error-category: numeric\n" in err
        assert "training Gram of kernel 0 on task 0 (m=10) has a non-finite entry" in err
        assert not out_dir.exists()

    def test_gram_diagonal_above_declared_bound_exit_3(self, tmp_path, capsys):
        # a degree-2 poly kernel of scale 1e110 declares B = 1 but builds
        # finite Grams with diagonals near 1e220; the solver's steps then
        # overflowed and learn exited 0 with predictors of norm^2 ~ 1e219.
        # The suite turns warnings into errors, so this run must raise none.
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"variant": "convex_combo", "dictionary": [
            {"type": "poly", "degree": 2, "scale": 1e110}]}))
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (24, 2))
        data = tmp_path / "data.csv"
        data.write_text("".join(f"t{i // 12},{a},{b},{1 if a >= 0 else -1}\n"
                                for i, (a, b) in enumerate(X)))
        G = 1e220 * (X[:12] @ X[:12].T) ** 2
        row = int(np.argmax(np.diag(G)))
        out_dir = tmp_path / "o"
        rc = main(["learn", "--family", str(path), "--data", str(data),
                   "--gamma", "0.1", "--out-dir", str(out_dir)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "error-category: numeric\n" in err
        assert (f"training Gram of kernel 0 on task 0 (m=12) has diagonal entry "
                f"{row} = "
                in err)
        assert "above B=1.0\n" in err
        assert not out_dir.exists()

    def test_gram_fault_names_the_task_in_file_order(self, tmp_path, capsys):
        # task "zeta" comes first in the file and fits; task "alpha", second,
        # has a point of squared norm 4 under a degree-1 poly kernel, which
        # declares B=1
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"variant": "convex_combo", "dictionary": [
            {"type": "poly", "degree": 1}]}))
        data = tmp_path / "data.csv"
        data.write_text("zeta,0.5,0,1\nzeta,-0.5,0,-1\n"
                        "alpha,0.5,0,1\nalpha,-2,0,-1\n")
        rc = main(["learn", "--family", str(path), "--data", str(data),
                   "--gamma", "0.1", "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        assert ("training Gram of kernel 0 on task 1 (m=2) has diagonal entry "
                "1 = 4.0 above B=1.0\n") in capsys.readouterr().err

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

    @pytest.mark.parametrize("command,extra", [
        ("shatter", ["--seed", "-1"]), ("cover", ["--seed", "-1"]),
        ("shatter", ["--pool-size", "0"]), ("cover", ["--pool-size", "-3"]),
        ("shatter", ["--dim", "0"]), ("cover", ["--dim", "-2"]),
        ("shatter", ["--pool-low", "nan"]), ("cover", ["--pool-high", "inf"]),
        ("shatter", ["--pool-high", "-5", "--pool-low", "5"]),
        ("cover", ["--pool-high", "1e308", "--pool-low=-1e308"]),
        ("cover", ["--pool-low", "-inf"]),
        ("cover", ["--pool-high", "1e308", "--pool-low", "-1E308"]),
    ])
    def test_negative_seed_or_size_exit2(self, family_file, tmp_path, capsys,
                                         command, extra):
        # numpy raises ValueError or OverflowError on these in default_rng
        # and uniform
        eps = ["--epsilon", "0.5"] if command == "cover" else []
        out_dir = tmp_path / "o"
        rc = main([command, "--family", family_file, "--dim", "2", *eps,
                   *extra, "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error-category: input" in err and extra[0] in err
        assert not out_dir.exists()

    # a degree-3 poly kernel of scale 1e110 overflows to inf on the pool;
    # shatter read the table and certified n_found 0, and cover exited 2 as
    # if the distances were bad input. The poly values overflow, and the
    # finiteness check is the only report of it: no RuntimeWarning is raised.
    @pytest.mark.parametrize("command,flags,what", [
        ("shatter", [], "member 0"),
        ("cover", ["--epsilon", "0.5"], "candidate 0"),
        ("cover", ["--epsilon", "0.5", "--metric", "kernel_mean_dev"],
         "candidate 0"),
    ], ids=["shatter", "cover_kernel_sup", "cover_kernel_mean_dev"])
    def test_non_finite_kernel_values_exit_3(self, tmp_path, capsys, command,
                                             flags, what):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"variant": "convex_combo", "dictionary": [
            {"type": "poly", "degree": 3, "scale": 1e110},
            {"type": "rbf", "bandwidth": 0.5}]}))
        out_dir = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([command, "--family", str(path), "--dim", "2",
                       "--grid-resolution", "2", *flags, "--out-dir", str(out_dir)])
        assert rc == 3
        assert [w.category for w in caught] == []
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        assert "error-category: numeric\n" in err
        assert f"{what} has a non-finite kernel value" in err
        assert not out_dir.exists()

    def test_equal_pool_bounds_run(self, family_file, tmp_path, capsys):
        out_dir = tmp_path / "o"
        assert main(["shatter", "--family", family_file, "--dim", "2",
                     "--pool-low", "0.5", "--pool-high", "0.5",
                     "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "witness.json").exists()

    def test_cover_bad_epsilon_writes_nothing(self, family_file, tmp_path,
                                              capsys):
        # the good first radius must not reach cover.csv before the bad one
        # is rejected
        out_dir = tmp_path / "cv"
        rc = main(["cover", "--family", family_file, "--epsilon", "0.5", "-1",
                   "--dim", "2", "--pool-size", "4", "--out-dir", str(out_dir)])
        assert rc == 2
        assert "error-category: input" in capsys.readouterr().err
        assert not (out_dir / "cover.csv").exists()
        assert not out_dir.exists()

    def test_cover_negative_exponent_pool_bound_runs(self, family_file,
                                                     tmp_path, capsys):
        out_dir = tmp_path / "cv"
        assert main(["cover", "--family", family_file, "--epsilon", "0.5",
                     "--dim", "2", "--pool-size", "4", "--pool-low", "-1e-3",
                     "--out-dir", str(out_dir)]) == 0
        assert read_manifest(out_dir)["config"]["pool_low"] == -1e-3

    def test_cover_negative_exponent_radius_writes_nothing(
            self, family_file, tmp_path, capsys):
        out_dir = tmp_path / "cv"
        rc = main(["cover", "--family", family_file, "--epsilon", "0.5",
                   "-1e-3", "--dim", "2", "--pool-size", "4",
                   "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error-category: input" in err
        assert "--epsilon must be positive" in err
        assert not out_dir.exists()

    def test_probe_budget_only_for_mean_dev(self, family_file, tmp_path,
                                            capsys):
        out_dir = tmp_path / "cv"
        rc = main(["cover", "--family", family_file, "--metric", "kernel_sup",
                   "--probe-budget", "4", "--epsilon", "0.5", "--dim", "2",
                   "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error-category: input" in err and "--probe-budget" in err
        assert not out_dir.exists()

    def test_cover_builds_distances_once(self, family_file, tmp_path, capsys,
                                         monkeypatch):
        # every radius reads one distance matrix, so a run's base-Gram count
        # does not grow with the number of radii
        calls = []
        real_gram = BaseKernel.gram

        def gram(self, X):
            calls.append(1)
            return real_gram(self, X)

        monkeypatch.setattr(BaseKernel, "gram", gram)
        counts = []
        for radii in (["0.5"], ["0.5", "0.1", "0.02"]):
            calls.clear()
            assert main(["cover", "--family", family_file, "--metric",
                         "kernel_sup", "--epsilon", *radii, "--dim", "2",
                         "--pool-size", "4",
                         "--out-dir", str(tmp_path / str(len(radii)))]) == 0
            counts.append(len(calls))
        assert counts[0] > 0 and counts[0] == counts[1]

    def test_cover_rejects_predictor_metric(self, family_file, tmp_path):
        # cover's candidates are kernels, which have no predictors
        with pytest.raises(SystemExit) as exc:
            main(["cover", "--family", family_file, "--metric", "predictor_sup",
                  "--epsilon", "0.5", "--dim", "2",
                  "--out-dir", str(tmp_path / "cv")])
        assert exc.value.code == 2


BOUND_PROBLEM = ["--n", "3", "--m", "32", "--dphi", "4"]


# Finite but extreme inputs that once ended in a traceback and exit 1. Each
# row: argv ({family} and {data} stand for the files the test writes), the
# mapped exit code, and a part of the message. A new unmapped exception on
# one of these paths fails here.
EDGE_INVOCATIONS = {
    "bound_multitask_tiny_gamma": (
        ["bound", "--mode", "multitask", *BOUND_PROBLEM, "--gamma", "1e-200",
         "--delta", "0.05"], 3, "multitask_epsilon(inputs=BoundInputs("),
    "bound_multitask_huge_gamma": (
        ["bound", "--mode", "multitask", *BOUND_PROBLEM, "--gamma", "1e200",
         "--delta", "0.05"], 3, "gamma=1e+200"),
    "bound_invert_huge_gamma": (
        ["bound", "--mode", "invert", *BOUND_PROBLEM, "--gamma", "1e200",
         "--delta", "0.05"], 3, "invert_epsilon("),
    # both lifelong logs are inf; a NaN once passed the bracket check
    "bound_invert_overflowing_covers": (
        ["bound", "--mode", "invert", "--n", "1", "--m", "10", "--dphi", "1",
         "--B", "1e308", "--gamma", "1e-150", "--delta", "0.5"], 2,
        "not bracketed"),
    "bound_lifelong_tiny_epsilon": (
        ["bound", "--mode", "lifelong", *BOUND_PROBLEM, "--gamma", "0.1",
         "--epsilon", "1e-200"], 3, "epsilon=1e-200"),
    "learn_metric_narrower_than_points": (
        ["learn", "--family", "{family}", "--data", "{data}", "--gamma", "0.1"],
        2, "metric of size 2 does not fit points of width 3"),
    "shatter_metric_narrower_than_points": (
        ["shatter", "--family", "{family}", "--dim", "3"],
        2, "metric of size 2 does not fit points of width 3"),
    "cover_metric_narrower_than_points": (
        ["cover", "--family", "{family}", "--dim", "3", "--epsilon", "0.5"],
        2, "metric of size 2 does not fit points of width 3"),
    # the linear term's Gram on 2-D points has rank 2, so the inner solve's
    # lam'G lam rounds below 0; its square root once warned and gave NaN
    "cover_mean_dev_rank_deficient_linear": (
        ["cover", "--family", "{linear_rbf}", "--metric", "kernel_mean_dev",
         "--dim", "2", "--grid-resolution", "2", "--pool-size", "6",
         "--epsilon", "0.5"], 0, "epsilon=0.5: cover size 1"),
}


@pytest.mark.parametrize("name", sorted(EDGE_INVOCATIONS))
def test_edge_invocation_exits_with_its_mapped_code(tmp_path, capsys, name):
    argv, code, needle = EDGE_INVOCATIONS[name]
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"variant": "gaussian_covariance", "dimension": 2}))
    data = tmp_path / "data.csv"
    data.write_text("t0,0.1,0.2,0.3,1\nt0,-0.1,0.2,0.3,-1\n"
                    "t1,0.5,0.2,0.3,1\nt1,-0.4,0.2,0.1,-1\n")
    linear_rbf = tmp_path / "linear_rbf.json"
    linear_rbf.write_text(json.dumps({"variant": "convex_combo", "dictionary": [
        {"type": "linear", "bound": 2.0}, {"type": "rbf", "bandwidth": 0.4}]}))
    out_dir = tmp_path / "o"
    argv = [a.format(family=family, data=data, linear_rbf=linear_rbf)
            for a in argv]
    if argv[0] != "bound":
        argv += ["--out-dir", str(out_dir)]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert needle in captured.out and captured.err == ""
        return
    category = {2: "input", 3: "numeric"}[code]
    assert f"error-category: {category}\n" in captured.err
    assert needle in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and not out_dir.exists()


class TestManifests:
    @pytest.mark.parametrize("command,extra", [
        ("learn", ["--gamma", "0.1"]),
        ("shatter", ["--dim", "2", "--pool-size", "4", "--max-n", "1"]),
        ("cover", ["--epsilon", "0.5", "--dim", "2", "--pool-size", "4"]),
        ("cover", ["--metric", "kernel_mean_dev", "--epsilon", "0.5", "--dim",
                   "2", "--pool-size", "2"]),
    ])
    def test_config_records_every_flag(self, family_file, data_file, tmp_path,
                                       capsys, command, extra):
        # the flags the run reads: kernel_sup reads no --probe-budget, and
        # kernel_mean_dev records the budget it used when none was given
        out_dir = str(tmp_path / "o")
        data = ["--data", data_file] if command == "learn" else []
        assert main([command, "--family", family_file, *data, *extra,
                     "--out-dir", out_dir]) == 0
        config = read_manifest(out_dir)["config"]
        expected = subcommand_dests(command) - {"out_dir", "seed"}
        if command == "cover" and "kernel_mean_dev" not in extra:
            expected.remove("probe_budget")
        assert set(config) == expected
        if "kernel_mean_dev" in extra:
            assert config["probe_budget"] == 16

    def test_cover_rerun_from_manifest_bitwise_identical(self, family_file,
                                                         tmp_path, capsys):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["cover", "--family", family_file, "--epsilon", "0.5",
                     "0.05", "--dim", "2", "--pool-low", "-3",
                     "--out-dir", out_a, "--seed", "4"]) == 0
        assert main(argv_from_manifest(read_manifest(out_a), out_b)) == 0
        assert read_all(out_a) == read_all(out_b)


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

    @pytest.mark.parametrize("mode,extra", [("sandwich", {"n": 2}),
                                            ("overhead", {"n_grid": [1]})])
    def test_iteration_cap_is_not_a_config_key(self, tmp_path, capsys, mode,
                                               extra):
        cfg = self._config(tmp_path, mode, max_iters=2000, **extra)
        out_dir = tmp_path / "o"
        rc = main(["experiment", "--config", cfg, "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'max_iters'" in err and "error-category: input" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key,value", [("n", "2"), ("delta", 2.0)])
    def test_trial_value_checked_before_out_dir(self, tmp_path, capsys, key,
                                                value):
        # run_trial checks n and delta; the directory waits for the battery
        cfg = self._config(tmp_path, "sandwich", m=12, **{key: value})
        out_dir = tmp_path / "o"
        rc = main(["experiment", "--config", cfg, "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error-category: input" in err and f"{key} must be" in err
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("mode,env_part,config_part", [
        ("sandwich", {"input_law": {"kind": "uniform_cube"}}, {}),
        ("sandwich", {"clusters": [{"weight": 1.0}]}, {}),
        ("overhead", {}, {}),
        ("sandwich", {"dictionary": [{"type": "combo"}]}, {}),
        ("sandwich", {"dictionary": [{"type": "combo", "terms": [0.5]}]}, {}),
        ("sandwich", {"dictionary": [{"type": "combo", "terms": [[1.0]]}]}, {}),
        ("sandwich", {"dictionary": [
            {"type": "combo", "terms": [["a", {"type": "rbf"}]]}]}, {}),
        ("sandwich", {"dictionary": [{"type": "gaussian_metric"}]}, {}),
        ("sandwich", {"clusters": 5}, {}),
        ("sandwich", {"clusters": []}, {}),
        ("sandwich", {"clusters": [{"weight": 1.0, "kernel_index": "0"}]}, {}),
        ("sandwich", {}, {"trials": "3"}),
        ("sandwich", {}, {"trials": True}),
        ("overhead", {}, {"n_grid": [1, "2"]}),
        ("sandwich", {}, {"gamma": "0.1"}),
        ("sandwich", {}, {"gamma": True}),
        ("sandwich", {}, {"delta": "0.05"}),
        ("sandwich", {"clusters": [{"weight": "1", "kernel_index": 0}]}, {}),
        ("sandwich", {"clusters": [{"kernel_index": 0, "margin_gap": "0.2"}]},
         {}),
        ("sandwich", {"input_law": {"kind": "uniform_cube", "dim": "4"}}, {}),
        ("sandwich", {"input_law": {"kind": "uniform_cube", "dim": 4,
                                    "low": "-1"}}, {}),
        ("sandwich", {"input_law": {"kind": "gaussian_mixture", "dim": 4,
                                    "means": "ab"}}, {}),
        ("sandwich", {"input_law": {"kind": "gaussian_mixture", "dim": 4,
                                    "means": [[0, 0, 0, 0], [1, 1]]}}, {}),
        ("sandwich", {"dictionary": [{"type": "rbf", "dims": "01"}]}, {}),
        ("sandwich", {"dictionary": [{"type": "rbf", "dims": [0.5]}]}, {}),
        ("sandwich", {"dictionary": [
            {"type": "rbf", "bandwidth": "0.6", "dims": [0, 1]}]}, {}),
        ("sandwich", {"dictionary": [
            {"type": "linear", "scale": "2", "dims": [0, 1], "bound": 4.0}]},
         {}),
        ("sandwich", {"dictionary": [
            {"type": "poly", "degree": 2.5, "dims": [0, 1], "bound": 4.0}]},
         {}),
        ("sandwich", {"dictionary": [
            {"type": "gaussian_metric", "metric": "ab"}]}, {}),
        ("sandwich", {"dictionary": [
            {"type": "combo", "terms": [[True, {"type": "rbf"}]]}]}, {}),
    ], ids=["input_law_dim", "cluster_kernel_index", "overhead_n_grid",
            "combo_terms", "combo_term_not_pair", "combo_term_short",
            "combo_weight_not_number", "gaussian_metric_metric",
            "clusters_not_list", "clusters_empty", "kernel_index_string", "trials_string",
            "trials_bool", "n_grid_entry_string", "gamma_string",
            "gamma_bool", "delta_string", "cluster_weight_string",
            "margin_gap_string", "input_law_dim_string",
            "input_law_low_string", "mixture_means_string",
            "mixture_means_ragged", "dims_string", "dims_float",
            "bandwidth_string", "scale_string", "degree_float",
            "metric_string", "combo_weight_bool"])
    def test_missing_or_malformed_key_exit2(self, tmp_path, capsys, mode,
                                            env_part, config_part):
        # each of these raised KeyError, TypeError, IndexError or
        # ValueError, or ran with the value coerced or truncated
        # overhead reads no n; its n_grid is in config_part or missing
        n = {} if mode == "overhead" else {"n": 2}
        cfg_path = self._config(tmp_path, mode, m=12, **n, **config_part)
        with open(cfg_path, encoding="utf-8") as fh:
            config = json.load(fh)
        config["environment"].update(env_part)
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        rc = main(["experiment", "--config", cfg_path,
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "error-category: input" in capsys.readouterr().err

    def _run_modified(self, tmp_path, mode, env_part, **config_part):
        """Exit code of the experiment in ``_config`` with the environment
        updated by ``env_part``."""
        sizes = {"n_grid": [1]} if mode == "overhead" else {"n": 2}
        cfg_path = self._config(tmp_path, mode, m=12, **sizes, **config_part)
        with open(cfg_path, encoding="utf-8") as fh:
            config = json.load(fh)
        config["environment"].update(env_part)
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        return main(["experiment", "--config", cfg_path,
                     "--out-dir", str(tmp_path / "o")])

    @pytest.mark.parametrize("env_part,config_part", [
        ({}, {"gamma": float("nan")}),
        ({"clusters": [{"kernel_index": 0, "weight": float("nan")}]}, {}),
    ], ids=["gamma_nan", "cluster_weight_nan"])
    def test_non_finite_number_exit2(self, tmp_path, capsys, env_part,
                                     config_part):
        # JSON NaN parses to a float, which passes a type test and a plain
        # sign test
        rc = self._run_modified(tmp_path, "sandwich", env_part, **config_part)
        assert rc == 2
        assert "error-category: input" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["sandwich", "overhead"])
    @pytest.mark.parametrize("trials", [0, -1])
    def test_nonpositive_trials_exit2(self, tmp_path, capsys, mode, trials):
        # zero trials would write an empty trials.csv, then fail in the plot
        rc = self._run_modified(tmp_path, mode, {}, trials=trials)
        assert rc == 2
        err = capsys.readouterr().err
        assert "error-category: input" in err and "trials" in err
        out_dir = tmp_path / "o"
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("dims,needles", [
        ([5], ["dims entry 5", "width 4"]), ([-1], ["dims entry", "-1"])],
        ids=["past_width", "negative"])
    def test_dims_out_of_range_exit2(self, tmp_path, capsys, dims, needles):
        # numpy indexing reads [-1] as the last coordinate and raises
        # IndexError (exit 1) for [5]
        rc = self._run_modified(tmp_path, "sandwich", {"dictionary": [
            {"type": "rbf", "bandwidth": 0.6, "dims": dims}]})
        assert rc == 2
        err = capsys.readouterr().err
        assert "error-category: input" in err
        assert all(needle in err for needle in needles)

    @pytest.mark.parametrize("mode", ["sandwich", "overhead"])
    def test_negative_seed_exit2(self, tmp_path, capsys, mode):
        # SeedSequence(-1) raises ValueError
        extra = {"n_grid": [1]} if mode == "overhead" else {}
        cfg = self._config(tmp_path, mode, **extra)
        out_dir = tmp_path / "o"
        rc = main(["experiment", "--config", cfg, "--out-dir", str(out_dir),
                   "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error-category: input" in err and "--seed" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("mode,sizes,foreign", [
        ("overhead", {"n_grid": [1]}, {"n": "four"}),
        ("overhead", {"n_grid": [1]}, {"delta": "x"}),
        ("overhead", {"n_grid": [1]}, {"n": 2}),
        ("sandwich", {"n": 2}, {"n_grid": "zz"}),
        ("guarantee", {"n": 2}, {"n_grid": [1, 2]}),
    ])
    def test_key_of_another_mode_exit2(self, tmp_path, capsys, mode, sizes,
                                       foreign):
        # each ran and exited 0 with the key ignored, and the manifest
        # recorded it
        cfg = self._config(tmp_path, mode, m=12, **sizes, **foreign)
        out_dir = tmp_path / "o"
        rc = main(["experiment", "--config", cfg, "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        key = next(iter(foreign))
        assert "error-category: input" in err and repr(key) in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("mode", [None, "sandwhich", ["overhead"]])
    def test_missing_or_unknown_mode_exit2(self, tmp_path, capsys, mode):
        cfg = self._config(tmp_path, mode, n=2)
        if mode is None:
            with open(cfg, encoding="utf-8") as fh:
                config = json.load(fh)
            del config["mode"]
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        rc = main(["experiment", "--config", cfg,
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error-category: input" in err and "experiment mode" in err

    def test_family_field_of_another_variant_exit2(self, tmp_path, capsys):
        # sparsity is read by sparse_combo only; convex_combo ran without it
        cfg = self._config(tmp_path, "sandwich", n=2, m=12,
                           family_variant="convex_combo", sparsity=1)
        rc = main(["experiment", "--config", cfg,
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error-category: input" in err and "sparsity" in err

    def test_environment_file_is_read_relative_to_config(self, tmp_path,
                                                         capsys, monkeypatch):
        inline = self._config(tmp_path, "sandwich", n=2, m=12)
        with open(inline, encoding="utf-8") as fh:
            config = json.load(fh)
        configs = tmp_path / "configs"
        configs.mkdir()
        (configs / "env.json").write_text(json.dumps(config["environment"]))
        for name, env in (("by_path", "env.json"), ("missing", "nope.json")):
            (configs / f"{name}.json").write_text(
                json.dumps({**config, "environment": env}))
        monkeypatch.chdir(tmp_path)  # the environment is not beside the cwd
        runs = {}
        for name, cfg in (("inline", inline),
                          ("by_path", str(configs / "by_path.json"))):
            assert main(["experiment", "--config", cfg, "--out-dir",
                         str(tmp_path / name), "--seed", "3"]) == 0
            runs[name] = (tmp_path / name / "trials.csv").read_bytes()
        assert runs["by_path"] == runs["inline"]
        capsys.readouterr()
        rc = main(["experiment", "--config", str(configs / "missing.json"),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error-category: input" in err and "nope.json" in err
        assert not (tmp_path / "o").exists()

    def test_rerun_bitwise_identical(self, tmp_path):
        cfg = self._config(tmp_path, "sandwich", n=2, m=10)
        out_a, out_b = str(tmp_path / "ra"), str(tmp_path / "rb")
        assert main(["experiment", "--config", cfg, "--out-dir", out_a,
                     "--seed", "9"]) == 0
        assert main(["experiment", "--config", cfg, "--out-dir", out_b,
                     "--seed", "9"]) == 0
        assert read_all(out_a) == read_all(out_b)

    @pytest.mark.parametrize("series", [[], [("error", [1, 2], [math.nan] * 2)]],
                             ids=["no_series", "no_finite_value"])
    def test_empty_plot_is_an_input_error(self, tmp_path, series):
        # a ValueError here once escaped main's error mapping as exit 1
        with pytest.raises(InputError, match="nothing to plot"):
            svgplot.line_plot(str(tmp_path / "curve.svg"), series)
        assert not (tmp_path / "curve.svg").exists()
