"""Smoke test of the benchmark at reduced size.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import harness  # noqa: E402
from mtkl import capacity  # noqa: E402

SMALL = {
    "overhead": {"n": 2, "mc_samples": 2000, "n_views": 4},
    "trials": {"mc_samples": 5000},
    "capacity": {"deck_size": 2},
    "learn": {"m": 32, "datasets": 2},
}
SECONDS = 0.5

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def run(name, traced):
    env, report, result = harness.run(name, None, SECONDS, traced, ROOT, SMALL[name])
    out = io.StringIO()
    harness.emit(env, report, result, out=out)
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-1]) == json.loads(json.dumps(result))
    return lines, report, result


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    assert list(SMALL) == list(harness.WORKLOADS)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(SMALL))
def test_every_named_metric_printed_with_unit(name, traced):
    lines, report, result = run(name, traced)
    expected = {m["name"]: m["unit"]
                for m in BENCHMARK["per_layer" if traced else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert any(line.split()[1:2] == [metric] and line.endswith(" " + unit)
                   for line in lines), metric
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if traced:
        assert report["counts_repeat"] and report["digests_agree"]
        assert "untraced.self_s" in report["self_s"]
    else:
        assert report["metrics"]["fail_frac"] == {"value": 0.0, "unit": "ratio"}
        (quality,) = report["quality"].values()
        assert quality["unit"] and quality["units"] >= 1


def test_tampered_witness_threshold_counts_in_fail_frac(monkeypatch):
    real = capacity.pseudodim_lower_bound

    def tampered(*args, **kwargs):
        result = real(*args, **kwargs)
        if result.witness is not None:
            result.witness.thresholds[:] += 10.0  # above every kernel value
        return result

    monkeypatch.setattr(capacity, "pseudodim_lower_bound", tampered)
    _, report, result = run("capacity", False)
    assert result["failed"] > 0 and not result["correct"]
    assert report["metrics"]["fail_frac"]["value"] == \
        result["failed"] / result["attempted"]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trials",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
