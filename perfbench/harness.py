"""Closed-loop measurement, traced layer split and result lines.

Untraced run (``--trace 0``): set up ``SETUP_REPS`` times (median is
``setup_s``), then one caller runs units back to back until their summed
time reaches ``--seconds``. Each output is checked and dropped right after
its unit, outside the unit's timing, so timed wall is the sum of unit times.

The end-to-end times are host-calibrated. On a shared host, CPU speed can
drift by a quarter over minutes, alike for mtkl and for any other code. So a
fixed calibration loop that calls no mtkl code is timed after every unit
and every set-up, and each time is scaled by ``CAL_REF_S`` over the loop's
time around it. The result reads as seconds on a host where the loop takes
``CAL_REF_S``. Raw wall times stay in the report line.

Traced run (``--trace 1``): a fixed number of units, sized from
``--seconds``, runs four times, alternately under the tracer and without
it. The two traced passes must give identical counts and all four the same
output digest. Per-layer numbers come from the traced passes; the
tracing overhead is traced wall minus untraced wall on the same units.
A pass's wall is again the sum of its unit times.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import mtkl
from tracer import Tracer
from workloads import WORKLOADS

SETUP_REPS = 7
# the calibration loop's time on the 2-vCPU VM where the benchmark was made
CAL_REF_S = 0.0085
# units whose calibrations form the rolling median that scales one unit's time
CAL_WINDOW = 5
# one calibration loop per this much unit time, at least one: a long unit
# would otherwise be scaled by too few short, noisy loops
CAL_EVERY_S = 0.4
_CAL_X = np.linspace(0.0, 1.0, 100_000)
_CAL_OUT = np.empty_like(_CAL_X)

# name -> unit; the untraced result line carries exactly these
END_TO_END = {
    "setup_s": "s", "units_per_s": "1/s", "unit_p50_ms": "ms",
    "unit_tail_ms": "ms", "cpu_util": "cores", "peak_rss_mb": "MB",
}
# reported by name with its unit next to END_TO_END: wall_s and cpu_s grow
# with the last unit's overrun (cpu_util is their ratio), fail_frac is 0 on
# a healthy run
REPORT_ONLY = {"wall_s": "s", "cpu_s": "s", "units": "count",
               "tail_percentile": "%", "fail_frac": "ratio",
               "raw_setup_s": "s", "raw_units_per_s": "1/s",
               "raw_unit_p50_ms": "ms", "raw_unit_tail_ms": "ms",
               "calibration_ms": "ms"}
QUALITY_UNITS = {"excess_err_mean": "ratio", "train_err_mean": "ratio",
                 "lower_bound_mean": "pairs"}

COUNTS = (
    "accel.hinge_pgd.calls", "accel.hinge_pgd.iters",
    "accel.hinge_pgd.nonconverged", "kernels.gram.calls", "kernels.gram.entries",
    "kernels.psd.calls", "kernels.instantiate.calls", "kernels.cross.calls",
    "kernels.cross.entries", "margin.evaluate.calls", "margin.evaluate.points",
    "envsim.sample.calls", "envsim.sample.points", "envsim.input_law.points",
    "envsim.draw_task.calls", "margin.fit.calls", "erm.candidates",
    "erm.fit_candidate.calls", "erm.erm_fit.calls", "capacity.pseudodim.calls",
    "capacity.is_shattered.calls", "capacity.is_shattered.hits",
    "accel.shatter_scan.calls", "accel.shatter_scan.combos", "bounds.calls",
)
SELF_TIMES = (
    "accel.hinge_pgd", "kernels.gram", "kernels.psd", "kernels.cross",
    "margin.evaluate", "envsim.sample", "envsim.input_law", "envsim.draw_task",
    "margin.fit", "erm.fit_candidate", "erm.erm_fit", "capacity.pseudodim",
    "capacity.is_shattered", "accel.shatter_scan", "bounds", "cli.load_sample",
    "cli.learn",
)
# name -> unit; the traced result line carries exactly these. Self times of
# layers a workload never calls would read 0 on every run, so the result
# line keeps only those present in all four workloads; the report line and
# the summary file carry every layer's self time.
PER_LAYER = {**{c: "count" for c in COUNTS},
             "envsim.sample.accept_ratio": "ratio",
             "capacity.is_shattered.hit_ratio": "ratio",
             "kernels.cross.self_s": "s", "untraced.self_s": "s",
             "trace.overhead_s": "s"}


def environment(root, workload, seed, seconds, trace):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_rev": git_rev(root), "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "mtkl": mtkl.__version__,
        "numba_enabled": bool(mtkl.NUMBA_ENABLED),
    }


def git_rev(root):
    """Commit of the checkout, or 'unknown' if it is not a git repository."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"  # do not let git find a repository further up
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def blas_threads():
    """OpenBLAS's own thread count when it can be asked, else the env limit."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    if os.path.isdir(libs):
        for name in sorted(os.listdir(libs)):
            if "openblas" not in name:
                continue
            lib = ctypes.CDLL(os.path.join(libs, name))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None


def calibration_s():
    """Time of a fixed loop of interpreter and numpy work that calls no mtkl
    code and allocates nothing that lives: the host's speed at this moment."""
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    for _ in range(10):
        np.exp(_CAL_X, out=_CAL_OUT)
        _CAL_OUT.sum()
    return time.perf_counter() - start


def calibrate_after(seconds):
    """Median time of the calibration loop, run once per CAL_EVERY_S of
    ``seconds`` and at least once."""
    return statistics.median(calibration_s()
                             for _ in range(max(1, round(seconds / CAL_EVERY_S))))


def calibrated(seconds, cal):
    """Each time scaled by CAL_REF_S over the rolling median of the
    calibration times around it."""
    h = CAL_WINDOW // 2
    return [s * CAL_REF_S / statistics.median(cal[max(0, i - h):i + h + 1])
            for i, s in enumerate(seconds)]


class Units:
    """Outcome of units run back to back: per-unit wall time and the
    calibration time right after it, CPU time, the failed checks, and the
    quality guard and output digest of the first ``record`` units that
    passed."""

    def __init__(self):
        self.seconds, self.cal, self.cpu_s, self.problems = [], [], 0.0, {}
        self.quality, self.sha = [], hashlib.sha256()

    @property
    def digest(self):
        return self.sha.hexdigest()


def _check(wl, i, out):
    """Problems with one output; a unit that raised fails with its exception."""
    if isinstance(out, Exception):
        return [f"raised {out!r}"]
    try:
        return wl.check(i, out)
    except Exception as exc:  # a check that cannot run fails the unit
        return [f"check raised {exc!r}"]


def run_units(wl, keep_going, record, tracer=None):
    """Run units while ``keep_going(units done, unit seconds so far)``.

    Each output is checked and, if among the first ``record``, folded into
    the digest right after its unit, then dropped, so memory does not grow
    with the number of units. Checks stay outside the unit timings and, on a
    traced pass, outside the tracer.
    """
    units, total, i = Units(), 0.0, 0
    while keep_going(i, total):
        if tracer is not None:
            tracer.install()
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            out = wl.unit(i)
        except Exception as exc:  # a failed unit is counted, not fatal
            out = exc
        elapsed = time.perf_counter() - start
        units.cpu_s += time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
        units.seconds.append(elapsed)
        units.cal.append(calibrate_after(elapsed))
        total += elapsed
        problems = _check(wl, i, out)
        if problems:
            units.problems[i] = problems
        elif i < record:
            value, blob = wl.record(i, out)
            units.quality.append(value)
            units.sha.update(blob)
        del out
        i += 1
    return units


def tail(seconds):
    """Highest percentile with at least ten units beyond it, never below the
    median: with fewer than 20 units the tail is the median."""
    ordered = sorted(seconds)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(wl, seed, seconds, workdir):
    setups, setup_cal = [], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        wl.setup(seed, workdir)
        setups.append(time.perf_counter() - start)
        setup_cal.append(calibrate_after(setups[-1]))

    units = run_units(wl, lambda i, total: total < seconds, wl.prefix)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n, wall = len(units.seconds), sum(units.seconds)
    cal = calibrated(units.seconds, units.cal)
    tail_s, tail_pct = tail(cal)
    values = {
        "setup_s": statistics.median(setups) * CAL_REF_S / statistics.median(setup_cal),
        "units_per_s": n / sum(cal),
        "unit_p50_ms": 1e3 * statistics.median(cal),
        "unit_tail_ms": 1e3 * tail_s, "cpu_util": units.cpu_s / wall,
        "peak_rss_mb": peak_mb, "wall_s": wall, "cpu_s": units.cpu_s,
        "units": n, "tail_percentile": tail_pct,
        "fail_frac": len(units.problems) / n,
        "raw_setup_s": statistics.median(setups), "raw_units_per_s": n / wall,
        "raw_unit_p50_ms": 1e3 * statistics.median(units.seconds),
        "raw_unit_tail_ms": 1e3 * tail(units.seconds)[0],
        "calibration_ms": 1e3 * statistics.median(units.cal),
    }
    quality = float(np.mean(units.quality)) if units.quality else None
    report = {
        "metrics": {k: {"value": v, "unit": {**END_TO_END, **REPORT_ONLY}[k]}
                    for k, v in values.items()},
        "quality": {wl.quality_name: {
            "value": quality, "unit": QUALITY_UNITS[wl.quality_name],
            "units": len(units.quality)}},
        "digest_sha256": units.digest,
        "setup_runs_s": setups, "problems": _first_problems(units.problems),
    }
    result = _result(n, len(units.problems),
                     {k: values[k] for k in END_TO_END}, END_TO_END)
    return report, result


def _first_problems(problems, limit=5):
    return {str(i): p for i, p in sorted(problems.items())[:limit]}


def _result(attempted, failed, values, units):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}


def trace(wl, seed, seconds, workdir, out_dir):
    wl.setup(seed, workdir)
    n_units = wl.trace_units(seconds)
    # traced and untraced passes alternate so warm-up and drift hit both
    tr_a, tr_b = Tracer(), Tracer()
    passes = [run_units(wl, lambda i, total: i < n_units, n_units, tracer)
              for tracer in (tr_a, None, tr_b, None)]
    wall_a, wall_u1, wall_b, wall_u2 = (sum(p.seconds) for p in passes)

    failed_units = set().union(*(p.problems for p in passes))
    digests = [p.digest for p in passes]
    repeat_ok = tr_a.counts == tr_b.counts and len(set(digests)) == 1
    failed = len(failed_units) if repeat_ok else n_units
    wall_u = (wall_u1 + wall_u2) / 2

    counts = tr_a.counts
    self_s = {name: (tr_a.self_s[name] + tr_b.self_s[name]) / 2
              for name in set(tr_a.self_s) | set(tr_b.self_s)}
    total_s = {name: (tr_a.total_s[name] + tr_b.total_s[name]) / 2
               for name in self_s}
    wall_t = (wall_a + wall_b) / 2
    untraced_self = wall_t - (tr_a.root_s + tr_b.root_s) / 2
    values = {c: counts[c] for c in COUNTS}
    drawn = counts["envsim.sample.drawn"]
    values["envsim.sample.accept_ratio"] = \
        counts["envsim.sample.points"] / drawn if drawn else 0.0
    calls = counts["capacity.is_shattered.calls"]
    values["capacity.is_shattered.hit_ratio"] = \
        counts["capacity.is_shattered.hits"] / calls if calls else 0.0
    values["kernels.cross.self_s"] = self_s.get("kernels.cross", 0.0)
    values["untraced.self_s"] = untraced_self
    values["trace.overhead_s"] = wall_t - wall_u

    layer_self = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMES}
    ranking = sorted(((s, name) for name, s in self_s.items()), reverse=True)
    report = {
        "units_per_pass": n_units, "counts_repeat": tr_a.counts == tr_b.counts,
        "digests_agree": len(set(digests)) == 1, "digest_sha256": digests[1],
        "wall_untraced_s": [wall_u1, wall_u2], "wall_traced_s": [wall_a, wall_b],
        "trace_overhead_frac": wall_t / wall_u - 1.0,
        "self_s": {**layer_self, "untraced.self_s": untraced_self},
        "self_share_ranking": [[name, s / wall_t] for s, name in ranking]
        + [["untraced", untraced_self / wall_t]],
        "inclusive_share": {name: total_s[name] / wall_t for _, name in ranking},
        "all_counts": dict(sorted(counts.items())),
        "problems": _first_problems(passes[0].problems),
    }
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"trace-{wl.name}-seed{seed}")
    tr_a.save(stem + ".npz")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"report": report, "per_layer": values}, fh, indent=1)
    return report, _result(n_units, failed, values, PER_LAYER)


def run(workload, seed, seconds, traced, root, sizes=None):
    """Run one workload; returns (environment, report, result line dict)."""
    wl = WORKLOADS[workload](**(sizes or {}))
    if seed is None:
        seed = wl.default_seed
    out_dir = os.path.join(root, ".perfbench_out")
    workdir = os.path.join(out_dir, f"work-{workload}-{os.getpid()}")
    env = environment(root, workload, seed, seconds, traced)
    try:
        if traced:
            report, result = trace(wl, seed, seconds, workdir, out_dir)
        else:
            report, result = measure(wl, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return env, report, result


def emit(env, report, result, out=None):
    """Print metrics by name and unit, the report, then the result line last."""
    out = out or sys.stdout
    if env["numba_enabled"]:
        print("WARNING: numba is active; this run measures the numba path, "
              "not the numpy path", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{env['workload']:9s} {name:36s} {metric['value']!r} {metric['unit']}",
              file=out)
    print(json.dumps({"environment": env, "report": report}), file=out)
    print(json.dumps(result), file=out)
