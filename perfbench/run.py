"""mtkl lab benchmark: one workload per process, result JSON on the last line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {overhead,trials,capacity,learn} \\
        --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans and a summary go to ``.perfbench_out/``).
The library is imported from ``src/`` of the same checkout; without it the
script exits with code 2 and prints no result.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def limit_blas_threads():
    """One BLAS thread, as for the one caller; must run before numpy loads.

    On a few shared cores, BLAS threads that wait on each other at every
    call turn the host's scheduling noise into the benchmark's own."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("MTKL_WORKERS", None)  # one caller: no candidate threads


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, default=None,
                   help="default: the workload's acceptance seed")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv):
    limit_blas_threads()
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    try:
        import mtkl
    except ImportError as exc:
        print(f"cannot import mtkl from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(mtkl.__file__).startswith(src + os.sep):
        print(f"mtkl imported from {mtkl.__file__}, not from {src}", file=sys.stderr)
        return 2
    import harness
    args = parse_args(argv, list(harness.WORKLOADS))
    env, report, result = harness.run(args.workload, args.seed, args.seconds,
                                      bool(args.trace), ROOT)
    harness.emit(env, report, result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
