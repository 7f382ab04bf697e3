"""balance-lab benchmark.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 50 --trace 0

Builds nothing: it imports ``balance_lab`` from ``src/`` next to this
directory. It makes the workload's inputs from ``--seed``, calls the CLI in
a closed loop for about ``--seconds`` seconds, checks every call's outputs,
and prints two JSON lines: the full record of the run, then the result
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones. A run whose outputs
fail a check prints ``"correct": false`` with no metrics and exits 1.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BALANCE_LAB_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="balance-lab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    from perfbench.workloads import nproc

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_variables": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def measure(args, work_dir: str) -> dict:
    from perfbench import gates, workloads
    from perfbench.reference import Reference

    tally = workloads.Tally()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    result = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    try:
        workload = workloads.make_workload(args.workload, work_dir, args.seed)
        speed = Reference()
        calls = workloads.run_loop(workload, args.seconds, bool(args.trace), tally, speed)
        if args.trace:
            metrics, record["layers"] = workloads.per_layer(workload, calls)
        else:
            rss = workloads.peak_rss_mb()  # before the set-up spawns add children
            setup = workloads.setup_seconds(str(SRC))
            metrics, record["end_to_end"] = workloads.end_to_end(
                workload, calls, setup, rss, speed
            )
        record["gates"] = workload.gate_info
        result["correct"] = True
        result["metrics"] = {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        }
    except gates.GateFailure as exc:
        tally.failure_types["GateFailure"] += 1
        record["gate_failure"] = str(exc)
    except Exception:  # any other error is reported and fails the run
        traceback.print_exc(file=sys.stderr)
        tally.failure_types[type(sys.exc_info()[1]).__name__] += 1
    attempted, failed = tally.total()
    result["attempted"] = max(attempted, 1)
    result["failed"] = failed
    record["attempted"] = dict(tally.attempted)
    record["failed"] = dict(tally.failed)
    record["failure_types"] = dict(tally.failure_types)
    record["fail_frac"] = failed / result["attempted"]
    if result["correct"] and (failed or tally.failure_types):
        result["correct"] = False
        result["metrics"] = {}
    record["result"] = result
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "balance_lab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no balance_lab package under {SRC}\n")
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}\n")
        return 2
    import balance_lab

    if Path(balance_lab.__file__).resolve().parent != SRC / "balance_lab":
        sys.stderr.write(f"error: imported balance_lab from {balance_lab.__file__}\n")
        return 2

    # On SIGTERM, unwind: pools shut down and wait for their workers, and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work_dir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        record = measure(args, str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    record["environment"] = environment()
    result = record.pop("result")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
