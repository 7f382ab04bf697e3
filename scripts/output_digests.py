"""Digests of the outputs of a fixed set of balance-lab runs.

Runs the CLI in a temporary directory and prints one JSON object that maps
each output, as ``<run>/<file>``, to its blake2b digest:

- ``test`` on ``tests/fixtures/null_small.csv`` (covariates x1-x3, lag
  column ``y_lag``, B=1000, seed 7, ``--dump-permutations``,
  ``--threads 1``) under each weight policy and scale: the report JSON
  without its ``started_at``/``finished_at``, the ``.txt`` report and every
  ``permuted_*.npy``;
- ``diagnose`` on the same table: its report JSON and ``.txt``;
- the grid of ``configs/desk_scale.json`` at 3 replicates per cell, at
  ``--threads 1``, at ``--threads 2``, and rerun with ``--resume`` after
  three of its checkpoints are deleted: ``results.csv``, ``plot_data.csv``
  and the SVGs.

The input paths are passed relative to the repository root, as the test
report records them. ``tests/golden_digests.json`` pins the digests and the
numpy/BLAS build they were made with; ``tests/test_golden.py`` recomputes
them. After a deliberate output change, re-pin with

    python scripts/output_digests.py --pin

Run it from anywhere; it runs the package in ``src/`` of this checkout.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden_digests.json")
FIXTURE = "tests/fixtures/null_small.csv"
STUDY = "configs/desk_scale.json"
DELETED_CELLS = (3, 17, 32)


def host() -> dict:
    """The numpy version and OpenBLAS build the outputs were made with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration", blas.get("name", "unknown")),
    }


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _report_digest(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    for key in ("started_at", "finished_at"):
        del report["manifest"][key]
    return _digest(json.dumps(report, sort_keys=True).encode("utf-8"))


def _cli(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, "-m", "balance_lab.cli", *args],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
    )


def _outputs(run: str, out_dir: str) -> dict:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith("_report.json"):
            digests[f"{run}/{name}"] = _report_digest(path)
        elif name.endswith((".txt", ".npy", ".csv", ".svg")):
            with open(path, "rb") as fh:
                digests[f"{run}/{name}"] = _digest(fh.read())
    return digests


def compute_digests() -> dict:
    """``<run>/<file>`` -> digest for every run listed in the module docstring."""
    digests = {}
    data = ["--input", FIXTURE, "--treatment", "z", "--outcome", "y",
            "--covariates", "x1,x2,x3", "--lag-column", "y_lag"]
    with tempfile.TemporaryDirectory() as tmp:
        for policy in ("fixed", "refit"):
            for scale in ("standardized", "raw"):
                run = f"test-{policy}-{scale}"
                out = os.path.join(tmp, run)
                _cli("test", *data, "--permutations", "1000", "--seed", "7", "--threads", "1",
                     "--weight-policy", policy, "--scale", scale, "--dump-permutations",
                     "--out-dir", out)
                digests.update(_outputs(run, out))
        out = os.path.join(tmp, "diagnose")
        _cli("diagnose", *data, "--out-dir", out)
        digests.update(_outputs("diagnose", out))

        with open(os.path.join(ROOT, STUDY), encoding="utf-8") as fh:
            study = dict(json.load(fh), replicates=3)
        config = os.path.join(tmp, "study.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(study, fh)
        for threads in ("1", "2"):
            run = f"simulate-threads{threads}"
            out = os.path.join(tmp, run)
            _cli("simulate", "--config", config, "--threads", threads, "--out-dir", out)
            digests.update(_outputs(run, out))
        for cell in DELETED_CELLS:
            os.remove(os.path.join(out, "checkpoints", f"cell_{cell:04d}.json"))
        _cli("simulate", "--config", config, "--threads", "2", "--resume", "--out-dir", out)
        digests.update(_outputs("simulate-resume", out))
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--pin", action="store_true",
        help=f"write the digests and host into {os.path.relpath(GOLDEN, ROOT)}, "
             "keeping its full-study entry",
    )
    args = parser.parse_args(argv)
    digests = compute_digests()
    if args.pin:
        golden = {}
        if os.path.exists(GOLDEN):
            with open(GOLDEN, encoding="utf-8") as fh:
                golden = json.load(fh)
        golden.update(host=host(), digests=digests)
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=2)
            fh.write("\n")
    json.dump(digests, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
