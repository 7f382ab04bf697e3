"""Tests of the benchmark itself: names, tracing hygiene, and that every
correctness gate trips on a corrupted copy of a real output.

Run from the repository root: python -m pytest perfbench/tests
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from balance_lab import cli, rng
from perfbench import gates, reference, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def test_outputs(tmp_path_factory):
    """One fixed-weight ``test`` call with dumped permutations."""
    base = tmp_path_factory.mktemp("test_call")
    shape = workloads.TestShape(n=60, p=3, b=400, weight_policy="fixed")
    path = str(base / "input.csv")
    workloads.write_test_csv(path, shape, seed=3)
    out = base / "out"
    code = run_cli([
        "test", "--input", path, "--treatment", "z", "--outcome", "y",
        "--covariates", "x1,x2,x3", "--permutations", str(shape.b), "--seed", "5",
        "--threads", "1", "--out-dir", str(out), "--dump-permutations",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def grid_outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("grid_call")
    config = base / "study.json"
    config.write_text(json.dumps({
        "imbalance_levels": [0.0, 0.2], "prognosis_levels": [0.0, 0.3],
        "n": 40, "p": 2, "replicates": 40, "permutations": 100, "seed": 7,
    }))
    out = base / "out"
    assert run_cli(["simulate", "--config", str(config), "--out-dir", str(out), "--threads", "1"]) == 0
    return out


def corrupted_copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def test_names_and_units_follow_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER_UNITS


def test_tracer_restores_every_binding(tmp_path, grid_outputs):
    def bindings():
        return {
            (module.__name__, attr): value
            for module in tracing.package_modules()
            for attr, value in vars(module).items()
        }

    before = bindings()
    from balance_lab import permutation, simulation

    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            assert permutation.stream is not before[("balance_lab.rng", "stream")]
            assert simulation.stream is permutation.stream is rng.stream
            config = grid_outputs.parent / "study.json"
            out = tmp_path / "traced"
            assert run_cli([
                "simulate", "--config", str(config), "--out-dir", str(out), "--threads", "2",
            ]) == 0
            raise RuntimeError("leave the block by an exception")
    after = bindings()
    assert before.keys() == after.keys()
    moved = [key for key in before if before[key] is not after[key]]
    assert moved == []

    summary = tracer.summary()
    assert summary["pool_starts"]["simulation"] == 4  # one pool per grid cell
    assert summary["functions"]["cli.main"]["calls"] == 1
    assert summary["functions"]["simulation.run_power_study"]["calls"] == 1
    # With forked workers, only the parent's spans are recorded.
    assert "permutation.permutation_pvalues" not in summary["functions"]
    for entry in summary["functions"].values():
        assert entry["self_s"] <= entry["s"] + 1e-9


def test_traced_counts_repeat_and_self_time_is_consistent(test_outputs):
    summaries = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            out = test_outputs.parent / f"again-{len(summaries)}"
            assert run_cli([
                "test", "--input", str(test_outputs.parent / "input.csv"), "--treatment", "z",
                "--outcome", "y", "--covariates", "x1,x2,x3", "--permutations", "400",
                "--seed", "5", "--threads", "1", "--out-dir", str(out),
            ]) == 0
        summaries.append(tracer.summary())
    counts = [{k: v["calls"] for k, v in s["functions"].items()} for s in summaries]
    assert counts[0] == counts[1]
    assert counts[0]["rng.stream"] == 400
    main = summaries[0]["functions"]["cli.main"]["s"]
    total_self = sum(layer["self_s"] for layer in summaries[0]["layers"].values())
    assert total_self == pytest.approx(main, rel=1e-6)


def test_reference_kernel_is_sampled_and_scales_by_its_median():
    speed = reference.Reference()
    speed.sample_after(0.0)
    assert len(speed.samples) == 1
    speed.samples = [0.02, 0.005, 0.01]
    assert speed.scale() == pytest.approx(reference.NOMINAL_S / 0.01)
    # The kernel never enters the program.
    assert "balance_lab" not in reference.kernel.__code__.co_names


def test_call_times_are_scaled_and_setup_is_not(tmp_path):
    workload = workloads.make_workload("grid", str(tmp_path), seed=1)
    calls = [
        workloads.Call("serial", False, seconds=1.0),
        workloads.Call("nproc", False, seconds=2.0),
    ]
    speed = reference.Reference()
    speed.samples = [2 * reference.NOMINAL_S]
    metrics, record = workloads.end_to_end(workload, calls, [0.4], 60.0, speed)
    assert metrics["serial_latency_p50_s"][0] == pytest.approx(0.5)
    assert metrics["latency_p50_s"][0] == pytest.approx(1.0)
    assert metrics["setup_s"][0] == pytest.approx(0.4)
    assert record["measured"] == {"latency_p50_s": 2.0, "serial_latency_p50_s": 1.0}


def test_exit_gate():
    gates.check_exit(0)
    with pytest.raises(gates.GateFailure):
        gates.check_exit(2)


def test_identical_results_gate_trips_on_one_changed_byte(grid_outputs, tmp_path):
    results = grid_outputs / "results.csv"
    gates.check_identical(str(results), str(results))
    data = bytearray(results.read_bytes())
    data[-5] = ord("9") if data[-5] != ord("9") else ord("8")
    copy = tmp_path / "results.csv"
    copy.write_bytes(bytes(data))
    with pytest.raises(gates.GateFailure, match="byte"):
        gates.check_identical(str(results), str(copy))


def test_null_size_gate_trips_on_inflated_rejections(grid_outputs, tmp_path):
    results = grid_outputs / "results.csv"
    rates = gates.check_null_size(str(results), 0.05)
    assert set(rates) == {"uw", "rw", "hotelling"}
    lines = results.read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("rejection_rate")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if float(row[0]) == 0.0:
            row[col] = "0.5"
    copy = tmp_path / "results.csv"
    copy.write_text("\n".join([lines[0], *(",".join(r) for r in rows)]) + "\n")
    with pytest.raises(gates.GateFailure, match="null rejections"):
        gates.check_null_size(str(copy), 0.05)


def test_binomial_interval_covers_the_mean_only():
    lo, hi = gates.binomial_interval(220, 0.05)
    assert lo <= 11 <= hi
    assert hi < 50


def test_replicate_failures_are_counted(grid_outputs, tmp_path):
    assert gates.grid_replicates(str(grid_outputs)) == (160, 0)
    copy = corrupted_copy(grid_outputs, tmp_path / "out")
    cell = copy / "checkpoints" / "cell_0000.json"
    payload = json.loads(cell.read_text())
    payload["n_failed"] = 3
    cell.write_text(json.dumps(payload))
    assert gates.grid_replicates(str(copy)) == (160, 3)


def test_report_gate_passes_on_real_output(test_outputs):
    checked = gates.check_test_report(str(test_outputs))
    assert set(checked["variance_ratio"]) == {"uw", "rw"}


def test_report_gate_trips_on_scaled_permutations(test_outputs, tmp_path):
    copy = corrupted_copy(test_outputs, tmp_path / "out")
    path = copy / "permuted_uw.npy"
    np.save(path, np.load(path) * 1.5)
    with pytest.raises(gates.GateFailure, match="uw"):
        gates.check_test_report(str(copy))


def _edit_report(test_outputs, tmp_path, edit):
    copy = corrupted_copy(test_outputs, tmp_path / "out")
    path = copy / "balance_report.json"
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))
    return str(copy)


def test_report_gate_trips_on_wrong_exact_variance(test_outputs, tmp_path):
    def edit(report):
        report["variance"]["var_delta_rw_conditional"] *= 2.0

    with pytest.raises(gates.GateFailure, match="rw: permutation variance"):
        gates.check_test_report(_edit_report(test_outputs, tmp_path, edit))


def test_report_gate_trips_on_inconsistent_p_conservative(test_outputs, tmp_path):
    def edit(report):
        report["statistics"][0]["p_conservative"] += 1e-3

    with pytest.raises(gates.GateFailure, match="p_conservative"):
        gates.check_test_report(_edit_report(test_outputs, tmp_path, edit))


def test_report_gate_trips_on_p_value_out_of_range(test_outputs, tmp_path):
    def edit(report):
        report["statistics"][1]["permutation_p"] = 1.5

    with pytest.raises(gates.GateFailure, match=r"outside \[0, 1\]"):
        gates.check_test_report(_edit_report(test_outputs, tmp_path, edit))


def test_report_gate_trips_on_p_value_that_disagrees_with_the_dump(test_outputs, tmp_path):
    def edit(report):
        row = report["statistics"][2]
        count = round(row["permutation_p"] * row["b"]) + 1
        row["permutation_p"] = count / row["b"]
        row["p_conservative"] = (count + 1) / (row["b"] + 1)

    with pytest.raises(gates.GateFailure, match="extremes"):
        gates.check_test_report(_edit_report(test_outputs, tmp_path, edit))


def test_benchmark_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
