import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from balance_lab import cli

FIXTURE = str(pathlib.Path(__file__).parent / "fixtures" / "null_small.csv")

BASE_ARGS = [
    "test",
    "--input", FIXTURE,
    "--treatment", "z",
    "--outcome", "y",
    "--covariates", "x1,x2,x3",
    "--seed", "12345",
    "--permutations", "500",
]

# Frozen results of the committed null fixture (seed 12345, B=500).
# Determinism makes these exact.
FROZEN = {
    "uw": (-0.22412536691045684, 0.356),
    "rw": (-0.004336305130310892, 0.83),
    "hotelling": (3.243783800161633, 0.362),
}
FIXTURE_DIGEST = "db58519ff829825d"


def run_cli(args):
    return cli.main(args)


class TestCmdTest:
    def test_null_fixture_frozen_values(self, tmp_path, capsys):
        code = run_cli(BASE_ARGS + ["--lag-column", "y_lag", "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.load(open(tmp_path / "balance_report.json"))
        assert report["manifest"]["input_digest"] == FIXTURE_DIGEST
        assert len(report["statistics"]) == 3
        for row in report["statistics"]:
            observed, p_perm = FROZEN[row["name"]]
            assert row["observed"] == observed
            assert row["permutation_p"] == p_perm
            assert row["permutation_p"] > 0.05
        assert report["diagnostics"]["lagged_correlation_control"] is not None
        out = capsys.readouterr().out
        assert "omnibus statistics" in out

    def test_report_round_trip(self, tmp_path, monkeypatch):
        # the re-parsed machine report must equal the in-memory structure
        captured = {}
        original = cli.write_json

        def capture(path, payload):
            captured[os.path.basename(path)] = payload
            original(path, payload)

        monkeypatch.setattr(cli, "write_json", capture)
        run_cli(BASE_ARGS + ["--out-dir", str(tmp_path)])
        parsed = json.load(open(tmp_path / "balance_report.json"))
        assert parsed == captured["balance_report.json"]
        assert (tmp_path / "balance_report.txt").exists()

    def test_single_statistic_block(self, tmp_path):
        run_cli(BASE_ARGS + ["--statistic", "uw", "--out-dir", str(tmp_path)])
        report = json.load(open(tmp_path / "balance_report.json"))
        assert [row["name"] for row in report["statistics"]] == ["uw"]

    def test_refit_fallback_count_in_rw_row(self, tmp_path):
        for policy in ("refit", "fixed"):
            run_cli(BASE_ARGS + ["--weight-policy", policy, "--out-dir", str(tmp_path / policy)])
        reports = {
            policy: json.load(open(tmp_path / policy / "balance_report.json"))["statistics"]
            for policy in ("refit", "fixed")
        }
        refit = {row["name"]: row for row in reports["refit"]}
        assert refit["rw"]["n_refit_fallback"] == refit["rw"]["n_failed"] == 0
        assert not any("n_refit_fallback" in row for row in (refit["uw"], *reports["fixed"]))
        texts = {
            policy: (tmp_path / policy / "balance_report.txt").read_text()
            for policy in ("refit", "fixed")
        }
        assert "(n_refit_fallback): {'rw': 0}\n" in texts["refit"]
        assert "n_refit_fallback" not in texts["fixed"]

    @pytest.mark.parametrize("scale", ["standardized", "raw"])
    def test_constant_covariate_dropped(self, tmp_path, scale):
        # 0.1 repeated leaves a rounding residue in np.std; it is still constant.
        lines = open(FIXTURE).read().splitlines()
        path = tmp_path / "constant.csv"
        path.write_text("\n".join([lines[0] + ",c"] + [line + ",0.1" for line in lines[1:]]) + "\n")
        code = run_cli(
            ["test", "--input", str(path), "--treatment", "z", "--outcome", "y",
             "--covariates", "x1,x2,c", "--scale", scale, "--weight-policy", "refit",
             "--seed", "3", "--permutations", "500", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        report = json.load(open(tmp_path / "balance_report.json"))
        assert report["dataset"]["dropped_constant_columns"] == ["c"]
        rw = next(row for row in report["statistics"] if row["name"] == "rw")
        assert rw["n_refit_fallback"] == rw["n_failed"] == 0

    def test_dump_permutations(self, tmp_path):
        run_cli(BASE_ARGS + ["--statistic", "rw", "--dump-permutations", "--out-dir", str(tmp_path)])
        values = np.load(tmp_path / "permuted_rw.npy")
        assert values.shape == (500,)

    def test_non_numeric_cell_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        lines = open(FIXTURE).read().splitlines()
        lines[3] = lines[3].replace(lines[3].split(",")[3], "not-a-number")
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli(
            ["test", "--input", str(bad), "--treatment", "z", "--outcome", "y",
             "--covariates", "x1,x2,x3", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "row 4" in err and "x1" in err

    def test_missing_file_exits_2(self, tmp_path):
        code = run_cli(
            ["test", "--input", str(tmp_path / "nope.csv"), "--treatment", "z",
             "--outcome", "y", "--covariates", "x1"]
        )
        assert code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run_cli(["test", "--input", FIXTURE, "--treatment", "z", "--covariates", "x1"])
        assert info.value.code == 2

    def test_significant_result_still_exits_0(self, tmp_path, rng):
        path = tmp_path / "imbalanced.csv"
        n = 80
        z = np.array([1] * 40 + [0] * 40)
        x1 = z + 0.1 * rng.normal(size=n)
        with open(path, "w") as fh:
            fh.write("z,y,x1\n")
            for i in range(n):
                fh.write(f"{z[i]},{rng.normal():.6f},{x1[i]:.6f}\n")
        code = run_cli(
            ["test", "--input", str(path), "--treatment", "z", "--outcome", "y",
             "--covariates", "x1", "--seed", "4", "--permutations", "200",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        report = json.load(open(tmp_path / "balance_report.json"))
        assert report["statistics"][0]["permutation_p"] < 0.05

    def test_omitted_seed_is_generated_and_recorded(self, tmp_path):
        args = [a for a in BASE_ARGS if a not in ("--seed", "12345")]
        code = run_cli(args + ["--permutations", "50", "--out-dir", str(tmp_path)])
        assert code == 0
        manifest = json.load(open(tmp_path / "balance_report.json"))["manifest"]
        assert isinstance(manifest["seed"], int)
        assert manifest["configuration"]["seed_generated"] is True

    def test_deterministic_across_runs(self, tmp_path):
        run_cli(BASE_ARGS + ["--out-dir", str(tmp_path / "a")])
        run_cli(BASE_ARGS + ["--out-dir", str(tmp_path / "b")])
        a = json.load(open(tmp_path / "a" / "balance_report.json"))
        b = json.load(open(tmp_path / "b" / "balance_report.json"))
        for key in ("per_covariate", "statistics", "weights", "variance", "diagnostics"):
            assert a[key] == b[key]


class TestCmdDiagnose:
    def test_prognostic_fixture(self, tmp_path, rng):
        path = tmp_path / "prog.csv"
        n = 60
        z = np.array([1, 0] * (n // 2))
        x1 = rng.normal(size=n)
        y = np.where(z == 1, rng.normal(size=n), x1)
        with open(path, "w") as fh:
            fh.write("z,y,x1\n")
            for i in range(n):
                fh.write(f"{z[i]},{float(y[i])!r},{float(x1[i])!r}\n")
        code = run_cli(
            ["diagnose", "--input", str(path), "--treatment", "z", "--outcome", "y",
             "--covariates", "x1", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        report = json.load(open(tmp_path / "diagnose_report.json"))
        assert report["diagnostics"]["prognosis_r2"] == pytest.approx(1.0)

    def test_orthogonal_assignment_fixture(self, tmp_path):
        g = np.random.default_rng(17)
        path = tmp_path / "ortho.csv"
        n = 10000
        z = np.zeros(n, dtype=int)
        z[g.permutation(n)[: n // 2]] = 1
        x = g.normal(size=(n, 2))
        with open(path, "w") as fh:
            fh.write("z,y,x1,x2\n")
            for i in range(n):
                fh.write(f"{z[i]},{g.normal():.8f},{x[i,0]:.8f},{x[i,1]:.8f}\n")
        code = run_cli(
            ["diagnose", "--input", str(path), "--treatment", "z", "--outcome", "y",
             "--covariates", "x1,x2", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        report = json.load(open(tmp_path / "diagnose_report.json"))
        assert report["diagnostics"]["imbalance_r2"] < 0.01

    def test_missing_outcome_flag(self):
        with pytest.raises(SystemExit) as info:
            run_cli(["diagnose", "--input", FIXTURE, "--treatment", "z", "--covariates", "x1"])
        assert info.value.code == 2


def write_config(path, **overrides):
    config = {
        "imbalance_levels": [0.0, 0.4],
        "prognosis_levels": [0.0],
        "n": 60,
        "replicates": 15,
        "permutations": 40,
        "seed": 7,
    }
    config.update(overrides)
    with open(path, "w") as fh:
        json.dump(config, fh)
    return str(path)


class TestCmdSimulate:
    def test_outputs_and_manifest(self, tmp_path):
        config = write_config(tmp_path / "study.json")
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", config, "--out-dir", str(out)]) == 0
        for name in ("results.csv", "plot_data.csv", "manifest.json",
                     "power_x1_imb0.svg", "power_x1_imb0.4.svg"):
            assert (out / name).exists(), name
        manifest = json.load(open(out / "manifest.json"))
        assert set(manifest["outputs"]) >= {"results.csv", "plot_data.csv"}
        header = open(out / "results.csv").readline().strip()
        assert header == "imbalance,prognosis,statistic,rejection_rate,mc_se,std_bias,replicates,b"

    def test_resume_reproduces_results(self, tmp_path):
        config = write_config(tmp_path / "study.json")
        clean = tmp_path / "clean"
        run_cli(["simulate", "--config", config, "--out-dir", str(clean)])
        reference = open(clean / "results.csv", "rb").read()

        resumed = tmp_path / "resumed"
        run_cli(["simulate", "--config", config, "--out-dir", str(resumed)])
        os.remove(resumed / "results.csv")
        (resumed / "checkpoints" / "cell_0001.json").unlink()  # drop one cell
        assert run_cli(["simulate", "--config", config, "--out-dir", str(resumed), "--resume"]) == 0
        assert open(resumed / "results.csv", "rb").read() == reference

    def test_resume_over_truncated_checkpoint(self, tmp_path):
        config = write_config(tmp_path / "study.json")
        clean = tmp_path / "clean"
        assert run_cli(["simulate", "--config", config, "--out-dir", str(clean)]) == 0
        reference = open(clean / "results.csv", "rb").read()

        cell = clean / "checkpoints" / "cell_0000.json"
        cell.write_bytes(cell.read_bytes()[: cell.stat().st_size // 2])
        os.remove(clean / "results.csv")
        assert run_cli(["simulate", "--config", config, "--out-dir", str(clean), "--resume"]) == 0
        assert open(clean / "results.csv", "rb").read() == reference
        json.load(open(cell))  # rewritten whole

    def test_infeasible_correlation_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "study.json", imbalance_levels=[1.5])
        code = run_cli(["simulate", "--config", config, "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "rho" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2


def _small_config(tmp_path, **overrides) -> str:
    path = tmp_path / "config.json"
    config = {"imbalance_levels": [0.0], "prognosis_levels": [0.0], "replicates": 2}
    path.write_text(json.dumps({**config, **overrides}))
    return str(path)


@pytest.mark.parametrize(
    "case",
    [
        "test-seed-negative",
        "test-permutations-zero",
        "test-alpha-above-one",
        "test-alpha-zero",
        "threads-env-not-int",
        "simulate-seed-negative",
        "config-seed-negative",
        "config-seed-fractional",
    ],
)
def test_invalid_input_exits_2(case, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BALANCE_LAB_THREADS", "abc" if case == "threads-env-not-int" else "1")
    test = BASE_ARGS + ["--out-dir", str(tmp_path / "out")]
    simulate = ["simulate", "--out-dir", str(tmp_path / "out")]
    args = {
        "test-seed-negative": test + ["--seed", "-1"],
        "test-permutations-zero": test + ["--permutations", "0"],
        "test-alpha-above-one": test + ["--alpha", "7"],
        "test-alpha-zero": test + ["--alpha", "0"],
        "threads-env-not-int": test,
        "simulate-seed-negative": simulate + ["--config", _small_config(tmp_path), "--seed", "-1"],
        "config-seed-negative": simulate + ["--config", _small_config(tmp_path, seed=-1)],
        "config-seed-fractional": simulate + ["--config", _small_config(tmp_path, seed=1.5)],
    }[case]
    try:
        code = run_cli(args)
    except SystemExit as exc:  # argparse rejects a flag value before any command runs
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert any(line.startswith("error:") or ": error: " in line for line in err)


class TestThreadResolution:
    def test_explicit_value(self):
        assert cli._resolve_threads(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("BALANCE_LAB_THREADS", "5")
        assert cli._resolve_threads(None) == 5

    def test_auto(self, monkeypatch):
        monkeypatch.delenv("BALANCE_LAB_THREADS", raising=False)
        assert cli._resolve_threads(0) == (os.cpu_count() or 1)


def test_cli_import_defers_scipy():
    # scipy is needed only by the pivoted QR; importing it costs every call
    package_root = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    probe = "import sys, balance_lab.cli; print(any(m.startswith('scipy') for m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
