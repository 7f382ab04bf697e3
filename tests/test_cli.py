import concurrent.futures
import csv
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from balance_lab import Diagnostics, balance, cli, load_dataset, regression, reports, simulation
from conftest import lstsq

FIXTURE = str(pathlib.Path(__file__).parent / "fixtures" / "null_small.csv")
CONFIGS = pathlib.Path(__file__).parent.parent / "configs"

BASE_ARGS = [
    "test",
    "--input", FIXTURE,
    "--treatment", "z",
    "--outcome", "y",
    "--covariates", "x1,x2,x3",
    "--seed", "12345",
    "--permutations", "500",
]

# Frozen results of the committed null fixture (seed 12345, B=500) under
# random-stream version 5. Determinism makes these exact.
FROZEN = {
    "uw": (-0.22412536691045684, 0.364),
    "rw": (-0.004336305130310914, 0.816),
    "hotelling": (3.2437838001616353, 0.364),
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
        original = reports.write_json

        def capture(path, payload):
            captured[os.path.basename(path)] = payload
            original(path, payload)

        monkeypatch.setattr(reports, "write_json", capture)
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

    @pytest.mark.parametrize("policy", ["fixed", "refit"])
    @pytest.mark.parametrize("scale", ["standardized", "raw"])
    def test_one_prognosis_fit(self, policy, scale, tmp_path, monkeypatch):
        # the weights' control-arm fit is the only fit of the observed
        # control arm and gives the one prognosis R^2; the other least
        # squares are the refit fallbacks, one stacked fit per kernel call
        # that has any
        rows, kernel_fallbacks = [], []
        original, kernel = regression._lstsq, balance._refit_rw_columns

        def counting(x, y):
            rows.append(x.shape[1])
            return original(x, y)

        def counting_kernel(*args):
            values, failures, fallbacks = kernel(*args)
            kernel_fallbacks.append(fallbacks)
            return values, failures, fallbacks

        monkeypatch.setattr(regression, "_lstsq", counting)
        monkeypatch.setattr(balance, "_lstsq", counting)
        monkeypatch.setattr(balance, "_refit_rw_columns", counting_kernel)
        args = ["--weight-policy", policy, "--scale", scale, "--out-dir", str(tmp_path)]
        assert run_cli(BASE_ARGS + args) == 0
        report = json.load(open(tmp_path / "balance_report.json"))
        assert report["weights"]["r_squared"] == report["diagnostics"]["prognosis_r2"]
        n0 = report["dataset"]["n0"]
        assert bool(kernel_fallbacks) == (policy == "refit")
        assert rows == [n0] * (1 + sum(fallbacks > 0 for fallbacks in kernel_fallbacks))

    def test_lag_column_may_be_a_covariate(self, tmp_path):
        # the lag is read from the covariate's column, not loaded twice
        data = ["--input", FIXTURE, "--treatment", "z", "--outcome", "y", "--lag-column", "y_lag"]
        for name, covariates in (("apart", "x1"), ("covariate", "x1,y_lag")):
            out = str(tmp_path / name)
            assert run_cli(["diagnose", *data, "--covariates", covariates, "--out-dir", out]) == 0
        reports = {
            name: json.load(open(tmp_path / name / "diagnose_report.json"))
            for name in ("apart", "covariate")
        }
        assert reports["covariate"]["dataset"]["columns"] == ["x1", "y_lag"]
        for key in ("lagged_correlation_control", "lagged_correlation_full"):
            value = reports["covariate"]["diagnostics"][key]
            assert value is not None and value == reports["apart"]["diagnostics"][key]

    @pytest.mark.parametrize("policy", ["fixed", "refit"])
    def test_rw_does_not_depend_on_the_scale(self, policy, tmp_path):
        # every fit reads the standardized covariates; the scale sets the
        # units of the mean differences and uw only
        reports = {}
        for scale in ("standardized", "raw"):
            args = ["--permutations", "1000", "--seed", "7", "--weight-policy", policy,
                    "--scale", scale, "--dump-permutations", "--out-dir", str(tmp_path / scale)]
            assert run_cli(BASE_ARGS + args) == 0
            reports[scale] = json.load(open(tmp_path / scale / "balance_report.json"))
        rows = {
            scale: {row["name"]: row for row in report["statistics"]}
            for scale, report in reports.items()
        }
        std, raw = rows["standardized"], rows["raw"]
        for key in ("observed", "exact_variance", "permutation_p"):
            assert std["rw"][key] == raw["rw"][key]
        assert std["hotelling"] == raw["hotelling"]
        assert std["uw"]["observed"] != raw["uw"]["observed"]
        for block, key in (("weights", "r_squared"), ("weights", "standardized_coefficients"),
                           ("diagnostics", "prognosis_r2")):
            assert reports["standardized"][block][key] == reports["raw"][block][key]
        dumped = [(tmp_path / scale / "permuted_rw.npy").read_bytes() for scale in rows]
        assert dumped[0] == dumped[1]

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

    @staticmethod
    def missing_cells_table(tmp_path):
        """The fixture with NA in row 5's y and row 9's x2, and row 12 cut
        after x2, so that three rows miss a value."""
        lines = open(FIXTURE).read().splitlines()
        for i, k in ((4, 2), (8, 4)):
            cells = lines[i].split(",")
            cells[k] = "NA"
            lines[i] = ",".join(cells)
        lines[11] = ",".join(lines[11].split(",")[:5])
        path = tmp_path / "missing.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_lenient_missing_reports_dropped_rows(self, tmp_path):
        args = [self.missing_cells_table(tmp_path) if a == FIXTURE else a for a in BASE_ARGS]
        assert run_cli(args + ["--lenient-missing", "--out-dir", str(tmp_path / "out")]) == 0
        report = json.load(open(tmp_path / "out" / "balance_report.json"))
        assert report["dataset"]["rows_dropped_missing"] == 3
        assert report["dataset"]["n"] == 197
        text = (tmp_path / "out" / "balance_report.txt").read_text()
        assert "rows dropped for missing values: 3" in text.splitlines()

    def test_missing_cell_strict_exits_2(self, tmp_path, capsys):
        args = [self.missing_cells_table(tmp_path) if a == FIXTURE else a for a in BASE_ARGS]
        assert run_cli(args + ["--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "row 5, column 'y': missing value" in err

    def test_duplicate_header_column_exits_2(self, tmp_path, capsys):
        lines = pathlib.Path(FIXTURE).read_text().splitlines()
        lines[0] = lines[0].replace("y_lag", "x2")
        path = tmp_path / "duplicate.csv"
        path.write_text("\n".join(lines) + "\n")
        args = [str(path) if a == FIXTURE else a for a in BASE_ARGS]
        assert run_cli(args + ["--out-dir", str(tmp_path / "out")]) == 2
        assert "column 'x2' appears 2 times" in capsys.readouterr().err

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

    def test_thread_count_leaves_outputs_unchanged(self, tmp_path):
        # B = 2100 spans three permutation chunks; --threads is only recorded
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            code = run_cli(
                BASE_ARGS + ["--permutations", "2100", "--threads", threads,
                             "--dump-permutations", "--out-dir", str(out)]
            )
            assert code == 0
            report = json.load(open(out / "balance_report.json"))
            for key in ("started_at", "finished_at"):
                del report["manifest"][key]
            del report["manifest"]["configuration"]["threads"]
            dumps = {path.name: path.read_bytes() for path in sorted(out.glob("permuted_*.npy"))}
            outputs[threads] = (report, dumps)
        assert len(outputs["1"][1]) == 3
        assert outputs["1"] == outputs["2"]

    def test_starts_no_process_pool(self, tmp_path, monkeypatch):
        # three chunks and two workers asked for: the chunks still run in-process
        def refuse(*args, **kwargs):
            raise AssertionError("balance-lab test started a process pool")

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", refuse)
        code = run_cli(
            BASE_ARGS + ["--permutations", "2100", "--threads", "2", "--out-dir", str(tmp_path)]
        )
        assert code == 0


def _write_table(path, columns):
    names = list(columns)
    rows = zip(*(columns[name] for name in names))
    lines = [",".join(names)] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _collinear_table(path):
    # 20 treated, then 20 control; x1 marks 10 treated units and x2 = 1 - x1
    g = np.random.default_rng(31)
    x1 = np.zeros(40)
    x1[:10] = 1.0
    x3, y = g.normal(size=(2, 40))
    _write_table(path, {"z": np.repeat([1, 0], 20), "y": y, "x1": x1, "x2": 1.0 - x1, "x3": x3})


def _offset_table(path):
    # a timestamp-like column: a spread of 1e-3 about 2e6
    g = np.random.default_rng(37)
    z = np.zeros(200, dtype=int)
    z[g.permutation(200)[:100]] = 1
    x1 = 2e6 + 1e-3 * g.normal(size=200)
    x2 = 5e4 + 2e4 * g.normal(size=200)
    x3, y = g.normal(size=(2, 200))
    _write_table(path, {"z": z, "y": y, "x1": x1, "x2": x2, "x3": x3})


@pytest.mark.parametrize(
    "table, kept", [(_collinear_table, [0, 2]), (_offset_table, [0, 1, 2])], ids=["collinear", "offset"]
)
def test_covariates_the_statistics_handle_exit_0(table, kept, tmp_path, monkeypatch):
    # covariates collinear over all units, or with a large offset, are no
    # reason for test or diagnose to exit 2: no fit over all units is made
    path = tmp_path / "table.csv"
    table(path)
    data = ["--input", str(path), "--treatment", "z", "--outcome", "y", "--covariates", "x1,x2,x3"]
    test = ["test", *data, "--seed", "1"]
    assert run_cli(["diagnose", *data, "--out-dir", str(tmp_path / "diagnose")]) == 0
    assert run_cli(test + ["--out-dir", str(tmp_path / "test")]) == 0
    # the raw scale fits the same standardized design
    assert run_cli(test + ["--scale", "raw", "--out-dir", str(tmp_path / "raw")]) == 0
    monkeypatch.setattr(balance, "diagnostics", lambda d, lag, weights: Diagnostics(0.0, 0.0))
    assert run_cli(test + ["--out-dir", str(tmp_path / "stubbed")]) == 0
    reports = {
        name: json.load(open(next((tmp_path / name).glob("*.json"))))
        for name in ("diagnose", "test", "raw", "stubbed")
    }
    assert reports["test"]["statistics"] == reports["stubbed"]["statistics"]
    assert reports["test"]["statistics"][1] == reports["raw"]["statistics"][1]  # rw
    d = load_dataset(str(path), "z", "y", ["x1", "x2", "x3"])
    x, z = d.standardized_x[:, kept], d.z.astype(float)
    expected = regression._r_squared(x, z, lstsq(x, z))
    for name in ("diagnose", "test"):
        assert reports[name]["diagnostics"]["imbalance_r2"] == pytest.approx(expected, abs=1e-12)


def test_covariate_whose_standardization_overflows_exits_2(tmp_path, capsys):
    # every cell of x1 is finite, but its mean and SD overflow
    g = np.random.default_rng(41)
    x1 = 1e308 * g.uniform(0.5, 0.9, size=40)
    x2, y = g.normal(size=(2, 40))
    path = tmp_path / "table.csv"
    _write_table(path, {"z": np.repeat([1, 0], 20), "y": y, "x1": x1, "x2": x2})
    data = ["--input", str(path), "--treatment", "z", "--outcome", "y", "--covariates", "x1,x2"]
    out = ["--out-dir", str(tmp_path / "out")]
    test = ["test", *data, "--seed", "1", "--permutations", "20", *out]
    for args in (["diagnose", *data, *out], test, test + ["--weight-policy", "refit"]):
        assert run_cli(args) == 2
        assert "covariate 'x1' cannot be standardized" in capsys.readouterr().err


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

    def test_manifest_records_treated_level(self, tmp_path):
        # the treated level picks the control arm, so it moves the prognosis R^2
        g = np.random.default_rng(23)
        path = tmp_path / "labels.csv"
        labels = np.array(["a", "b"] * 20)
        x1 = g.normal(size=40)
        y = np.where(labels == "b", x1 + 0.1 * g.normal(size=40), g.normal(size=40))
        with open(path, "w") as fh:
            fh.write("arm,y,x1\n")
            for i in range(40):
                fh.write(f"{labels[i]},{float(y[i])!r},{float(x1[i])!r}\n")
        reports = {}
        for level in ("a", "b"):
            out = tmp_path / level
            code = run_cli(
                ["diagnose", "--input", str(path), "--treatment", "arm", "--outcome", "y",
                 "--covariates", "x1", "--treated-level", level, "--out-dir", str(out)]
            )
            assert code == 0
            reports[level] = json.load(open(out / "diagnose_report.json"))
        for level, report in reports.items():
            configuration = report["manifest"]["configuration"]
            assert configuration["treated_level"] == level
            assert list(configuration)[3:5] == ["covariates", "treated_level"]
        r2 = {level: report["diagnostics"]["prognosis_r2"] for level, report in reports.items()}
        assert r2["a"] > 0.9 > r2["b"]

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


def assert_svgs_match_plot_data(out, covariate):
    """One SVG per imbalance level, in grid order, named
    power_x{covariate}_imb{level:g}.svg and titled with the facet that
    plot_data.csv gives the level."""
    with open(out / "results.csv", newline="") as fh:
        levels = list(dict.fromkeys(float(row["imbalance"]) for row in csv.DictReader(fh)))
    with open(out / "plot_data.csv", newline="") as fh:
        facets = list(dict.fromkeys(row["facet"] for row in csv.DictReader(fh)))
    assert len(facets) == len(levels)
    names = [f"power_x{covariate}_imb{level:g}.svg" for level in levels]
    assert sorted(p.name for p in out.glob("*.svg")) == sorted(names)
    for name, facet in zip(names, facets):
        svg = (out / name).read_text()
        assert re.findall(r'<text x="\d+" y="20"[^>]*>([^<]*)</text>', svg) == [facet]


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
        assert_svgs_match_plot_data(out, covariate=1)

    def test_x2_study_labels_every_facet_x2(self, tmp_path):
        # the shipped x2 study, shrunk; its imbalance-0 cells load on no
        # covariate but still belong to the x2 facets
        config = json.load(open(CONFIGS / "desk_scale_x2.json"))
        config.update(n=40, replicates=2, permutations=20, prognosis_levels=[0.0, 0.3])
        path = tmp_path / "x2.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0
        with open(out / "plot_data.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["imbalance_covariate"] for row in rows} == {"2"}
        facets = {row["facet"] for row in rows}
        assert facets == {"imbalance=0 (x2)", "imbalance=0.1 (x2)", "imbalance=0.2 (x2)"}
        assert (out / "power_x2_imb0.svg").exists()
        assert_svgs_match_plot_data(out, covariate=2)

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

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        flagged, held = tmp_path / "flagged", tmp_path / "held"
        config = write_config(tmp_path / "seed7.json", replicates=4)
        args = ["simulate", "--config", config, "--seed", "11", "--out-dir", str(flagged)]
        assert run_cli(args) == 0
        config = write_config(tmp_path / "seed11.json", replicates=4, seed=11)
        assert run_cli(["simulate", "--config", config, "--out-dir", str(held)]) == 0
        manifest = json.load(open(flagged / "manifest.json"))
        assert manifest["seed"] == 11
        assert (flagged / "results.csv").read_bytes() == (held / "results.csv").read_bytes()

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

    def test_resume_recomputes_older_checkpoint_format(self, tmp_path, capsys):
        # an older version stored grid_cell and imbalance_covariate and no
        # per-replicate p-values, under the same fingerprint
        config = write_config(tmp_path / "study.json")
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", config, "--out-dir", str(out)]) == 0
        reference = open(out / "results.csv", "rb").read()
        cell = out / "checkpoints" / "cell_0001.json"
        current = json.loads(cell.read_text())
        older = {
            "fingerprint": current["fingerprint"],
            "grid_cell": [0.4, 0.0],
            **{k: v for k, v in current.items() if k not in ("fingerprint", "pvalues")},
            "imbalance_covariate": 1,
        }
        cell.write_text(json.dumps(older))
        os.remove(out / "results.csv")
        capsys.readouterr()
        assert run_cli(["simulate", "--config", config, "--out-dir", str(out), "--resume"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            "[1/2] imbalance=0 prognosis=0 (resumed)",
            "[2/2] imbalance=0.4 prognosis=0 (computed)",
        ]
        assert open(out / "results.csv", "rb").read() == reference
        assert json.loads(cell.read_text()) == current

    def test_manifest_records_the_code_version(self, tmp_path):
        config = write_config(tmp_path / "study.json", imbalance_levels=[0.0], replicates=2)
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", config, "--out-dir", str(out)]) == 0
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["code_version"] == simulation._code_version()
        assert run_cli(BASE_ARGS + ["--out-dir", str(tmp_path / "test")]) == 0
        assert "code_version" not in json.load(open(tmp_path / "test" / "balance_report.json"))["manifest"]

    def test_malformed_config_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        # configs whose results could not be told apart or reported
        for i, bad in enumerate((
            {"statistics": []},
            {"statistics": ["uw", "uw"]},
            {"imbalance_levels": [0.2, 0.2]},
            {"imbalance_levels": [0.0, -0.0]},
            {"prognosis_levels": [0.0, 0.0]},
        )):
            config = write_config(tmp_path / f"bad{i}.json", **bad)
            out = tmp_path / f"bad{i}"
            assert run_cli(["simulate", "--config", config, "--out-dir", str(out)]) == 2, bad
            assert not (out / "results.csv").exists()


SMALL_CONFIG = {"imbalance_levels": [0.0], "prognosis_levels": [0.0], "replicates": 2}

# The config file each simulate case reads; a case not named runs SMALL_CONFIG.
INVALID_CONFIGS = {
    "config-seed-negative": {**SMALL_CONFIG, "seed": -1},
    "config-seed-fractional": {**SMALL_CONFIG, "seed": 1.5},
    "config-seed-bool": {**SMALL_CONFIG, "seed": True},
    "config-not-object": 5,
    "config-list-with-seed-flag": [1, 2],
    "config-levels-not-list": {**SMALL_CONFIG, "imbalance_levels": 5},
    "config-level-not-number": {**SMALL_CONFIG, "imbalance_levels": [0.0, "x"]},
    "config-level-nan": {**SMALL_CONFIG, "prognosis_levels": [float("nan")]},
    "config-tau-infinite": {**SMALL_CONFIG, "tau": float("inf")},
    "config-replicates-fractional": {**SMALL_CONFIG, "replicates": 2.5},
    "config-permutations-fractional": {**SMALL_CONFIG, "permutations": 1.5},
    "config-n-float": {**SMALL_CONFIG, "n": 40.0},
    "config-p-string": {**SMALL_CONFIG, "p": "3"},
    # n/2 = 4 control units cannot fit rw's p = 3 covariates and an intercept
    "config-rw-control-arm-too-small": {**SMALL_CONFIG, "n": 8, "p": 3},
}


@pytest.mark.parametrize(
    "case",
    [
        "test-seed-negative",
        "test-permutations-zero",
        "test-alpha-above-one",
        "test-alpha-zero",
        "threads-env-not-int",
        "threads-env-negative",
        "test-threads-negative",
        "simulate-threads-negative",
        "simulate-seed-negative",
        "test-covariate-is-outcome",
        "test-outcome-is-treatment",
        "test-covariate-repeated",
        "test-covariates-empty",
        "test-lag-is-outcome",
        "diagnose-lag-is-treatment",
        *INVALID_CONFIGS,
    ],
)
def test_invalid_input_exits_2(case, tmp_path, monkeypatch, capsys):
    env = {"threads-env-not-int": "abc", "threads-env-negative": "-4"}.get(case, "1")
    monkeypatch.setenv("BALANCE_LAB_THREADS", env)
    test = BASE_ARGS + ["--out-dir", str(tmp_path / "out")]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(INVALID_CONFIGS.get(case, SMALL_CONFIG)))
    simulate = ["simulate", "--out-dir", str(tmp_path / "out"), "--config", str(config)]
    args = {
        "test-seed-negative": test + ["--seed", "-1"],
        "test-permutations-zero": test + ["--permutations", "0"],
        "test-alpha-above-one": test + ["--alpha", "7"],
        "test-alpha-zero": test + ["--alpha", "0"],
        "threads-env-not-int": test,
        "threads-env-negative": test,
        "test-threads-negative": test + ["--threads", "-4"],
        "simulate-threads-negative": simulate + ["--threads", "-4"],
        "simulate-seed-negative": simulate + ["--seed", "-1"],
        "config-list-with-seed-flag": simulate + ["--seed", "3"],
        "test-covariate-is-outcome": test + ["--covariates", "x1,y"],
        "test-outcome-is-treatment": test + ["--outcome", "z"],
        "test-covariate-repeated": test + ["--covariates", "x1,x1"],
        "test-covariates-empty": test + ["--covariates", ","],
        "test-lag-is-outcome": test + ["--lag-column", "y"],
        "diagnose-lag-is-treatment": ["diagnose", *BASE_ARGS[1:9], "--lag-column", "z", "--out-dir", str(tmp_path)],
    }.get(case, simulate)
    try:
        code = run_cli(args)
    except SystemExit as exc:  # argparse rejects a flag value before any command runs
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert any(line.startswith("error:") or ": error: " in line for line in err)
    if case.startswith("test-alpha-"):  # test has no --alpha: any value is refused
        assert any(line.endswith(f"unrecognized arguments: {' '.join(args[-2:])}") for line in err)


@pytest.mark.parametrize("command", ["test", "diagnose"])
def test_constant_lag_column_correlation_is_null(command, tmp_path):
    lines = open(FIXTURE).read().splitlines()
    path = tmp_path / "constant_lag.csv"
    path.write_text("\n".join([lines[0] + ",lag"] + [line + ",0.1" for line in lines[1:]]) + "\n")
    args = [command, "--input", str(path), "--treatment", "z", "--outcome", "y",
            "--covariates", "x1,x2,x3", "--lag-column", "lag", "--out-dir", str(tmp_path)]
    if command == "test":
        args += ["--seed", "1", "--permutations", "50"]
    assert run_cli(args) == 0
    name = "balance_report" if command == "test" else "diagnose_report"
    raw = (tmp_path / f"{name}.json").read_text()
    assert "NaN" not in raw
    diag = json.loads(raw)["diagnostics"]
    assert diag["lagged_correlation_control"] is None
    assert diag["lagged_correlation_full"] is None
    text = (tmp_path / f"{name}.txt").read_text()
    assert "lagged-outcome correlation: control arm undefined (constant), full data undefined (constant)\n" in text


def test_linear_algebra_failure_exits_3(tmp_path, monkeypatch, capsys):
    # main imports numpy's LinAlgError only after parsing, and still maps it
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(balance, "compute_balance_report", fail)
    assert run_cli(BASE_ARGS + ["--out-dir", str(tmp_path)]) == 3
    assert "error: internal numerical failure: forced" in capsys.readouterr().err


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
    # scipy is needed only by the pivoted QR; importing it costs every call.
    # Numpy too: importing the package or the CLI, help, the version and a
    # usage error all end before any command runs, and load neither.
    package_root = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    probe = (
        "import json, sys\n"
        "import balance_lab\n"
        "from balance_lab import cli\n"
        "codes = []\n"
        "for args in (['--help'], ['--version'], ['test']):\n"
        "    try:\n"
        "        cli.main(args)\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "loaded = sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout.splitlines()[-1]) == {"codes": [0, 0, 2], "loaded": []}


def test_commands_load_no_scipy(tmp_path):
    # every least-squares fit is numpy's QR: no command loads any scipy module.
    # Each command loads what it runs: diagnose neither the permutation
    # machinery nor numpy.random, test not simulation.
    package_root = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    calls = [["diagnose", "--input", FIXTURE, "--treatment", "z", "--outcome", "y",
              "--covariates", "x1,x2,x3", "--out-dir", str(tmp_path / "diagnose")]]
    calls += [
        BASE_ARGS + ["--weight-policy", policy, "--out-dir", str(tmp_path / policy)]
        for policy in ("fixed", "refit")
    ]
    config = write_config(tmp_path / "study.json", replicates=3)
    calls.append(["simulate", "--config", config, "--threads", "1",
                  "--out-dir", str(tmp_path / "simulate")])
    # modules that must still be absent after each call, in call order
    unused = [
        ["balance_lab.simulation", "balance_lab.permutation", "balance_lab.variance",
         "concurrent.futures.process", "numpy.random"],
        ["balance_lab.simulation"],
        ["balance_lab.simulation"],
        [],
    ]
    probe = (
        "import json, sys\n"
        "from balance_lab import cli\n"
        "codes, loaded = [], []\n"
        "for args, names in zip(*json.loads(sys.argv[1])):\n"
        "    codes.append(cli.main(args))\n"
        "    loaded.append([m for m in names if m in sys.modules])\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded, 'scipy': scipy}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, json.dumps([calls, unused])],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == {
        "codes": [0, 0, 0, 0], "loaded": [[], [], [], []], "scipy": []
    }
