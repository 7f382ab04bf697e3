import json
import math
import os
import re
import time
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from balance_lab import (
    DgpConfig,
    StudyConfig,
    control_arm_weights,
    diagnostics,
    generate_dataset,
    permutation_test,
    run_power_study,
    treatment_arm_weights,
)
from balance_lab import regression, simulation
from balance_lab.data import Dataset, population_sd
from balance_lab.errors import BalanceLabError, CellFailure, ConfigError, InfeasibleCorrelation
from balance_lab.permutation import STATISTIC_NAMES, permutation_pvalues
from balance_lab.simulation import build_grid


def case(field, value, message, id, **others):
    """One invalid-field case: ``field=value`` plus the further ``DgpConfig``
    fields ``others``."""
    return pytest.param(field, value, message, others, id=id)


class TestDgpConfig:
    def test_odd_n_rejected(self):
        with pytest.raises(ConfigError):
            DgpConfig(n=501)

    def test_infeasible_correlation(self):
        with pytest.raises(InfeasibleCorrelation):
            DgpConfig(imbalance=1.2)
        with pytest.raises(InfeasibleCorrelation):
            DgpConfig(rho_x1_y=-1.01)

    def test_x2_imbalance_needs_two_covariates(self):
        with pytest.raises(ConfigError):
            DgpConfig(p=1, imbalance=0.3, imbalance_covariate=2)

    def test_imbalance_label(self):
        assert DgpConfig(imbalance=0.2).imbalance_covariate == 1
        assert DgpConfig(imbalance=0.2, imbalance_covariate=2).imbalance_covariate == 2
        assert DgpConfig(imbalance=0.2, imbalance_covariate=2).imbalance == 0.2
        assert DgpConfig(imbalance_covariate=2).grid_cell == (0.0, 0.0)

    @pytest.mark.parametrize(
        "field, value, message, others",
        [
            case(
                "seed", -1, "seed must be a non-negative integer, got -1", id="seed-negative"
            ),
            case("seed", 2.5, "seed must be a non-negative integer, got 2.5", id="seed-float"),
            case("seed", True, "seed must be a non-negative integer, got True", id="seed-bool"),
            case("n", 40.0, "n must be an integer, got 40.0", id="n-float"),
            case("p", 3.0, "p must be an integer, got 3.0", id="p-float"),
            case("p", 0, "p must be positive, got 0", id="p-zero"),
            case(
                "imbalance_covariate", 1.0, "imbalance_covariate must be an integer, got 1.0",
                id="imbalance-covariate-float",
            ),
            case("tau", math.nan, "tau must be a finite number, got nan", id="tau-nan"),
            case("tau", "0", "tau must be a finite number, got '0'", id="tau-string"),
            case(
                "imbalance", math.inf, "imbalance must be a finite number, got inf",
                id="imbalance-inf",
            ),
            case(
                "imbalance", math.nan, "imbalance must be a finite number, got nan",
                id="imbalance-nan",
            ),
            # the loading of x2 (once its own field, rho_x2_z) is `imbalance`
            # with imbalance_covariate=2
            case(
                "imbalance", math.nan, "imbalance must be a finite number, got nan",
                id="rho-x2-z-nan", imbalance_covariate=2,
            ),
            case(
                "rho_x1_y", math.nan, "rho_x1_y must be a finite number, got nan", id="rho-x1-y-nan"
            ),
        ],
    )
    def test_invalid_fields_refused_as_study_config_refuses_them(
        self, field, value, message, others
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            DgpConfig(**{field: value}, **others)
        if field in StudyConfig.__dataclass_fields__:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                StudyConfig(**{field: value})

    def test_loading_on_the_other_covariate_refused(self):
        with pytest.raises(ConfigError):
            DgpConfig(imbalance_covariate=3)


class TestGenerateDataset:
    def test_shapes_and_balance(self):
        d = generate_dataset(DgpConfig(n=500, p=3, seed=1), 0)
        assert d.n == 500 and d.p == 3
        assert d.n1 == 250

    def test_deterministic_per_replicate(self):
        cfg = DgpConfig(seed=42)
        a = generate_dataset(cfg, 7)
        b = generate_dataset(cfg, 7)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y_obs, b.y_obs)
        c = generate_dataset(cfg, 8)
        assert not np.array_equal(a.x, c.x)

    def test_null_correlations_mostly_small(self):
        cfg = DgpConfig(n=500, p=3, seed=11)
        small = 0
        draws = 200
        for r in range(draws):
            d = generate_dataset(cfg, r)
            if abs(np.corrcoef(d.x[:, 0], d.z)[0, 1]) < 0.1:
                small += 1
        assert small / draws > 0.90

    def test_full_loading_degenerate(self):
        d = generate_dataset(DgpConfig(imbalance=1.0, seed=2), 0)
        z_tilde = 2.0 * d.z - 1.0
        np.testing.assert_allclose(d.x[:, 0], z_tilde, atol=1e-12)

    def test_target_moments(self):
        # average empirical correlations land on the configured targets
        cfg = DgpConfig(n=500, p=3, imbalance=0.2, rho_x1_y=0.3, seed=5)
        corr_xz = np.empty(10000)
        corr_xy = np.empty(10000)
        for r in range(10000):
            d = generate_dataset(cfg, r)
            corr_xz[r] = np.corrcoef(d.x[:, 0], d.z)[0, 1]
            corr_xy[r] = np.corrcoef(d.x[:, 0], d.y_obs)[0, 1]
        assert abs(corr_xz.mean() - 0.2) < 0.01
        assert abs(corr_xy.mean() - 0.3) < 0.01

    def test_tau_shifts_treated_outcomes(self):
        base = generate_dataset(DgpConfig(seed=9), 0)
        shifted = generate_dataset(DgpConfig(seed=9, tau=2.0), 0)
        np.testing.assert_allclose(shifted.y_obs - base.y_obs, 2.0 * base.z, atol=1e-12)


def mean_bias(cfg, replicates):
    values = np.empty(replicates)
    for r in range(replicates):
        d = generate_dataset(cfg, r)
        y0 = d.y_obs - cfg.tau * d.z
        diff = d.y_obs[d.z == 1].mean() - d.y_obs[d.z == 0].mean() - cfg.tau
        values[r] = diff / population_sd(y0)
    return values


class TestStandardizedBias:
    def test_zero_prognosis_unbiased(self):
        values = mean_bias(DgpConfig(n=200, imbalance=0.3, rho_x1_y=0.0, seed=31), 300)
        se = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean()) < 3 * se

    def test_bias_grows_with_prognosis_times_imbalance(self):
        cells = [
            DgpConfig(n=200, imbalance=0.1, rho_x1_y=0.1, seed=32),
            DgpConfig(n=200, imbalance=0.2, rho_x1_y=0.3, seed=33),
            DgpConfig(n=200, imbalance=0.3, rho_x1_y=0.5, seed=34),
        ]
        means = [mean_bias(cfg, 300).mean() for cfg in cells]
        assert means[0] < means[1] < means[2]

    def test_group_biases_equal_each_replicate_alone(self):
        # arms of n1 >= 8 units are summed pairwise, so a mean over a
        # strided view would differ from the single-dataset mean
        cfgs = [
            DgpConfig(n=500, imbalance=0.2, rho_x1_y=0.4, tau=tau, seed=35) for tau in (0.0, 0.3)
        ]
        prefix = [(generate_dataset(cfg, r), cfg.tau) for cfg in cfgs for r in range(4)]
        z = np.random.default_rng(5).permutation(prefix[0][0].z)
        shuffled = [(Dataset(x=d.x, z=z, y_obs=d.y_obs), tau) for d, tau in prefix]
        shuffled.append((Dataset(x=shuffled[0][0].x, z=z, y_obs=np.full(500, 2.0)), 0.0))
        for group in (prefix, shuffled):
            alone = []
            for d, tau in group:
                y0 = d.y_obs - tau * d.z
                treated = d.z == 1
                diff = float(d.y_obs[treated].mean() - d.y_obs[~treated].mean()) - tau
                sd_y0 = population_sd(y0)
                alone.append(diff / sd_y0 if sd_y0 > 0 else 0.0)
            datasets, taus = zip(*group)
            assert simulation._standardized_biases(datasets, taus).tolist() == alone


class TestStudyConfig:
    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            StudyConfig.from_dict({"replicants": 5})

    def test_validation(self):
        with pytest.raises(ConfigError):
            StudyConfig(imbalance_levels=())
        with pytest.raises(ConfigError):
            StudyConfig(alpha=1.5)
        with pytest.raises(ConfigError):
            StudyConfig(statistics=("uw", "median"))
        with pytest.raises(ConfigError):
            StudyConfig(imbalance_covariate=3)
        for bad in (
            dict(statistics=()),
            dict(statistics=("uw", "uw")),
            dict(imbalance_levels=(0.2, 0.2)),
            dict(imbalance_levels=(0.0, -0.0)),
            dict(prognosis_levels=(0.0, 0.1, 0.1)),
        ):
            with pytest.raises(ConfigError):
                StudyConfig(**bad)

    @pytest.mark.parametrize("key", sorted(StudyConfig.__dataclass_fields__))
    def test_from_dict_refuses_values_of_another_kind(self, key):
        # a list holding a list (unhashable), a JSON object and null
        for value in ([["uw"]], {"uw": 1}, None):
            with pytest.raises(ConfigError):
                StudyConfig.from_dict({key: value})

    def test_round_trip(self):
        study = StudyConfig(imbalance_levels=(0.0, 0.2), prognosis_levels=(0.0, 0.1))
        assert StudyConfig.from_dict(json.loads(json.dumps(asdict(study)))) == study

    def test_grid_layout(self):
        study = StudyConfig(
            imbalance_levels=(0.0, 0.2),
            prognosis_levels=(0.0, 0.1, 0.3),
            imbalance_covariate=2,
            seed=17,
        )
        grid = build_grid(study)
        assert len(grid) == 6
        assert grid[0].imbalance == 0.0 and grid[3].imbalance == 0.2
        assert all(cfg.imbalance_covariate == 2 for cfg in grid)
        assert len({cfg.seed for cfg in grid}) == 6
        assert [cfg.rho_x1_y for cfg in grid[:3]] == [0.0, 0.1, 0.3]


def tiny_study(**overrides):
    params = dict(
        imbalance_levels=(0.0, 0.4),
        prognosis_levels=(0.0,),
        n=60,
        replicates=25,
        permutations=50,
        seed=99,
    )
    params.update(overrides)
    return StudyConfig(**params)


class TestRunPowerStudy:
    def test_basic_result_shape(self):
        study = tiny_study()
        results = run_power_study(
            build_grid(study), replicates=study.replicates, b_permutations=study.permutations
        )
        assert len(results) == 2
        for res in results:
            for name in ("uw", "rw", "hotelling"):
                rate = res.rejection_rate[name]
                assert 0.0 <= rate <= 1.0
                expected_se = np.sqrt(rate * (1 - rate) / res.replicates)
                assert res.mc_standard_error[name] == pytest.approx(expected_se)
        assert results[0].config.grid_cell == (0.0, 0.0)
        assert results[1].config.grid_cell == (0.4, 0.0)

    @pytest.mark.parametrize(
        "setting",
        [
            pytest.param(dict(replicates=0), id="replicates-zero"),
            pytest.param(dict(replicates=2.5), id="replicates-not-integer"),
            pytest.param(dict(b_permutations=0), id="permutations-zero"),
            pytest.param(dict(alpha=0.0), id="alpha-zero"),
            pytest.param(dict(alpha=3.0), id="alpha-above-one"),
            pytest.param(dict(alpha=math.nan), id="alpha-nan"),
            pytest.param(dict(weight_policy="refitted"), id="weight-policy-unknown"),
            pytest.param(dict(statistics=("uw", "median")), id="statistics-unknown"),
            pytest.param(dict(statistics=()), id="statistics-empty"),
            pytest.param(dict(statistics=("rw", "rw")), id="statistics-repeated"),
            pytest.param(dict(statistics="uw"), id="statistics-string"),
            pytest.param(dict(statistics="hotelling"), id="statistics-string-repeating-letters"),
            pytest.param(dict(statistics=[["uw"]]), id="statistics-unhashable"),
            pytest.param(dict(threads=0), id="threads-zero"),
            pytest.param(dict(threads=1.5), id="threads-not-integer"),
        ],
    )
    def test_invalid_settings_refused_before_any_work(self, setting, tmp_path, monkeypatch):
        # the rule StudyConfig applies, with its message; threads has no
        # StudyConfig field
        def no_work(args):
            raise AssertionError("a group ran")

        monkeypatch.setattr(simulation, "_run_group", no_work)
        kwargs = dict(replicates=25, b_permutations=50, checkpoint_dir=str(tmp_path / "ckpt"))
        kwargs.update(setting)
        with pytest.raises(ConfigError) as refused:
            run_power_study(build_grid(tiny_study())[:1], **kwargs)
        assert not (tmp_path / "ckpt").exists()
        if "threads" not in setting:
            study_setting = {
                "permutations" if k == "b_permutations" else k: v for k, v in setting.items()
            }
            with pytest.raises(ConfigError, match=f"^{re.escape(str(refused.value))}$"):
                tiny_study(**study_setting)

    def test_numpy_integers_run_as_plain_ints(self, tmp_path):
        # the integer rule of permutation_pvalues: a numpy integer is read as
        # the int it holds, and stored and written as a plain int
        runs = []
        for kind in (int, np.int64):
            study = tiny_study(seed=kind(99), n=kind(60), replicates=kind(25))
            for name in ("seed", "n", "p", "replicates", "permutations", "imbalance_covariate"):
                assert type(getattr(study, name)) is int, name
            grid = build_grid(study)
            ckpt = tmp_path / kind.__name__
            results = run_power_study(
                grid, replicates=kind(25), b_permutations=kind(50), threads=kind(1),
                checkpoint_dir=str(ckpt),
            )
            files = {path.name: path.read_bytes() for path in sorted(ckpt.iterdir())}
            runs.append((study, results, files))
        (study, want, want_files), (numpy_study, got, got_files) = runs
        assert numpy_study == study
        assert got_files == want_files and len(got_files) == 2
        assert got == want
        for res, expected in zip(got, want):
            assert type(res.replicates) is type(res.permutations_per_replicate) is int
            for name in STATISTIC_NAMES:
                assert np.array_equal(res.pvalues[name], expected.pvalues[name])
        cfg = DgpConfig(n=np.int64(20), p=np.int32(2), seed=np.uint64(5))
        assert (cfg.n, cfg.p, cfg.seed) == (20, 2, 5)
        assert all(type(v) is int for v in (cfg.n, cfg.p, cfg.seed))

    def test_control_arm_too_small_for_rw_refused_before_any_work(self, tmp_path, monkeypatch):
        # n/2 = 4 control units cannot fit p = 3 covariates and an intercept
        grid = build_grid(tiny_study(imbalance_levels=(0.0,), n=8))
        assert grid[0].p == 3

        def no_work(args):
            raise AssertionError("a group ran")

        monkeypatch.setattr(simulation, "_run_group", no_work)
        kwargs = dict(replicates=4, b_permutations=20)
        with pytest.raises(ConfigError, match=r"n = 8 .* p = 3$"):
            run_power_study(grid, checkpoint_dir=str(tmp_path / "ckpt"), **kwargs)
        assert not (tmp_path / "ckpt").exists()
        monkeypatch.undo()
        # without rw, or with one more control unit, the study runs
        assert run_power_study(grid, statistics=("uw", "hotelling"), **kwargs)[0].n_failed == 0
        wider = build_grid(tiny_study(imbalance_levels=(0.0,), n=10))
        assert run_power_study(wider, **kwargs)[0].n_failed == 0

    def test_worker_count_does_not_change_results(self):
        study = tiny_study()
        grid = build_grid(study)
        kwargs = dict(replicates=study.replicates, b_permutations=study.permutations)
        seq = run_power_study(grid, threads=1, **kwargs)
        par = run_power_study(grid, threads=2, **kwargs)
        for a, b in zip(seq, par):
            assert a.rejection_rate == b.rejection_rate
            assert a.standardized_bias == b.standardized_bias

    def test_checkpoint_resume_identical(self, tmp_path):
        study = tiny_study()
        grid = build_grid(study)
        kwargs = dict(replicates=study.replicates, b_permutations=study.permutations)
        base = run_power_study(grid, **kwargs)

        ckpt = str(tmp_path / "checkpoints")
        first_cell_only = run_power_study(grid[:1], checkpoint_dir=ckpt, **kwargs)
        assert len(first_cell_only) == 1
        how = []
        resumed = run_power_study(
            grid,
            checkpoint_dir=ckpt,
            resume=True,
            progress=lambda i, total, status: how.append(status),
            **kwargs,
        )
        assert how == ["resumed", "computed"]
        for a, b in zip(base, resumed):
            assert a.rejection_rate == b.rejection_rate
            assert a.standardized_bias == b.standardized_bias

    def test_stale_checkpoint_recomputed(self, tmp_path):
        study = tiny_study()
        grid = build_grid(study)[:1]
        ckpt = str(tmp_path / "checkpoints")
        run_power_study(grid, replicates=25, b_permutations=50, checkpoint_dir=ckpt)
        how = []
        run_power_study(
            grid,
            replicates=25,
            b_permutations=60,
            checkpoint_dir=ckpt,
            resume=True,
            progress=lambda i, total, status: how.append(status),
        )
        assert how == ["computed"]

    @pytest.mark.parametrize(
        "damage",
        ["truncated", "missing_key", "not_an_object", "extra_key", "pvalues_not_object",
         "mistyped_field"],
    )
    def test_unreadable_checkpoint_recomputed(self, tmp_path, damage):
        grid = build_grid(tiny_study())[:1]
        ckpt = tmp_path / "checkpoints"
        kwargs = dict(replicates=25, b_permutations=50, checkpoint_dir=str(ckpt))
        base = run_power_study(grid, **kwargs)
        path = ckpt / "cell_0000.json"
        text = path.read_text()
        if damage == "truncated":
            path.write_text(text[: len(text) // 2])
        elif damage == "not_an_object":
            path.write_text("[1, 2]")
        else:
            payload = json.loads(text)
            if damage == "missing_key":
                del payload["rejection_rate"]
            elif damage == "extra_key":
                payload["grid_cell"] = [0.0, 0.0]
            elif damage == "pvalues_not_object":
                payload["pvalues"] = [0.5]
            else:
                payload["replicates"] = "25"
            path.write_text(json.dumps(payload))

        how = []
        resumed = run_power_study(
            grid, resume=True, progress=lambda i, total, status: how.append(status), **kwargs
        )
        assert how == ["computed"]
        assert resumed == base

    @pytest.mark.parametrize("edit", [("rho_x1_y", 0.45), ("n", 3)])
    def test_checkpoint_with_other_config_recomputed(self, tmp_path, edit):
        # the fingerprint still matches: a feasible config of another cell
        # must not be reused, and one DgpConfig refuses counts as stale
        grid = build_grid(tiny_study())[:1]
        ckpt = tmp_path / "checkpoints"
        kwargs = dict(replicates=25, b_permutations=50, checkpoint_dir=str(ckpt))
        base = run_power_study(grid, **kwargs)
        path = ckpt / "cell_0000.json"
        payload = json.loads(path.read_text())
        key, value = edit
        assert payload["config"][key] != value
        payload["config"][key] = value
        path.write_text(json.dumps(payload))

        how = []
        resumed = run_power_study(
            grid, resume=True, progress=lambda i, total, status: how.append(status), **kwargs
        )
        assert how == ["computed"]
        assert resumed == base
        assert resumed[0].config == grid[0]

    def test_checkpoint_from_other_stream_version_recomputed(self, tmp_path, monkeypatch):
        grid = build_grid(tiny_study())[:1]
        ckpt = str(tmp_path / "checkpoints")
        kwargs = dict(replicates=25, b_permutations=50, checkpoint_dir=ckpt)
        monkeypatch.setattr(simulation, "STREAM_VERSION", simulation.STREAM_VERSION - 1)
        run_power_study(grid, **kwargs)
        monkeypatch.undo()

        how = []
        record = lambda i, total, status: how.append(status)
        run_power_study(grid, resume=True, progress=record, **kwargs)
        run_power_study(grid, resume=True, progress=record, **kwargs)
        assert how == ["computed", "resumed"]

    def test_checkpoint_from_other_code_recomputed(self, tmp_path, monkeypatch):
        grid = build_grid(tiny_study())
        ckpt = tmp_path / "checkpoints"
        kwargs = dict(replicates=5, b_permutations=20, checkpoint_dir=str(ckpt))
        run_power_study(grid, **kwargs)
        code = simulation._code_version()
        assert json.loads((ckpt / "cell_0000.json").read_text())["code_version"] == code

        how = []
        record = lambda i, total, status: how.append(status)
        run_power_study(grid, resume=True, progress=record, **kwargs)
        assert how == ["resumed"] * len(grid)
        monkeypatch.setattr(
            simulation, "_code_version", lambda: {**code, "source_digest": "0" * 16}
        )
        how.clear()
        run_power_study(grid, resume=True, progress=record, **kwargs)
        assert how == ["computed"] * len(grid)

    def test_code_version_digests_the_package_source(self, tmp_path, monkeypatch):
        package = os.path.dirname(simulation.__file__)
        copy = tmp_path / "balance_lab"
        copy.mkdir()
        for name in os.listdir(package):
            if name.endswith(".py"):
                (copy / name).write_bytes(open(os.path.join(package, name), "rb").read())
        monkeypatch.setattr(simulation, "__file__", str(copy / "simulation.py"))
        digest = lambda: simulation._code_version.__wrapped__()["source_digest"]
        assert digest() == simulation._code_version()["source_digest"]
        with open(copy / "rng.py", "a") as fh:
            fh.write("# a comment\n")
        assert digest() != simulation._code_version()["source_digest"]

    def test_resume_with_pending_cells_on_both_sides(self, tmp_path):
        study = tiny_study(prognosis_levels=(0.0, 0.3))
        grid = build_grid(study)
        assert len(grid) == 4
        replicates = 7
        # pending cells 1 and 3 give 14 tasks; groups must straddle cells
        assert replicates % simulation._chunksize(2 * replicates, 2, study.n * study.p) != 0
        kwargs = dict(replicates=replicates, b_permutations=30)
        base = run_power_study(grid, threads=1, **kwargs)

        ckpt = tmp_path / "checkpoints"
        run_power_study(grid, checkpoint_dir=str(ckpt), **kwargs)
        for i in (1, 3):
            (ckpt / f"cell_{i:04d}.json").unlink()
        how = []
        resumed = run_power_study(
            grid,
            threads=2,
            checkpoint_dir=str(ckpt),
            resume=True,
            progress=lambda i, total, status: how.append((i, status)),
            **kwargs,
        )
        assert how == list(enumerate(["resumed", "computed", "resumed", "computed"]))
        assert resumed == base
        for a, b in zip(base, resumed):
            assert set(a.pvalues) == set(b.pvalues)
            for name in a.pvalues:
                assert np.array_equal(a.pvalues[name], b.pvalues[name])

    def test_groups_spanning_cells_match_each_replicate_alone(self, tmp_path):
        study = tiny_study(imbalance_levels=(0.2,), prognosis_levels=(0.0, 0.3, 0.5), n=40)
        grid = build_grid(study)
        replicates = 7
        # groups of 6 at one worker, 3 at two and 2 when resuming two cells at
        # two: each spans cells, and none divides the replicates of a cell
        values = study.n * study.p
        sizes = [simulation._chunksize(k * replicates, t, values) for k, t in ((3, 1), (3, 2), (2, 2))]
        assert sizes == [6, 3, 2]
        kwargs = dict(replicates=replicates, b_permutations=30)
        alone = [
            simulation._run_group(([(cfg, r)], STATISTIC_NAMES, 30, "fixed"))[0]
            for cfg in grid
            for r in range(replicates)
        ]
        runs = [run_power_study(grid, threads=t, **kwargs) for t in (1, 2)]
        ckpt = tmp_path / "checkpoints"
        run_power_study(grid, checkpoint_dir=str(ckpt), **kwargs)
        for i in (0, 2):
            (ckpt / f"cell_{i:04d}.json").unlink()
        runs.append(
            run_power_study(grid, threads=2, checkpoint_dir=str(ckpt), resume=True, **kwargs)
        )
        for results in runs:
            for cell, result in enumerate(results):
                outcomes = alone[cell * replicates : (cell + 1) * replicates]
                assert result.n_failed == 0
                assert result.standardized_bias == np.mean([bias for _, bias in outcomes])
                for name in STATISTIC_NAMES:
                    expected = [pvals[name] for pvals, _ in outcomes]
                    assert result.pvalues[name].tolist() == expected

    @pytest.mark.parametrize("threads", [1, 2])
    def test_collinear_replicate_fails_alone_in_its_group(self, monkeypatch, threads):
        study = tiny_study(imbalance_levels=(0.0,), prognosis_levels=(0.0, 0.3), n=20)
        grid = build_grid(study)
        # one failure in 101 replicates stays below the 1% that stops a cell
        replicates = 101
        kwargs = dict(replicates=replicates, b_permutations=10, threads=threads)
        assert simulation._chunksize(2 * replicates, threads, study.n * study.p) > 10
        base = run_power_study(grid, **kwargs)
        real_generate = simulation.generate_dataset

        def collinear_at_3(cfg, replicate_index):
            d = real_generate(cfg, replicate_index)
            if cfg.seed != grid[0].seed or replicate_index != 3:
                return d
            x = d.x.copy()
            x[:, 1] = 3.0 * x[:, 0]
            return Dataset(x=x, z=d.z, y_obs=d.y_obs)

        monkeypatch.setattr(simulation, "generate_dataset", collinear_at_3)
        results = run_power_study(grid, **kwargs)
        assert [r.n_failed for r in results] == [1, 0]
        for name in STATISTIC_NAMES:
            expected = base[0].pvalues[name].copy()
            expected[3] = np.nan
            assert np.array_equal(results[0].pvalues[name], expected, equal_nan=True)
            assert np.array_equal(results[1].pvalues[name], base[1].pvalues[name])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_observed_refit_fails_alone_in_its_group(self, monkeypatch, threads):
        study = tiny_study(imbalance_levels=(0.0,), prognosis_levels=(0.0, 0.3), n=20)
        grid = build_grid(study)
        # one failure in 101 replicates stays below the 1% that stops a cell
        replicates = 101
        kwargs = dict(
            replicates=replicates, b_permutations=10, threads=threads, weight_policy="refit"
        )
        assert simulation._chunksize(2 * replicates, threads, study.n * study.p) > 10
        base = run_power_study(grid, **kwargs)
        real_generate = simulation.generate_dataset

        def control_collinear_at_3(cfg, replicate_index):
            # collinear within the control arm only: the covariate views
            # stand, the observed control-arm refit does not
            d = real_generate(cfg, replicate_index)
            if cfg.seed != grid[0].seed or replicate_index != 3:
                return d
            x = d.x.copy()
            control = d.z == 0
            x[control, 1] = 3.0 * x[control, 0]
            return Dataset(x=x, z=d.z, y_obs=d.y_obs)

        with pytest.raises(BalanceLabError):
            permutation_test(control_collinear_at_3(grid[0], 3), "rw", 10, 1, weight_policy="refit")
        monkeypatch.setattr(simulation, "generate_dataset", control_collinear_at_3)
        results = run_power_study(grid, **kwargs)
        assert [r.n_failed for r in results] == [1, 0]
        for name in STATISTIC_NAMES:
            expected = base[0].pvalues[name].copy()
            expected[3] = np.nan
            assert np.array_equal(results[0].pvalues[name], expected, equal_nan=True)
            assert np.array_equal(results[1].pvalues[name], base[1].pvalues[name])

    def test_keep_pvalues(self):
        study = tiny_study()
        results = run_power_study(
            build_grid(study)[:1], replicates=10, b_permutations=30
        )
        pvals = results[0].pvalues
        assert set(pvals) == {"uw", "rw", "hotelling"}
        assert pvals["uw"].shape == (10,)
        assert ((pvals["uw"] >= 0) & (pvals["uw"] <= 1)).all()

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            run_power_study([])

    def test_empty_statistics_rejected(self):
        with pytest.raises(ConfigError):
            run_power_study(build_grid(tiny_study()), statistics=())


class TestCellFailure:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_cell_aborts_study(self, tmp_path, monkeypatch, threads):
        study = tiny_study(
            imbalance_levels=(0.0,),
            prognosis_levels=tuple(round(0.05 * k, 2) for k in range(12)),
            n=20,
        )
        grid = build_grid(study)
        failing = grid[2].seed
        later = {cfg.seed for cfg in grid[3:]}
        started = tmp_path / "started"
        started.mkdir()
        real_generate = simulation.generate_dataset

        # forked pool workers inherit the patch; the marker files they leave
        # show which replicates actually started
        def flaky(cfg, replicate_index):
            (started / f"{cfg.seed}_{replicate_index}").touch()
            d = real_generate(cfg, replicate_index)
            if cfg.seed == failing:
                # collinear over all units: every replicate's test fails
                x = d.x.copy()
                x[:, 1] = 3.0 * x[:, 0]
                return Dataset(x=x, z=d.z, y_obs=d.y_obs)
            if cfg.seed in later:
                time.sleep(0.05)
            return d

        monkeypatch.setattr(simulation, "generate_dataset", flaky)
        ckpt = tmp_path / "checkpoints"
        with pytest.raises(CellFailure):
            run_power_study(
                grid, replicates=4, b_permutations=10, threads=threads,
                checkpoint_dir=str(ckpt),
            )
        assert sorted(os.listdir(ckpt)) == ["cell_0000.json", "cell_0001.json"]
        # work queued for later cells was cancelled rather than computed
        assert not list(started.glob(f"{grid[-1].seed}_*"))


class TestDiagnostics:
    def test_perfect_prognosis(self, rng):
        x = rng.normal(size=(40, 2))
        z = np.array([1, 0] * 20)
        y = np.where(z == 1, rng.normal(size=40), x[:, 0])
        d = Dataset(x=x, z=z, y_obs=y)
        assert diagnostics(d).prognosis_r2 == pytest.approx(1.0)

    def test_independent_assignment_low_imbalance_r2(self):
        g = np.random.default_rng(6)
        n = 10000
        x = g.normal(size=(n, 3))
        z = np.zeros(n, dtype=int)
        z[g.permutation(n)[: n // 2]] = 1
        d = Dataset(x=x, z=z, y_obs=g.normal(size=n))
        assert diagnostics(d).imbalance_r2 < 0.01

    def test_lag_equal_to_outcome(self, rng):
        x = rng.normal(size=(30, 2))
        z = np.array([1, 0] * 15)
        y = rng.normal(size=30)
        d = Dataset(x=x, z=z, y_obs=y)
        diag = diagnostics(d, lag=y)
        assert diag.lagged_correlation_control == pytest.approx(1.0)
        assert diag.lagged_correlation_full == pytest.approx(1.0)

    def test_lag_length_checked(self, rng):
        x = rng.normal(size=(10, 1))
        d = Dataset(x=x, z=np.array([1, 0] * 5), y_obs=rng.normal(size=10))
        with pytest.raises(ValueError):
            diagnostics(d, lag=np.ones(5))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_lag_must_be_finite(self, rng, value):
        x = rng.normal(size=(10, 1))
        d = Dataset(x=x, z=np.array([1, 0] * 5), y_obs=rng.normal(size=10))
        lag = rng.normal(size=10)
        lag[3] = value
        with pytest.raises(ValueError, match="finite"):
            diagnostics(d, lag=lag)

    def test_arm_fit_is_read(self, rng):
        x = rng.normal(size=(30, 2))
        d = Dataset(x=x, z=np.array([1, 0] * 15), y_obs=x[:, 0] + rng.normal(size=30))
        weights = control_arm_weights(d)
        assert diagnostics(d, weights=weights).prognosis_r2 == weights.r_squared

    def test_other_arm_fit_refused(self, rng):
        x = rng.normal(size=(30, 2))
        d = Dataset(x=x, z=np.array([1, 0] * 15), y_obs=rng.normal(size=30))
        with pytest.raises(ValueError, match="control-arm fit"):
            diagnostics(d, weights=treatment_arm_weights(d))

    def test_one_fit_and_only_by_default(self, rng, monkeypatch):
        # the imbalance R^2 comes from the Hotelling kernel: a given fit
        # leaves no least squares to run, the default one standardized fit
        x = rng.normal(size=(30, 2))
        d = Dataset(x=x, z=np.array([1, 0] * 15), y_obs=x[:, 0] + rng.normal(size=30))
        weights = control_arm_weights(d)
        rows = []
        original = regression._lstsq

        def counting(x, y):
            rows.append(x.shape[1])
            return original(x, y)

        monkeypatch.setattr(regression, "_lstsq", counting)
        assert diagnostics(d, weights=weights) == diagnostics(d)
        assert rows == [d.n0]

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["gaussian", "binary", "wide", "constant"]),
        n=st.integers(8, 79),
        p=st.integers(1, 5),
    )
    def test_r2_values_are_arm_fit_and_assignment_projection(self, seed, kind, n, p):
        # the prognosis R^2 is the default standardized control-arm fit's,
        # bit for bit, and fails where it fails; the imbalance R^2 never
        # fails and is that of an independent least squares of the assignment
        g = np.random.default_rng(seed)
        if kind == "binary":
            x = g.integers(0, 2, size=(n, p)).astype(np.float64)
        else:
            x = g.normal(size=(n, p))
        if kind == "wide":
            x = x * 10.0 ** g.uniform(-6, 6, size=p) + 10.0 ** g.uniform(-3, 6, size=p)
        if kind == "constant":
            x[:, g.integers(p)] = 0.1
        z = np.zeros(n, dtype=np.int64)
        z[g.choice(n, int(g.integers(1, n)), replace=False)] = 1
        y = x @ g.normal(size=p) + g.normal(size=n)
        d = Dataset(x=x, z=z, y_obs=y)
        if len(d.constant_columns) == p:
            diag = diagnostics(d)
            assert (diag.prognosis_r2, diag.imbalance_r2) == (0.0, 0.0)
            return
        stand_in = regression.RegressionFit(np.zeros(p), 0.0, np.zeros(p), 0.0, 0, "control")
        imbalance = diagnostics(d, weights=stand_in).imbalance_r2
        # The whitening keeps directions whose singular value exceeds 1e-6
        # of the largest. Largest difference seen over 6000 draws: 8.1e-15.
        varying = d.x[:, list(np.ptp(d.x, axis=0) > 0)]
        xs = (varying - varying.mean(axis=0)) / varying.std(axis=0)
        xs -= xs.mean(axis=0)
        zc = z - z.mean()
        fitted = xs @ np.linalg.lstsq(xs, zc, rcond=1e-6)[0]
        assert abs(imbalance - (fitted @ fitted) / (zc @ zc)) <= 1e-12
        try:
            reference = control_arm_weights(d).r_squared
        except BalanceLabError:
            with pytest.raises(BalanceLabError):
                diagnostics(d)
            return
        diag = diagnostics(d)
        assert diag.prognosis_r2 == reference
        assert diag.imbalance_r2 == imbalance

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["gaussian", "binary", "collinear"]),
        n=st.integers(6, 60),
        p=st.integers(1, 5),
    )
    def test_imbalance_r2_gives_hotelling_t2(self, seed, kind, n, p):
        # T^2 = (N - 2) R^2 / (1 - R^2), bit for bit wherever T^2 is finite
        g = np.random.default_rng(seed)
        if kind == "binary":
            x = g.integers(0, 2, size=(n, p)).astype(np.float64)
        else:
            x = g.normal(size=(n, p))
        if kind == "collinear":
            x = np.column_stack([x, x @ g.normal(size=p)])
        z = np.zeros(n, dtype=np.int64)
        z[g.choice(n, int(g.integers(1, n)), replace=False)] = 1
        d = Dataset(x=x, z=z, y_obs=g.normal(size=n))
        assume(len(d.constant_columns) < d.p)
        stand_in = regression.RegressionFit(np.zeros(d.p), 0.0, np.zeros(d.p), 0.0, 0, "control")
        r2 = diagnostics(d, weights=stand_in).imbalance_r2
        t2 = permutation_pvalues(d, ("hotelling",), 1, seed)["hotelling"].observed
        if np.isfinite(t2):
            assert (n - 2) * r2 / (1 - r2) == t2
