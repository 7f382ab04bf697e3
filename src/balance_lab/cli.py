"""Command-line surface: test, simulate, diagnose.

Exit codes: 0 = computed (p-values are results, never errors), 2 = usage or
validation error, 3 = internal numerical failure.

This module imports only what building the parser and dispatching need, so
``--help``, ``--version`` and usage errors load no numpy. Each command
imports the modules it runs: ``diagnose`` the data, regression, balance and
reports layers; ``test`` also ``variance`` and ``permutation``; only
``simulate`` loads ``simulation``.
"""

import argparse
import os
import sys
import warnings

from . import STATISTIC_NAMES, __version__
from .errors import (
    BalanceLabError,
    CellFailure,
    ConfigError,
    DuplicateColumn,
    InternalNumericalError,
    MissingColumn,
    ZeroVariance,
)

_DELIMITERS = {"comma": ",", "tab": "\t"}


def _checked(convert, ok, requirement: str):
    """argparse type: ``convert(raw)``, refused unless ``ok`` holds for it."""

    def parse(raw: str):
        value = convert(raw)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {raw}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_NON_NEGATIVE = _checked(int, lambda v: v >= 0, "at least 0")


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="delimiter-separated input file")
    parser.add_argument("--treatment", required=True, help="treatment column name")
    parser.add_argument("--outcome", required=True, help="outcome column name")
    parser.add_argument(
        "--covariates", required=True, help="comma-separated covariate column names"
    )
    parser.add_argument(
        "--treated-level", default=None, help="treated label when treatment is not 0/1"
    )
    parser.add_argument(
        "--delimiter", choices=sorted(_DELIMITERS), default="comma",
        help="field separator (default comma)",
    )
    parser.add_argument(
        "--lenient-missing", action="store_true",
        help="drop rows with missing cells instead of rejecting the file",
    )
    parser.add_argument("--lag-column", default=None, help="lagged outcome column name")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balance-lab",
        description="Conditional covariate balance tests with permutation inference.",
    )
    parser.add_argument("--version", action="version", version=f"balance-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run balance tests on a dataset")
    _add_input_flags(p_test)
    p_test.add_argument(
        "--statistic", choices=[*STATISTIC_NAMES, "all"], default="all",
        help="which omnibus statistic to test (default all)",
    )
    p_test.add_argument(
        "--permutations", type=_checked(int, lambda v: v >= 1, "at least 1"), default=1000,
        help="number of label permutations B",
    )
    p_test.add_argument("--seed", type=_NON_NEGATIVE, default=None, help="64-bit reproducibility seed")
    p_test.add_argument(
        "--weight-policy", choices=["fixed", "refit"], default="fixed",
        help="hold prognosis weights fixed or refit them per permutation",
    )
    p_test.add_argument(
        "--scale", choices=["standardized", "raw"], default="standardized",
        help="units of the mean differences, uw and the reported weights; fits are standardized",
    )
    p_test.add_argument(
        "--threads", type=_NON_NEGATIVE, default=None,
        help="recorded in the manifest only; test runs in one process",
    )
    p_test.add_argument("--out-dir", default=".", help="directory for report files")
    p_test.add_argument(
        "--dump-permutations", action="store_true",
        help="also write each statistic's permuted values as .npy",
    )

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo power study")
    p_sim.add_argument("--config", required=True, help="JSON study configuration")
    p_sim.add_argument("--out-dir", required=True, help="output directory")
    p_sim.add_argument("--resume", action="store_true", help="reuse finished cell checkpoints")
    p_sim.add_argument("--threads", type=_NON_NEGATIVE, default=None, help="worker count (0 = auto)")
    p_sim.add_argument("--seed", type=_NON_NEGATIVE, default=None, help="override the config seed")

    p_diag = sub.add_parser("diagnose", help="prognosis/imbalance diagnostics only")
    _add_input_flags(p_diag)
    p_diag.add_argument("--out-dir", default=".", help="directory for report files")

    return parser


def _resolve_threads(value) -> int:
    if value is None:
        raw = os.environ.get("BALANCE_LAB_THREADS", "0") or "0"
        try:
            value = _NON_NEGATIVE(raw)
        except (ValueError, argparse.ArgumentTypeError):
            raise ConfigError(
                f"BALANCE_LAB_THREADS must be an integer of at least 0, got {raw!r}"
            ) from None
    return value or os.cpu_count() or 1


def _covariate_list(raw: str) -> list[str]:
    names = [c.strip() for c in raw.split(",") if c.strip()]
    if not names:
        raise MissingColumn("--covariates must name at least one column")
    return names


def _load_from_args(args):
    from .data import Dataset, MissingRowsDropped, load_dataset

    names = _covariate_list(args.covariates)
    lag_name = args.lag_column
    roles = {args.treatment: "treatment", args.outcome: "outcome"}
    if lag_name in roles:
        role = roles[lag_name]
        raise DuplicateColumn(f"column {lag_name!r} is named 2 times: as {role} and lag column")
    # a lag column that is also a covariate is read from that covariate
    load_names = [*names, lag_name] if lag_name and lag_name not in names else names
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", MissingRowsDropped)
        full = load_dataset(
            args.input,
            args.treatment,
            args.outcome,
            load_names,
            delimiter=_DELIMITERS[args.delimiter],
            treated_level=args.treated_level,
            lenient_missing=args.lenient_missing,
        )
    dropped = sum(getattr(w.message, "count", 0) for w in caught)
    lag = None
    d = full
    if lag_name:
        lag = full.x[:, load_names.index(lag_name)].copy()
        if lag_name not in names:
            d = Dataset(x=full.x[:, :-1], z=full.z, y_obs=full.y_obs, column_names=tuple(names))
    return d, lag, dropped


def _dataset_summary(d, rows_dropped) -> dict:
    return {
        "n": d.n,
        "n1": d.n1,
        "n0": d.n0,
        "p": d.p,
        "columns": list(d.column_names),
        "dropped_constant_columns": [d.column_names[j] for j in d.constant_columns],
        "rows_dropped_missing": rows_dropped,
    }


def _maybe_asymptotic(value: float, variance) -> float | None:
    from .variance import normal_approx_test

    if variance is None:
        return None
    try:
        return normal_approx_test(value, variance)
    except ZeroVariance:
        return None


def _write_report(out_dir: str, stem: str, report: dict, render) -> str:
    """Write ``report`` as ``<stem>.json`` and its rendering as ``<stem>.txt``
    in ``out_dir`` (made if missing); returns the rendering."""
    from .reports import write_json

    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, f"{stem}.json"), report)
    text = render(report)
    with open(os.path.join(out_dir, f"{stem}.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def cmd_test(args) -> int:
    import secrets
    from dataclasses import asdict

    import numpy as np

    from .balance import compute_balance_report, diagnostics
    from .permutation import permutation_pvalues
    from .regression import control_arm_weights, raw_form
    from .reports import file_digest, make_manifest, render_test_report, utc_now
    from .variance import variance_report

    started = utc_now()
    generated = args.seed is None
    seed = secrets.randbits(62) if generated else args.seed
    threads = _resolve_threads(args.threads)  # validated and recorded, no effect here
    d, lag, rows_dropped = _load_from_args(args)

    statistics = list(STATISTIC_NAMES) if args.statistic == "all" else [args.statistic]
    weights = control_arm_weights(d)
    balance = compute_balance_report(d, scale=args.scale, weights=weights)
    variances = variance_report(d, weights.coefficients, scale=args.scale)
    perms = permutation_pvalues(
        d,
        statistics,
        args.permutations,
        seed,
        weight_policy=args.weight_policy,
        scale=args.scale,
        weights=weights if args.weight_policy == "fixed" else None,
    )
    diag = diagnostics(d, lag, weights)
    coefficients, intercept = (
        raw_form(d, weights) if args.scale == "raw" else (weights.coefficients, weights.intercept)
    )
    per_covariate = []
    for j, name in enumerate(d.column_names):
        delta_j = float(balance.delta[j])
        var_j = float(variances.var_delta_j[j])
        se = var_j**0.5
        per_covariate.append(
            {
                "name": name,
                "delta": delta_j,
                "exact_se": se,
                "z": delta_j / se if se > 0 else None,
                "asymptotic_p": _maybe_asymptotic(delta_j, var_j if var_j > 0 else None),
            }
        )

    exact_var = {
        "uw": variances.var_delta_uw,
        "rw": variances.var_delta_rw_conditional,
        "hotelling": None,
    }
    stat_rows = []
    for name in statistics:
        res = perms[name]
        row = {
            "name": name,
            "observed": res.observed,
            "exact_variance": exact_var[name],
            "permutation_p": res.p_value,
            "p_conservative": res.p_conservative,
            "asymptotic_p": _maybe_asymptotic(res.observed, exact_var[name]),
            "b": res.b,
            "n_failed": res.n_failed,
        }
        if res.weight_policy == "refit":
            row["n_refit_fallback"] = res.n_refit_fallback
        stat_rows.append(row)

    configuration = {
        "input": args.input,
        "treatment": args.treatment,
        "outcome": args.outcome,
        "covariates": list(d.column_names),
        "treated_level": args.treated_level,
        "statistic": args.statistic,
        "permutations": args.permutations,
        "weight_policy": args.weight_policy,
        "scale": args.scale,
        "threads": threads,
        "lag_column": args.lag_column,
        "lenient_missing": args.lenient_missing,
        "delimiter": args.delimiter,
        "seed_generated": generated,
    }
    report = {
        "manifest": make_manifest("test", configuration, seed, file_digest(args.input), started),
        "dataset": _dataset_summary(d, rows_dropped),
        "scale": args.scale,
        "weight_policy": args.weight_policy,
        "per_covariate": per_covariate,
        "statistics": stat_rows,
        "hotelling_used_pinv": balance.hotelling_used_pinv,
        "weights": {
            "arm": weights.arm,
            "coefficients": [float(v) for v in coefficients],
            "standardized_coefficients": [float(v) for v in weights.standardized_coefficients],
            "intercept": intercept,
            "r_squared": weights.r_squared,
            "n_used": weights.n_used,
        },
        "variance": {
            "var_delta_j": [float(v) for v in variances.var_delta_j],
            "cov_delta": [[float(v) for v in row] for row in variances.cov_delta],
            "var_delta_uw": variances.var_delta_uw,
            "var_delta_rw_conditional": variances.var_delta_rw_conditional,
        },
        "diagnostics": asdict(diag),
    }

    text = _write_report(args.out_dir, "balance_report", report, render_test_report)
    if args.dump_permutations:
        for name in statistics:
            np.save(
                os.path.join(args.out_dir, f"permuted_{name}.npy"),
                perms[name].permuted_values,
            )
    sys.stdout.write(text)
    return 0


def cmd_simulate(args) -> int:
    import json
    from dataclasses import asdict, replace

    from . import reports
    from .simulation import StudyConfig, _code_version, build_grid, run_power_study

    started = reports.utc_now()
    threads = _resolve_threads(args.threads)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    study = StudyConfig.from_dict(raw)
    if args.seed is not None:
        study = replace(study, seed=args.seed)

    os.makedirs(args.out_dir, exist_ok=True)
    checkpoint_dir = os.path.join(args.out_dir, "checkpoints")
    grid = build_grid(study)

    def progress(i, total, how):
        cell = grid[i]
        sys.stdout.write(
            f"[{i + 1}/{total}] imbalance={cell.imbalance:g} "
            f"prognosis={cell.rho_x1_y:g} ({how})\n"
        )
        sys.stdout.flush()

    results = run_power_study(
        grid,
        statistics=study.statistics,
        replicates=study.replicates,
        b_permutations=study.permutations,
        alpha=study.alpha,
        weight_policy=study.weight_policy,
        threads=threads,
        checkpoint_dir=checkpoint_dir,
        resume=args.resume,
        progress=progress,
    )

    config_digest = reports.bytes_digest(
        json.dumps(asdict(study), sort_keys=True).encode("utf-8")
    )
    results_path = os.path.join(args.out_dir, "results.csv")
    reports.write_csv(results_path, reports.RESULTS_FIELDS, reports.results_table_rows(results))
    plot_path = os.path.join(args.out_dir, "plot_data.csv")
    reports.write_csv(plot_path, reports.PLOT_FIELDS, reports.plot_data_rows(results))

    svg_paths = []
    for label, stem, cells in reports.facets(results):
        prognosis = [r.config.rho_x1_y for r in cells]
        series = {
            name: [r.rejection_rate[name] for r in cells] for name in study.statistics
        }
        bias = [r.standardized_bias for r in cells]
        svg = reports.power_curve_svg(label, prognosis, series, bias, config_digest)
        path = os.path.join(args.out_dir, f"{stem}.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        svg_paths.append(path)

    configuration = {
        "config_file": args.config,
        "config_digest": config_digest,
        "study": asdict(study),
        "threads": threads,
        "resume": args.resume,
    }
    payload = reports.make_manifest(
        "simulate", configuration, study.seed, reports.file_digest(args.config), started
    )
    payload["code_version"] = _code_version()
    payload["outputs"] = {
        os.path.basename(path): reports.file_digest(path)
        for path in [results_path, plot_path, *svg_paths]
    }
    reports.write_json(os.path.join(args.out_dir, "manifest.json"), payload)
    sys.stdout.write(f"wrote {results_path}\n")
    return 0


def cmd_diagnose(args) -> int:
    from dataclasses import asdict

    from .balance import diagnostics
    from .reports import file_digest, make_manifest, render_diagnose_report, utc_now

    started = utc_now()
    d, lag, rows_dropped = _load_from_args(args)
    diag = diagnostics(d, lag)
    configuration = {
        "input": args.input,
        "treatment": args.treatment,
        "outcome": args.outcome,
        "covariates": list(d.column_names),
        "treated_level": args.treated_level,
        "lag_column": args.lag_column,
        "lenient_missing": args.lenient_missing,
        "delimiter": args.delimiter,
    }
    report = {
        "manifest": make_manifest("diagnose", configuration, 0, file_digest(args.input), started),
        "dataset": _dataset_summary(d, rows_dropped),
        "diagnostics": asdict(diag),
    }
    sys.stdout.write(_write_report(args.out_dir, "diagnose_report", report, render_diagnose_report))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every command runs on numpy; --help, --version and usage errors have exited
    from numpy.linalg import LinAlgError

    handlers = {"test": cmd_test, "simulate": cmd_simulate, "diagnose": cmd_diagnose}
    try:
        return handlers[args.command](args)
    except (InternalNumericalError, CellFailure, LinAlgError) as exc:
        sys.stderr.write(f"error: internal numerical failure: {exc}\n")
        return 3
    except BalanceLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
