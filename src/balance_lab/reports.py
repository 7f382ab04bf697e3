"""Report assembly and serialization: manifests, JSON, CSV, text, SVG.

Machine and human outputs are rendered from the same JSON-native dict, so
they cannot drift apart; every emitted file embeds the run manifest or is
listed (with its content digest) in the run's manifest.json.
"""

import csv
import hashlib
import json
from datetime import datetime, timezone
from typing import Optional, Sequence

from . import __version__
from .rng import STREAM_VERSION

__all__ = [
    "file_digest",
    "bytes_digest",
    "utc_now",
    "write_json",
    "write_csv",
    "results_table_rows",
    "plot_data_rows",
    "RESULTS_FIELDS",
    "PLOT_FIELDS",
    "render_test_report",
    "render_diagnose_report",
    "power_curve_svg",
]

RESULTS_FIELDS = (
    "imbalance",
    "prognosis",
    "statistic",
    "rejection_rate",
    "mc_se",
    "std_bias",
    "replicates",
    "b",
)

PLOT_FIELDS = ("facet", "imbalance_covariate", "x", "series", "y")


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def bytes_digest(data: bytes) -> str:
    """64-bit content hash, hex-encoded."""
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return bytes_digest(fh.read())


def make_manifest(
    command: str,
    configuration: dict,
    seed: int,
    input_digest: Optional[str],
    started_at: str,
) -> dict:
    """Provenance record attached to every run's outputs."""
    return {
        "command": command,
        "configuration": configuration,
        "seed": seed,
        "version": __version__,
        "stream_version": STREAM_VERSION,
        "input_digest": input_digest,
        "started_at": started_at,
        "finished_at": utc_now(),
    }


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")


def write_csv(path: str, fieldnames: Sequence[str], rows: Sequence[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        writer.writerows(rows)


def results_table_rows(results: Sequence) -> list[dict]:
    """One record per (grid cell, statistic) of ``simulation.PowerStudyResult``
    records, in grid order."""
    rows = []
    for result in results:
        imbalance, prognosis = result.config.grid_cell
        for name, rate in result.rejection_rate.items():
            rows.append(
                {
                    "imbalance": imbalance,
                    "prognosis": prognosis,
                    "statistic": name,
                    "rejection_rate": rate,
                    "mc_se": result.mc_standard_error[name],
                    "std_bias": result.standardized_bias,
                    "replicates": result.replicates,
                    "b": result.permutations_per_replicate,
                }
            )
    return rows


def plot_data_rows(results: Sequence) -> list[dict]:
    """Long-format table: one facet per imbalance level, x = prognosis."""
    rows = []
    for result in results:
        imbalance, prognosis = result.config.grid_cell
        covariate = result.config.imbalance_covariate
        facet = f"imbalance={imbalance:g} (x{covariate})"
        for name, rate in result.rejection_rate.items():
            rows.append(
                {
                    "facet": facet,
                    "imbalance_covariate": covariate,
                    "x": prognosis,
                    "series": name,
                    "y": rate,
                }
            )
        rows.append(
            {
                "facet": facet,
                "imbalance_covariate": covariate,
                "x": prognosis,
                "series": "std_bias",
                "y": result.standardized_bias,
            }
        )
    return rows


def _fmt(value, width: int = 10, digits: int = 4) -> str:
    if value is None:
        return "-".rjust(width)
    if isinstance(value, float):
        return f"{value:.{digits}f}".rjust(width)
    return str(value).rjust(width)


def render_test_report(report: dict) -> str:
    """Human-readable rendering of a cmd_test machine report."""
    lines = []
    manifest = report["manifest"]
    ds = report["dataset"]
    lines.append("balance-lab test report")
    lines.append(
        f"version {manifest['version']}  seed {manifest['seed']}  "
        f"input digest {manifest['input_digest']}"
    )
    lines.append(
        f"N={ds['n']}  n1={ds['n1']}  n0={ds['n0']}  p={ds['p']}  scale={report['scale']}"
    )
    if ds["dropped_constant_columns"]:
        names = ", ".join(ds["dropped_constant_columns"])
        lines.append(f"constant covariates dropped from standardization: {names}")
    if ds["rows_dropped_missing"]:
        lines.append(f"rows dropped for missing values: {ds['rows_dropped_missing']}")
    lines.append("")

    lines.append("per-covariate differences (treated - control)")
    header = f"{'covariate':<16}{'delta':>12}{'exact_se':>12}{'z':>10}{'asym_p':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in report["per_covariate"]:
        lines.append(
            f"{row['name']:<16}"
            + _fmt(row["delta"], 12)
            + _fmt(row["exact_se"], 12)
            + _fmt(row["z"], 10)
            + _fmt(row["asymptotic_p"], 10)
        )
    lines.append("")

    lines.append("omnibus statistics")
    header = (
        f"{'statistic':<12}{'observed':>12}{'exact_var':>12}"
        f"{'p_perm':>10}{'p_cons':>10}{'asym_p':>10}{'B':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in report["statistics"]:
        lines.append(
            f"{row['name']:<12}"
            + _fmt(row["observed"], 12)
            + _fmt(row["exact_variance"], 12)
            + _fmt(row["permutation_p"], 10)
            + _fmt(row["p_conservative"], 10)
            + _fmt(row["asymptotic_p"], 10)
            + _fmt(row["b"], 8)
        )
    if any(row["n_failed"] for row in report["statistics"]):
        failed = {row["name"]: row["n_failed"] for row in report["statistics"] if row["n_failed"]}
        lines.append(f"failed permutation replicates (counted as extreme): {failed}")
    fallbacks = {r["name"]: r["n_refit_fallback"] for r in report["statistics"] if "n_refit_fallback" in r}
    if fallbacks:
        lines.append(f"refits outside the shared QR (n_refit_fallback): {fallbacks}")
    lines.append(f"weight policy: {report['weight_policy']}")
    if report["hotelling_used_pinv"]:
        lines.append("warning: covariates collinear over all units, pseudo-inverse used for T^2")
    lines.append("")

    weights = report["weights"]
    lines.append(f"prognosis weights ({weights['arm']} arm, R^2={weights['r_squared']:.4f})")
    header = f"{'covariate':<16}{'coef':>12}{'std_coef':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, coef, std in zip(ds["columns"], weights["coefficients"], weights["standardized_coefficients"]):
        lines.append(f"{name:<16}" + _fmt(coef, 12) + _fmt(std, 12))
    lines.append("")

    diag = report["diagnostics"]
    lines.append(
        f"diagnostics: prognosis R^2 = {diag['prognosis_r2']:.4f}, "
        f"imbalance R^2 = {diag['imbalance_r2']:.4f}"
    )
    lines.extend(_lag_lines(report, 4))
    return "\n".join(lines) + "\n"


def _lag_lines(report: dict, digits: int) -> list[str]:
    """The lagged-outcome correlation line, when a lag column was named."""
    if report["manifest"]["configuration"]["lag_column"] is None:
        return []
    diag = report["diagnostics"]
    control, full = (
        "undefined (constant)" if value is None else f"{value:.{digits}f}"
        for value in (diag["lagged_correlation_control"], diag["lagged_correlation_full"])
    )
    return [f"lagged-outcome correlation: control arm {control}, full data {full}"]


def render_diagnose_report(report: dict) -> str:
    diag = report["diagnostics"]
    lines = [
        "balance-lab diagnostics",
        f"version {report['manifest']['version']}  input digest {report['manifest']['input_digest']}",
        f"N={report['dataset']['n']}  n1={report['dataset']['n1']}  "
        f"n0={report['dataset']['n0']}  p={report['dataset']['p']}",
        f"prognosis R^2 (outcome on covariates, control arm): {diag['prognosis_r2']:.6f}",
        f"imbalance R^2 (assignment on covariates, all units): {diag['imbalance_r2']:.6f}",
        *_lag_lines(report, 6),
    ]
    return "\n".join(lines) + "\n"


_SERIES_STYLE = {
    "uw": ("#1f77b4", ""),
    "rw": ("#d62728", ""),
    "hotelling": ("#2ca02c", "6,3"),
}


def power_curve_svg(
    facet_label: str,
    prognosis: Sequence[float],
    series: dict[str, Sequence[float]],
    bias: Sequence[float],
    manifest_digest: str,
) -> str:
    """Minimal SVG: rejection-rate curves plus standardized-bias points."""
    width, height = 440, 320
    left, right, top, bottom = 56, 16, 36, 44
    plot_w = width - left - right
    plot_h = height - top - bottom
    x_min, x_max = min(prognosis), max(prognosis)
    x_span = (x_max - x_min) or 1.0
    y_lo, y_hi = 0.0, 1.0
    values = [v for vals in series.values() for v in vals] + list(bias)
    y_lo = min(y_lo, min(values))
    y_hi = max(y_hi, max(values))

    def sx(x):
        return left + (x - x_min) / x_span * plot_w

    def sy(y):
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f"<desc>manifest {manifest_digest}</desc>",
        f'<text x="{left}" y="20" font-family="monospace" font-size="13">{facet_label}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#000" stroke-width="1"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        if y_lo <= tick <= y_hi:
            y = sy(tick)
            parts.append(
                f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="#000"/>'
            )
            parts.append(
                f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
                f'font-family="monospace" font-size="10">{tick:g}</text>'
            )
    for tick in sorted(set(prognosis)):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
            f'y2="{top + plot_h + 4}" stroke="#000"/>'
        )
    for tick in (x_min, x_max):
        parts.append(
            f'<text x="{sx(tick):.1f}" y="{top + plot_h + 16}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 8}" text-anchor="middle" '
        'font-family="monospace" font-size="11">prognosis corr(x1, y0)</text>'
    )
    parts.append(
        f'<text x="14" y="{top + plot_h / 2:.1f}" font-family="monospace" font-size="11" '
        f'transform="rotate(-90 14 {top + plot_h / 2:.1f})" '
        'text-anchor="middle">rejection rate</text>'
    )

    legend_x = left + 8
    for i, (name, values_) in enumerate(series.items()):
        color, dash = _SERIES_STYLE.get(name, ("#555", ""))
        points = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(prognosis, values_))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash_attr}/>'
        )
        ly = top + 14 + 13 * i
        parts.append(
            f'<line x1="{legend_x}" y1="{ly - 4}" x2="{legend_x + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{legend_x + 24}" y="{ly}" font-family="monospace" '
            f'font-size="10">{name}</text>'
        )
    for x, y in zip(prognosis, bias):
        parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.5" fill="#000"/>')
    ly = top + 14 + 13 * len(series)
    parts.append(f'<circle cx="{legend_x + 9}" cy="{ly - 4}" r="2.5" fill="#000"/>')
    parts.append(
        f'<text x="{legend_x + 24}" y="{ly}" font-family="monospace" '
        'font-size="10">std bias</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

