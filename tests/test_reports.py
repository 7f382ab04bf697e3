import json
import xml.etree.ElementTree as ET

import pytest

from balance_lab import DgpConfig
from balance_lab.reports import (
    PLOT_FIELDS,
    RESULTS_FIELDS,
    bytes_digest,
    make_manifest,
    plot_data_rows,
    power_curve_svg,
    results_table_rows,
    write_csv,
)
from balance_lab.rng import STREAM_VERSION
from balance_lab.simulation import PowerStudyResult


def make_result(imbalance, prognosis, rates):
    return PowerStudyResult(
        config=DgpConfig(n=60, imbalance=imbalance, rho_x1_y=prognosis, seed=1),
        rejection_rate=rates,
        mc_standard_error={k: 0.01 for k in rates},
        standardized_bias=0.1,
        replicates=100,
        permutations_per_replicate=50,
        n_failed=0,
        pvalues={},
    )


@pytest.fixture
def results():
    return [
        make_result(0.0, 0.0, {"uw": 0.05, "rw": 0.04, "hotelling": 0.06}),
        make_result(0.2, 0.0, {"uw": 0.7, "rw": 0.5, "hotelling": 0.99}),
    ]


class TestTables:
    def test_results_rows_in_grid_order(self, results):
        rows = results_table_rows(results)
        assert len(rows) == 6
        assert [r["statistic"] for r in rows[:3]] == ["uw", "rw", "hotelling"]
        assert rows[3]["imbalance"] == 0.2
        assert set(rows[0]) == set(RESULTS_FIELDS)

    def test_plot_rows_include_bias_series(self, results):
        rows = plot_data_rows(results)
        assert set(rows[0]) == set(PLOT_FIELDS)
        series = {r["series"] for r in rows}
        assert series == {"uw", "rw", "hotelling", "std_bias"}
        facets = {r["facet"] for r in rows}
        assert facets == {"imbalance=0 (x1)", "imbalance=0.2 (x1)"}

    def test_csv_text_deterministic(self, results, tmp_path):
        rows = results_table_rows(results)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(str(first), RESULTS_FIELDS, rows)
        write_csv(str(second), RESULTS_FIELDS, rows)
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text().splitlines()[0] == ",".join(RESULTS_FIELDS)


class TestSvg:
    def test_well_formed_and_deterministic(self):
        series = {"uw": [0.05, 0.06, 0.07], "rw": [0.04, 0.2, 0.6], "hotelling": [0.05, 0.05, 0.06]}
        args = ("imbalance=0.2 (x1)", [0.0, 0.25, 0.5], series, [0.0, 0.1, 0.2], "abcd1234")
        svg = power_curve_svg(*args)
        assert svg == power_curve_svg(*args)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        text = ET.tostring(root, encoding="unicode")
        assert "abcd1234" in text
        assert text.count("polyline") >= 3


class TestManifest:
    def test_digest_is_64_bit_hex(self):
        digest = bytes_digest(b"hello")
        assert len(digest) == 16
        int(digest, 16)
        assert digest == bytes_digest(b"hello")
        assert digest != bytes_digest(b"hello!")

    def test_manifest_records_stream_version(self):
        manifest = make_manifest("simulate", {}, 7, None, "2026-01-01T00:00:00+00:00")
        assert manifest["stream_version"] == STREAM_VERSION

    def test_manifest_round_trips_through_json(self):
        payload = make_manifest("test", {"alpha": 0.05}, 7, "aa" * 8, "2026-01-01T00:00:00+00:00")
        assert json.loads(json.dumps(payload)) == payload
        assert payload["command"] == "test"
        assert payload["seed"] == 7
        assert payload["version"]
