import csv
import io
import math
import pathlib
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balance_lab import (
    Dataset,
    cli,
    compute_balance_report,
    data,
    load_dataset,
    permutation_test,
    simulation,
    variance_report,
)
from balance_lab.data import MissingRowsDropped, standardize_columns
from balance_lab.errors import (
    AllColumnsConstant,
    BalanceLabError,
    DegenerateAssignment,
    DuplicateColumn,
    MissingColumn,
    NonBinaryTreatment,
    NonNumericValue,
    TooFewRows,
)
from balance_lab.permutation import permutation_pvalues


def csv_stream(text: str) -> io.StringIO:
    return io.StringIO(text.strip() + "\n")


MINIMAL = """
z,y,x1
1,0.5,1.0
1,1.5,2.0
0,0.25,3.0
0,0.75,4.0
"""


class TestLoadDataset:
    def test_minimal_table(self):
        d = load_dataset(csv_stream(MINIMAL), "z", "y", ["x1"])
        assert d.n == 4 and d.p == 1
        assert d.n1 == 2 and d.n0 == 2
        assert d.column_names == ("x1",)
        np.testing.assert_allclose(d.x[:, 0], [1.0, 2.0, 3.0, 4.0])

    def test_non_binary_treatment(self):
        text = MINIMAL.replace("0,0.25,3.0", "2,0.25,3.0")
        with pytest.raises(NonBinaryTreatment):
            load_dataset(csv_stream(text), "z", "y", ["x1"])

    def test_simulated_shape(self, rng):
        rows = ["z,y,a,b,c"]
        for i in range(500):
            z = 1 if i < 250 else 0
            vals = rng.normal(size=4)
            rows.append(f"{z},{vals[0]},{vals[1]},{vals[2]},{vals[3]}")
        d = load_dataset(csv_stream("\n".join(rows)), "z", "y", ["a", "b", "c"])
        assert d.n == 500 and d.p == 3

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            load_dataset(csv_stream(MINIMAL), "z", "y", ["nope"])

    @pytest.mark.parametrize(
        "treatment, outcome, covariates, message",
        [
            ("z", "y", ["x1", "y"], "column 'y' is named 2 times: as outcome and covariate"),
            ("z", "z", ["x1"], "column 'z' is named 2 times: as treatment and outcome"),
            ("z", "y", ["z"], "column 'z' is named 2 times: as treatment and covariate"),
            ("z", "y", ["x1", "x1"], "column 'x1' is named 2 times: as covariate and covariate"),
            ("y", "y", ["y"], "column 'y' is named 3 times: as treatment and outcome and covariate"),
        ],
        ids=["outcome-covariate", "treatment-outcome", "treatment-covariate", "covariate-twice", "all-three"],
    )
    def test_column_in_two_roles_refused(self, treatment, outcome, covariates, message):
        with pytest.raises(DuplicateColumn, match=f"^{message}$"):
            load_dataset(csv_stream(MINIMAL), treatment, outcome, covariates)

    def test_duplicate_header_column_refused(self):
        # the second x1 must not be silently ignored
        text = "z,y,x1, x1 \n1,0,1,9\n1,1,2,8\n0,2,3,7\n0,3,4,6\n"
        with pytest.raises(DuplicateColumn, match=r"column 'x1' appears 2 times"):
            load_dataset(csv_stream(text), "z", "y", ["x1"])
        # a repeated name that no argument asks for is no error
        unread = "z,y,x1,id,id\n1,0,1,5,9\n1,1,2,5,8\n0,2,3,5,7\n0,3,4,5,6\n"
        d = load_dataset(csv_stream(unread), "z", "y", ["x1"])
        assert d.x[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_too_few_rows(self):
        text = "\n".join(MINIMAL.strip().splitlines()[:3])
        with pytest.raises(TooFewRows):
            load_dataset(csv_stream(text), "z", "y", ["x1"])

    def test_degenerate_assignment(self):
        text = MINIMAL.replace("0,0.25", "1,0.25").replace("0,0.75", "1,0.75")
        with pytest.raises(DegenerateAssignment):
            load_dataset(csv_stream(text), "z", "y", ["x1"])

    def test_non_numeric_cites_row_and_column(self):
        text = MINIMAL.replace("0,0.25,3.0", "0,0.25,oops")
        with pytest.raises(NonNumericValue, match=r"row 4.*'x1'"):
            load_dataset(csv_stream(text), "z", "y", ["x1"])

    def test_infinite_value_rejected(self):
        text = MINIMAL.replace("3.0", "inf")
        with pytest.raises(NonNumericValue):
            load_dataset(csv_stream(text), "z", "y", ["x1"])

    def test_missing_cell_strict(self):
        text = MINIMAL.replace("0,0.25,3.0", "0,,3.0")
        with pytest.raises(NonNumericValue, match="missing"):
            load_dataset(csv_stream(text), "z", "y", ["x1"])

    def test_missing_cell_lenient_drops_with_warning(self):
        extra = MINIMAL + "0,NA,5.0\n1,2.5,6.0\n"
        with pytest.warns(MissingRowsDropped) as caught:
            d = load_dataset(csv_stream(extra), "z", "y", ["x1"], lenient_missing=True)
        assert d.n == 5
        assert caught[0].message.count == 1

    def test_true_false_treatment(self):
        text = MINIMAL.replace("1,0.5", "TRUE,0.5").replace("1,1.5", "true,1.5")
        text = text.replace("0,0.25", "False,0.25").replace("0,0.75", "false,0.75")
        d = load_dataset(csv_stream(text), "z", "y", ["x1"])
        assert d.n1 == 2

    def test_float_binary_treatment(self):
        text = MINIMAL.replace("1,0.5", "1.0,0.5").replace("0,0.25", "0.0,0.25")
        d = load_dataset(csv_stream(text), "z", "y", ["x1"])
        assert d.n1 == 2

    def test_treated_level(self):
        text = MINIMAL.replace("1,", "drug,").replace("0,", "placebo,")
        d = load_dataset(csv_stream(text), "z", "y", ["x1"], treated_level="drug")
        assert d.n1 == 2
        with pytest.raises(NonBinaryTreatment):
            load_dataset(csv_stream(text), "z", "y", ["x1"], treated_level="pill")
        with pytest.raises(NonBinaryTreatment):
            load_dataset(csv_stream(text), "z", "y", ["x1"])

    def test_tab_delimiter(self):
        text = MINIMAL.replace(",", "\t")
        d = load_dataset(csv_stream(text), "z", "y", ["x1"], delimiter="\t")
        assert d.n == 4

    def test_deterministic(self):
        a = load_dataset(csv_stream(MINIMAL), "z", "y", ["x1"])
        b = load_dataset(csv_stream(MINIMAL), "z", "y", ["x1"])
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.y_obs, b.y_obs)


    def test_blank_lines_are_not_rows(self):
        # a blank line, here a trailing one, is skipped; it still counts in
        # the row numbers of messages
        text = MINIMAL.strip() + "\n\n"
        d = load_dataset(io.StringIO(text), "z", "y", ["x1"])
        assert d.n == 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = load_dataset(io.StringIO(text), "z", "y", ["x1"], lenient_missing=True)
        assert d.n == 4
        text = MINIMAL.strip().replace("0,0.25,3.0", "\n0,0.25,oops")
        with pytest.raises(NonNumericValue, match=r"row 5, column 'x1'"):
            load_dataset(io.StringIO(text), "z", "y", ["x1"])

    def test_blank_lines_before_header(self, tmp_path):
        # the header is the first non-blank record; row numbers still count
        # the blank lines above it, so the first data row is row 4 here
        text = "\n\n" + MINIMAL.strip() + "\n"
        path = tmp_path / "leading_blank.csv"
        path.write_text(text, encoding="utf-8")
        expected = load_dataset(csv_stream(MINIMAL), "z", "y", ["x1"])
        for source in (lambda: str(path), lambda: io.StringIO(text)):
            for lenient in (False, True):
                d = load_dataset(source(), "z", "y", ["x1"], lenient_missing=lenient)
                assert np.array_equal(d.x, expected.x) and np.array_equal(d.z, expected.z)
                assert np.array_equal(d.y_obs, expected.y_obs)
        bad = text.replace("1,0.5,1.0", "1,,1.0")
        path.write_text(bad, encoding="utf-8")
        for source in (lambda: str(path), lambda: io.StringIO(bad)):
            with pytest.raises(NonNumericValue, match=r"row 4, column 'y': missing"):
                load_dataset(source(), "z", "y", ["x1"])
            with pytest.warns(MissingRowsDropped):
                with pytest.raises(TooFewRows, match="got 3"):
                    load_dataset(source(), "z", "y", ["x1"], lenient_missing=True)

    def test_table_of_blank_lines_is_empty(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n\n", encoding="utf-8")
        for source in (str(path), io.StringIO("\n\n"), io.StringIO("")):
            with pytest.raises(TooFewRows, match="input table is empty"):
                load_dataset(source, "z", "y", ["x1"])

    def test_byte_order_mark_accepted(self, tmp_path):
        text = "\ufeff" + MINIMAL.strip() + "\n"
        path = tmp_path / "bom.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = load_dataset(csv_stream(MINIMAL), "z", "y", ["x1"])
        for source in (str(path), io.StringIO(text)):
            d = load_dataset(source, "z", "y", ["x1"])
            assert np.array_equal(d.x, expected.x) and np.array_equal(d.z, expected.z)

    def test_byte_order_mark_alone_on_first_line(self, tmp_path):
        # the mark leaves a blank first line, read the same from a path and
        # from a stream; so does a file that holds nothing but the mark
        text = "\ufeff\n" + MINIMAL.strip() + "\n"
        path = tmp_path / "bom_line.csv"
        path.write_bytes(text.encode("utf-8"))
        a = load_dataset(str(path), "z", "y", ["x1"])
        b = load_dataset(io.StringIO(text), "z", "y", ["x1"])
        assert np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z)
        assert np.array_equal(a.y_obs, b.y_obs) and a.column_names == b.column_names
        bad = text.replace("1,0.5,1.0", "1,0.5,oops")
        path.write_bytes(bad.encode("utf-8"))
        for source in (str(path), io.StringIO(bad)):
            with pytest.raises(NonNumericValue, match=r"row 3, column 'x1'"):
                load_dataset(source, "z", "y", ["x1"])
        path.write_bytes("\ufeff".encode("utf-8"))
        for source in (str(path), io.StringIO("\ufeff")):
            with pytest.raises(TooFewRows, match="input table is empty"):
                load_dataset(source, "z", "y", ["x1"])


MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none"}
ODD_CELLS = [
    "1_000", " 1.5 ", "+.5", "5.", "١٢", "inf", "-inf", "nan", "NaN", "0x10",
    "1e400", "1e-400", "NA", "n/a", "", "null", "None",
]


def oracle_load(text, covariates, lenient, delimiter=",", treated_level=None):
    """load_dataset one cell at a time: strip, check the missing tokens, then
    ``float()`` and finiteness. Returns the Dataset (or the exception it
    raises) and the number of rows dropped."""
    rows = list(csv.reader(io.StringIO(text), delimiter=delimiter))
    top = min(i for i, row in enumerate(rows) if row)
    header = [h.strip() for h in rows[top]]
    names = ["z", "y", *covariates]
    for name in names:
        if header.count(name) > 1:
            return DuplicateColumn(
                f"column {name!r} appears {header.count(name)} times in header {header!r}"
            ), 0
    positions = [header.index(name) for name in names]
    kept, dropped = [], 0
    for row, record in enumerate(rows, start=1):
        if row <= top + 1 or not record:
            continue
        cells = [record[k].strip() if k < len(record) else "" for k in positions]
        missing = [name for name, cell in zip(names, cells) if cell.lower() in MISSING_TOKENS]
        if missing and not lenient:
            return NonNumericValue(
                f"row {row}, column {missing[0]!r}: missing value "
                "(pass --lenient-missing to drop such rows)"
            ), 0
        if missing:
            dropped += 1
        else:
            kept.append((row, cells))
    if len(kept) < 4:
        return TooFewRows(f"need at least 4 complete rows, got {len(kept)}"), dropped
    try:
        z = data._map_treatment([cells[0] for _, cells in kept], treated_level)
    except NonBinaryTreatment as exc:
        return exc, dropped
    columns = []
    for j, name in enumerate(names[1:], start=1):
        column = []
        for row, cells in kept:
            try:
                value = float(cells[j])
            except ValueError:
                return NonNumericValue(
                    f"row {row}, column {name!r}: cannot parse {cells[j]!r} as a number"
                ), dropped
            if not math.isfinite(value):
                return NonNumericValue(
                    f"row {row}, column {name!r}: non-finite value {cells[j]!r}"
                ), dropped
            column.append(value)
        columns.append(column)
    try:
        return Dataset(x=np.array(columns[1:]).T, z=z, y_obs=columns[0]), dropped
    except DegenerateAssignment as exc:
        return exc, dropped


@st.composite
def messy_tables(draw):
    """A comma- or tab-separated table, in some tables after blank lines,
    whose header holds z, y and x1..xp in any order among unused columns,
    in some tables with one name repeated:
    rows of formatted floats with, in some tables, rows mixing in odd cells,
    short rows and blank lines. The treatment column holds 0/1, true/false,
    or two labels read with a treated level. Returns the text, the
    covariates, the delimiter and the treated level."""
    p = draw(st.integers(1, 3))
    delimiter = draw(st.sampled_from([",", "\t"]))
    labels, treated_level = draw(
        st.sampled_from(
            [
                (["0", "1", " 1 "], None),
                (["true", "false", "TRUE", " False "], None),
                (["drug", "placebo", " drug "], "drug"),
            ]
        )
    )
    covariates = [f"x{j + 1}" for j in range(p)]
    unused = draw(st.lists(st.sampled_from(["id", "note"]), unique=True))
    repeated = []
    if draw(st.integers(0, 3)) == 3:
        repeated = [draw(st.sampled_from(["z", "y", *covariates, *unused]))]
    header = draw(st.permutations(["z", "y", *covariates, *unused, *repeated]))
    others = [name for name in header if name != "z"]
    number = st.builds(
        str.format, st.sampled_from(["{!r}", "{:.9g}", "{:.3f}", " {:g} "]), st.floats(-1e6, 1e6)
    )

    def rows(treatment, cell):
        cells = st.lists(cell, min_size=len(others), max_size=len(others))
        return st.builds(
            lambda t, rest: [{**dict(zip(others, rest)), "z": t}[name] for name in header],
            treatment,
            cells,
        )

    binary = st.sampled_from(labels)
    records = draw(st.lists(rows(binary, number), min_size=2, max_size=10))
    odd = rows(
        st.one_of(binary, st.sampled_from(["2", "NA", ""])),
        st.one_of(number, st.sampled_from(ODD_CELLS)),
    )
    odd = st.one_of(odd, odd.map(lambda r: r[: len(r) // 2]), st.just([]))
    for extra in draw(st.lists(odd, max_size=4)):
        records.insert(draw(st.integers(0, len(records))), extra)
    lines = [[]] * draw(st.integers(0, 2)) + [header, *records]
    text = "\n".join(delimiter.join(r) for r in lines) + "\n"
    return text, covariates, delimiter, treated_level


class TestColumnParse:
    @settings(max_examples=200, deadline=None)
    @given(table=messy_tables(), lenient=st.booleans())
    def test_matches_per_cell_oracle(self, table, lenient):
        text, covariates, delimiter, treated_level = table
        expected, dropped = oracle_load(text, covariates, lenient, delimiter, treated_level)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                got = load_dataset(
                    io.StringIO(text),
                    "z",
                    "y",
                    covariates,
                    delimiter=delimiter,
                    treated_level=treated_level,
                    lenient_missing=lenient,
                )
            except BalanceLabError as exc:
                got = exc
        counts = [w.message.count for w in caught if w.category is MissingRowsDropped]
        assert counts == ([dropped] if dropped else [])
        if isinstance(expected, Exception):
            assert type(got) is type(expected) and str(got) == str(expected)
            return
        assert isinstance(got, Dataset)
        for name in ("x", "z", "y_obs"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_valid_table_parses_whole_columns(self, monkeypatch, rng):
        def per_cell(*args):
            raise AssertionError("a valid table reached the per-cell retry")

        values = rng.normal(size=(1000, 3))
        rows = ["z,y,a,b"] + [
            f"{i % 2},{v[0]:.17g}, {v[1]:.9g} ,{v[2]:g}" for i, v in enumerate(values)
        ]
        # a trailing blank line, as many writers leave, does not matter
        text = "\n".join(rows) + "\n\n"
        monkeypatch.setattr(data, "_float_or_nan", per_cell)
        for lenient in (False, True):
            d = load_dataset(io.StringIO(text), "z", "y", ["a", "b"], lenient_missing=lenient)
            assert d.n == 1000


PLAIN_TREATMENTS = ["0", "1", " 1", "0 ", "1.0", "-0", "+1", "1e0"]
IRREGULAR_TREATMENTS = ["true", "false", "TRUE", "2", "NA", "", '"1"']
IRREGULAR_CELLS = [
    "1_0", "", "NA", "N/A", "nan", "NaN", "null", "None", '"1.5"', '"2,5"', "1\x00",
    "\x0c2", "١٢", "inf", "1e400", "oops", "1\r2",
]


@st.composite
def numeric_tables(draw):
    """A table of plain numbers: signs, exponents, space or tab padding,
    \\n or \\r\\n line ends, blank lines before the header and between
    records, in some tables a byte-order mark and extra trailing columns.
    Half the tables also mix in irregular cells and treatments, short
    records, whitespace-only lines and a lone \\r. Returns the bytes of
    the file, the covariates and the delimiter."""
    p = draw(st.integers(1, 3))
    delimiter = draw(st.sampled_from([",", "\t", ";"]))
    covariates = [f"x{j + 1}" for j in range(p)]
    header = draw(st.permutations(["z", "y", *covariates]))
    width = len(header) + draw(st.integers(0, 2))
    header += [f"extra{k}" for k in range(width - len(header))]
    pad = draw(st.sampled_from([" ", "\t"])) if delimiter != "\t" else " "
    number = st.builds(
        str.format,
        st.sampled_from(["{!r}", "{:.9g}", "{:+.3e}", "{:.0f}", pad + "{:g}", "{:g}" + pad]),
        st.floats(-1e6, 1e6),
    )
    treatment, cell = st.sampled_from(PLAIN_TREATMENTS), number
    irregular = draw(st.booleans())
    if irregular:
        treatment = st.one_of(treatment, st.sampled_from(IRREGULAR_TREATMENTS))
        cell = st.one_of(number, number, st.sampled_from(IRREGULAR_CELLS))
    lines = [""] * draw(st.integers(0, 2)) + [delimiter.join(header)]
    for _ in range(draw(st.integers(4, 10))):
        record = [draw(treatment if name == "z" else cell) for name in header]
        if draw(st.integers(0, 4)) == 0:
            record.append(draw(number))
        if irregular and draw(st.integers(0, 5)) == 0:
            record = record[: draw(st.integers(0, len(record)))]
        lines += [""] * draw(st.integers(0, 1)) + [delimiter.join(record)]
        if irregular and draw(st.integers(0, 8)) == 0:
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [newline] * len(lines)
    if irregular and draw(st.booleans()):
        ends[draw(st.integers(0, len(ends) - 1))] = "\r"
    text = "".join(line + end for line, end in zip(lines, ends))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + text).encode("utf-8"), covariates, delimiter


def load_outcome(source, covariates, delimiter, lenient):
    """What ``load_dataset`` gives: a Dataset or the exception it raises,
    and the warnings it issues."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = load_dataset(
                source, "z", "y", covariates, delimiter=delimiter, lenient_missing=lenient
            )
        except Exception as exc:
            got = exc
    return got, [(w.category, str(w.message)) for w in caught]


class TestNumericReader:
    """A path whose table is plain numbers is read by ``np.loadtxt``; every
    table loads as the csv reader loads it from a stream of the same text."""

    @settings(max_examples=200, deadline=None)
    @given(table=numeric_tables(), lenient=st.booleans())
    def test_path_matches_csv_reader(self, table, lenient, tmp_path_factory):
        raw, covariates, delimiter = table
        path = tmp_path_factory.getbasetemp() / "numeric_table.csv"
        path.write_bytes(raw)
        stream = io.StringIO(raw.decode("utf-8-sig"), newline="")
        got, got_warnings = load_outcome(str(path), covariates, delimiter, lenient)
        expected, expected_warnings = load_outcome(stream, covariates, delimiter, lenient)
        assert got_warnings == expected_warnings
        if isinstance(expected, Exception):
            assert type(got) is type(expected) and str(got) == str(expected)
            return
        assert isinstance(got, Dataset) and got.column_names == expected.column_names
        for name in ("x", "z", "y_obs"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_plain_table_skips_csv_reader(self, monkeypatch):
        fixture = pathlib.Path(__file__).parent / "fixtures" / "null_small.csv"
        expected = load_dataset(io.StringIO(fixture.read_text()), "z", "y", ["x1", "x2", "x3"])

        def refused(*args, **kwargs):
            raise AssertionError("a plain numeric table reached the csv reader")

        monkeypatch.setattr(data.csv, "reader", refused)
        d = load_dataset(str(fixture), "z", "y", ["x1", "x2", "x3"])
        for name in ("x", "z", "y_obs"):
            assert getattr(d, name).tobytes() == getattr(expected, name).tobytes()

    def test_quoted_delimiter_in_unread_column(self, tmp_path):
        # split at every comma, the quoted cell is two fields, so columns
        # z, y and x1 would read each record's tag, z and y: all numbers,
        # and a 0/1 treatment
        rows = ['"a,b",1,0,2.5,3', '"c,d",0,1,1.5,4', '"e,f",1,0,0.5,5', '"g,h",0,1,3.5,6']
        path = tmp_path / "quoted.csv"
        path.write_text("\n".join(["note,tag,z,y,x1", *rows]) + "\n")
        d = load_dataset(str(path), "z", "y", ["x1"])
        assert d.z.tolist() == [0, 1, 0, 1] and d.y_obs.tolist() == [2.5, 1.5, 0.5, 3.5]
        assert d.x[:, 0].tolist() == [3.0, 4.0, 5.0, 6.0]

    @pytest.mark.parametrize(
        "old, new",
        [
            ("0.25", "0_25"),
            ("0.25", "NA"),
            ("0.25", ""),
            ("0.25", '"0.25"'),
            ("0.25", "0.25\x00"),
            ("0.25", "\x0c0.25"),
            ("0.25", "١٢"),
            ("0.25", "inf"),
            ("0,0.25", "2,0.25"),
            ("0,0.25", "false,0.25"),
            ("0,0.25,3.0", "0,0.25"),
            ("\n0,0.25", "\n \n0,0.25"),
            ("\n0,0.25", "\r0,0.25"),
            ("z,y,x1\n", "z,y,x1,x1\n"),
            ("0,0.75,4.0\n", ""),
        ],
        ids=[
            "underscore", "missing-token", "empty", "quoted", "nul", "form-feed",
            "arabic-digits", "infinite", "non-binary", "true-false", "short-record",
            "whitespace-line", "lone-cr", "repeated-name", "three-records",
        ],
    )
    def test_irregular_table_is_declined(self, old, new):
        text = MINIMAL.strip() + "\n"
        assert data._plain_table(text, ",", ["z", "y", "x1"]) is not None
        assert data._plain_table(text.replace(old, new), ",", ["z", "y", "x1"]) is None


class TestDataset:
    def test_arrays_frozen(self):
        d = load_dataset(csv_stream(MINIMAL), "z", "y", ["x1"])
        with pytest.raises(ValueError):
            d.x[0, 0] = 99.0

    def test_vector_x_is_one_covariate(self):
        x, z, y = np.arange(10.0), np.repeat([1, 0], 5), np.arange(10.0)
        vector, column = Dataset(x=x, z=z, y_obs=y), Dataset(x=x[:, None], z=z, y_obs=y)
        assert vector.x.shape == (10, 1) and vector.column_names == ("x1",)
        np.testing.assert_array_equal(vector.x, column.x)
        np.testing.assert_array_equal(vector.standardized_x, column.standardized_x)

    def test_unpickled_copy_is_frozen(self, rng):
        d = Dataset(x=rng.normal(size=(10, 2)), z=np.array([1, 0] * 5), y_obs=rng.normal(size=10))
        d.standardized_x
        d.whitened
        copy = pickle.loads(pickle.dumps(d))
        assert not {"standardized_x", "whitened", "constant_columns"} & set(vars(copy))
        np.testing.assert_array_equal(copy.x, d.x)
        np.testing.assert_array_equal(copy.z, d.z)
        np.testing.assert_array_equal(copy.y_obs, d.y_obs)
        assert copy.column_names == d.column_names
        copies = (copy.x, copy.z, copy.y_obs, copy.standardized_x)
        for arr in (*copies, copy.whitened[0]):
            with pytest.raises(ValueError):
                arr[0, ...] = 1

    @pytest.mark.parametrize("policy", ["fixed", "refit"])
    def test_memory_layout_does_not_change_results(self, policy, rng):
        x = rng.normal(size=(200, 4)) * [1.0, 3.0, 0.5, 7.0] + 2.0
        z = np.array([1, 0] * 100)
        y = x @ [0.5, -0.2, 0.1, 0.05] + rng.normal(size=200)
        wide = np.zeros((200, 8))
        wide[:, ::2] = x
        layouts = {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x), "strided": wide[:, ::2]}
        results = {
            name: permutation_pvalues(
                Dataset(x=layout, z=z, y_obs=y), ("uw", "rw", "hotelling"), 64, seed=3,
                weight_policy=policy,
            )
            for name, layout in layouts.items()
        }
        for name in ("F", "strided"):
            for stat, res in results[name].items():
                reference = results["C"][stat]
                assert res.observed == reference.observed, (name, stat)
                np.testing.assert_array_equal(res.permuted_values, reference.permuted_values)

    def test_caller_arrays_stay_writeable(self, rng):
        x = rng.normal(size=(40, 3))
        z = np.array([1, 0] * 20)
        y = rng.normal(size=40)
        statistics = ("uw", "rw", "hotelling")
        reference = permutation_pvalues(
            Dataset(x=x.copy(), z=z.copy(), y_obs=y.copy()), statistics, 64, seed=5
        )
        d = Dataset(x=x, z=z, y_obs=y)
        assert x.flags.writeable and z.flags.writeable and y.flags.writeable
        for arr in (d.x, d.z, d.y_obs):
            assert not arr.flags.writeable
        before = permutation_pvalues(d, statistics, 64, seed=5)
        x[:] = 0.0  # the dataset holds its own copies
        y[:] = 0.0
        after = permutation_pvalues(d, statistics, 64, seed=5)
        for results in (before, after):
            for stat, res in results.items():
                assert res.observed == reference[stat].observed, stat
                np.testing.assert_array_equal(res.permuted_values, reference[stat].permuted_values)

    def test_direct_construction_validates(self):
        with pytest.raises(NonBinaryTreatment):
            Dataset(x=np.ones((4, 1)), z=np.array([2, 0, 1, 0]), y_obs=np.zeros(4))
        with pytest.raises(NonNumericValue):
            Dataset(
                x=np.array([[np.nan], [1.0], [2.0], [3.0]]),
                z=np.array([1, 0, 1, 0]),
                y_obs=np.zeros(4),
            )

    @pytest.mark.parametrize(
        "z, bad",
        [
            (np.array([2, 0, 1, 0]), "array([2])"),
            (np.array([0.5, 0.0, 1.0, 0.0]), "array([0.5])"),
            (np.array([np.nan, 0.0, 1.0, 0.0]), "array([nan])"),
            (np.array(["1", "0", "1", "0"]), "array(['0', '1'], dtype='<U1')"),
            (np.array(["1", 0, 1, 0], dtype=object), "array(['1'], dtype=object)"),
        ],
    )
    def test_non_binary_assignment_names_its_values(self, z, bad):
        with pytest.raises(NonBinaryTreatment) as info:
            Dataset(x=np.ones((4, 1)), z=z, y_obs=np.zeros(4))
        assert str(info.value) == f"assignment contains values outside {{0,1}}: {bad}"

    def test_population_variance_convention(self):
        # 1/N convention: var of (0,0,1,1) is 0.25, not 1/3, so the SD is 0.5
        assert np.var(np.array([0.0, 0.0, 1.0, 1.0]), ddof=0) == 0.25
        xs = standardize_columns(np.array([[0.0], [0.0], [1.0], [1.0]]))
        np.testing.assert_array_equal(xs[:, 0], [-1.0, -1.0, 1.0, 1.0])


class TestStandardize:
    def test_known_column(self):
        # mean 2.5, population SD sqrt(1.25)
        xs = standardize_columns(np.array([[1.0], [2.0], [3.0], [4.0]]))
        np.testing.assert_allclose(
            xs[:, 0],
            [-1.3416407864998738, -0.4472135954999579, 0.4472135954999579, 1.3416407864998738],
        )
        assert abs(xs.mean()) < 1e-12
        assert abs(xs.var() - 1.0) < 1e-10

    def test_constant_column_dropped(self):
        # 0.1 repeated has a nonzero np.std; it is constant all the same
        x = np.column_stack([np.full(200, 0.1), np.arange(200.0), np.full(200, 5.0)])
        xs = standardize_columns(x)
        assert xs.shape == (200, 3)
        assert not xs[:, [0, 2]].any()
        np.testing.assert_array_equal(xs[:, 1], standardize_columns(x[:, [1]])[:, 0])
        d = Dataset(x=x, z=np.array([1, 0] * 100), y_obs=np.arange(200.0))
        assert d.constant_columns == (0, 2)

    def test_all_constant(self):
        with pytest.raises(AllColumnsConstant):
            standardize_columns(np.full((4, 2), 3.0))

    def test_already_standardized_is_fixed_point(self, rng):
        x = rng.normal(size=(50, 2))
        once = standardize_columns(x)
        assert np.abs(standardize_columns(once) - once).max() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 60), p=st.integers(1, 4))
    def test_idempotent(self, seed, n, p):
        x = np.random.default_rng(seed).normal(size=(n, p)) * 7.0 + 3.0
        once = standardize_columns(x)
        twice = standardize_columns(once)
        assert np.abs(twice - once).max() < 1e-10

    def test_dataset_entry_point(self, rng):
        d = Dataset(
            x=rng.normal(size=(10, 2)),
            z=np.array([1, 0] * 5),
            y_obs=rng.normal(size=10),
        )
        xs = d.standardized_x
        assert xs.shape == (10, 2)
        assert np.abs(xs.mean(axis=0)).max() < 1e-12
        assert d.constant_columns == ()

    @pytest.fixture
    def standardize_calls(self, monkeypatch):
        calls = []
        original = data.standardize_columns

        def counting(x):
            calls.append(1)
            return original(x)

        monkeypatch.setattr(data, "standardize_columns", counting)
        return calls

    @pytest.mark.parametrize("policy", ["fixed", "refit"])
    @pytest.mark.parametrize("scale", ["standardized", "raw"])
    def test_cli_test_standardizes_once(self, policy, scale, standardize_calls, tmp_path):
        fixture = pathlib.Path(__file__).parent / "fixtures" / "null_small.csv"
        args = [
            "test", "--input", str(fixture), "--treatment", "z", "--outcome", "y",
            "--covariates", "x1,x2,x3", "--seed", "1", "--permutations", "50",
            "--weight-policy", policy, "--scale", scale, "--out-dir", str(tmp_path),
        ]
        assert cli.main(args) == 0
        assert len(standardize_calls) == 1

    def test_replicate_standardizes_once(self, standardize_calls):
        # one stacked standardization serves a whole group of replicates
        cfg = simulation.DgpConfig(n=40, p=3, rho_x1_y=0.3, seed=5)
        members = [(cfg, r) for r in range(5)]
        outcomes = simulation._run_group((members, ("uw", "rw", "hotelling"), 20, "fixed"))
        assert [pvals is not None for pvals, _ in outcomes] == [True] * 5
        assert len(standardize_calls) == 1

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        original = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(1)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    @pytest.mark.parametrize("policy", ["fixed", "refit"])
    @pytest.mark.parametrize("scale", ["standardized", "raw"])
    def test_cli_test_whitens_once(self, policy, scale, eigh_calls, tmp_path):
        fixture = pathlib.Path(__file__).parent / "fixtures" / "null_small.csv"
        args = [
            "test", "--input", str(fixture), "--treatment", "z", "--outcome", "y",
            "--covariates", "x1,x2,x3", "--seed", "1", "--permutations", "50",
            "--weight-policy", policy, "--scale", scale, "--out-dir", str(tmp_path),
        ]
        assert cli.main(args) == 0
        assert len(eigh_calls) == 1

    def test_replicate_whitens_once(self, eigh_calls):
        # one stacked eigendecomposition serves a whole group of replicates
        cfg = simulation.DgpConfig(n=40, p=3, rho_x1_y=0.3, seed=5)
        members = [(cfg, r) for r in range(5)]
        outcomes = simulation._run_group((members, ("uw", "rw", "hotelling"), 20, "fixed"))
        assert [pvals is not None for pvals, _ in outcomes] == [True] * 5
        assert len(eigh_calls) == 1

    def test_stack_views_is_idempotent(self, standardize_calls, eigh_calls, rng):
        # a second call leaves the cached members alone: nothing is recomputed
        z = np.repeat([1, 0], 10)
        datasets = [
            Dataset(x=rng.normal(size=(20, 3)), z=z, y_obs=rng.normal(size=20)) for _ in range(3)
        ]
        data.stack_views(datasets)
        views = [(d.standardized_x, d.whitened) for d in datasets]
        assert (len(standardize_calls), len(eigh_calls)) == (1, 1)
        data.stack_views(datasets)
        assert (len(standardize_calls), len(eigh_calls)) == (1, 1)
        for d, (xs, whitened) in zip(datasets, views):
            assert d.standardized_x is xs
            assert d.whitened is whitened

    def test_stack_views_tests_constant_columns_once(self, monkeypatch, rng):
        # one varying_columns call tests the whole stack; a member with a
        # constant column joins it
        calls = []
        original = data.varying_columns

        def counting(x):
            calls.append(x.shape)
            return original(x)

        monkeypatch.setattr(data, "varying_columns", counting)
        z = np.repeat([1, 0], 10)
        xs = [rng.normal(size=(20, 3)) for _ in range(4)]
        xs[1][:, 2] = 0.1
        datasets = [Dataset(x=x, z=z, y_obs=rng.normal(size=20)) for x in xs]
        data.stack_views(datasets)
        assert calls == [(4, 20, 3)]
        assert all("standardized_x" in vars(d) and "whitened" in vars(d) for d in datasets)
        data.stack_views(datasets)
        assert calls == [(4, 20, 3)]

    @pytest.mark.parametrize(
        "call",
        [
            lambda d: compute_balance_report(d, scale="raw"),
            lambda d: variance_report(d, np.ones(2), scale="raw"),
            lambda d: permutation_test(d, "uw", 20, 1, scale="raw"),
        ],
        ids=["balance", "variance", "permutation"],
    )
    def test_raw_scale_refuses_a_covariate_whose_standardization_overflows(self, call, rng):
        # every cell of x1 is finite, but its mean and SD overflow: the
        # standardized view refuses it before its SD is read
        x = rng.normal(size=(40, 2))
        x[:, 0] = 1e308 * rng.uniform(0.5, 0.9, size=40)
        d = Dataset(x=x, z=rng.permutation(np.repeat([1, 0], 20)), y_obs=rng.normal(size=40))
        with pytest.raises(NonNumericValue, match="'x1'"):
            call(d)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", ["standardized", "raw"])
    def test_covariate_whose_sd_alone_overflows_is_refused(self, rng, scale):
        # x1 alternates in sign, so its mean is finite but its SD is not;
        # divided by an infinite SD it would be a zero column, as if constant
        n = 40
        x = rng.normal(size=(n, 2))
        x[:, 0] = 1e200 * rng.uniform(0.5, 0.9, size=n) * np.resize([1.0, -1.0], n)
        z = rng.permutation(np.repeat([1, 0], n // 2))
        d = Dataset(x=x, z=z, y_obs=rng.normal(size=n))
        assert np.isfinite(x[:, 0].mean()) and not d.constant_columns
        assert np.isnan(standardize_columns(x)[:, 0]).all()
        with pytest.raises(NonNumericValue, match="'x1'"):
            compute_balance_report(d, scale=scale)
        good = Dataset(x=rng.normal(size=(n, 2)), z=z, y_obs=d.y_obs)
        outcome = permutation_pvalues([good, d], ("uw", "hotelling"), 20, [1, 2], scale=scale)
        assert isinstance(outcome[1], NonNumericValue) and "'x1'" in str(outcome[1])
        alone = permutation_pvalues(good, ("uw", "hotelling"), 20, 1, scale=scale)
        assert np.array_equal(outcome[0]["uw"].permuted_values, alone["uw"].permuted_values)

    def test_scaled_view_is_cached_and_read_only(self, rng):
        x = np.column_stack([np.full(10, 4.0), rng.normal(size=(10, 2))])
        d = Dataset(x=x, z=np.array([1, 0] * 5), y_obs=rng.normal(size=10))
        xs = d.standardized_x
        assert xs is d.standardized_x
        assert d.whitened is d.whitened
        assert d.constant_columns is d.constant_columns
        assert xs.shape == (10, 3) and not xs[:, 0].any()
        np.testing.assert_array_equal(xs[:, 1:], standardize_columns(x[:, 1:]))
        xw, singular = d.whitened
        assert singular and xw.shape == (10, 2)
        np.testing.assert_allclose(xw.T @ xw, np.eye(2), atol=1e-12)
        operand = d.treated_sum_operand
        assert operand is d.treated_sum_operand
        np.testing.assert_array_equal(operand, np.concatenate((xs, xw), axis=1))
        for arr in (xs, xw, operand):
            with pytest.raises(ValueError):
                arr[0, ...] = 1.0
        with pytest.raises(ValueError):
            compute_balance_report(d, scale="log")
