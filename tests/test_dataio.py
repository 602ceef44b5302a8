"""CSV ingestion modes and JSON parameter round trips."""

import csv
import io
import itertools
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwpl.dataio import (
    CSV_COLUMNS,
    SkippedRow,
    _enum_of,
    _finite,
    dumps_params,
    read_csv,
    read_params_json,
    write_csv,
    write_params_json,
)
from mmwpl.errors import DataError
from mmwpl.models import AbgParams, CifParams, CiParams, FiParams, XpdExtension
from mmwpl.report import FitReport, FitRow
from mmwpl.synthesis import SynthesisSpec, synthesize
from mmwpl.taxonomy import (
    ENVIRONMENTS,
    LAYOUTS,
    POLARIZATIONS,
    Dataset,
    Environment,
    Layout,
    PathLossSample,
    Polarization,
    PolarizationClass,
    ScenarioKey,
    sample_violations,
)

HEADER = ",".join(CSV_COLUMNS)


def read_text(text, mode="strict"):
    return read_csv(io.StringIO(text), mode=mode)


class TestReadCsv:
    def test_single_row(self):
        ds, skipped = read_text(HEADER + "\n28,10.0,72.39,VV,NLOS,CO,TX2,RX11\n")
        assert skipped == []
        assert len(ds) == 1
        s = ds.samples[0]
        assert s.frequency_ghz == 28.0
        assert s.distance_m == 10.0
        assert s.path_loss_db == 72.39
        assert s.polarization is Polarization.VV
        assert s.environment is Environment.NLOS
        assert s.layout is Layout.CORRIDOR
        assert s.tx_id == "TX2"
        assert s.rx_id == "RX11"

    def test_header_only_is_empty_dataset(self):
        ds, skipped = read_text(HEADER + "\n")
        assert len(ds) == 0
        assert skipped == []

    def test_missing_header(self):
        with pytest.raises(DataError, match="header"):
            read_text("")

    def test_numeric_first_line_is_not_a_header(self):
        with pytest.raises(DataError):
            read_text("28,10.0,72.39,VV,NLOS,CO,,\n")

    def test_empty_ids_become_none(self):
        ds, _ = read_text(HEADER + "\n28,10.0,72.39,VV,NLOS,CO,,\n")
        assert ds.samples[0].tx_id is None
        assert ds.samples[0].rx_id is None

    def test_strict_rejects_bad_distance_with_row_number(self):
        text = HEADER + "\n28,10.0,72.39,VV,NLOS,CO,,\n28,0.5,60.0,VV,NLOS,CO,,\n"
        with pytest.raises(DataError, match="row 2"):
            read_text(text)

    def test_lax_skips_bad_distance_and_reports(self):
        text = HEADER + "\n28,10.0,72.39,VV,NLOS,CO,,\n28,0.5,60.0,VV,NLOS,CO,,\n"
        ds, skipped = read_text(text, mode="lax")
        assert len(ds) == 1
        assert len(skipped) == 1
        assert skipped[0] == SkippedRow(2, skipped[0].reason)
        assert "1 m" in skipped[0].reason

    def test_unknown_enum_token(self):
        text = HEADER + "\n28,10.0,72.39,HH,NLOS,CO,,\n"
        with pytest.raises(DataError, match="polarization"):
            read_text(text)
        ds, skipped = read_text(text, mode="lax")
        assert len(ds) == 0 and len(skipped) == 1

    def test_unparseable_numeric(self):
        text = HEADER + "\n28,ten,72.39,VV,NLOS,CO,,\n"
        with pytest.raises(DataError, match="numeric"):
            read_text(text)

    def test_unknown_column_strict_vs_lax(self):
        header = HEADER + ",comment"
        text = header + "\n28,10.0,72.39,VV,NLOS,CO,,,note\n"
        with pytest.raises(DataError, match="unknown column"):
            read_text(text)
        ds, skipped = read_text(text, mode="lax")
        assert len(ds) == 1
        assert skipped == []

    def test_lax_accepts_reordered_subset_of_columns(self):
        text = (
            "path_loss_db,freq_ghz,distance_m,polarization,environment,layout\n"
            "72.39,28,10.0,VV,NLOS,CO\n"
        )
        ds, _ = read_text(text, mode="lax")
        assert ds.samples[0].path_loss_db == 72.39
        assert ds.samples[0].tx_id is None

    def test_missing_required_column(self):
        text = "freq_ghz,distance_m\n28,10\n"
        with pytest.raises(DataError, match="missing required"):
            read_text(text, mode="lax")

    def test_short_row_strict_vs_lax(self):
        text = HEADER + "\n28,10.0,72.39,VV,NLOS\n"
        with pytest.raises(DataError, match="fields"):
            read_text(text)
        ds, skipped = read_text(text, mode="lax")
        assert len(ds) == 0 and len(skipped) == 1

    def test_unknown_mode(self):
        with pytest.raises(DataError, match="mode"):
            read_text(HEADER + "\n", mode="loose")

    def test_lax_reports_each_bad_row_with_its_first_failing_check(self):
        text = "\n".join([
            HEADER,
            "28,10.0,72.39,VV,NLOS,CO,TX1,RX1",
            "",
            "28,10.0,72.39,VV,NLOS",
            "28,ten,72.39,VV,NLOS,CO,,",
            "28,10.0,72.39,HH,NLOS,CO,,",
            "28,0.5,-3,VV,NLOS,CO,,",
            "73, 20.0 ,1_0e1,VH,LOS,OP,,",
        ]) + "\n"
        ds, skipped = read_text(text, mode="lax")
        assert skipped == [
            SkippedRow(3, "expected 8 fields, got 5"),
            SkippedRow(4, "unparseable numeric: could not convert string to float: 'ten'"),
            SkippedRow(5, "unknown polarization token 'HH' (expected VV/VH)"),
            SkippedRow(6, "distance below the 1 m reference; path loss must be positive"),
        ]
        assert [(s.frequency_ghz, s.distance_m, s.path_loss_db) for s in ds] == [
            (28.0, 10.0, 72.39), (73.0, 20.0, 100.0)]

    def test_blank_lines_ignored(self):
        ds, skipped = read_text(HEADER + "\n\n28,10.0,72.39,VV,NLOS,CO,,\n\n")
        assert len(ds) == 1 and skipped == []


class TestCsvRoundTrip:
    def test_values_survive_exactly(self):
        model = CiParams(ple_n=2.8, sigma_db=10.1)
        key = ScenarioKey(Environment.NLOS, Layout.CLOSED_PLAN, PolarizationClass.VV)
        ds = synthesize(SynthesisSpec(model, key, ((28.0, 40), (73.0, 40)),
                                      (3.9, 45.9), seed=3))
        buffer = io.StringIO()
        write_csv(ds, buffer)
        back, skipped = read_csv(io.StringIO(buffer.getvalue()))
        assert skipped == []
        assert len(back) == len(ds)
        for a, b in zip(ds, back):
            assert b.frequency_ghz == a.frequency_ghz
            assert b.distance_m == a.distance_m
            assert b.path_loss_db == a.path_loss_db
            assert b.polarization is a.polarization

    def test_rewrite_is_byte_identical(self):
        model = CiParams(ple_n=2.0, sigma_db=4.0)
        key = ScenarioKey(Environment.LOS, Layout.CORRIDOR, PolarizationClass.VV)
        ds = synthesize(SynthesisSpec(model, key, ((28.0, 25),), (2.0, 40.0), seed=8))
        first = io.StringIO()
        write_csv(ds, first)
        back, _ = read_csv(io.StringIO(first.getvalue()))
        second = io.StringIO()
        write_csv(back, second)
        assert second.getvalue() == first.getvalue()

    def test_rewrite_with_labels_is_byte_identical(self):
        model = CiParams(ple_n=2.0, sigma_db=4.0)
        key = ScenarioKey(Environment.NLOS, Layout.OPEN_PLAN, PolarizationClass.VH)
        ds = synthesize(SynthesisSpec(model, key, ((28.0, 6), (73.0, 6)), (2.0, 40.0),
                                      seed=4))
        labels = ["TX1", None, "TX, 2", "", "RX3", None]
        ds = Dataset(tuple(replace(s, tx_id=labels[i % 6], rx_id=labels[(i + 2) % 6])
                           for i, s in enumerate(ds)))
        first = io.StringIO()
        write_csv(ds, first)
        assert ",TX1," in first.getvalue() and '"TX, 2"' in first.getvalue()
        back, skipped = read_csv(io.StringIO(first.getvalue()))
        assert skipped == []
        second = io.StringIO()
        write_csv(back, second)
        assert second.getvalue() == first.getvalue()

    def test_label_with_carriage_return_is_quoted(self):
        ds = Dataset((PathLossSample(28.0, 10.0, 72.5, Polarization.VV, Environment.NLOS,
                                     Layout.CORRIDOR, "TX\r1", "RX1"),))
        first = io.StringIO()
        write_csv(ds, first)
        assert first.getvalue().endswith(',"TX\r1",RX1\n')
        back, _ = read_csv(io.StringIO(first.getvalue()))
        assert back.samples[0].tx_id == "TX\r1"

    def test_header_line_is_pinned(self):
        buffer = io.StringIO()
        write_csv(synthesize(SynthesisSpec(
            CiParams(2.0, 0.0),
            ScenarioKey(Environment.LOS, Layout.CORRIDOR, PolarizationClass.VV),
            ((28.0, 1),), (5.0, 5.0), seed=0)), buffer)
        first_line = buffer.getvalue().splitlines()[0]
        assert first_line == "freq_ghz,distance_m,path_loss_db,polarization,environment,layout,tx_id,rx_id"


# sizes around the writer's slice boundaries
WRITE_SIZES = (0, 1, 1023, 1024, 1025, 2049)

# magnitude bands with different repr forms: subnormal, exponent below 1e-4,
# plain decimal, exponent from 1e16, and next to the largest float
FLOAT_BANDS = ((5e-324, sys.float_info.min), (sys.float_info.min, 1e-4), (1e-4, 1e16),
               (1e16, 1e300), (1e300, sys.float_info.max))

LABELS = st.one_of(
    st.none(),
    st.text(),
    st.sampled_from(["", ",", '"', "\r", "\n", "a,b", 'say "hi"', "x\r\ny", "é", "東京"]),
)


def positive_floats(low=0.0):
    """Finite floats of at least `low` from every band above it."""
    return st.one_of(*(st.floats(max(a, low), b) for a, b in FLOAT_BANDS if b > low))


@st.composite
def datasets(draw, n, freq, dist, pl, labels):
    """n rows whose cells are drawn from small per-column pools of values.

    Any column but one may instead be a 0-d value that every row shares, so
    shared runs lead, end or sit inside the line in every layout.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = iter(draw(st.lists(st.booleans(), min_size=8, max_size=8).filter(
        lambda flags: not all(flags))))

    def column(values):
        pool = draw(st.lists(values, min_size=1, max_size=8))
        return pool[0] if next(shared) else [pool[i] for i in rng.integers(len(pool), size=n)]

    floats = [column(values) for values in (freq, dist, pl)]
    codes = [rng.integers(len(members), size=None if next(shared) else n)
             for members in (POLARIZATIONS, ENVIRONMENTS, LAYOUTS)]
    return Dataset.from_columns(*floats, *codes, column(labels), column(labels))


def reference_csv(dataset):
    r"""The dataset written row by row through csv.writer, lines ending in \n.

    Each row is written with a \r\n line end, which makes every Python
    version quote a field holding \r or \n (3.13 does so with \n as well),
    and that line end is then replaced by \n.
    """
    lines = []
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    for row in [CSV_COLUMNS, *((s.frequency_ghz, s.distance_m, s.path_loss_db,
                                s.polarization.value, s.environment.value,
                                s.layout.value, s.tx_id, s.rx_id) for s in dataset)]:
        writer.writerow(row)
        lines.append(buffer.getvalue()[:-2] + "\n")
        buffer.seek(0)
        buffer.truncate()
    return "".join(lines)


def written(dataset):
    buffer = io.StringIO()
    write_csv(dataset, buffer)
    return buffer.getvalue()


def first_difference(got, want):
    """None if the texts are equal, else the text around where they part.

    A plain == assert would have pytest diff both texts whole on failure,
    which takes seconds per shrinking step on files of 2000 lines.
    """
    if got == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    near = slice(max(at - 40, 0), at + 40)
    return f"at {at}: {got[near]!r} != {want[near]!r}"


class TestCsvWriterProperties:
    @pytest.mark.parametrize("n", WRITE_SIZES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_row_by_row_csv_writer(self, n, data):
        any_float = st.one_of(positive_floats(), st.floats())
        dataset = data.draw(datasets(n, any_float, any_float, any_float, LABELS))
        assert first_difference(written(dataset), reference_csv(dataset)) is None

    @pytest.mark.parametrize("n", WRITE_SIZES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_write_read_write_is_byte_identical(self, n, data):
        # read_csv strips labels and reads an empty one as None
        kept = LABELS.filter(lambda s: s is None or s.strip() == s != "")
        dataset = data.draw(datasets(n, positive_floats(), positive_floats(1.0),
                                     positive_floats(), kept))
        first = written(dataset)
        back, skipped = read_csv(io.StringIO(first))
        assert skipped == [] and len(back) == n
        assert first_difference(written(back), first) is None

    @pytest.mark.parametrize("label", ["a,b", '"', "\r", None, ""])
    @pytest.mark.parametrize("shared", [range(7), [6], range(3, 8)],
                             ids=["leading", "inner", "trailing"])
    @pytest.mark.parametrize("n", [1, 5, 1025])
    def test_shared_label_is_quoted_like_csv_writer(self, n, shared, label):
        rng = np.random.default_rng(n)
        filled = [rng.uniform(1, 100, n), rng.uniform(1, 50, n), rng.uniform(40, 120, n),
                  *(rng.integers(len(m), size=n) for m in (POLARIZATIONS, ENVIRONMENTS, LAYOUTS)),
                  *(np.array([label, "x"] * n, object)[:n] for _ in range(2))]
        dataset = Dataset.from_columns(*(c[0] if i in shared else c for i, c in enumerate(filled)))
        assert [getattr(dataset, name).strides == (0,) for name in ("tx_id", "rx_id")] == [
            6 in shared, 7 in shared]
        assert first_difference(written(dataset), reference_csv(dataset)) is None


# data row counts around read_csv's blocks and chunks of 4096 lines or rows
READ_SIZES = (0, 1, 4095, 4096, 4097)

TOKEN_MEMBERS = (("polarization", POLARIZATIONS), ("environment", ENVIRONMENTS),
                 ("layout", LAYOUTS))


def reference_problem(raw, at, width):
    """Why read_csv must turn a non-blank row away, or None: checks in their order."""
    if len(raw) != width:
        return f"expected {width} fields, got {len(raw)}"
    try:
        values = [float(raw[at[c]]) for c in CSV_COLUMNS[:3]]
    except ValueError as exc:
        return f"unparseable numeric: {exc}"
    for column, members in TOKEN_MEMBERS:
        token, valid = raw[at[column]].strip(), [m.value for m in members]
        if token not in valid:
            return f"unknown {column} token {token!r} (expected {'/'.join(valid)})"
    violations = sample_violations(*(np.array([v]) for v in values))
    return "; ".join(violations[0]) if violations else None


def reference_read_csv(source, mode):
    """read_csv as columns and skipped rows, one csv.reader row at a time.

    Takes a header that is valid for the mode. Blank rows are dropped, a
    csv.Error stops the read at its row, and strict mode stops at the first
    bad row.
    """
    stream = (open(source, encoding="utf-8-sig", newline="")
              if isinstance(source, str) else source)
    with stream:
        reader = csv.reader(stream)
        header = [h.strip() for h in next(reader)]
        at = {name: header.index(name) for name in CSV_COLUMNS if name in header}
        kept, skipped = [], []
        for number in itertools.count(1):
            try:
                raw = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                raise DataError(f"read_csv: row {number}: {exc}") from None
            if not any(cell.strip() for cell in raw):
                continue
            reason = reference_problem(raw, at, len(header))
            if reason is None:
                kept.append(raw)
            elif mode == "strict":
                raise DataError(f"read_csv: row {number}: {reason}")
            else:
                skipped.append(SkippedRow(number, reason))
    columns = [[float(raw[at[c]]) for raw in kept] for c in CSV_COLUMNS[:3]]
    for column, members in TOKEN_MEMBERS:
        valid = [m.value for m in members]
        columns.append([valid.index(raw[at[column]].strip()) for raw in kept])
    for column in CSV_COLUMNS[6:]:
        columns.append([raw[at[column]].strip() or None if column in at else None
                        for raw in kept])
    return columns, skipped


def read_columns(source, mode):
    dataset, skipped = read_csv(source, mode)
    return [getattr(dataset, name).tolist() for name in
            ("freq", "dist", "pl", "pol", "env", "layout", "tx_id", "rx_id")], skipped


def read_outcome(read, source, mode):
    """A reader's columns and skipped rows, or its DataError, as text."""
    try:
        columns, skipped = read(source, mode)
    except DataError as exc:
        return f"DataError: {exc}"
    return "\n".join([*map(repr, columns), *map(repr, skipped)])


# the value each column's cells take in a row that passes every check
PLAIN_CELLS = {"freq_ghz": "28", "distance_m": "10.0", "path_loss_db": "72.39",
               "polarization": "VV", "environment": "NLOS", "layout": "CO",
               "tx_id": "TX1", "rx_id": "RX1", "comment": "note"}


def plain_rows(rng, header, n):
    """n rows that pass every check, from small pools of cells per column."""
    pools = {"freq_ghz": ["28", "73", "28.0", " 73 "],
             "distance_m": [repr(d) for d in rng.uniform(1.0, 50.0, 64)],
             "path_loss_db": [repr(p) for p in rng.uniform(40.0, 150.0, 64)],
             "polarization": ["VV", "VH", " VV"], "environment": ["LOS", "NLOS"],
             "layout": ["CO", "OP", "CP"], "tx_id": ["TX1", "TX2", "", " T3 "],
             "rx_id": ["RX1", "é", ""], "comment": ["note", ""]}
    picks = [[pools[h][i] for i in rng.integers(len(pools[h]), size=n)] for h in header]
    return list(map(",".join, zip(*picks)))


# cells that break one check each: numeric parse, token or sample rule
CELL_FAULTS = {"freq_ghz": ["ten", "", "-3", "nan"], "distance_m": ["x", "0.5", "inf", "1e400"],
               "path_loss_db": ["1_0x", "-3", "0"], "polarization": ["HH", "vv"],
               "environment": ["NLoS", ""], "layout": ["x"]}


@st.composite
def odd_lines(draw, header):
    """A line that read_csv must skip, turn away, or hand to csv.reader."""
    cells = [PLAIN_CELLS[h] for h in header]
    column = draw(st.integers(0, len(header) - 1))
    kind = draw(st.sampled_from(["blank", "short", "long", "cell", "cells", "quoted", "crlf",
                                 "cr", "nul", "over limit"]))
    if kind == "cells":
        # two or three broken cells: the first failing check in check order,
        # not the first broken column, names the row
        for name in draw(st.lists(st.sampled_from(list(CELL_FAULTS)), min_size=2, max_size=3,
                                  unique=True)):
            cells[header.index(name)] = draw(st.sampled_from(CELL_FAULTS[name]))
        return ",".join(cells)
    if kind == "blank":
        return draw(st.sampled_from(["", " ", " \t "]))
    if kind == "short":
        return ",".join(cells[:draw(st.integers(1, len(cells) - 1))])
    if kind == "long":
        return ",".join(cells + ["x"] * draw(st.integers(1, 3)))
    if kind == "crlf":
        return ",".join(cells) + "\r"
    if kind == "cell":
        cells[column] = draw(st.sampled_from(
            ["ten", "", " 28 ", "1_0", "nan", "inf", "-3", "0.5", "1e400", "HH", "vv", "x",
             # float() reads any Unicode decimal digits, and so does read_csv
             "２８", "٣"]))
    elif kind == "quoted":
        cells[column] = draw(st.sampled_from(
            ['"a,b"', '"say ""hi"""', '"x\ny"', '"x\r\ny"', '"TX1"', '""', 'a"b']))
    elif kind == "cr":
        cells[column] += "\r"
    elif kind == "nul":
        cells[column] += "\0"
    else:
        cells[column] = "T" * (csv.field_size_limit() + draw(st.sampled_from([0, 1])))
    return ",".join(cells)


@st.composite
def csv_texts(draw, n):
    """A header valid for the drawn mode, then n plain rows with odd lines put in."""
    mode = draw(st.sampled_from(["strict", "lax"]))
    header = list(draw(st.sampled_from(
        [CSV_COLUMNS, CSV_COLUMNS[::-1], CSV_COLUMNS[:6]]
        + ([CSV_COLUMNS + ("comment",)] if mode == "lax" else []))))
    lines = plain_rows(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), header, n)
    places = st.one_of(st.integers(0, n), st.sampled_from([p for p in (0, 1, 4095, 4096, n)
                                                           if p <= n]))
    for place, line in draw(st.lists(st.tuples(places, odd_lines(header)), max_size=4)):
        lines.insert(place, line)
    end = "\n" if draw(st.booleans()) else ""
    return ",".join(header) + "\n" + "\n".join(lines) + (end if lines else ""), mode


class TestCsvReaderProperties:
    @pytest.mark.parametrize("n", READ_SIZES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_row_by_row_csv_reader(self, n, data, tmp_path_factory):
        text, mode = data.draw(csv_texts(n))
        if data.draw(st.booleans(), label="through a path"):
            # a file opened by path also ends a line at a lone \r
            path = tmp_path_factory.getbasetemp() / "reader-property.csv"
            path.write_text(text, encoding="utf-8", newline="")
            got = read_outcome(read_columns, str(path), mode)
            want = read_outcome(reference_read_csv, str(path), mode)
        else:
            got = read_outcome(read_columns, io.StringIO(text), mode)
            want = read_outcome(reference_read_csv, io.StringIO(text), mode)
        assert first_difference(got, want) is None

    @pytest.mark.parametrize("mode", ["strict", "lax"])
    @pytest.mark.parametrize("faults", [
        [("distance_m", "ten")], [("environment", "NLoS")], [("distance_m", "0.5")],
        [("distance_m", "ten"), ("environment", "NLoS"), ("distance_m", "0.5")],
    ])
    def test_every_row_rejected(self, faults, mode):
        # 4097 rows span two chunks, and no row of either is kept
        lines = []
        for i in range(4097):
            column, cell = faults[i % len(faults)]
            lines.append(",".join(cell if h == column else PLAIN_CELLS[h] for h in CSV_COLUMNS))
        text = HEADER + "\n" + "\n".join(lines) + "\n"
        got = read_outcome(read_columns, io.StringIO(text), mode)
        want = read_outcome(reference_read_csv, io.StringIO(text), mode)
        assert first_difference(got, want) is None
        if mode == "lax":
            assert len(read_text(text, mode)[1]) == 4097


def nested_cix_document(depth):
    """A params document whose one row nests depth CIX objects over a CI base."""
    params = '{"model": "CI", "n": 2.0, "sigma_db": 1.0}'
    for _ in range(depth):
        params = f'{{"model": "CIX", "base": {params}, "xpd_db": 1.0, "sigma_db": 1.0}}'
    return ('{"schema_version": 1, "rows": [{"model": "CIX", "freq_ghz": null, "scenario": '
            '{"environment": "NLOS", "layout": "CO", "polarization": "VH"}, '
            f'"params": {params}}}]}}')


def demo_report():
    vv = ScenarioKey(Environment.NLOS, Layout.CLOSED_PLAN, PolarizationClass.VV)
    vh = ScenarioKey(Environment.NLOS, Layout.CLOSED_PLAN, PolarizationClass.VH)
    cif = CifParams(n=3.0, b=0.20, f0_ghz=50.0, sigma_db=10.9)
    rows = (
        FitRow("CI", vv, CiParams(1.1, 0.7), freq_ghz=28.0, n_samples=12, source="t"),
        FitRow("FI", vv, FiParams(63.6, 0.9, 0.6), freq_ghz=28.0, n_samples=12, source="t"),
        FitRow("ABG", vv, AbgParams(2.8, 6.2, 3.8, 10.8), source="t"),
        FitRow("CIF", vv, cif, source="t"),
        FitRow("CIFX", vh, XpdExtension(cif, 13.5, 10.1), source="t"),
    )
    return FitReport(rows)


class TestParamsJson:
    def test_flat_keys_for_plain_families(self):
        import json

        doc = json.loads(dumps_params(demo_report()))
        assert doc["schema_version"] == 1
        first = doc["rows"][0]["params"]
        assert list(first.keys()) == ["model", "n", "sigma_db", "d0_m"]
        assert first["model"] == "CI"
        assert first["n"] == 1.1
        assert first["sigma_db"] == 0.7

    def test_extension_nests_base(self):
        import json

        doc = json.loads(dumps_params(demo_report()))
        ext = doc["rows"][4]["params"]
        assert ext["model"] == "CIFX"
        assert ext["xpd_db"] == 13.5
        assert ext["base"]["model"] == "CIF"
        assert ext["base"]["b"] == 0.20

    def test_round_trip_preserves_parameters(self):
        report = demo_report()
        text = dumps_params(report)
        back = read_params_json(io.StringIO(text))
        assert back == report

    def test_write_read_write_is_byte_identical(self):
        report = demo_report()
        first = io.StringIO()
        write_params_json(report, first)
        back = read_params_json(io.StringIO(first.getvalue()))
        second = io.StringIO()
        write_params_json(back, second)
        assert second.getvalue() == first.getvalue()

    def test_rejects_unknown_schema_version(self):
        text = dumps_params(demo_report()).replace('"schema_version": 1',
                                                   '"schema_version": 99')
        with pytest.raises(DataError, match="schema_version"):
            read_params_json(io.StringIO(text))

    def test_rejects_non_report_document(self):
        with pytest.raises(DataError):
            read_params_json(io.StringIO("[1, 2, 3]"))
        with pytest.raises(DataError, match="JSON"):
            read_params_json(io.StringIO("not json"))

    @pytest.mark.parametrize("text, kind", [
        ("[" * 100_000 + "]" * 100_000, "array"),
        (nested_cix_document(990), "object"),
    ], ids=["brackets", "cix-chain-990"])
    def test_too_deep_nesting_is_invalid_json(self, text, kind):
        with pytest.raises(DataError, match=r"^read_params_json: invalid JSON: maximum recursion "
                                            rf"depth exceeded while decoding a JSON {kind}"):
            read_params_json(io.StringIO(text))

    @pytest.mark.parametrize("depth", [400, 900])
    def test_a_shallower_cix_chain_is_a_bad_parameter_object(self, depth):
        with pytest.raises(DataError) as info:
            read_params_json(io.StringIO(nested_cix_document(depth)))
        assert str(info.value) == ("read_params_json: bad parameter object: "
                                   "XPD extension requires a CI, ABG, or CIF base")

    def test_bad_parameter_message_is_prefixed_once(self):
        text = dumps_params(demo_report()).replace('"sigma_db": 0.7', '"sigma_db": -0.7')
        with pytest.raises(DataError) as info:
            read_params_json(io.StringIO(text))
        assert str(info.value) == ("read_params_json: bad parameter object: "
                                   "sigma_db must be finite and non-negative")

    def test_xpd_base_message_is_prefixed_once(self):
        doc = json.loads(dumps_params(demo_report()))
        doc["rows"][4]["params"]["base"]["n"] = float("-inf")
        with pytest.raises(DataError) as info:
            read_params_json(io.StringIO(json.dumps(doc)))
        assert str(info.value) == ("read_params_json: bad parameter object: "
                                   "CIF parameter n must be a finite number, got -inf")

    def test_row_model_must_match_its_params(self):
        doc = json.loads(dumps_params(demo_report()))
        doc["rows"][1]["model"] = "CI"
        with pytest.raises(DataError) as info:
            read_params_json(io.StringIO(json.dumps(doc)))
        assert str(info.value) == ("read_params_json: bad report row: model 'CI' "
                                   "does not match its params' model 'FI'")
        doc["rows"][3]["source"] = 5  # a later row's own fault is named first
        with pytest.raises(DataError) as info:
            read_params_json(io.StringIO(json.dumps(doc)))
        assert str(info.value) == "read_params_json: bad report row: source must be a string, got 5"

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "params.json"
        write_params_json(demo_report(), str(path))
        assert read_params_json(str(path)) == demo_report()

    @pytest.mark.parametrize("dest", ["path", "stream"])
    def test_unserializable_report_leaves_dest_as_it_was(self, tmp_path, dest):
        bad = FitReport(demo_report().rows + (replace(demo_report().rows[0], params=object()),))
        path = tmp_path / "params.json"
        path.write_text("previous contents")
        stream = io.StringIO("previous contents")
        with pytest.raises(DataError) as info:
            write_params_json(bad, str(path) if dest == "path" else stream)
        assert str(info.value) == "write_params_json: unknown parameter type object"
        assert path.read_text() == "previous contents"
        assert stream.getvalue() == "previous contents"

    @pytest.mark.parametrize("rows, kind", [("5", "int"), ("null", "NoneType"),
                                            ('{"a": 1}', "dict"), ('""', "str")])
    def test_rows_must_be_a_list(self, rows, kind):
        text = '{"schema_version": 1, "rows": %s}' % rows
        with pytest.raises(DataError) as info:
            read_params_json(io.StringIO(text))
        assert str(info.value) == f"read_params_json: rows must be a list, got {kind}"

    @pytest.mark.parametrize("field, value, message", [
        ("n_samples", "abc", "n_samples must be null or a non-negative integer, got 'abc'"),
        ("n_samples", -1, "n_samples must be null or a non-negative integer, got -1"),
        ("n_samples", 12.0, "n_samples must be null or a non-negative integer, got 12.0"),
        ("n_samples", True, "n_samples must be null or a non-negative integer, got True"),
        ("source", 5, "source must be a string, got 5"),
        ("source", None, "source must be a string, got None"),
    ])
    def test_row_metadata_types_are_checked(self, field, value, message):
        doc = json.loads(dumps_params(demo_report()))
        doc["rows"][1][field] = value
        with pytest.raises(DataError) as info:
            read_params_json(io.StringIO(json.dumps(doc)))
        assert str(info.value) == f"read_params_json: bad report row: {message}"

    def test_null_sample_count_and_absent_source_load(self):
        doc = json.loads(dumps_params(demo_report()))
        doc["rows"][0]["n_samples"] = None
        del doc["rows"][0]["source"]
        row = read_params_json(io.StringIO(json.dumps(doc))).rows[0]
        assert (row.n_samples, row.source) == (None, "")


# ------------------------------------- the params JSON codec, as properties

def reference_params_to_json(params):
    """A parameter record as a dict, its JSON fields named family by family."""
    if isinstance(params, CiParams):
        return {"model": "CI", "n": params.ple_n, "sigma_db": params.sigma_db,
                "d0_m": params.d0_m}
    if isinstance(params, FiParams):
        return {"model": "FI", "alpha_db": params.alpha_db, "beta": params.beta_slope,
                "sigma_db": params.sigma_db}
    if isinstance(params, AbgParams):
        return {"model": "ABG", "alpha": params.alpha_dist, "beta_db": params.beta_db,
                "gamma": params.gamma_freq, "sigma_db": params.sigma_db, "d0_m": params.d0_m}
    if isinstance(params, CifParams):
        return {"model": "CIF", "n": params.n, "b": params.b, "f0_ghz": params.f0_ghz,
                "sigma_db": params.sigma_db, "d0_m": params.d0_m}
    assert isinstance(params, XpdExtension)
    return {"model": params.family, "base": reference_params_to_json(params.base),
            "xpd_db": params.xpd_db, "sigma_db": params.sigma_db}


def reference_row_to_json(row):
    return {
        "model": row.family,
        "freq_ghz": row.freq_ghz,
        "scenario": {
            "environment": row.scenario.environment.value,
            "layout": row.scenario.layout.value,
            "polarization": row.scenario.polarization_class.value,
        },
        "n_samples": row.n_samples,
        "source": row.source,
        "params": reference_params_to_json(row.params),
    }


def reference_dumps_params(report):
    """dumps_params as the json module writes the document, the reference
    for the direct writer."""
    doc = {"schema_version": 1, "rows": [reference_row_to_json(r) for r in report.rows]}
    return json.dumps(doc, indent=2) + "\n"


def reference_params_from_fields(obj, what="params"):
    """_params_from_fields with its per-field closure, the reference for the
    table-driven reader."""
    try:
        if not isinstance(obj, dict):
            raise TypeError(f"{what} must be a JSON object, got {type(obj).__name__}")
        model = obj["model"]

        def num(name, default=None):
            value = obj[name] if default is None else obj.get(name, default)
            return _finite(value, f"{model} parameter {name}")

        if model == "CI":
            return CiParams(num("n"), num("sigma_db"), num("d0_m", 1.0))
        if model == "FI":
            return FiParams(num("alpha_db"), num("beta"), num("sigma_db"))
        if model == "ABG":
            return AbgParams(num("alpha"), num("beta_db"), num("gamma"),
                             num("sigma_db"), num("d0_m", 1.0))
        if model == "CIF":
            return CifParams(num("n"), num("b"), num("f0_ghz"),
                             num("sigma_db"), num("d0_m", 1.0))
        if model in ("CIX", "ABGX", "CIFX"):
            base = reference_params_from_fields(obj["base"], f"{model} parameter base")
            return XpdExtension(base, num("xpd_db"), num("sigma_db"))
    except DataError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"read_params_json: bad parameter object: {exc}") from None
    raise DataError(f"read_params_json: unknown model {obj.get('model')!r}")


def reference_row_from_json(obj):
    """_row_from_json without the ScenarioKey memo and the type checks of
    n_samples and source."""
    try:
        if not isinstance(obj, dict):
            raise TypeError(f"row must be a JSON object, got {type(obj).__name__}")
        sc = obj["scenario"]
        if not isinstance(sc, dict):
            raise TypeError(f"scenario must be a JSON object, got {type(sc).__name__}")
        scenario = ScenarioKey(
            _enum_of(sc["environment"], Environment, "environment"),
            _enum_of(sc["layout"], Layout, "layout"),
            _enum_of(sc["polarization"], PolarizationClass, "polarization class"),
        )
        family, freq = obj["model"], obj.get("freq_ghz")
        if not isinstance(family, str):
            raise TypeError(f"model must be a string, got {family!r}")
        return FitRow(
            family=family,
            scenario=scenario,
            params=reference_params_from_fields(obj["params"]),
            freq_ghz=None if freq is None else _finite(freq, "freq_ghz"),
            n_samples=obj.get("n_samples"),
            source=obj.get("source", ""),
        )
    except DataError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"read_params_json: bad report row: {exc}") from None


def reference_read_rows(rows):
    """read_params_json's rows: each row read, then every row's model
    checked against its params' model."""
    report = FitReport(tuple(map(reference_row_from_json, rows)))
    for row in report.rows:
        if row.family != row.params.family:
            raise DataError(f"read_params_json: bad report row: model {row.family!r} "
                            f"does not match its params' model {row.params.family!r}")
    return report


def params_strategy(number):
    """Parameter records of every family, XPD extensions over each base."""
    sigma = st.floats(0.0, 30.0) | st.just(0)
    ci = st.builds(CiParams, number, sigma, st.sampled_from([1.0, 1]))
    abg = st.builds(AbgParams, number, number, number, sigma)
    cif = st.builds(CifParams, number, number, st.floats(0.5, 100.0), sigma)
    fi = st.builds(FiParams, number, number, sigma)
    xpd = st.builds(XpdExtension, ci | abg | cif, number, sigma)
    return ci | fi | abg | cif | xpd


def reports(number, freq, source):
    scenario = st.builds(ScenarioKey, st.sampled_from(list(Environment)),
                         st.sampled_from(list(Layout)), st.sampled_from(list(PolarizationClass)))
    row = st.builds(lambda params, *rest: FitRow(params.family, *rest[:1], params, *rest[1:]),
                    params_strategy(number), scenario, freq,
                    st.none() | st.integers(0, 10**6), source)
    return st.lists(row, max_size=6).map(lambda rows: FitReport(tuple(rows)))


ANY_FLOAT = (st.floats() | st.sampled_from([0.0, -0.0, float("nan"), float("inf"),
                                             float("-inf"), 5e-324])
             | st.floats(-1e6, 1e6).map(np.float64) | st.integers(-10**20, 10**20))
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6)
SOURCES = st.text() | st.sampled_from(["", "data.csv[LOS:CO:VV]@28GHz", "é \x00\"\\\n",
                                        "\ud800", "naïve\tπ"])


class TestParamsCodec:
    @settings(max_examples=300, deadline=None)
    # the constructors refuse a non-finite coefficient; freq_ghz keeps NaN and infinities
    @given(report=reports(ANY_FLOAT.filter(math.isfinite), st.none() | ANY_FLOAT, SOURCES))
    def test_writer_matches_json_dumps(self, report):
        assert dumps_params(report) == reference_dumps_params(report)

    @settings(max_examples=300, deadline=None)
    @given(report=reports(FINITE, st.none() | FINITE, SOURCES))
    def test_write_read_write_is_byte_identical(self, report):
        text = dumps_params(report)
        back = read_params_json(io.StringIO(text))
        assert dumps_params(back) == text
        assert back == report

    @settings(max_examples=500, deadline=None)
    @given(report=reports(FINITE, st.none() | FINITE, st.text(max_size=3)), data=st.data())
    def test_reader_errors_match_the_reference(self, report, data):
        doc = json.loads(dumps_params(report))
        for _ in range(data.draw(st.integers(0, 3))):
            if not doc["rows"]:
                break
            row = data.draw(st.sampled_from(doc["rows"]))
            params = row.get("params")
            nested = [row.get("scenario"), params,
                      params.get("base") if isinstance(params, dict) else None]
            target = data.draw(st.sampled_from(
                [row, row, *(obj for obj in nested if isinstance(obj, dict))]))
            key = data.draw(st.sampled_from(
                [k for k in target if k not in ("n_samples", "source")] or ["model"]))
            value = data.draw(st.sampled_from([
                "delete", None, True, 5, -1.5, "x", "VV", "CI", "CIX", "LOS", [], {},
                float("nan"), float("inf"), {"model": "CI", "n": 2.0, "sigma_db": 1.0}]))
            if value == "delete":
                target.pop(key, None)
            else:
                target[key] = value
        text = json.dumps(doc)

        def outcome(read):
            try:
                return repr(read())
            except DataError as exc:
                return str(exc)

        got = outcome(lambda: read_params_json(io.StringIO(text)))
        want = outcome(lambda: reference_read_rows(doc["rows"]))
        assert got == want
