r"""CSV dataset exchange and JSON parameter serialization.

The CSV schema is fixed; writers emit its columns in this order:

    freq_ghz,distance_m,path_loss_db,polarization,environment,layout,tx_id,rx_id

with '.' as the decimal point, UTF-8 text, and a mandatory header row. A
file opened by path may start with a byte order mark. Readers accept the
columns in any order but reject a header that names one of them twice.
tx_id and rx_id are optional free-form labels and may be empty. Strict
ingestion aborts on the first bad row or unknown column; lax ingestion
skips bad rows (collecting a report) and ignores unknown columns. A field
over the csv module's 131072-character limit, and input that is not UTF-8,
are a DataError in both modes.

Readers split a block of lines that all have the header's width with
str.split while the lines hold no double quote, carriage return or NUL
and none is over the field limit; any other block goes through
csv.reader, and from the first block with one of those on, so does the
rest of the input. Either way the columns, skipped rows and errors are
those csv.reader gives.

Writers give each float as its repr (the shortest text that reads back
exactly), quote a label only where csv minimal quoting needs it (a comma,
a double quote, \r or \n) and end every line in \n. A shared column's
cell is made once per file, not once per row.

Parameters travel as JSON with a schema_version field, fixed key order,
and repr-roundtrip floats, so write -> read -> write is byte-identical.
dumps_params writes the text itself, byte for byte what json.dumps(doc,
indent=2) gives for the document.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from functools import partial
from itertools import chain, groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Union

import numpy as np

from .errors import DataError
from .models import _FLOAT_MAX, PARAMS_CLASSES, XPD_BASE_FAMILIES, XpdExtension
from .report import FitReport, FitRow
from .taxonomy import (
    CODE,
    Dataset,
    Environment,
    Layout,
    MIN_DISTANCE_M,
    Polarization,
    PolarizationClass,
    ScenarioKey,
    sample_violations,
)

CSV_COLUMNS = (
    "freq_ghz",
    "distance_m",
    "path_loss_db",
    "polarization",
    "environment",
    "layout",
    "tx_id",
    "rx_id",
)

PARAMS_SCHEMA_VERSION = 1

Source = Union[str, Path, io.TextIOBase]


class SkippedRow(NamedTuple):
    """One rejected data row: 1-based row index (header excluded) and why."""

    row: int
    reason: str


@contextlib.contextmanager
def _text_stream(source: Source, mode: str) -> Iterator[io.TextIOBase]:
    """A path opened as UTF-8 text with newline="" ("r" or "w") and closed on
    exit; a caller's open stream is passed through and left open."""
    if isinstance(source, (str, Path)):
        # utf-8-sig reads a file with or without a byte order mark alike
        encoding = "utf-8-sig" if mode == "r" else "utf-8"
        with open(source, mode, encoding=encoding, newline="") as stream:
            yield stream
    else:
        yield source


def write_text(text: str, dest: Source) -> None:
    """Write text to a path (created or truncated) or to an open stream."""
    with _text_stream(dest, "w") as stream:
        stream.write(text)


def _unknown_token(token: str, enum_cls, what: str) -> str:
    return f"unknown {what} token {token!r} (expected {'/'.join(m.value for m in enum_cls)})"


def _enum_of(token: str, enum_cls, what: str):
    try:
        return enum_cls(token)
    except ValueError:
        raise ValueError(_unknown_token(token, enum_cls, what)) from None


# lines or rows parsed per step: large enough for numpy to pay off, small
# enough that the file is never held as cells
_CHUNK_ROWS = 4096

_NUMERIC_COLUMNS = ("freq_ghz", "distance_m", "path_loss_db")
_TOKEN_COLUMNS = (
    ("polarization", Polarization),
    ("environment", Environment),
    ("layout", Layout),
)


def _floats(cells) -> tuple[np.ndarray, dict[int, str]]:
    """Parse cells with float(); a rejected cell reads as NaN and maps to float()'s error text."""
    n = len(cells)
    try:
        return np.fromiter(map(float, cells), float, n), {}
    except ValueError:
        values, errors = np.empty(n), {}
        for i, cell in enumerate(cells):
            try:
                values[i] = float(cell)
            except ValueError as exc:
                values[i], errors[i] = np.nan, str(exc)
        return values, errors


def _mapped(cells, memo: dict, convert, dtype) -> np.ndarray:
    """Cells through convert, called once per distinct cell and kept in memo."""
    try:
        return np.fromiter(map(memo.__getitem__, cells), dtype, len(cells))
    except KeyError:
        for cell in set(cells).difference(memo):
            memo[cell] = convert(cell)
        return np.fromiter(map(memo.__getitem__, cells), dtype, len(cells))


def _code_of(enum_cls):
    """A token cell's member code, -1 if it names no member."""
    codes = {m.value: CODE[m] for m in enum_cls}
    return lambda cell: codes.get(cell.strip(), -1)


def _label(cell: str) -> Optional[str]:
    """A label cell as a stripped string, None if empty."""
    return cell.strip() or None


def _blank(raw: list[str]) -> bool:
    return not any(cell.strip() for cell in raw)


def _reason(j: int, raw: list[str], at: dict[str, int], floats, codes, violations) -> str:
    """Why _parse_chunk rejects row j, built from its check results: the
    first unparseable number (freq, distance, path loss), else the first
    unknown token (polarization, environment, layout), else every sample
    rule the row breaks, joined by "; "."""
    for _, errors in floats:
        if j in errors:
            return f"unparseable numeric: {errors[j]}"
    for (column, enum_cls), code in zip(_TOKEN_COLUMNS, codes):
        if code[j] < 0:
            return _unknown_token(raw[at[column]].strip(), enum_cls, column)
    return "; ".join(violations[j])


def _parse_chunk(cells: list, numbers: np.ndarray, rejected: list[SkippedRow],
                 at: dict[str, int], memos: dict):
    """Parse full-width data rows given as columns, one per header field.

    numbers holds each row's 1-based row number and rejected the rows
    already turned away for their field count. Returns the columns of the
    rows that pass every check, and every rejected row as SkippedRow in row
    order. Blank rows are dropped silently. Each check runs once, vectorized
    over the chunk, and _reason names a rejected row from its results.
    """
    floats = [_floats(cells[at[column]]) for column in _NUMERIC_COLUMNS]
    freq, dist, pl = (values for values, _ in floats)
    codes = [_mapped(cells[at[column]], memos.setdefault(column, {}), _code_of(enum_cls), np.int8)
             for column, enum_cls in _TOKEN_COLUMNS]
    violations = sample_violations(freq, dist, pl)
    bad = np.logical_or.reduce([c < 0 for c in codes])
    bad[list(violations)] = True  # an unparseable number reads as NaN, which breaks a rule
    found = []
    for j in np.flatnonzero(bad).tolist():
        raw = [column[j] for column in cells]
        if not _blank(raw):
            found.append(SkippedRow(int(numbers[j]), _reason(j, raw, at, floats, codes, violations)))
    keep = ~bad
    n = int(keep.sum())
    labels = memos.setdefault("labels", {})
    ids = [_mapped(cells[at[c]], labels, _label, object)[keep] if c in at
           else np.full(n, None, object) for c in ("tx_id", "rx_id")]
    columns = (freq[keep], dist[keep], pl[keep], *(c[keep] for c in codes), *ids)
    return columns, sorted(rejected + found)


def _transposed(rows: list[list[str]], first: int, width: int):
    """The full-width rows among rows numbered from first, as _parse_chunk takes them.

    A non-blank row of another width is rejected here; a blank one is dropped.
    """
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    rejected = [SkippedRow(first + i, f"expected {width} fields, got {lengths[i]}")
                for i in np.flatnonzero(lengths != width).tolist() if not _blank(rows[i])]
    position = np.flatnonzero(lengths == width)
    if position.size < len(rows):
        rows = [rows[i] for i in position.tolist()]
    return list(zip(*rows)) or [()] * width, first + position, rejected


# every byte but the field and line separators, which are never part of a
# multi-byte UTF-8 character
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")


def _split_block(lines: list[str], first: int, width: int):
    """The block of lines numbered from first as _parse_chunk takes them, or None.

    None means the block holds a double quote, carriage return or NUL
    (which csv.reader rejects before Python 3.11) or a line longer than the
    csv field limit, so it and the rest of the stream need csv.reader.
    csv.reader would split any other block at its commas, so one whose
    lines all have `width` fields is split with str.split and read off by
    stride, without per-row lists; one with blank, short or long lines goes
    through csv.reader on its own.
    """
    text = "".join(lines)
    limit = csv.field_size_limit()
    if ('"' in text or "\r" in text or "\0" in text
            or len(text) > limit and max(map(len, lines)) > limit):
        return None
    n = len(lines)
    # a caller's text stream may hold lone surrogates, which csv.reader
    # takes like any other character
    separators = text.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATORS)
    if separators != (b"," * (width - 1) + b"\n") * n:
        return _transposed(list(csv.reader(lines)), first, width)
    cells = text[:-1].replace("\n", ",").split(",")
    return [cells[j::width] for j in range(width)], np.arange(first, first + n), []


def _chunks(stream, width: int):
    """Yield the data rows left in stream as _parse_chunk takes them, a block at a time.

    A block is the next _CHUNK_ROWS lines as the stream splits them, read
    with _split_block until one needs csv.reader; from there on, that
    block and the rest of the stream go through csv.reader, since a quoted
    field may span lines. A csv.Error (such as an over-limit field) ends
    the rows with the ones read before it, then raises DataError naming
    the row it stopped at.
    """
    first = 1
    while lines := list(islice(stream, _CHUNK_ROWS)):
        chunk = _split_block(lines, first, width)
        if chunk is None:
            break
        first += len(lines)
        del lines
        yield chunk
        # with the caller's reference gone, this block's cells are freed
        # before the next block is read
        del chunk
    reader = csv.reader(chain(lines, stream))
    while True:
        rows: list = []
        try:
            # extend keeps the rows read before the error, which number the bad row
            rows.extend(islice(reader, _CHUNK_ROWS))
        except csv.Error as exc:
            yield _transposed(rows, first, width)
            raise DataError(f"read_csv: row {first + len(rows)}: {exc}") from None
        if not rows:
            return
        yield _transposed(rows, first, width)
        first += len(rows)


def _not_utf8(where: str, exc: UnicodeDecodeError) -> DataError:
    bad = " ".join(f"0x{b:02x}" for b in exc.object[exc.start:exc.end])
    return DataError(f"{where}: input is not UTF-8 text ({exc.reason}: {bad})")


def read_csv(source: Source, mode: str = "strict") -> tuple[Dataset, list[SkippedRow]]:
    """Read a sample dataset from a path or an open text stream.

    Returns (dataset, skipped): in strict mode skipped is always empty
    because the first bad row raises DataError; in lax mode bad rows are
    collected there instead. A header-only file gives an empty dataset.
    """
    if mode not in ("strict", "lax"):
        raise DataError(f"read_csv: unknown mode {mode!r}")
    try:
        with _text_stream(source, "r") as stream:
            try:
                # the reader pulls only the header's lines from the stream
                header = next(csv.reader(stream))
            except StopIteration:
                raise DataError("read_csv: missing header row") from None
            except csv.Error as exc:
                raise DataError(f"read_csv: header row: {exc}") from None
            header = [h.strip() for h in header]
            duplicate = [h for i, h in enumerate(header) if h in CSV_COLUMNS and h in header[:i]]
            unknown = [h for h in header if h not in CSV_COLUMNS]
            missing = [c for c in CSV_COLUMNS[:6] if c not in header]
            if duplicate:
                raise DataError(f"read_csv: duplicate column(s) {duplicate}")
            if unknown and mode == "strict":
                raise DataError(f"read_csv: unknown column(s) {unknown}")
            if missing:
                raise DataError(f"read_csv: missing required column(s) {missing}")
            at = {name: header.index(name) for name in CSV_COLUMNS if name in header}
            parts = []
            skipped: list[SkippedRow] = []
            memos: dict = {}
            for chunk in _chunks(stream, len(header)):
                columns, rejected = _parse_chunk(*chunk, at, memos)
                if rejected and mode == "strict":
                    raise DataError(f"read_csv: row {rejected[0].row}: {rejected[0].reason}")
                skipped.extend(rejected)
                parts.append(columns)
                # drop this block's cells before _chunks reads the next block
                del chunk
            name = str(getattr(stream, "name", None) or "<stream>")
            if not parts:
                return Dataset((), provenance=name), skipped
            columns = (np.concatenate(c) for c in zip(*parts))
            return Dataset.from_columns(*columns, provenance=name), skipped
    except UnicodeDecodeError as exc:
        raise _not_utf8("read_csv", exc) from None


# rows joined per write: enough to amortize the write call, few enough that
# one slice's cell strings stay small next to the dataset
_WRITE_ROWS = 1024


def _label_cells(labels: list, memo: dict) -> Iterator[str]:
    r"""Label cells quoted exactly as csv.writer quotes them, memoized per file.

    Each distinct label is written once as the second field of a two-field
    row, so an empty label is not the lone-empty-field case, and the leading
    comma and the line end are dropped. The \r\n line end makes csv quote a
    label holding either character: with \n alone, Python before 3.13 leaves
    a lone \r unquoted and the file does not read back.
    """
    for label in set(labels).difference(memo):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(("", label))
        memo[label] = buffer.getvalue()[1:-2]
    return map(memo.__getitem__, labels)


def write_csv(dataset: Dataset, dest: Source) -> None:
    """Write a dataset in the fixed schema; floats keep full precision.

    A shared column's cell (stride 0) is made once per file. Adjacent ones fuse
    into a line prefix, a suffix, or one cell repeated between varying columns."""
    tokens = [[m.value for m in enum_cls] for _, enum_cls in _TOKEN_COLUMNS]
    labels: dict = {}
    formats = (*(partial(map, repr),) * 3, *(partial(map, t.__getitem__) for t in tokens),
               *(partial(_label_cells, memo=labels),) * 2)
    columns = (dataset.freq, dataset.dist, dataset.pl, dataset.pol, dataset.env,
               dataset.layout, dataset.tx_id, dataset.rx_id)
    cells = [next(f(c[:1].tolist())) if c.size and c.strides == (0,) else (f, c)
             for f, c in zip(formats, columns)]
    runs: list = []  # a str is a run of shared cells, a pair a varying column
    for shared, group in groupby(cells, key=lambda cell: isinstance(cell, str)):
        runs.extend([",".join(group)] if shared else group)
    head = runs.pop(0) + "," if isinstance(runs[0], str) and len(runs) > 1 else ""
    tail = "," + runs.pop() if isinstance(runs[-1], str) and len(runs) > 1 else ""
    between = tail + "\n" + head
    with _text_stream(dest, "w") as stream:
        stream.write(",".join(CSV_COLUMNS) + "\n")
        for start in range(0, len(dataset), _WRITE_ROWS):
            part, size = slice(start, start + _WRITE_ROWS), min(_WRITE_ROWS, len(dataset) - start)
            cells = [repeat(run, size) if isinstance(run, str) else run[0](run[1][part].tolist())
                     for run in runs]
            # one f-string, so no partial copy of the slice's text is held beside it
            stream.write(f"{head}{between.join(map(','.join, zip(*cells)))}{tail}\n")


def _finite(value, *what: str):
    """A JSON number that is finite; NaN, Infinity, strings and booleans raise."""
    if type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return value
    raise ValueError(f"{' '.join(what)} must be a finite number, got {value!r}")


def _object(value, *what: str) -> dict:
    """A JSON object; any other JSON value raises a TypeError named by what."""
    if isinstance(value, dict):
        return value
    raise TypeError(f"{' '.join(what)} must be a JSON object, got {type(value).__name__}")


_CLASSES = {**PARAMS_CLASSES, **{base + "X": XpdExtension for base in XPD_BASE_FAMILIES}}


def _params_from_fields(obj: dict, *what: str):
    """A parameter record from its JSON object, named by what; an absent d0_m reads as 1 m."""
    try:
        model = _object(obj, *what)["model"]
        if isinstance(model, str) and model in _CLASSES:
            cls, values = _CLASSES[model], []
            for name in cls._json_names:
                value = obj.get(name, MIN_DISTANCE_M) if name == "d0_m" else obj[name]
                read = _params_from_fields if name == "base" else _finite
                values.append(read(value, model, "parameter", name))
            return cls(*values)
    except DataError:  # an XPD base's own error, already prefixed
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"read_params_json: bad parameter object: {exc}") from None
    raise DataError(f"read_params_json: unknown model {obj.get('model')!r}")


def _row_from_json(obj: dict, scenarios: dict) -> FitRow:
    """One report row; scenarios memoizes the ScenarioKey of each token triple."""
    try:
        try:
            sc = obj["scenario"]
            scenario = scenarios[sc["environment"], sc["layout"], sc["polarization"]]
        except (KeyError, TypeError):  # first seen, or malformed: named below in field order
            sc = _object(_object(obj, "row")["scenario"], "scenario")
            scenario = ScenarioKey(
                _enum_of(sc["environment"], Environment, "environment"),
                _enum_of(sc["layout"], Layout, "layout"),
                _enum_of(sc["polarization"], PolarizationClass, "polarization class"),
            )
            scenarios[sc["environment"], sc["layout"], sc["polarization"]] = scenario
        family, freq = obj["model"], obj.get("freq_ghz")
        if not isinstance(family, str):
            raise TypeError(f"model must be a string, got {family!r}")
        params = _params_from_fields(obj["params"], "params")
        freq_ghz = None if freq is None else _finite(freq, "freq_ghz")
        n_samples, source = obj.get("n_samples"), obj.get("source", "")
        if n_samples is not None and (type(n_samples) is not int or n_samples < 0):
            raise ValueError(f"n_samples must be null or a non-negative integer, "
                             f"got {n_samples!r}")
        if not isinstance(source, str):
            raise TypeError(f"source must be a string, got {source!r}")
        return FitRow(family, scenario, params, freq_ghz, n_samples, source)
    except DataError:  # _params_from_fields' error, already prefixed
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"read_params_json: bad report row: {exc}") from None


def _json_value(value) -> str:
    """A scalar as json.dumps writes it: float.__repr__, NaN and Infinity as
    json spells them, strings ASCII-escaped, a plain int as int.__repr__;
    json.dumps itself writes the rest (null, true, false, int subclasses)
    and raises its TypeError for the others."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    return "null" if value is None else json.dumps(value)


def _params_json(params, indent: str) -> str:
    """A parameter record as json.dumps(indent=2) lays it out at indent: its
    model, then its record in field order, an XPD base nested one deeper."""
    if not isinstance(params, _CLASSES.get(getattr(params, "family", None), ())):
        raise DataError(f"write_params_json: unknown parameter type {type(params).__name__}")
    inner = indent + "  "
    return f'{{\n{inner}"model": {_json_value(params.family)}' + "".join(
        f',\n{inner}"{name}": '
        + (_params_json(value, inner) if name == "base" else _json_value(value))
        for _, name, value in params.record()
    ) + f"\n{indent}}}"


def _row_json(row: FitRow) -> str:
    """One report row as json.dumps(indent=2) lays it out in the rows list."""
    scenario = row.scenario
    return (f'    {{\n      "model": {_json_value(row.family)},\n'
            f'      "freq_ghz": {_json_value(row.freq_ghz)},\n'
            f'      "scenario": {{\n'
            f'        "environment": {_json_value(scenario.environment.value)},\n'
            f'        "layout": {_json_value(scenario.layout.value)},\n'
            f'        "polarization": {_json_value(scenario.polarization_class.value)}\n'
            f'      }},\n'
            f'      "n_samples": {_json_value(row.n_samples)},\n'
            f'      "source": {_json_value(row.source)},\n'
            f'      "params": {_params_json(row.params, "      ")}\n'
            f'    }}')


def dumps_params(report: FitReport) -> str:
    """Serialize a report with stable key order and repr-exact floats."""
    items = ",\n".join(map(_row_json, report.rows))
    listed = f"[\n{items}\n  ]" if report.rows else "[]"
    return f'{{\n  "schema_version": {PARAMS_SCHEMA_VERSION},\n  "rows": {listed}\n}}\n'


def write_params_json(report: FitReport, dest: Source) -> None:
    """Write dumps_params' text; dest is opened only once it has been built,
    so a report that cannot be serialized leaves dest as it was."""
    write_text(dumps_params(report), dest)


def read_params_json(source: Source) -> FitReport:
    """Read a report back; floats survive the round trip unchanged."""
    with _text_stream(source, "r") as stream:
        try:
            doc = json.load(stream)
        except UnicodeDecodeError as exc:
            raise _not_utf8("read_params_json", exc) from None
        # a JSONDecodeError, an integer over int's digit limit, or nesting too deep
        except (ValueError, RecursionError) as exc:
            raise DataError(f"read_params_json: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "rows" not in doc:
        raise DataError("read_params_json: not a parameter report document")
    version = doc.get("schema_version")
    if version != PARAMS_SCHEMA_VERSION:
        raise DataError(
            f"read_params_json: unsupported schema_version {version!r} "
            f"(expected {PARAMS_SCHEMA_VERSION})"
        )
    rows, scenarios = doc["rows"], {}
    if not isinstance(rows, list):
        raise DataError(f"read_params_json: rows must be a list, got {type(rows).__name__}")
    report = FitReport(tuple(_row_from_json(r, scenarios) for r in rows))
    for row in report.rows:  # after every row's own checks, whose errors come first
        if row.family != row.params.family:
            raise DataError(f"read_params_json: bad report row: model {row.family!r} "
                            f"does not match its params' model {row.params.family!r}")
    return report
