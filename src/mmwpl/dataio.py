r"""CSV dataset exchange and JSON parameter serialization.

The CSV schema is fixed; writers emit its columns in this order:

    freq_ghz,distance_m,path_loss_db,polarization,environment,layout,tx_id,rx_id

with '.' as the decimal point, UTF-8 text, and a mandatory header row. A
file opened by path may start with a byte order mark. Readers accept the
columns in any order but reject a header that names one of them twice.
tx_id and rx_id are optional free-form labels and may be empty. Strict
ingestion aborts on the first bad row or unknown column; lax ingestion
skips bad rows (collecting a report) and ignores unknown columns. A field
over the csv module's 131072-character limit is a DataError in both modes.

Writers give each float as its repr (the shortest text that reads back
exactly), quote a label only where csv minimal quoting needs it (a comma,
a double quote, \r or \n) and end every line in \n.

Parameters travel as JSON with a schema_version field, fixed key order,
and repr-roundtrip floats, so write -> read -> write is byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import islice
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Union

import numpy as np

from .errors import DataError
from .models import AbgParams, CifParams, CiParams, FiParams, XpdExtension
from .report import FitReport, FitRow
from .taxonomy import (
    ENVIRONMENTS,
    LAYOUTS,
    POLARIZATIONS,
    Dataset,
    Environment,
    Layout,
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


def _open_text(source: Source, mode: str):
    if isinstance(source, (str, Path)):
        # utf-8-sig reads a file with or without a byte order mark alike
        encoding = "utf-8-sig" if mode == "r" else "utf-8"
        return open(source, mode, encoding=encoding, newline=""), True
    return source, False


def _enum_of(token: str, enum_cls, what: str):
    for member in enum_cls:
        if member.value == token:
            return member
    valid = "/".join(m.value for m in enum_cls)
    raise ValueError(f"unknown {what} token {token!r} (expected {valid})")


# rows parsed per step: large enough for numpy to pay off, small enough that
# the file is never held as cells
_CHUNK_ROWS = 4096

_NUMERIC_COLUMNS = ("freq_ghz", "distance_m", "path_loss_db")
_TOKEN_COLUMNS = (
    ("polarization", POLARIZATIONS),
    ("environment", ENVIRONMENTS),
    ("layout", LAYOUTS),
)


def _floats(cells) -> tuple[np.ndarray, np.ndarray]:
    """Parse cells with float(); a cell it rejects reads as NaN and is flagged."""
    n = len(cells)
    try:
        return np.fromiter(map(float, cells), float, n), np.zeros(n, bool)
    except ValueError:
        values, bad = np.empty(n), np.zeros(n, bool)
        for i, cell in enumerate(cells):
            try:
                values[i] = float(cell)
            except ValueError:
                values[i], bad[i] = np.nan, True
        return values, bad


def _codes(cells, members) -> np.ndarray:
    """Token cells as member codes, looked up once per distinct cell; -1 if unknown."""
    codes = {m.value: i for i, m in enumerate(members)}
    memo = {cell: codes.get(cell.strip(), -1) for cell in set(cells)}
    return np.fromiter(map(memo.__getitem__, cells), np.int8, len(cells))


def _labels(cells, memo: dict) -> np.ndarray:
    """Label cells as shared stripped strings (None if empty), memoized per file."""
    for cell in set(cells).difference(memo):
        memo[cell] = cell.strip() or None
    return np.fromiter(map(memo.__getitem__, cells), object, len(cells))


def _blank(raw: list[str]) -> bool:
    return not any(cell.strip() for cell in raw)


def _row_problem(raw: list[str], at: dict[str, int]) -> str:
    """Why one full-width row was rejected: its first failing check."""
    try:
        values = [float(raw[at[c]]) for c in _NUMERIC_COLUMNS]
    except ValueError as exc:
        return f"unparseable numeric: {exc}"
    for column, members in _TOKEN_COLUMNS:
        try:
            _enum_of(raw[at[column]].strip(), members, column)
        except ValueError as exc:
            return str(exc)
    return "; ".join(sample_violations(*(np.array([v]) for v in values))[0])


def _parse_chunk(rows, first: int, at: dict[str, int], width: int, labels: dict):
    """Parse consecutive data rows, the first of them numbered `first`.

    Returns the columns of the rows that pass every check, and the rejected
    rows as SkippedRow in row order. Blank rows are dropped silently. Checks
    run vectorized; only a rejected row gets its message built.
    """
    problems: dict[int, str] = {}
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    for i in np.flatnonzero(lengths != width).tolist():
        if not _blank(rows[i]):
            problems[i] = f"expected {width} fields, got {lengths[i]}"
    position = np.flatnonzero(lengths == width)
    if position.size < len(rows):
        rows = [rows[i] for i in position.tolist()]
    cells = list(zip(*rows)) or [()] * width
    floats = [_floats(cells[at[column]]) for column in _NUMERIC_COLUMNS]
    freq, dist, pl = (values for values, _ in floats)
    codes = [_codes(cells[at[column]], members) for column, members in _TOKEN_COLUMNS]
    bad = np.logical_or.reduce([unparsed for _, unparsed in floats] + [c < 0 for c in codes])
    bad[list(sample_violations(freq, dist, pl))] = True
    for j in np.flatnonzero(bad).tolist():
        if not _blank(rows[j]):
            problems[int(position[j])] = _row_problem(rows[j], at)
    keep = ~bad
    n = int(keep.sum())
    ids = [_labels(cells[at[c]], labels)[keep] if c in at else np.full(n, None, object)
           for c in ("tx_id", "rx_id")]
    columns = (freq[keep], dist[keep], pl[keep], *(c[keep] for c in codes), *ids)
    return columns, [SkippedRow(first + i, problems[i]) for i in sorted(problems)]


def _chunks(reader):
    """Yield (rows, error): the reader's rows _CHUNK_ROWS at a time.

    error is None, or the csv.Error (such as an over-limit field) raised by
    the row after `rows`, which is then the last chunk.
    """
    while True:
        rows: list = []
        try:
            # extend keeps the rows read before the error, which number the bad row
            rows.extend(islice(reader, _CHUNK_ROWS))
        except csv.Error as exc:
            yield rows, exc
            return
        if not rows:
            return
        yield rows, None


def read_csv(source: Source, mode: str = "strict") -> tuple[Dataset, list[SkippedRow]]:
    """Read a sample dataset from a path or an open text stream.

    Returns (dataset, skipped): in strict mode skipped is always empty
    because the first bad row raises DataError; in lax mode bad rows are
    collected there instead. A header-only file gives an empty dataset.
    """
    if mode not in ("strict", "lax"):
        raise DataError(f"read_csv: unknown mode {mode!r}")
    stream, owned = _open_text(source, "r")
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
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
        labels: dict = {}
        first = 1
        for rows, error in _chunks(reader):
            columns, rejected = _parse_chunk(rows, first, at, len(header), labels)
            if rejected and mode == "strict":
                raise DataError(f"read_csv: row {rejected[0].row}: {rejected[0].reason}")
            if error is not None:
                raise DataError(f"read_csv: row {first + len(rows)}: {error}") from None
            skipped.extend(rejected)
            parts.append(columns)
            first += len(rows)
        name = str(getattr(stream, "name", None) or "<stream>")
        if not parts:
            return Dataset((), provenance=name), skipped
        columns = (np.concatenate(c) for c in zip(*parts))
        return Dataset.from_columns(*columns, provenance=name), skipped
    finally:
        if owned:
            stream.close()


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
    """Write a dataset in the fixed schema; floats keep full precision."""
    tokens = [[m.value for m in members] for _, members in _TOKEN_COLUMNS]
    labels: dict = {}
    stream, owned = _open_text(dest, "w")
    try:
        stream.write(",".join(CSV_COLUMNS) + "\n")
        for start in range(0, len(dataset), _WRITE_ROWS):
            part = slice(start, start + _WRITE_ROWS)
            cells = (
                *(map(repr, c[part].tolist()) for c in (dataset.freq, dataset.dist, dataset.pl)),
                *(map(t.__getitem__, c[part].tolist())
                  for t, c in zip(tokens, (dataset.pol, dataset.env, dataset.layout))),
                *(_label_cells(c[part].tolist(), labels) for c in (dataset.tx_id, dataset.rx_id)),
            )
            stream.write("\n".join(map(",".join, zip(*cells))) + "\n")
    finally:
        if owned:
            stream.close()


def _params_fields(params) -> dict:
    if isinstance(params, CiParams):
        return {"model": "CI", "n": params.ple_n, "sigma_db": params.sigma_db,
                "d0_m": params.d0_m}
    if isinstance(params, FiParams):
        return {"model": "FI", "alpha_db": params.alpha_db, "beta": params.beta_slope,
                "sigma_db": params.sigma_db}
    if isinstance(params, AbgParams):
        return {"model": "ABG", "alpha": params.alpha_dist, "beta_db": params.beta_db,
                "gamma": params.gamma_freq, "sigma_db": params.sigma_db,
                "d0_m": params.d0_m}
    if isinstance(params, CifParams):
        return {"model": "CIF", "n": params.n, "b": params.b,
                "f0_ghz": params.f0_ghz, "sigma_db": params.sigma_db,
                "d0_m": params.d0_m}
    if isinstance(params, XpdExtension):
        return {"model": params.family, "base": _params_fields(params.base),
                "xpd_db": params.xpd_db, "sigma_db": params.sigma_db}
    raise DataError(f"write_params_json: unknown parameter type {type(params).__name__}")


def _params_from_fields(obj: dict):
    try:
        model = obj["model"]
        if model == "CI":
            return CiParams(obj["n"], obj["sigma_db"], obj.get("d0_m", 1.0))
        if model == "FI":
            return FiParams(obj["alpha_db"], obj["beta"], obj["sigma_db"])
        if model == "ABG":
            return AbgParams(obj["alpha"], obj["beta_db"], obj["gamma"],
                             obj["sigma_db"], obj.get("d0_m", 1.0))
        if model == "CIF":
            return CifParams(obj["n"], obj["b"], obj["f0_ghz"],
                             obj["sigma_db"], obj.get("d0_m", 1.0))
        if model in ("CIX", "ABGX", "CIFX"):
            return XpdExtension(_params_from_fields(obj["base"]),
                                obj["xpd_db"], obj["sigma_db"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"read_params_json: bad parameter object: {exc}") from None
    raise DataError(f"read_params_json: unknown model {obj.get('model')!r}")


def _row_to_json(row: FitRow) -> dict:
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
        "params": _params_fields(row.params),
    }


def _row_from_json(obj: dict) -> FitRow:
    try:
        sc = obj["scenario"]
        scenario = ScenarioKey(
            _enum_of(sc["environment"], Environment, "environment"),
            _enum_of(sc["layout"], Layout, "layout"),
            _enum_of(sc["polarization"], PolarizationClass, "polarization class"),
        )
        return FitRow(
            family=obj["model"],
            scenario=scenario,
            params=_params_from_fields(obj["params"]),
            freq_ghz=obj.get("freq_ghz"),
            n_samples=obj.get("n_samples"),
            source=obj.get("source", ""),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"read_params_json: bad report row: {exc}") from None


def dumps_params(report: FitReport) -> str:
    """Serialize a report with stable key order and repr-exact floats."""
    doc = {
        "schema_version": PARAMS_SCHEMA_VERSION,
        "rows": [_row_to_json(r) for r in report.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_params_json(report: FitReport, dest: Source) -> None:
    stream, owned = _open_text(dest, "w")
    try:
        stream.write(dumps_params(report))
    finally:
        if owned:
            stream.close()


def read_params_json(source: Source) -> FitReport:
    """Read a report back; floats survive the round trip unchanged."""
    stream, owned = _open_text(source, "r")
    try:
        try:
            doc = json.load(stream)
        except json.JSONDecodeError as exc:
            raise DataError(f"read_params_json: invalid JSON: {exc}") from None
    finally:
        if owned:
            stream.close()
    if not isinstance(doc, dict) or "rows" not in doc:
        raise DataError("read_params_json: not a parameter report document")
    version = doc.get("schema_version")
    if version != PARAMS_SCHEMA_VERSION:
        raise DataError(
            f"read_params_json: unsupported schema_version {version!r} "
            f"(expected {PARAMS_SCHEMA_VERSION})"
        )
    return FitReport(tuple(_row_from_json(r) for r in doc["rows"]))
