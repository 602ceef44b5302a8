"""Comparison reports and fixed-width table rendering.

A FitReport is a flat collection of fitted (or preset) model rows tagged
with their scenario, frequency class, and data source. Four render styles
mirror the published comparison layouts:

  table3  single-frequency CI next to FI, with the sigma gap column
  table4  single-frequency cross-polarized CIX
  table5  multi-frequency families per environment and layout
  table6  multi-frequency families on combined-polarization data

Numbers are rendered at the published precision: exponents, intercepts,
sigma, and XPD to one decimal, the frequency weighting b to two, f0 to
whole GHz, ties away from zero.

FitReport.find scans the rows in order; the table renderer reads each
cell's row from an index it builds once per render, keyed by plain tuples
(family, environment, layout, polarization class, freq_ghz) and holding
the first row of each key. A NaN frequency equals no frequency, so rows
at NaN match no find query and fill no table cell; 28 and 28.0 are the
same frequency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import DataError, NumericalError, UsageError
from .models import POOLED_FAMILIES
from .numformat import format_fixed
from .taxonomy import LABELS, PolarizationClass, ScenarioKey, ordered_pairs

TABLE_STYLES = ("table3", "table4", "table5", "table6")

# slack below which a negative sigma gap is attributed to rounding
DELTA_SIGMA_SLACK_DB = 0.05


class _Wildcard(enum.Enum):
    ANY_FREQ = "any frequency"


# FitReport.find's default frequency: rows of every frequency class match
ANY_FREQ = _Wildcard.ANY_FREQ


@dataclass(frozen=True)
class FitRow:
    """One fitted model tied to the data slice that produced it.

    freq_ghz is the single frequency the fit used, or None for a
    multi-frequency fit. source identifies the sample set so that rows can
    be checked for having been fitted on identical data.
    """

    family: str
    scenario: ScenarioKey
    params: object
    freq_ghz: Optional[float] = None
    n_samples: Optional[int] = None
    source: str = ""

    @property
    def sigma_db(self) -> float:
        return self.params.sigma_db


@dataclass(frozen=True)
class FitReport:
    """An ordered set of fit rows, renderable as comparison tables."""

    rows: tuple[FitRow, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.rows)

    def find(
        self,
        family: Optional[str] = None,
        scenario: Optional[ScenarioKey] = None,
        freq_ghz: Union[float, None, _Wildcard] = ANY_FREQ,
    ) -> tuple[FitRow, ...]:
        """Rows matching the given family, scenario, and frequency class, in
        row order.

        family and scenario None match anything. freq_ghz defaults to
        ANY_FREQ, which matches every row; None selects multi-frequency
        rows; any other value matches rows whose freq_ghz equals it, so a
        NaN matches no row and 28 matches 28.0.
        """
        return tuple(
            row for row in self.rows
            if (family is None or row.family == family)
            and (scenario is None or row.scenario == scenario)
            and (freq_ghz is ANY_FREQ or row.freq_ghz == freq_ghz)
        )

    def single(self, family, scenario=None, freq_ghz=ANY_FREQ) -> FitRow:
        """The unique matching row; raises UsageError when absent or ambiguous."""
        rows = self.find(family, scenario, freq_ghz)
        if not rows:
            raise UsageError(f"no {family} row matches the request")
        if len(rows) > 1:
            raise UsageError(f"{family} selection is ambiguous ({len(rows)} rows)")
        return rows[0]


def delta_sigma(ci_row: FitRow, fi_row: FitRow) -> float:
    """Sigma gap sigma_CI - sigma_FI between fits of the same sample set.

    The two rows must really describe the same data (same scenario,
    frequency, sample count, and source), otherwise the gap is
    meaningless and a DataError is raised. Since FI nests CI's shape on
    single-frequency data the gap cannot be negative; anything below
    -DELTA_SIGMA_SLACK_DB indicates an internal inconsistency.
    """
    if ci_row.family != "CI" or fi_row.family != "FI":
        raise DataError("delta_sigma: expects one CI row and one FI row")
    same = (
        ci_row.scenario == fi_row.scenario
        and ci_row.freq_ghz == fi_row.freq_ghz
        and ci_row.n_samples == fi_row.n_samples
        and ci_row.source == fi_row.source
    )
    if not same:
        raise DataError(
            "delta_sigma: CI and FI rows were not fitted on the identical sample set"
        )
    gap = ci_row.sigma_db - fi_row.sigma_db
    if gap < -DELTA_SIGMA_SLACK_DB:
        raise NumericalError(
            f"delta_sigma: negative gap {gap:.3f} dB; "
            "FI cannot fit worse than CI on the same single-frequency data"
        )
    return gap


def _fmt(value, decimals) -> str:
    if value is None:
        return "-"
    return format_fixed(value, decimals)


def _coefficient_cells(params, width: int) -> list[str]:
    """A record's fields before sigma_db, b to 2 decimals, f0_ghz whole, the rest to 1,
    padded with "-" to width, an XPD base's to width - 1; all "-" for None."""
    cells = []
    for _, name, value in params.record() if params else ():
        if name == "sigma_db":
            break
        if name == "base":
            cells = _coefficient_cells(value, width - 1)
        else:
            cells.append(format_fixed(value, 2 if name == "b" else 0 if name == "f0_ghz" else 1))
    return cells + ["-"] * (width - len(cells))


def _freq_label(freq_ghz: float) -> str:
    return f"{freq_ghz:g} GHz"


def _render(headers: list[str], body: list[list[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(headers, *body)]
    lines = [" | ".join(map(str.ljust, row, widths)).rstrip() for row in (headers, *body)]
    lines.insert(1, "-+-".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


class _Grid:
    """What every table body reads, computed once per render: the first row
    of each plain (family, environment, layout, polarization class,
    freq_ghz) key, the environment/layout pairs to render (measured pairs
    first) and the sorted distinct frequencies a row can match."""

    def __init__(self, report: FitReport):
        self._first: dict = {}
        for row in report.rows:
            scenario = row.scenario
            self._first.setdefault((row.family, scenario.environment, scenario.layout,
                                    scenario.polarization_class, row.freq_ghz), row)
        self.pairs = ordered_pairs((r.scenario.environment, r.scenario.layout) for r in report.rows)
        self.freqs = sorted({r.freq_ghz for r in report.rows
                             if r.freq_ghz is not None and r.freq_ghz == r.freq_ghz})

    def first(self, *key) -> Optional[FitRow]:
        """The first row of a plain key, or None; no key asks for a NaN
        frequency, so rows at NaN are never returned."""
        return self._first.get(key)


def _table3_body(grid: _Grid) -> list[list[str]]:
    body, first = [], grid.first
    for freq in grid.freqs:
        for pol in PolarizationClass:
            for env, layout in grid.pairs:
                ci = first("CI", env, layout, pol, freq)
                fi = first("FI", env, layout, pol, freq)
                if ci is None and fi is None:
                    continue
                gap = None
                if ci and fi:
                    try:
                        gap = delta_sigma(ci, fi)
                    except DataError:
                        pass
                body.append([
                    _freq_label(freq), LABELS[pol], LABELS[env], LABELS[layout],
                    *_coefficient_cells(ci and ci.params, 1),
                    _fmt(ci.sigma_db if ci else None, 1),
                    *_coefficient_cells(fi and fi.params, 2),
                    _fmt(fi.sigma_db if fi else None, 1),
                    _fmt(gap, 1),
                ])
    return body


def _table4_body(grid: _Grid) -> list[list[str]]:
    body, vh = [], PolarizationClass.VH
    for freq in grid.freqs:
        for env, layout in grid.pairs:
            row = grid.first("CIX", env, layout, vh, freq)
            if row is None:
                continue
            body.append([
                _freq_label(freq), LABELS[vh], LABELS[env], LABELS[layout],
                *_coefficient_cells(row.params, 2), _fmt(row.sigma_db, 1),
            ])
    return body


def _table5_body(grid: _Grid) -> list[list[str]]:
    body, vv, vh = [], PolarizationClass.VV, PolarizationClass.VH
    # each pooled family's V-V row, then its XPD extension's V-H row
    order = [pair for base in POOLED_FAMILIES for pair in ((base, vv), (base + "X", vh))]
    for env, layout in grid.pairs:
        for family, pol in order:
            row = grid.first(family, env, layout, pol, None)
            if row is None:
                continue
            body.append([
                LABELS[env], LABELS[layout], family, LABELS[pol],
                *_coefficient_cells(row.params, 4), _fmt(row.sigma_db, 1),
            ])
    return body


def _table6_body(grid: _Grid) -> list[list[str]]:
    body, combined = [], PolarizationClass.COMBINED
    for family in POOLED_FAMILIES:
        for env, layout in grid.pairs:
            row = grid.first(family, env, layout, combined, None)
            if row is None:
                continue
            body.append([
                family, LABELS[env], LABELS[layout],
                *_coefficient_cells(row.params, 3), _fmt(row.sigma_db, 1),
            ])
    return body


_STYLE_HEADERS = {
    "table3": [
        "Freq", "Pol", "Env", "L/O",
        "PLE", "sigma_CI [dB]", "alpha [dB]", "beta", "sigma_FI [dB]", "dsigma [dB]",
    ],
    "table4": ["Freq", "Pol", "Env", "L/O", "n_VV", "XPD [dB]", "sigma [dB]"],
    "table5": [
        "Env", "L/O", "Model", "Pol",
        "n/alpha", "b/beta [dB]", "f0/gamma", "XPD [dB]", "sigma [dB]",
    ],
    "table6": ["Model", "Env", "L/O", "n/alpha", "b/beta [dB]", "f0/gamma", "sigma [dB]"],
}

_STYLE_BODIES = {
    "table3": _table3_body,
    "table4": _table4_body,
    "table5": _table5_body,
    "table6": _table6_body,
}


def render_table(report: FitReport, style: str) -> str:
    """Render a report as a fixed-width comparison table.

    An empty report (or one with no rows matching the style) renders as
    the header only. Cells for models absent from the report show "-";
    the sigma gap column is computed, never stored, and only appears when
    the CI and FI rows come from the identical sample set.
    """
    if style not in TABLE_STYLES:
        raise UsageError(f"unknown table style {style!r}; expected one of {TABLE_STYLES}")
    return _render(_STYLE_HEADERS[style], _STYLE_BODIES[style](_Grid(report)))


def render_tables(report: FitReport) -> str:
    """Every style with at least one body row for this report, in
    TABLE_STYLES order, separated by blank lines; "" when there is none."""
    grid = _Grid(report)
    bodies = ((style, _STYLE_BODIES[style](grid)) for style in TABLE_STYLES)
    return "\n".join(_render(_STYLE_HEADERS[style], body) for style, body in bodies if body)
