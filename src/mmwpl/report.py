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
the first row of each key; 28 and 28.0 are the same frequency.
"""

from __future__ import annotations

import enum
from dataclasses import KW_ONLY, dataclass, field
from typing import Optional, Union

from .errors import DataError, NumericalError, UsageError
from .models import POOLED_FAMILIES, _finite, _Params
from .numformat import format_fixed
from .taxonomy import LABELS, PAIRS, PolarizationClass, ScenarioKey

# slack below which a negative sigma gap is attributed to rounding
DELTA_SIGMA_SLACK_DB = 0.05
_INT_TEXT_END = 10**4300  # the least int past CPython's default int-to-text limit


class _Wildcard(enum.Enum):
    ANY_FREQ = "any frequency"


# FitReport.find's default frequency: rows of every frequency class match
ANY_FREQ = _Wildcard.ANY_FREQ


@dataclass(frozen=True)
class FitRow:
    """One fitted model tied to the data slice that produced it.

    freq_ghz is the single frequency the fit used, or None for a
    multi-frequency fit. source identifies the sample set so that rows can
    be checked for having been fitted on identical data. A row refuses a
    field that params JSON cannot hold.
    """

    scenario: ScenarioKey
    params: object
    _: KW_ONLY
    freq_ghz: Optional[float] = None
    n_samples: Optional[int] = None
    source: str = ""

    def __post_init__(self):
        if not isinstance(self.scenario, ScenarioKey):
            raise TypeError(f"scenario must be a ScenarioKey, got {type(self.scenario).__name__}")
        if not isinstance(self.params, _Params):
            raise TypeError(f"params must be a parameter record, got {type(self.params).__name__}")
        if self.freq_ghz is not None:
            _finite(self.freq_ghz, "freq_ghz")
        if type(n := self.n_samples) is int and abs(n) >= _INT_TEXT_END:  # formatting n would fail
            raise ValueError("n_samples must be null or a non-negative integer under 10**4300")
        if n is not None and (type(n) is not int or n < 0):
            raise ValueError(f"n_samples must be null or a non-negative integer, got {n!r}")
        if not isinstance(self.source, str):
            raise TypeError(f"source must be a string, got {self.source!r}")

    @property
    def family(self) -> str:
        return self.params.family

    @property
    def sigma_db(self) -> float:
        return self.params.sigma_db


@dataclass(frozen=True)
class FitReport:
    """An ordered tuple of FitRows, renderable as comparison tables; refuses any other row."""

    rows: tuple[FitRow, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        for i, row in enumerate(self.rows):
            if not isinstance(row, FitRow):
                raise TypeError(f"rows[{i}] must be a FitRow, got {type(row).__name__}")

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


def _coefficient_cells(params, width: int) -> list[str]:
    """A record's fields before sigma_db, b to 2 decimals, f0_ghz whole, the rest to 1,
    padded with "-" to width, an XPD base's to width - 1."""
    cells = []
    for _, name, value in params.record():
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


def _first_rows(report: FitReport) -> dict:
    """The first row of each plain (family, environment, layout,
    polarization class, freq_ghz) key, computed once per render."""
    first: dict = {}
    for row in report.rows:
        scenario = row.scenario
        first.setdefault((row.family, scenario.environment, scenario.layout,
                          scenario.polarization_class, row.freq_ghz), row)
    return first


def _freqs(first: dict) -> list[float]:
    """The sorted distinct frequencies of the keys, None left out."""
    return sorted({key[4] for key in first if key[4] is not None})


def _model_cells(row: Optional[FitRow], width: int) -> list[str]:
    """A row's coefficient cells padded to width, then its sigma to one
    decimal; all "-" for a missing row."""
    if row is None:
        return ["-"] * (width + 1)
    return [*_coefficient_cells(row.params, width), format_fixed(row.sigma_db, 1)]


def _table3_body(first: dict) -> list[list[str]]:
    body = []
    for freq in _freqs(first):
        for pol in PolarizationClass:
            for env, layout in PAIRS:
                ci = first.get(("CI", env, layout, pol, freq))
                fi = first.get(("FI", env, layout, pol, freq))
                if ci is None and fi is None:
                    continue
                gap = None
                if ci and fi:
                    try:
                        gap = delta_sigma(ci, fi)
                    except DataError:
                        pass
                body.append([_freq_label(freq), LABELS[pol], LABELS[env], LABELS[layout],
                             *_model_cells(ci, 1), *_model_cells(fi, 2),
                             "-" if gap is None else format_fixed(gap, 1)])
    return body


def _table4_body(first: dict) -> list[list[str]]:
    vh = PolarizationClass.VH
    return [[_freq_label(freq), LABELS[vh], LABELS[env], LABELS[layout], *_model_cells(row, 2)]
            for freq in _freqs(first) for env, layout in PAIRS
            if (row := first.get(("CIX", env, layout, vh, freq))) is not None]


def _table5_body(first: dict) -> list[list[str]]:
    vv, vh = PolarizationClass.VV, PolarizationClass.VH
    # each pooled family's V-V row, then its XPD extension's V-H row
    order = [pair for base in POOLED_FAMILIES for pair in ((base, vv), (base + "X", vh))]
    return [[LABELS[env], LABELS[layout], family, LABELS[pol], *_model_cells(row, 4)]
            for env, layout in PAIRS for family, pol in order
            if (row := first.get((family, env, layout, pol, None))) is not None]


def _table6_body(first: dict) -> list[list[str]]:
    combined = PolarizationClass.COMBINED
    return [[family, LABELS[env], LABELS[layout], *_model_cells(row, 3)]
            for family in POOLED_FAMILIES for env, layout in PAIRS
            if (row := first.get((family, env, layout, combined, None))) is not None]


# each style's headers and body, in table order
_STYLES = {
    "table3": ([
        "Freq", "Pol", "Env", "L/O",
        "PLE", "sigma_CI [dB]", "alpha [dB]", "beta", "sigma_FI [dB]", "dsigma [dB]",
    ], _table3_body),
    "table4": (["Freq", "Pol", "Env", "L/O", "n_VV", "XPD [dB]", "sigma [dB]"], _table4_body),
    "table5": ([
        "Env", "L/O", "Model", "Pol",
        "n/alpha", "b/beta [dB]", "f0/gamma", "XPD [dB]", "sigma [dB]",
    ], _table5_body),
    "table6": (["Model", "Env", "L/O", "n/alpha", "b/beta [dB]", "f0/gamma", "sigma [dB]"],
               _table6_body),
}

TABLE_STYLES = tuple(_STYLES)


def render_table(report: FitReport, style: str) -> str:
    """Render a report as a fixed-width comparison table.

    An empty report (or one with no rows matching the style) renders as
    the header only. Cells for models absent from the report show "-";
    the sigma gap column is computed, never stored, and only appears when
    the CI and FI rows come from the identical sample set.
    """
    if style not in TABLE_STYLES:  # a tuple, so an unhashable style is refused too
        raise UsageError(f"unknown table style {style!r}; expected one of {TABLE_STYLES}")
    headers, body = _STYLES[style]
    return _render(headers, body(_first_rows(report)))


def render_tables(report: FitReport) -> str:
    """Every style with at least one body row for this report, in
    TABLE_STYLES order, separated by blank lines; "" when there is none."""
    first = _first_rows(report)
    tables = ((headers, body(first)) for headers, body in _STYLES.values())
    return "\n".join(_render(headers, rows) for headers, rows in tables if rows)
