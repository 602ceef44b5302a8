"""Published parameter sets for 28 GHz and 73 GHz indoor office channels.

Four preset catalogs, addressed as table3 through table6:

  table3  single-frequency CI and FI fits per polarization class
  table4  single-frequency cross-polarized CIX fits (V-V base plus XPD)
  table5  multi-frequency CI/CIF/ABG families and their XPD extensions,
          one block per environment and layout
  table6  multi-frequency CI/CIF/ABG fits on combined-polarization data

Values are transcribed verbatim from the published campaign results and
are immutable; the sigma gap between CI and FI is never stored, it is
recomputed from the sigma pair on demand.

Selectors narrow a catalog for the CLI: `table3:28:VV:LOS:CO` picks one
scenario, `table5:nlos-cp` one environment/layout block. Tokens may name
a frequency in GHz ("28", "73"), "multi" for multi-frequency rows, a
polarization class, an environment or a layout (any token of the
taxonomy's token tables, such as VV, Comb., LOS or CO), or a fused
environment-layout pair ("nlos-cp"). Each token pins one row value; a later
token replaces an earlier one of its kind, and "multi" with a frequency
matches nothing.
"""

from __future__ import annotations

from .errors import UsageError
from .models import PARAMS_CLASSES, POOLED_FAMILIES, CiParams, FiParams, XpdExtension
from .report import FitReport, FitRow
from .taxonomy import (
    ENV_TOKENS,
    LAYOUT_TOKENS,
    POL_TOKENS,
    Environment,
    Layout,
    PolarizationClass,
    ScenarioKey,
)

_E = Environment
_L = Layout
_P = PolarizationClass

# single-frequency CI and FI fits:
# (freq_ghz, pol, env, layout, ple, sigma_ci, alpha, beta, sigma_fi)
_SINGLE_FREQ_CI_FI = (
    (28.0, _P.VV, _E.LOS, _L.CORRIDOR, 1.1, 0.7, 63.6, 0.9, 0.6),
    (28.0, _P.VV, _E.LOS, _L.OPEN_PLAN, 1.2, 2.3, 52.3, 2.3, 1.4),
    (28.0, _P.VV, _E.NLOS, _L.CORRIDOR, 2.5, 8.3, 40.7, 4.0, 7.5),
    (28.0, _P.VV, _E.NLOS, _L.OPEN_PLAN, 2.5, 8.0, 38.5, 4.6, 5.7),
    (28.0, _P.VV, _E.NLOS, _L.CLOSED_PLAN, 2.8, 10.1, 55.0, 3.3, 10.0),
    (28.0, _P.VH, _E.LOS, _L.CORRIDOR, 2.4, 2.8, 76.1, 1.1, 0.2),
    (28.0, _P.VH, _E.LOS, _L.OPEN_PLAN, 2.8, 1.6, 66.7, 2.2, 1.1),
    (28.0, _P.VH, _E.NLOS, _L.CORRIDOR, 3.2, 3.3, 58.4, 3.4, 3.3),
    (28.0, _P.VH, _E.NLOS, _L.OPEN_PLAN, 3.4, 4.0, 58.7, 3.7, 3.9),
    (28.0, _P.VH, _E.NLOS, _L.CLOSED_PLAN, 3.7, 10.7, 61.3, 3.8, 10.7),
    (28.0, _P.COMBINED, _E.LOS, _L.CORRIDOR, 1.7, 7.4, 69.8, 1.0, 7.3),
    (28.0, _P.COMBINED, _E.LOS, _L.OPEN_PLAN, 2.0, 6.9, 59.5, 2.2, 6.9),
    (28.0, _P.COMBINED, _E.NLOS, _L.CORRIDOR, 2.8, 8.0, 51.5, 3.5, 7.8),
    (28.0, _P.COMBINED, _E.NLOS, _L.OPEN_PLAN, 2.9, 7.9, 50.2, 3.9, 7.5),
    (28.0, _P.COMBINED, _E.NLOS, _L.CLOSED_PLAN, 3.2, 11.8, 59.2, 3.4, 11.8),
    (73.0, _P.VV, _E.LOS, _L.CORRIDOR, 1.2, 2.3, 81.4, 0.2, 0.8),
    (73.0, _P.VV, _E.LOS, _L.OPEN_PLAN, 1.5, 1.3, 72.5, 1.2, 1.2),
    (73.0, _P.VV, _E.NLOS, _L.CORRIDOR, 3.1, 13.4, 51.2, 4.4, 13.1),
    (73.0, _P.VV, _E.NLOS, _L.OPEN_PLAN, 3.1, 6.8, 66.9, 3.4, 6.8),
    (73.0, _P.VV, _E.NLOS, _L.CLOSED_PLAN, 3.3, 11.7, 82.6, 2.2, 11.4),
    (73.0, _P.VH, _E.LOS, _L.CORRIDOR, 3.3, 5.9, 100.5, 0.6, 1.2),
    (73.0, _P.VH, _E.LOS, _L.OPEN_PLAN, 4.0, 4.5, 88.5, 1.8, 2.5),
    (73.0, _P.VH, _E.NLOS, _L.CORRIDOR, 4.0, 7.5, 92.7, 2.3, 6.3),
    (73.0, _P.VH, _E.NLOS, _L.OPEN_PLAN, 4.4, 6.8, 99.8, 1.3, 4.7),
    (73.0, _P.VH, _E.NLOS, _L.CLOSED_PLAN, 4.7, 10.0, 99.4, 2.1, 7.5),
    (73.0, _P.COMBINED, _E.LOS, _L.CORRIDOR, 2.2, 12.4, 91.0, 0.4, 11.7),
    (73.0, _P.COMBINED, _E.LOS, _L.OPEN_PLAN, 2.8, 11.1, 80.5, 1.5, 10.9),
    (73.0, _P.COMBINED, _E.NLOS, _L.CORRIDOR, 3.5, 12.8, 74.0, 3.2, 12.8),
    (73.0, _P.COMBINED, _E.NLOS, _L.OPEN_PLAN, 3.6, 9.3, 84.6, 2.2, 8.8),
    (73.0, _P.COMBINED, _E.NLOS, _L.CLOSED_PLAN, 4.0, 13.5, 92.9, 2.0, 12.4),
)

# single-frequency cross-polarized extensions over the V-V CI base:
# (freq_ghz, env, layout, xpd_db, sigma)
_SINGLE_FREQ_CIX = (
    (28.0, _E.LOS, _L.CORRIDOR, 14.6, 0.2),
    (28.0, _E.LOS, _L.OPEN_PLAN, 13.3, 2.0),
    (28.0, _E.NLOS, _L.CORRIDOR, 8.8, 3.9),
    (28.0, _E.NLOS, _L.OPEN_PLAN, 8.7, 4.7),
    (28.0, _E.NLOS, _L.CLOSED_PLAN, 11.0, 11.0),
    (73.0, _E.LOS, _L.CORRIDOR, 23.8, 1.8),
    (73.0, _E.LOS, _L.OPEN_PLAN, 21.4, 2.6),
    (73.0, _E.NLOS, _L.CORRIDOR, 12.9, 6.5),
    (73.0, _E.NLOS, _L.OPEN_PLAN, 12.9, 5.5),
    (73.0, _E.NLOS, _L.CLOSED_PLAN, 16.5, 8.1),
)

# multi-frequency families per (env, layout):
# CI (ple, sigma), CIX (xpd, sigma), CIF (n, b, f0, sigma), CIFX (xpd, sigma),
# ABG (alpha, beta, gamma, sigma), ABGX (xpd, sigma)
_MULTI_FREQ = {
    (_E.LOS, _L.CORRIDOR): {
        "CI": (1.1, 1.9),
        "CIX": (19.2, 5.5),
        "CIF": (1.1, 0.13, 51.0, 1.7),
        "CIFX": (19.2, 4.8),
        "ABG": (0.5, 32.2, 2.4, 1.0),
        "ABGX": (18.9, 4.6),
    },
    (_E.LOS, _L.OPEN_PLAN): {
        "CI": (1.4, 2.2),
        "CIX": (17.3, 5.8),
        "CIF": (1.4, 0.24, 51.0, 1.9),
        "CIFX": (17.3, 4.7),
        "ABG": (1.7, 17.8, 2.7, 1.6),
        "ABGX": (17.5, 4.4),
    },
    (_E.NLOS, _L.CORRIDOR): {
        "CI": (2.8, 11.8),
        "CIX": (10.8, 7.7),
        "CIF": (2.8, 0.22, 51.0, 11.2),
        "CIFX": (10.8, 5.8),
        "ABG": (4.2, -17.2, 3.8, 10.7),
        "ABGX": (12.1, 6.4),
    },
    (_E.NLOS, _L.OPEN_PLAN): {
        "CI": (2.8, 8.0),
        "CIX": (10.7, 6.7),
        "CIF": (2.8, 0.21, 49.0, 7.5),
        "CIFX": (10.6, 5.5),
        "ABG": (4.1, -12.2, 3.8, 6.4),
        "ABGX": (12.3, 5.5),
    },
    (_E.NLOS, _L.CLOSED_PLAN): {
        "CI": (3.0, 11.4),
        "CIX": (13.4, 11.2),
        "CIF": (3.0, 0.20, 50.0, 10.9),
        "CIFX": (13.5, 10.1),
        "ABG": (2.8, 6.2, 3.8, 10.8),
        "ABGX": (13.3, 9.8),
    },
}

# multi-frequency combined-polarization fits per (env, layout):
# CI (ple, sigma), CIF (n, b, f0, sigma), ABG (alpha, beta, gamma, sigma)
_MULTI_FREQ_COMBINED = {
    (_E.LOS, _L.CORRIDOR): {
        "CI": (2.0, 10.6),
        "CIF": (2.0, 0.30, 51.0, 10.2),
        "ABG": (0.7, 22.7, 3.5, 9.8),
    },
    (_E.LOS, _L.OPEN_PLAN): {
        "CI": (2.4, 9.8),
        "CIF": (2.4, 0.36, 51.0, 9.2),
        "ABG": (1.9, 10.1, 3.6, 9.1),
    },
    (_E.NLOS, _L.CORRIDOR): {
        "CI": (3.1, 11.6),
        "CIF": (3.1, 0.23, 51.0, 10.7),
        "ABG": (3.3, -7.1, 4.2, 10.6),
    },
    (_E.NLOS, _L.OPEN_PLAN): {
        "CI": (3.2, 9.3),
        "CIF": (3.2, 0.23, 49.0, 8.6),
        "ABG": (3.3, -1.0, 4.0, 8.4),
    },
    (_E.NLOS, _L.CLOSED_PLAN): {
        "CI": (3.6, 13.3),
        "CIF": (3.6, 0.22, 49.0, 12.6),
        "ABG": (2.8, 6.6, 4.2, 12.2),
    },
}


def _table3_report() -> FitReport:
    rows = []
    for freq, pol, env, layout, ple, s_ci, alpha, beta, s_fi in _SINGLE_FREQ_CI_FI:
        key = ScenarioKey(env, layout, pol)
        src = f"table3:{freq:g}:{key.label()}"
        rows.append(FitRow(key, CiParams(ple, s_ci), freq_ghz=freq, source=src))
        rows.append(FitRow(key, FiParams(alpha, beta, s_fi), freq_ghz=freq, source=src))
    return FitReport(tuple(rows))


def _table4_report() -> FitReport:
    table3, rows = _table3_report(), []
    for freq, env, layout, xpd, sigma in _SINGLE_FREQ_CIX:
        key = ScenarioKey(env, layout, _P.VH)
        base = table3.single("CI", ScenarioKey(env, layout, _P.VV), freq).params
        ext = XpdExtension(base, xpd, sigma)
        rows.append(FitRow(key, ext, freq_ghz=freq, source=f"table4:{freq:g}:{key.label()}"))
    return FitReport(tuple(rows))


def _multi_freq_report(table: str, blocks: dict, pol: PolarizationClass) -> FitReport:
    """One block of rows per (env, layout) in table order; a family with an
    XPD extension in the block gets its V-H row right after its base row."""
    rows = []
    for (env, layout), fams in blocks.items():
        key, vh = ScenarioKey(env, layout, pol), ScenarioKey(env, layout, _P.VH)
        for family in POOLED_FAMILIES:
            base = PARAMS_CLASSES[family](*fams[family])
            rows.append(FitRow(key, base, source=f"{table}:{key.label()}"))
            if family + "X" in fams:
                ext = XpdExtension(base, *fams[family + "X"])
                rows.append(FitRow(vh, ext, source=f"{table}:{vh.label()}"))
    return FitReport(tuple(rows))


_CATALOG_BUILDERS = {
    "table3": _table3_report,
    "table4": _table4_report,
    "table5": lambda: _multi_freq_report("table5", _MULTI_FREQ, _P.VV),
    "table6": lambda: _multi_freq_report("table6", _MULTI_FREQ_COMBINED, _P.COMBINED),
}

PRESET_TABLES = tuple(_CATALOG_BUILDERS)

# how to read off a row the value each kind of selector token pins; "multi"
# is a kind of its own, so it and a frequency never replace each other
_PINNED = {
    "freq": lambda row: row.freq_ghz,
    "multi": lambda row: row.freq_ghz is None,
    "pol": lambda row: row.scenario.polarization_class,
    "env": lambda row: row.scenario.environment,
    "layout": lambda row: row.scenario.layout,
}
_SCENARIO_TOKENS = (("pol", POL_TOKENS), ("env", ENV_TOKENS), ("layout", LAYOUT_TOKENS))


def _token_pins(token: str, selector: str) -> dict:
    """The row values one selector token pins, by kind."""
    low = token.lower()
    if low == "multi":
        return {"multi": True}
    for kind, tokens in _SCENARIO_TOKENS:
        if low in tokens:
            return {kind: tokens[low]}
    try:
        return {"freq": float(low)}
    except ValueError:
        pass
    # fused environment-layout form, e.g. "nlos-cp"
    head, sep, tail = low.partition("-")
    if sep and head in ENV_TOKENS and tail in LAYOUT_TOKENS:
        return {"env": ENV_TOKENS[head], "layout": LAYOUT_TOKENS[tail]}
    raise UsageError(
        f"unknown preset selector token {token!r} in {selector!r}; tokens may be "
        "a frequency in GHz, 'multi', VV/VH/Comb, LOS/NLOS, CO/OP/CP, or env-layout"
    )


def _parse_selector(selector: str) -> tuple[str, dict]:
    """The table id and the row values the selector pins, by kind; a later
    token replaces an earlier one of the same kind, empty tokens are skipped."""
    table, *tokens = (p.strip() for p in selector.split(":"))
    if table.lower() not in _CATALOG_BUILDERS:
        raise UsageError(
            f"unknown preset table {table!r}; expected one of {PRESET_TABLES}"
        )
    pins: dict = {}
    for token in filter(None, tokens):
        pins.update(_token_pins(token, selector))
    return table.lower(), pins


def preset_report(selector: str) -> FitReport:
    """The preset rows addressed by a selector, as a renderable report.

    The bare table id returns the full catalog; additional tokens narrow
    it. An empty match raises UsageError (presets are a fixed catalog, so
    an empty result always means a mistyped selector).
    """
    table, pins = _parse_selector(selector)
    rows = tuple(row for row in _CATALOG_BUILDERS[table]().rows
                 if all(_PINNED[kind](row) == value for kind, value in pins.items()))
    if not rows:
        raise UsageError(f"preset selector {selector!r} matches no rows")
    return FitReport(rows)


def preset_model(selector: str, family: str):
    """The unique preset parameter set for one model family.

    Raises UsageError when the selector leaves the family absent or
    ambiguous (for example `table3:28:VV` without an environment).
    """
    report = preset_report(selector)
    row = report.single(family.upper())
    return row.params
