"""Sigma-gap bookkeeping and table rendering mechanics."""

import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwpl.errors import DataError, NumericalError, UsageError
from mmwpl.models import AbgParams, CifParams, CiParams, FiParams, XpdExtension
from mmwpl.numformat import format_fixed, round_half_away
from mmwpl.presets import preset_report
from mmwpl.report import (
    _STYLES,
    ANY_FREQ,
    TABLE_STYLES,
    FitReport,
    FitRow,
    delta_sigma,
    render_table,
    render_tables,
)
from mmwpl.taxonomy import (
    LABELS,
    MEASURED_PAIRS,
    Environment,
    Layout,
    PolarizationClass,
    ScenarioKey,
)

KEY = ScenarioKey(Environment.NLOS, Layout.CORRIDOR, PolarizationClass.VV)
CI = CiParams(2.0, 1.0)


def ci_row(sigma, **kw):
    defaults = dict(freq_ghz=28.0, n_samples=40, source="unit")
    defaults.update(kw)
    return FitRow(KEY, CiParams(2.5, sigma), **defaults)


def fi_row(sigma, **kw):
    defaults = dict(freq_ghz=28.0, n_samples=40, source="unit")
    defaults.update(kw)
    return FitRow(KEY, FiParams(40.7, 4.0, sigma), **defaults)


class TestFitRow:
    def test_fields_are_the_scenario_params_and_keyword_tags(self):
        assert [f.name for f in dataclasses.fields(FitRow)] == \
            ["scenario", "params", "freq_ghz", "n_samples", "source"]

    @pytest.mark.parametrize("params", [
        CiParams(2.0, 1.0), FiParams(40.0, 2.0, 1.0), AbgParams(3.0, 20.0, 2.0, 1.0),
        CifParams(3.0, 0.2, 50.0, 1.0), XpdExtension(CiParams(2.0, 1.0), 10.0, 1.0),
        XpdExtension(AbgParams(3.0, 20.0, 2.0, 1.0), 10.0, 1.0),
        XpdExtension(CifParams(3.0, 0.2, 50.0, 1.0), 10.0, 1.0),
    ], ids=lambda params: params.family)
    def test_family_is_the_params_family(self, params):
        row = FitRow(KEY, params, freq_ghz=28.0)
        assert row.family == params.family
        assert row.sigma_db == params.sigma_db

    def test_a_family_argument_is_refused(self):
        with pytest.raises(TypeError):
            FitRow("CI", KEY, CiParams(2.0, 1.0))

    @pytest.mark.parametrize("fields, error, message", [
        ({"scenario": "LOS:CO:VV"}, TypeError, "scenario must be a ScenarioKey, got str"),
        ({"scenario": tuple(vars(KEY).values())}, TypeError,
         "scenario must be a ScenarioKey, got tuple"),
        ({"params": None}, TypeError, "params must be a parameter record, got NoneType"),
        ({"params": object()}, TypeError, "params must be a parameter record, got object"),
        ({"params": CI.record}, TypeError, "params must be a parameter record, got method"),
        *(({"freq_ghz": freq}, ValueError, f"freq_ghz must be a finite number, got {text}")
          for freq, text in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
                             (10**400, "1" + "0" * 400), ("28", "'28'"), (True, "True"),
                             (np.float32(28.0), "np.float32(28.0)"))),
        *(({"n_samples": n}, ValueError,
           f"n_samples must be null or a non-negative integer, got {text}")
          for n, text in ((-1, "-1"), (2.5, "2.5"), (12.0, "12.0"), (True, "True"),
                          (np.int64(3), "np.int64(3)"), ("3", "'3'"))),
        *(({"source": source}, TypeError, f"source must be a string, got {text}")
          for source, text in ((5, "5"), (None, "None"), (b"s", "b's'"))),
        # the first fault in field order is named
        ({"scenario": "x", "params": None, "freq_ghz": math.nan}, TypeError,
         "scenario must be a ScenarioKey, got str"),
        ({"params": None, "freq_ghz": math.nan}, TypeError,
         "params must be a parameter record, got NoneType"),
        ({"freq_ghz": math.nan, "n_samples": -1, "source": 5}, ValueError,
         "freq_ghz must be a finite number, got nan"),
        ({"n_samples": -1, "source": 5}, ValueError,
         "n_samples must be null or a non-negative integer, got -1"),
        # formatting an int of over 4300 digits raises, so the message leaves n out
        *(({"n_samples": n}, ValueError,
           "n_samples must be null or a non-negative integer under 10**4300")
          for n in (10**4300, 10**5000, -10**4300)),
    ])
    def test_a_field_params_json_cannot_hold_is_refused(self, fields, error, message):
        with pytest.raises(error) as info:
            FitRow(**{"scenario": KEY, "params": CI, **fields})
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("tags", [
        {"freq_ghz": 28}, {"freq_ghz": np.float64(28.0)}, {"freq_ghz": -0.0},
        {"n_samples": 0}, {"n_samples": 10**30}, {"source": "é\x00"},
    ], ids=repr)
    def test_a_field_params_json_can_hold_is_kept(self, tags):
        row = FitRow(KEY, CI, **tags)
        assert [getattr(row, name) for name in tags] == list(tags.values())


class TestFitReport:
    @pytest.mark.parametrize("rows, message", [
        ((None,), "rows[0] must be a FitRow, got NoneType"),
        ([ci_row(1.0), 5], "rows[1] must be a FitRow, got int"),
        ((ci_row(1.0), fi_row(1.0), KEY), "rows[2] must be a FitRow, got ScenarioKey"),
        ((CI,), "rows[0] must be a FitRow, got CiParams"),
    ])
    def test_a_row_that_is_not_a_fit_row_is_refused(self, rows, message):
        with pytest.raises(TypeError) as info:
            FitReport(rows)
        assert str(info.value) == message

    @pytest.mark.parametrize("rows", [(), [], [ci_row(1.0)], (ci_row(1.0), fi_row(1.0))],
                             ids=repr)
    def test_rows_are_kept_as_a_tuple_so_a_report_hashes(self, rows):
        report = FitReport(rows)
        assert type(report.rows) is tuple and report.rows == tuple(rows)
        assert hash(report) == hash(FitReport(tuple(rows)))


class TestDeltaSigma:
    def test_published_example(self):
        assert delta_sigma(ci_row(8.3), fi_row(7.5)) == pytest.approx(0.8)

    def test_zero_gap(self):
        assert delta_sigma(ci_row(5.0), fi_row(5.0)) == 0.0

    def test_requires_identical_sample_sets(self):
        with pytest.raises(DataError, match="identical"):
            delta_sigma(ci_row(8.3), fi_row(7.5, n_samples=39))
        with pytest.raises(DataError, match="identical"):
            delta_sigma(ci_row(8.3), fi_row(7.5, source="other"))
        with pytest.raises(DataError, match="identical"):
            delta_sigma(ci_row(8.3), fi_row(7.5, freq_ghz=73.0))

    def test_requires_ci_and_fi(self):
        with pytest.raises(DataError):
            delta_sigma(ci_row(8.3), ci_row(7.5))

    def test_small_negative_gap_is_rounding_slack(self):
        assert delta_sigma(ci_row(5.00), fi_row(5.04)) == pytest.approx(-0.04)

    def test_large_negative_gap_is_inconsistent(self):
        with pytest.raises(NumericalError, match="negative"):
            delta_sigma(ci_row(5.0), fi_row(6.0))


class TestRendering:
    def test_empty_report_renders_header_only(self):
        for style in ("table3", "table4", "table5", "table6"):
            text = render_table(FitReport(()), style)
            assert len(text.strip().splitlines()) == 2

    def test_unknown_style(self):
        with pytest.raises(UsageError):
            render_table(FitReport(()), "table9")

    def test_missing_model_cells_render_as_dash(self):
        report = FitReport((ci_row(8.3),))
        body = render_table(report, "table3").strip().splitlines()[2]
        cells = [c.strip() for c in body.split("|")]
        assert cells[4] == "2.5"
        assert cells[6] == "-"  # no FI fit present
        assert cells[9] == "-"  # so no sigma gap either

    def test_gap_cell_computed_when_rows_match(self):
        report = FitReport((ci_row(8.3), fi_row(7.5)))
        body = render_table(report, "table3").strip().splitlines()[2]
        cells = [c.strip() for c in body.split("|")]
        assert cells[-1] == "0.8"

    def test_gap_cell_dash_when_sample_sets_differ(self):
        report = FitReport((ci_row(8.3), fi_row(7.5, n_samples=12)))
        body = render_table(report, "table3").strip().splitlines()[2]
        cells = [c.strip() for c in body.split("|")]
        assert cells[-1] == "-"

    def test_columns_stay_aligned(self):
        report = FitReport((ci_row(8.3), fi_row(7.5)))
        lines = render_table(report, "table3").splitlines()
        pipe_cols = [i for i, ch in enumerate(lines[0]) if ch == "|"]
        for line in lines[2:]:
            assert [i for i, ch in enumerate(line) if ch == "|"] == pipe_cols


def decimal_format_fixed(value, decimals):
    """format_fixed as Decimal alone computed it, the reference for its
    float-formatting shortcut."""
    quantum = decimal.Decimal(1).scaleb(-decimals)
    quantized = decimal.Decimal(repr(float(value))).quantize(
        quantum, rounding=decimal.ROUND_HALF_UP, context=decimal.Context(prec=decimal.MAX_PREC))
    if quantized == 0:
        quantized = abs(quantized)
    return f"{quantized:.{decimals}f}"


def _tie(k, decimals, step):
    """k + 0.5 units of the last kept place, or a float step away from it."""
    tie = (k + 0.5) / 10**decimals
    for _ in range(abs(step)):
        tie = math.nextafter(tie, math.copysign(math.inf, step))
    return tie


_SCALES = st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e12, 1e13, 1e16, 1e17])
FORMAT_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e4, 1e4),
    st.builds(lambda scale, x: scale * x, _SCALES, st.floats(-10.0, 10.0)),
    st.builds(_tie, st.integers(-10**15, 10**15) | st.integers(-1000, 1000),
              st.sampled_from([0, 1, 2]), st.integers(-2, 2)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e13, -1e13,
                     math.nextafter(1e13, 0), 9999999999999.995, 1e16, 9007199254740993.0,
                     0.005, -0.005, 0.015, 1.005, 2.675, -0.0049999, 0.045, 1.5, 2.5]),
)


class TestNumberFormatting:
    def test_ties_go_away_from_zero(self):
        assert format_fixed(0.25, 1) == "0.3"
        assert format_fixed(-0.25, 1) == "-0.3"
        assert format_fixed(50.5, 0) == "51"
        assert format_fixed(0.15, 1) == "0.2"

    def test_trailing_zeros_kept(self):
        assert format_fixed(0.2, 2) == "0.20"
        assert format_fixed(3.0, 1) == "3.0"
        assert format_fixed(50.0, 0) == "50"

    def test_negative_zero_never_printed(self):
        assert format_fixed(-0.001, 1) == "0.0"
        assert format_fixed(-1e-16, 2) == "0.00"

    def test_round_half_away_values(self):
        assert round_half_away(50.5, 0) == 51.0
        assert round_half_away(-50.5, 0) == -51.0
        assert round_half_away(61.75, 0) == 62.0
        assert round_half_away(2.25, 1) == 2.3

    @pytest.mark.parametrize("value", [1e27, 1e308, -1.7976931348623157e308, 5e-324])
    def test_any_finite_float(self, value):
        for decimals in (0, 1, 2):
            text = format_fixed(value, decimals)
            assert float(text) == pytest.approx(value, abs=10.0 ** -decimals)
            assert round_half_away(value, decimals) == pytest.approx(value, abs=10.0 ** -decimals)
        assert format_fixed(1e30, 1) == "1" + "0" * 30 + ".0"
        assert round_half_away(1.5e30) == 1.5e30

    @settings(max_examples=3000, deadline=None)
    @given(value=FORMAT_VALUES, decimals=st.sampled_from([0, 1, 2]))
    def test_matches_the_decimal_path(self, value, decimals):
        assert format_fixed(value, decimals) == decimal_format_fixed(value, decimals)



def scan(report, family=None, scenario=None, freq_ghz=ANY_FREQ):
    """FitReport.find as a plain linear scan over the rows."""
    out = []
    for row in report.rows:
        if family is not None and row.family != family:
            continue
        if scenario is not None and row.scenario != scenario:
            continue
        if freq_ghz is not ANY_FREQ:
            if freq_ghz is None:
                if row.freq_ghz is not None:
                    continue
            elif row.freq_ghz != freq_ghz:
                continue
        out.append(row)
    return tuple(out)


SCENARIOS = [ScenarioKey(env, layout, pol) for env in Environment
             for layout in (Layout.CORRIDOR, Layout.CLOSED_PLAN) for pol in PolarizationClass]
FAMILY_PARAMS = {"CI": CI, "FI": FiParams(40.0, 2.0, 1.0), "CIX": XpdExtension(CI, 10.0, 1.0),
                 "ABG": AbgParams(3.0, 20.0, 2.0, 1.0), "CIF": CifParams(3.0, 0.2, 50.0, 1.0)}
FAMILY_NAMES = list(FAMILY_PARAMS)
FREQS = [None, 28.0, 28, 73.0]
ROWS = st.builds(
    lambda family, key, freq, n: FitRow(key, FAMILY_PARAMS[family], freq_ghz=freq,
                                        n_samples=n, source="s"),
    st.sampled_from(FAMILY_NAMES), st.sampled_from(SCENARIOS), st.sampled_from(FREQS),
    st.integers(1, 3),
)


# a bare (environment, layout, polarization class) tuple and a label are not
# ScenarioKeys: they equal no row's scenario
NOT_KEYS = [tuple(vars(KEY).values()), KEY.label()]
QUERIES = st.tuples(st.sampled_from([None, *FAMILY_NAMES, "ABGX"]),
                    st.sampled_from([None, *SCENARIOS, *NOT_KEYS]),
                    st.sampled_from([ANY_FREQ, *FREQS, float("nan"), 39.0, "28"]))


class TestFind:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(ROWS, max_size=40), data=st.data())
    def test_matches_a_linear_scan(self, rows, data):
        report = FitReport(tuple(rows))
        # queries of the rows' own keys as well as arbitrary ones
        keys = [(r.family, r.scenario, r.freq_ghz) for r in rows]
        own = st.sampled_from(keys) if keys else QUERIES
        for family, scenario, freq in data.draw(st.lists(st.one_of(QUERIES, own),
                                                         min_size=1, max_size=10)):
            got = report.find(family, scenario, freq)
            want = scan(report, family, scenario, freq)
            assert [id(r) for r in got] == [id(r) for r in want]

    def test_string_frequency_matches_no_numeric_row(self):
        report = FitReport((ci_row(1.0), fi_row(1.0), ci_row(1.0, freq_ghz=None)))
        assert report.find("CI", KEY, "28") == ()
        assert report.find(None, None, "any") == ()
        assert len(report.find("CI", KEY)) == 2
        with pytest.raises(UsageError, match="no CI row"):
            report.single("CI", KEY, "28")

    @pytest.mark.parametrize("scenario", NOT_KEYS)
    def test_scenario_that_is_not_a_key_matches_no_row(self, scenario):
        report = FitReport((ci_row(1.0), ci_row(1.0, freq_ghz=None)))
        for freq in (28.0, None, ANY_FREQ):
            assert report.find("CI", scenario, freq) == ()
            assert report.find(None, scenario, freq) == ()


class TestRenderTables:
    @pytest.mark.parametrize("table", ["table3", "table4", "table5", "table6"])
    def test_joins_the_styles_that_have_rows(self, table):
        report = preset_report(table)
        tables = [render_table(report, style) for style in TABLE_STYLES]
        assert render_tables(report) == "\n".join(t for t in tables if t.count("\n") > 2)

    def test_empty_report_renders_nothing(self):
        assert render_tables(FitReport()) == ""


def reference_render(headers, body):
    widths = [len(h) for h in headers]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("-+-".join("-" * w for w in widths))
    for row in body:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def reference_grid(report):
    """The pairs and frequencies to render."""
    seen = dict.fromkeys((r.scenario.environment, r.scenario.layout) for r in report.rows)
    # the measured pairs first, then the others in order of appearance
    pairs = [p for p in MEASURED_PAIRS if p in seen] + [p for p in seen if p not in MEASURED_PAIRS]
    freqs = sorted({r.freq_ghz for r in report.rows if r.freq_ghz is not None})
    return pairs, freqs


def first(report, family, env, layout, pol, freq):
    """The cell's row as the renderer looked it up: FitReport.find(...)[0]."""
    rows = report.find(family, ScenarioKey(env, layout, pol), freq)
    return rows[0] if rows else None


def fmt(value, decimals):
    return "-" if value is None else format_fixed(value, decimals)


def reference_param_cells(params):
    base = params.base if isinstance(params, XpdExtension) else params
    if isinstance(base, CiParams):
        return [fmt(base.ple_n, 1), "-", "-"]
    if isinstance(base, CifParams):
        return [fmt(base.n, 1), fmt(base.b, 2), fmt(base.f0_ghz, 0)]
    return [fmt(base.alpha_dist, 1), fmt(base.beta_db, 1), fmt(base.gamma_freq, 1)]


def reference_body(report, style):
    body, (pairs, freqs) = [], reference_grid(report)
    VV, VH, COMBINED = PolarizationClass.VV, PolarizationClass.VH, PolarizationClass.COMBINED
    if style == "table3":
        for freq in freqs:
            for pol in PolarizationClass:
                for env, layout in pairs:
                    ci = first(report, "CI", env, layout, pol, freq)
                    fi = first(report, "FI", env, layout, pol, freq)
                    if ci is None and fi is None:
                        continue
                    gap = None
                    if ci and fi:
                        try:
                            gap = delta_sigma(ci, fi)
                        except DataError:
                            pass
                    body.append([f"{freq:g} GHz", LABELS[pol], LABELS[env], LABELS[layout],
                                 fmt(ci.params.ple_n if ci else None, 1),
                                 fmt(ci.sigma_db if ci else None, 1),
                                 fmt(fi.params.alpha_db if fi else None, 1),
                                 fmt(fi.params.beta_slope if fi else None, 1),
                                 fmt(fi.sigma_db if fi else None, 1), fmt(gap, 1)])
    elif style == "table4":
        for freq in freqs:
            for env, layout in pairs:
                row = first(report, "CIX", env, layout, VH, freq)
                if row:
                    body.append([f"{freq:g} GHz", LABELS[VH], LABELS[env], LABELS[layout],
                                 fmt(row.params.base.ple_n, 1), fmt(row.params.xpd_db, 1),
                                 fmt(row.sigma_db, 1)])
    elif style == "table5":
        for env, layout in pairs:
            for family, pol in [("CI", VV), ("CIX", VH), ("CIF", VV), ("CIFX", VH),
                                ("ABG", VV), ("ABGX", VH)]:
                row = first(report, family, env, layout, pol, None)
                if row:
                    xpd = row.params.xpd_db if isinstance(row.params, XpdExtension) else None
                    body.append([LABELS[env], LABELS[layout], family, LABELS[pol],
                                 *reference_param_cells(row.params), fmt(xpd, 1),
                                 fmt(row.sigma_db, 1)])
    else:
        for family in ("CI", "CIF", "ABG"):
            for env, layout in pairs:
                row = first(report, family, env, layout, COMBINED, None)
                if row:
                    body.append([family, LABELS[env], LABELS[layout],
                                 *reference_param_cells(row.params), fmt(row.sigma_db, 1)])
    return body


def reference_render_table(report, style):
    """render_table with every cell looked up through FitReport.find."""
    return reference_render(_STYLES[style][0], reference_body(report, style))


def reference_render_tables(report):
    tables = [reference_render_table(report, style) for style in TABLE_STYLES]
    return "\n".join(t for t in tables if t.count("\n") > 2)


def outcome(render):
    try:
        return render()
    except NumericalError as exc:
        return f"NumericalError: {exc}"


def table_row(family, scenario, freq, sigma, n_samples, source):
    ci = CiParams(2.0 + sigma / 10, sigma)
    params = {
        "CI": ci,
        "FI": FiParams(40.0 + sigma, 2.1, sigma),
        "CIF": CifParams(3.0, 0.2 + sigma / 100, 50.0, sigma),
        "ABG": AbgParams(3.5, 20.0 + sigma, 2.0, sigma),
    }.get(family) or XpdExtension(ci if family == "CIX" else
                                  CifParams(2.5, 0.3, 40.0, sigma) if family == "CIFX" else
                                  AbgParams(3.0, 21.0, 2.4, sigma), 20.0 + sigma, sigma + 1)
    return FitRow(scenario, params, freq_ghz=freq, n_samples=n_samples, source=source)


ALL_SCENARIOS = [ScenarioKey(env, layout, pol) for env in Environment for layout in Layout
                 for pol in PolarizationClass]
# sigma 9.0 on an FI row beside a CI row of the same sample set is a negative
# gap beyond DELTA_SIGMA_SLACK_DB; 5.04 beside 5.0 is within it
TABLE_ROWS = st.builds(
    table_row,
    st.sampled_from(["CI", "FI", "CIX", "CIF", "CIFX", "ABG", "ABGX"]),
    st.sampled_from(ALL_SCENARIOS),
    st.sampled_from([None, None, 28.0, 28, 73.0]),
    st.sampled_from([4.0, 5.0, 5.04, 5.5, 6.25, 7.0, 8.0, 9.0]),
    st.sampled_from([10, 11]),
    st.sampled_from(["a", "b"]),
)


class TestRenderMatchesFindReference:
    @settings(max_examples=400, deadline=None)
    @given(rows=st.lists(TABLE_ROWS, max_size=30), data=st.data())
    def test_every_style(self, rows, data):
        # duplicated keys: a copy of a drawn row, with other parameters
        for _ in range(data.draw(st.integers(0, 3)) if rows else 0):
            dup = data.draw(st.sampled_from(rows))
            rows.insert(data.draw(st.integers(0, len(rows))),
                        table_row(dup.family, dup.scenario, dup.freq_ghz,
                                  data.draw(st.sampled_from([4.0, 6.0])), 10, "a"))
        report = FitReport(tuple(rows))
        for style in TABLE_STYLES:
            assert outcome(lambda: render_table(report, style)) == \
                outcome(lambda: reference_render_table(report, style))
        assert outcome(lambda: render_tables(report)) == \
            outcome(lambda: reference_render_tables(report))

    def test_negative_gap_raises_the_delta_sigma_error(self):
        report = FitReport((ci_row(5.0), fi_row(9.0)))
        with pytest.raises(NumericalError) as info:
            render_table(report, "table3")
        assert outcome(lambda: render_tables(report)) == f"NumericalError: {info.value}"
        assert str(info.value) == ("delta_sigma: negative gap -4.000 dB; "
                                   "FI cannot fit worse than CI on the same single-frequency data")

    def test_frequencies_render_in_ascending_order_28_and_28_0_as_one(self):
        rows = [ci_row(1.0, freq_ghz=f) for f in (73.0, 28, 28.0)]
        lines = render_table(FitReport(tuple(rows)), "table3").splitlines()[2:]
        assert [line.split(" | ")[0].strip() for line in lines] == ["28 GHz", "73 GHz"]

    def test_unmeasured_pair_renders_after_the_measured_ones(self):
        los_cp = ScenarioKey(Environment.LOS, Layout.CLOSED_PLAN, PolarizationClass.VV)
        report = FitReport((FitRow(los_cp, CiParams(2.0, 1.0)), FitRow(KEY, CiParams(3.0, 1.0))))
        lines = render_table(report, "table5").splitlines()[2:]
        assert [[c.strip() for c in line.split("|")[:2]] for line in lines] == \
            [["NLOS", "co"], ["LOS", "cp"]]
