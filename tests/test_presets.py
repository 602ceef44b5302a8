"""Preset catalog fidelity against the independent transcription."""

import pytest

from _tables import (
    TABLE3_ROWS,
    TABLE4_ROWS,
    TABLE5_ROWS,
    TABLE6_ROWS,
    cell_value,
    parse_rendered,
)
from mmwpl.errors import UsageError
from mmwpl.models import CifParams, CiParams, XpdExtension
from mmwpl.presets import PRESET_TABLES, preset_model, preset_report
from mmwpl.report import FitReport, delta_sigma, render_table, render_tables

EXPECTED = {
    "table3": TABLE3_ROWS,
    "table4": TABLE4_ROWS,
    "table5": TABLE5_ROWS,
    "table6": TABLE6_ROWS,
}

# column index of the recomputed sigma-gap cell in the table3 style
GAP_COLUMN = 9


def assert_tables_match(style, rendered_rows, expected_rows):
    assert len(rendered_rows) == len(expected_rows), style
    for got, want in zip(rendered_rows, expected_rows):
        assert len(got) == len(want), (style, got, want)
        for column, (g, w) in enumerate(zip(got, want)):
            if style == "table3" and column == GAP_COLUMN:
                # the gap column is recomputed from the sigma pair, the
                # printed value carries the source's own rounding
                assert abs(cell_value(g) - cell_value(w)) <= 0.05, (got, want)
            else:
                assert cell_value(g) == cell_value(w), (style, got, want, column)


@pytest.mark.parametrize("style", ["table3", "table4", "table5", "table6"])
def test_catalog_renders_every_published_cell(style):
    rendered = parse_rendered(render_table(preset_report(style), style))
    assert_tables_match(style, rendered, EXPECTED[style])


def test_sigma_gap_recomputation_all_rows():
    report = preset_report("table3")
    checked = 0
    for expected in TABLE3_ROWS:
        freq = float(expected[0])
        matches = [
            r for r in report.rows
            if r.freq_ghz == freq
            and r.scenario.environment.value == expected[2]
            and r.scenario.layout.value == expected[3].upper()
            and {"V-V": "VV", "V-H": "VH", "Comb.": "Comb"}[expected[1]]
            == r.scenario.polarization_class.value
        ]
        ci = next(r for r in matches if r.family == "CI")
        fi = next(r for r in matches if r.family == "FI")
        gap = delta_sigma(ci, fi)
        assert abs(gap - float(expected[GAP_COLUMN])) <= 0.05
        checked += 1
    assert checked == 30


class TestSelectors:
    def test_single_scenario_lookup(self):
        params = preset_model("table3:28:VV:LOS:CO", "CI")
        assert params == CiParams(1.1, 0.7)

    def test_block_lookup(self):
        params = preset_model("table5:nlos-cp", "CIF")
        assert params == CifParams(3.0, 0.20, 50.0, 10.9)

    def test_extension_lookup_carries_its_base(self):
        params = preset_model("table5:nlos-cp", "CIFX")
        assert isinstance(params, XpdExtension)
        assert params.xpd_db == 13.5
        assert params.base == CifParams(3.0, 0.20, 50.0, 10.9)

    def test_cross_polarized_catalog(self):
        params = preset_model("table4:73:LOS:CO", "CIX")
        assert params.xpd_db == 23.8
        assert params.base.ple_n == 1.2

    def test_combined_catalog(self):
        params = preset_model("table6:NLOS:CP", "ABG")
        assert params.alpha_dist == 2.8
        assert params.sigma_db == 12.2

    def test_tokens_are_case_insensitive(self):
        a = preset_report("TABLE3:28:vv:los:co")
        b = preset_report("table3:28:VV:LOS:CO")
        assert a == b

    def test_long_form_tokens(self):
        a = preset_report("table5:multi:NLOS:closed-plan")
        b = preset_report("table5:nlos-cp")
        assert a == b

    def test_rows_render_only_in_their_own_catalog_style(self):
        # report infers a preset's table from its rows, as it does for params
        for table in PRESET_TABLES:
            catalog = preset_report(table)
            for report in (catalog, *(FitReport((row,)) for row in catalog.rows)):
                assert render_tables(report) == render_table(report, table)

    def test_later_token_replaces_an_earlier_one_of_its_kind(self):
        assert preset_report("table3:28:73") == preset_report("table3:73")
        assert preset_report("table3:LOS:NLOS:CO") == preset_report("table3:NLOS:CO")

    def test_empty_tokens_are_skipped(self):
        assert preset_report("table3::28") == preset_report("table3:28")

    @pytest.mark.parametrize("selector", ["table3:multi:28", "table5:28", "table5:nlos-cp:LOS"])
    def test_contradicting_tokens_match_no_rows(self, selector):
        # multi and a frequency are kinds of their own, so both apply; a
        # later LOS replaces the fused pair's NLOS, and LOS has no CP block
        with pytest.raises(UsageError, match="matches no rows"):
            preset_report(selector)

    def test_unknown_table(self):
        with pytest.raises(UsageError, match="unknown preset table"):
            preset_report("table7:28")

    def test_unknown_token(self):
        with pytest.raises(UsageError, match="token"):
            preset_report("table3:28:VX")

    def test_no_matching_rows(self):
        with pytest.raises(UsageError, match="matches no rows"):
            preset_report("table3:29")

    def test_ambiguous_family_lookup(self):
        with pytest.raises(UsageError, match="ambiguous"):
            preset_model("table3:28:VV", "CI")

    def test_gap_never_stored_on_preset_rows(self):
        report = preset_report("table3")
        for row in report.rows:
            assert not hasattr(row, "delta_sigma_db")


PAIRS = ("LOS:CO", "LOS:OP", "NLOS:CO", "NLOS:OP", "NLOS:CP")

# each catalog's rows in order, as (family, scenario label, freq_ghz, source)
ROW_SEQUENCES = {
    "table3": [(family, f"{pair}:{pol}", freq, f"table3:{freq:g}:{pair}:{pol}")
               for freq in (28.0, 73.0) for pol in ("VV", "VH", "Comb") for pair in PAIRS
               for family in ("CI", "FI")],
    "table4": [("CIX", f"{pair}:VH", freq, f"table4:{freq:g}:{pair}:VH")
               for freq in (28.0, 73.0) for pair in PAIRS],
    "table5": [(family + x, f"{pair}:{pol}", None, f"table5:{pair}:{pol}")
               for pair in PAIRS for family in ("CI", "CIF", "ABG")
               for x, pol in (("", "VV"), ("X", "VH"))],
    "table6": [(family, f"{pair}:Comb", None, f"table6:{pair}:Comb")
               for pair in PAIRS for family in ("CI", "CIF", "ABG")],
}


@pytest.mark.parametrize("table", PRESET_TABLES)
def test_catalog_row_sequence(table):
    # rendering reorders rows, so the catalogs' own order is pinned here
    got = [(r.family, r.scenario.label(), r.freq_ghz, r.source)
           for r in preset_report(table).rows]
    assert got == ROW_SEQUENCES[table]
