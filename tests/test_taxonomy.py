"""Sample validation, scenario keys, and dataset partitioning."""

import copy
import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwpl import cli, presets
from mmwpl.errors import DataError, UsageError
from mmwpl.report import TABLE_STYLES, render_table
from mmwpl.taxonomy import (
    CODE,
    ENV_TOKENS,
    LABELS,
    LAYOUT_TOKENS,
    MEASURED_PAIRS,
    PAIRS,
    POL_TOKENS,
    Dataset,
    Environment,
    Layout,
    PathLossSample,
    Polarization,
    PolarizationClass,
    ScenarioKey,
    ensure_fit_ready,
    measured_scenarios,
    parse_scenario,
    partition_by_scenario,
    sample_violations,
    validate_sample,
)


def sample(freq=28.0, dist=10.0, loss=72.0, pol=Polarization.VV,
           env=Environment.NLOS, layout=Layout.CORRIDOR, **kw):
    return PathLossSample(freq, dist, loss, pol, env, layout, **kw)


class TestValidateSample:
    def test_accepts_typical_sample(self):
        assert validate_sample(sample()) == []

    def test_accepts_boundary_distance(self):
        assert validate_sample(sample(dist=1.0)) == []

    def test_rejects_sub_reference_distance(self):
        violations = validate_sample(sample(dist=0.5))
        assert len(violations) == 1
        assert "1 m" in violations[0]

    def test_rejects_nonpositive_path_loss(self):
        assert validate_sample(sample(loss=0.0))
        assert validate_sample(sample(loss=-3.0))

    def test_rejects_nonfinite_fields(self):
        assert validate_sample(sample(freq=float("nan")))
        assert validate_sample(sample(dist=float("inf")))
        assert validate_sample(sample(loss=float("nan")))

    def test_collects_multiple_violations(self):
        bad = sample(freq=-1.0, dist=0.2, loss=0.0)
        assert len(validate_sample(bad)) == 3

    def test_ids_are_optional_metadata(self):
        tagged = sample(tx_id="TX2", rx_id="RX11")
        assert validate_sample(tagged) == []
        assert tagged.tx_id == "TX2"


def stacked_mask_violations(f, d, pl):
    """sample_violations as once written: every rule's full-length mask kept,
    and the masks stacked to find the bad rows."""
    rules = [
        ("frequency must be finite and positive", ~(np.isfinite(f) & (f > 0))),
        ("distance must be finite", ~np.isfinite(d)),
        ("distance below the 1 m reference", np.isfinite(d) & (d < 1.0)),
        ("path loss must be finite", ~np.isfinite(pl)),
        ("path loss must be positive", np.isfinite(pl) & (pl <= 0)),
    ]
    return {
        int(i): [message for message, mask in rules if mask[i]]
        for i in np.flatnonzero(np.logical_or.reduce([mask for _, mask in rules]))
    }


MIXED_VALUES = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -3.0, 0.5, 1.0, 28.0, 72.0]


class TestSampleViolations:
    def check(self, f, d, pl):
        columns = [np.array(c, dtype=float) for c in (f, d, pl)]
        got, want = sample_violations(*columns), stacked_mask_violations(*columns)
        assert list(got.items()) == list(want.items())  # key order, message order
        assert all(type(i) is int for i in got)
        return got

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(0, 40))
    def test_matches_the_stacked_mask_reference(self, data, n):
        f, d, pl = (data.draw(st.lists(st.sampled_from(MIXED_VALUES), min_size=n, max_size=n))
                    for _ in range(3))
        self.check(f, d, pl)

    def test_empty_columns(self):
        assert self.check([], [], []) == {}

    @pytest.mark.parametrize("row", [(28.0, 10.0, 72.0), (-1.0, 0.5, 0.0),
                                     (float("nan"), float("inf"), float("-inf"))])
    def test_one_row(self, row):
        self.check(*([v] for v in row))

    def test_every_row_bad(self):
        n = 7
        got = self.check([0.0] * n, [0.5] * n, [-3.0] * n)
        assert list(got) == list(range(n))
        assert got[0] == ["frequency must be finite and positive",
                          "distance below the 1 m reference", "path loss must be positive"]

    def test_no_row_bad(self):
        assert self.check([28.0, 73.0, 1e-9], [1.0, 45.9, 1e30], [1e-9, 90.0, 1e300]) == {}


class TestMeasuredScenarios:
    def test_fifteen_keys(self):
        keys = measured_scenarios()
        assert len(keys) == 15
        assert len(set(keys)) == 15

    def test_grid_content(self):
        keys = set(measured_scenarios())
        # every polarization class covers the same five environment/layout pairs
        for pol in PolarizationClass:
            pairs = {(k.environment, k.layout) for k in keys
                     if k.polarization_class is pol}
            assert pairs == set(MEASURED_PAIRS)

    def test_los_closed_plan_not_measured(self):
        keys = measured_scenarios()
        assert all(
            not (k.environment is Environment.LOS and k.layout is Layout.CLOSED_PLAN)
            for k in keys
        )
        # the key itself stays representable
        unmeasured = ScenarioKey(
            Environment.LOS, Layout.CLOSED_PLAN, PolarizationClass.VV
        )
        assert unmeasured.label() == "LOS:CP:VV"

    def test_order_is_deterministic(self):
        assert measured_scenarios() == measured_scenarios()


class TestPartition:
    def make_mixed(self):
        return Dataset(
            (
                sample(pol=Polarization.VV, dist=5.0),
                sample(pol=Polarization.VH, dist=6.0),
                sample(pol=Polarization.VV, dist=7.0),
                sample(pol=Polarization.VV, env=Environment.LOS, dist=8.0),
                sample(pol=Polarization.VH, dist=9.0),
            ),
            provenance="unit",
        )

    def test_single_polarization_selection(self):
        ds = self.make_mixed()
        key = ScenarioKey(Environment.NLOS, Layout.CORRIDOR, PolarizationClass.VV)
        part = partition_by_scenario(ds, key)
        assert [s.distance_m for s in part] == [5.0, 7.0]

    def test_combined_takes_both_polarizations(self):
        ds = self.make_mixed()
        key = ScenarioKey(Environment.NLOS, Layout.CORRIDOR, PolarizationClass.COMBINED)
        part = partition_by_scenario(ds, key)
        assert [s.distance_m for s in part] == [5.0, 6.0, 7.0, 9.0]

    def test_empty_partition_is_fine(self):
        ds = self.make_mixed()
        key = ScenarioKey(Environment.LOS, Layout.CLOSED_PLAN, PolarizationClass.VV)
        assert len(partition_by_scenario(ds, key)) == 0

    def test_provenance_records_selection(self):
        ds = self.make_mixed()
        key = ScenarioKey(Environment.NLOS, Layout.CORRIDOR, PolarizationClass.VH)
        assert partition_by_scenario(ds, key).provenance == "unit[NLOS:CO:VH]"

    def test_partitions_tile_the_dataset(self):
        ds = self.make_mixed()
        total = 0
        for env, layout in MEASURED_PAIRS:
            for pol in (PolarizationClass.VV, PolarizationClass.VH):
                key = ScenarioKey(env, layout, pol)
                total += len(partition_by_scenario(ds, key))
        assert total == len(ds)

    def test_combined_cardinality_is_vv_plus_vh(self):
        ds = self.make_mixed()
        for env, layout in MEASURED_PAIRS:
            vv = partition_by_scenario(
                ds, ScenarioKey(env, layout, PolarizationClass.VV)
            )
            vh = partition_by_scenario(
                ds, ScenarioKey(env, layout, PolarizationClass.VH)
            )
            both = partition_by_scenario(
                ds, ScenarioKey(env, layout, PolarizationClass.COMBINED)
            )
            assert len(both) == len(vv) + len(vh)


def test_partition_and_arrays_match_a_row_filter():
    rng = random.Random(3)
    rows = [
        sample(freq=rng.choice((28.0, 73.0)), dist=rng.uniform(1.0, 50.0),
               loss=rng.uniform(60.0, 120.0), pol=rng.choice(list(Polarization)),
               env=rng.choice(list(Environment)), layout=rng.choice(list(Layout)),
               tx_id=rng.choice((None, "TX1", "TX2")))
        for _ in range(300)
    ]
    rng.shuffle(rows)
    ds = Dataset(tuple(rows), provenance="mixed")
    keys = [ScenarioKey(env, layout, pol) for env in Environment for layout in Layout
            for pol in PolarizationClass]
    for key in keys:
        expected = [s for s in rows
                    if s.environment is key.environment and s.layout is key.layout
                    and key.polarization_class.matches(s.polarization)]
        part = partition_by_scenario(ds, key)
        assert list(part) == expected
        f, d, pl = part.arrays()
        assert f.tolist() == [s.frequency_ghz for s in expected]
        assert d.tolist() == [s.distance_m for s in expected]
        assert pl.tolist() == [s.path_loss_db for s in expected]


class TestDataset:
    def test_frequencies_sorted_unique(self):
        ds = Dataset((sample(freq=73.0), sample(freq=28.0), sample(freq=73.0)))
        assert ds.frequencies() == (28.0, 73.0)

    def test_arrays_align_with_samples(self):
        ds = Dataset((sample(freq=28.0, dist=4.0, loss=70.0),
                      sample(freq=73.0, dist=8.0, loss=90.0)))
        f, d, pl = ds.arrays()
        assert list(f) == [28.0, 73.0]
        assert list(d) == [4.0, 8.0]
        assert list(pl) == [70.0, 90.0]

    def test_frozen_value_semantics(self):
        ds = Dataset((sample(), sample(freq=73.0)), provenance="unit")
        with pytest.raises(ValueError):
            ds.freq[0] = 1.0
        with pytest.raises(AttributeError):
            ds.provenance = "other"
        assert ds == Dataset((sample(), sample(freq=73.0)), provenance="unit")
        assert ds != Dataset((sample(), sample(freq=73.0)), provenance="other")
        assert copy.deepcopy(ds) == ds
        assert pickle.loads(pickle.dumps(ds)) == ds

    def test_from_columns_refuses_ragged_columns_before_taking_any(self):
        freq, dist, pl = np.array([28.0, 73.0]), np.array([4.0, 8.0]), np.array([70.0])
        codes, ids = np.zeros(2, dtype=np.int8), np.array([None, None], dtype=object)
        with pytest.raises(ValueError, match="^Dataset columns differ in length$"):
            Dataset.from_columns(freq, dist, pl, codes, codes, codes, ids, ids)
        assert all(column.flags.writeable for column in (freq, dist, pl, codes, ids))
        # a shared 0-d column does not make ragged 1-d ones acceptable
        with pytest.raises(ValueError, match="^Dataset columns differ in length$"):
            Dataset.from_columns(freq, dist, pl, 0, 0, 0, None, None)
        assert all(column.flags.writeable for column in (freq, dist, pl))

    @pytest.mark.parametrize("shape", ["1-d", "0-d"])
    @pytest.mark.parametrize("past_end", [False, True])
    @pytest.mark.parametrize("name, members", [("pol", Polarization), ("env", Environment),
                                               ("layout", Layout)])
    def test_from_columns_refuses_a_code_outside_its_enum(self, name, members, past_end, shape):
        code = len(members) if past_end else -1
        freq, dist, pl = np.array([28.0, 73.0]), np.array([4.0, 8.0]), np.array([70.0, 80.0])
        codes = {column: np.zeros(2, dtype=np.int8) for column in ("pol", "env", "layout")}
        codes[name] = np.array([0, code], np.int8) if shape == "1-d" else np.array(code, np.int8)
        ids = np.array([None, None], dtype=object)
        message = f"^Dataset column {name} holds a code outside 0..{len(members) - 1}$"
        with pytest.raises(ValueError, match=message):
            Dataset.from_columns(freq, dist, pl, *codes.values(), ids, ids)
        assert all(column.flags.writeable for column in (freq, dist, pl, *codes.values(), ids))

    @pytest.mark.parametrize("shape", ["1-d", "0-d"])
    @pytest.mark.parametrize("value", [256, -255, 257, 0.7, 1.9, np.nan, np.inf, -np.inf, "1"])
    @pytest.mark.parametrize("name, members", [("pol", Polarization), ("env", Environment),
                                               ("layout", Layout)])
    def test_from_columns_checks_codes_before_the_int8_cast(self, name, members, value, shape):
        # int8 would wrap 256 to 0 and truncate 1.9 to 1
        freq, dist, pl = np.array([28.0, 73.0]), np.array([4.0, 8.0]), np.array([70.0, 80.0])
        codes = {column: np.zeros(2, dtype=np.int8) for column in ("pol", "env", "layout")}
        codes[name] = np.array([0, value]) if shape == "1-d" else np.array(value)
        message = f"^Dataset column {name} holds a code outside 0..{len(members) - 1}$"
        with pytest.raises(ValueError, match=message):
            Dataset.from_columns(freq, dist, pl, *codes.values(), None, None)
        assert all(column.flags.writeable for column in (freq, dist, pl, *codes.values()))

    def test_from_columns_takes_whole_codes_of_any_numeric_dtype(self):
        ds = Dataset.from_columns(np.array([28.0, 73.0]), np.array([4.0, 8.0]),
                                  np.array([70.0, 80.0]), np.array([1.0, 0.0]),
                                  np.array([True, False]), np.array([2, 1], np.uint64), None, None)
        assert ds.pol.dtype == ds.env.dtype == ds.layout.dtype == np.int8
        assert [(s.polarization, s.environment, s.layout) for s in ds] == [
            (Polarization.VH, Environment.NLOS, Layout.CLOSED_PLAN),
            (Polarization.VV, Environment.LOS, Layout.OPEN_PLAN)]

    def test_from_columns_shares_a_0d_column(self):
        freq = np.array([28.0, 73.0, 28.0])
        ds = Dataset.from_columns(freq, freq * 0.1, freq + 40.0, 1, np.int8(0), 2, None, "tx")
        assert ds.pol.strides == ds.layout.strides == ds.tx_id.strides == (0,)
        assert not ds.pol.flags.writeable and not ds.tx_id.flags.writeable
        assert ds.pol.nbytes == 3 and ds.tx_id.nbytes == 3 * ds.tx_id.itemsize
        assert [(s.polarization, s.environment, s.layout, s.tx_id, s.rx_id) for s in ds] == [
            (Polarization.VH, Environment.LOS, Layout.CLOSED_PLAN, None, "tx")] * 3
        empty = ds.select(np.zeros(3, bool), "none")
        assert len(empty) == 0 and empty.pol.shape == (0,)

    def test_from_columns_refuses_no_1d_column_and_2d_columns(self):
        with pytest.raises(ValueError, match="^Dataset needs at least one 1-d column$"):
            Dataset.from_columns(28.0, 4.0, 70.0, 0, 0, 0, None, None)
        freq = np.array([[28.0, 73.0]])
        with pytest.raises(ValueError, match="^Dataset columns must be 1-d"):
            Dataset.from_columns(freq, freq, freq, 0, 0, 0, None, None)
        assert freq.flags.writeable

    def test_equality_with_another_type_is_not_implemented(self):
        assert (Dataset(()) == 1) is False
        assert Dataset(()).__eq__(1) is NotImplemented

    def test_ensure_fit_ready_rejects_empty(self):
        with pytest.raises(DataError, match="empty"):
            ensure_fit_ready(Dataset(()), "op")

    def test_ensure_fit_ready_reports_first_bad_index(self):
        ds = Dataset((sample(), sample(dist=0.5), sample(loss=-1.0)))
        with pytest.raises(DataError, match="index 1"):
            ensure_fit_ready(ds, "op")


class TestVocabulary:
    def test_token_sets(self):
        assert set(ENV_TOKENS) == {"los", "nlos"}
        assert set(LAYOUT_TOKENS) == {"co", "corridor", "op", "open-plan", "cp", "closed-plan"}
        assert set(POL_TOKENS) == {"vv", "v-v", "vh", "v-h", "comb", "comb.", "combined"}

    def test_each_member_by_value_name_and_label(self):
        for tokens, members in ((ENV_TOKENS, Environment), (LAYOUT_TOKENS, Layout),
                                (POL_TOKENS, PolarizationClass)):
            for m in members:
                for text in (m.value, m.name.replace("_", "-"), LABELS[m]):
                    assert tokens[text.lower()] is m

    def test_cli_and_presets_share_the_tables(self):
        assert cli.parse_scenario is parse_scenario
        assert presets.ENV_TOKENS is ENV_TOKENS
        assert presets.LAYOUT_TOKENS is LAYOUT_TOKENS
        assert presets.POL_TOKENS is POL_TOKENS

    def test_parse_scenario(self):
        assert parse_scenario(" NLOS : corridor ") == (Environment.NLOS, Layout.CORRIDOR, None)
        assert parse_scenario("los:OP:Comb.", need_pol=True) == (
            Environment.LOS, Layout.OPEN_PLAN, PolarizationClass.COMBINED)
        with pytest.raises(UsageError, match="needs a polarization"):
            parse_scenario("los:op", need_pol=True)
        for key in measured_scenarios():
            assert ScenarioKey(*parse_scenario(key.label())) == key

    @pytest.mark.parametrize("style", TABLE_STYLES)
    def test_every_printed_label_reads_back(self, style):
        report = presets.preset_report(style)
        header, _, *body = render_table(report, style).splitlines()
        columns = [cell.strip() for cell in header.split("|")]
        scenarios = set()
        for line in body:
            cells = dict(zip(columns, (cell.strip() for cell in line.split("|"))))
            env, layout, pol = parse_scenario(f"{cells['Env']}:{cells['L/O']}:"
                                              f"{cells.get('Pol', 'Comb.')}")
            assert (LABELS[env], LABELS[layout], LABELS[pol]) == (
                cells["Env"], cells["L/O"], cells.get("Pol", "Comb."))
            scenarios.add(ScenarioKey(env, layout, pol))
        assert scenarios == {row.scenario for row in report.rows}

    def test_codes_are_definition_positions(self):
        for members in (Polarization, Environment, Layout):
            assert [CODE[m] for m in members] == list(range(len(members)))

    def test_pairs(self):
        assert PAIRS[:len(MEASURED_PAIRS)] == MEASURED_PAIRS
        # each pair exactly once, so no pair drops out of default fits and tables
        assert sorted(PAIRS, key=str) == sorted(itertools.product(Environment, Layout), key=str)
