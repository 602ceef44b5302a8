"""End-to-end command-line behavior, run in process through main(argv)."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwpl import cli, dataio, presets
from mmwpl.cli import main
from mmwpl.errors import DomainError, NumericalError
from mmwpl.fitting import fit_cif
from mmwpl.models import CiParams, predict
from mmwpl.numformat import format_fixed
from mmwpl.report import FitReport, render_table, render_tables
from mmwpl.synthesis import SynthesisSpec, synthesize
from mmwpl.taxonomy import (
    Dataset,
    Environment,
    Layout,
    PolarizationClass,
    ScenarioKey,
)
from test_dataio import nested_cix_document

NLOS_CO_VV = ScenarioKey(Environment.NLOS, Layout.CORRIDOR, PolarizationClass.VV)
NLOS_CO_VH = ScenarioKey(Environment.NLOS, Layout.CORRIDOR, PolarizationClass.VH)

CSV_HEADER = ",".join(dataio.CSV_COLUMNS)


def synth_csv(path, model, scenario, freqs, seed):
    spec = SynthesisSpec(
        model=model,
        scenario=scenario,
        frequencies=freqs,
        distance_range_m=(3.9, 45.9),
        seed=seed,
    )
    dataio.write_csv(synthesize(spec), path)
    return str(path)


@pytest.fixture
def clean_ci_csv(tmp_path):
    """Noiseless single-frequency CI data with a known exponent of 2.5."""
    return synth_csv(
        tmp_path / "ci.csv", CiParams(2.5, 0.0), NLOS_CO_VV, ((28.0, 30),), seed=5
    )


class TestFit:
    def test_noiseless_pipeline_round_trip(self, clean_ci_csv, tmp_path, capsys):
        out = tmp_path / "params.json"
        assert main(["fit", "--input", clean_ci_csv, "--output", str(out)]) == 0
        report = dataio.read_params_json(str(out))
        row = report.single("CI", NLOS_CO_VV, 28.0)
        assert row.params.ple_n == pytest.approx(2.5, abs=1e-9)
        assert row.params.sigma_db == pytest.approx(0.0, abs=1e-9)
        table = capsys.readouterr().out
        assert " 2.5 " in table
        assert " 0.0 " in table

    def test_json_to_stdout_without_output(self, clean_ci_csv, capsys):
        assert main(["fit", "--input", clean_ci_csv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert {r["model"] for r in payload["rows"]} == {"CI", "FI"}

    def test_dual_polarization_gets_extensions_and_combined(self, tmp_path, capsys):
        vv = synthesize(SynthesisSpec(CiParams(2.5, 0.0), NLOS_CO_VV,
                                      ((28.0, 20),), (3.9, 45.9), seed=1))
        vh = synthesize(SynthesisSpec(CiParams(3.0, 0.0), NLOS_CO_VH,
                                      ((28.0, 20),), (3.9, 45.9), seed=2))
        path = tmp_path / "both.csv"
        dataio.write_csv(Dataset(vv.samples + vh.samples), path)
        assert main(["fit", "--input", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        families = {r["model"] for r in payload["rows"]}
        assert "CIX" in families
        pols = {r["scenario"]["polarization"] for r in payload["rows"]}
        assert pols == {"VV", "VH", "Comb"}
        cix = next(r for r in payload["rows"] if r["model"] == "CIX")
        assert cix["params"]["base"]["n"] == pytest.approx(2.5, abs=1e-9)
        assert cix["scenario"]["polarization"] == "VH"

    def test_multi_frequency_auto_families(self, tmp_path, capsys):
        path = synth_csv(tmp_path / "mf.csv", CiParams(2.5, 0.0), NLOS_CO_VV,
                         ((28.0, 20), (73.0, 20)), seed=3)
        assert main(["fit", "--input", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        per_freq = [(r["model"], r["freq_ghz"]) for r in payload["rows"]]
        assert ("CI", 28.0) in per_freq and ("FI", 73.0) in per_freq
        pooled = {m for m, f in per_freq if f is None}
        assert pooled == {"CI", "CIF", "ABG"}

    def test_scenario_flag_restricts_partitions(self, tmp_path, capsys):
        vv = synthesize(SynthesisSpec(CiParams(2.5, 0.0), NLOS_CO_VV,
                                      ((28.0, 20),), (3.9, 45.9), seed=1))
        vh = synthesize(SynthesisSpec(CiParams(3.0, 0.0), NLOS_CO_VH,
                                      ((28.0, 20),), (3.9, 45.9), seed=2))
        path = tmp_path / "both.csv"
        dataio.write_csv(Dataset(vv.samples + vh.samples), path)
        assert main(["fit", "--input", str(path),
                     "--scenario", "NLOS:CO:VV"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {r["scenario"]["polarization"] for r in payload["rows"]} == {"VV"}


class TestPredict:
    def test_preset_point_prediction(self, capsys):
        assert main(["predict", "--preset", "table3:28:VV:LOS:CO",
                     "--model", "CI", "--f", "28", "--d", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "freq_ghz,distance_m,path_loss_db"
        freq, dist, loss = lines[1].split(",")
        assert (freq, dist) == ("28", "10")
        assert float(loss) == pytest.approx(72.39, abs=0.01)

    def test_fi_needs_no_frequency(self, capsys):
        assert main(["predict", "--preset", "table3:28:VV:LOS:CO",
                     "--model", "FI", "--d", "10"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == ",10,72.6000"

    def test_grid_expands_frequencies_times_distances(self, capsys):
        assert main(["predict", "--preset", "table5:nlos-cp", "--model", "CIF",
                     "--f", "28", "73", "--d", "5", "10", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 2 * 3
        assert lines[1].startswith("28,5,")
        assert lines[-1].startswith("73,20,")

    @pytest.mark.parametrize("selector, family, filters", [
        ("table5:nlos-cp", "CIF", ["--scenario", "LOS:CO:VV"]),
        ("table5:nlos-cp", "CIF", ["--fit-freq", "28"]),
        ("table3:28:VV:LOS:CO", "CI", ["--fit-freq", "73"]),
        ("table3:28:VV:LOS:CO", "CI", ["--scenario", "LOS:CO:VH"]),
    ])
    def test_preset_rows_that_the_filters_exclude_are_usage(self, selector, family, filters):
        code, out, err, _ = run_main(["predict", "--preset", selector, "--model", family,
                                      *filters, "--f", "28", "--d", "10"])
        assert (code, out, err) == (2, "", f"usage error: no {family} row matches the request\n")

    @pytest.mark.parametrize("selector, family, filters, unfiltered", [
        ("table5:nlos-cp", "CIF", ["--scenario", "nlos:cp:vv", "--fit-freq", "multi"],
         "table5:nlos-cp"),
        ("table3:28:VV:LOS:CO", "FI", ["--scenario", "LOS:CO:VV", "--fit-freq", "28"],
         "table3:28:VV:LOS:CO"),
        ("table5", "ABGX", ["--scenario", "NLOS:OP:VH"], "table5:nlos-op"),
    ])
    def test_preset_rows_that_the_filters_keep_print_the_same(self, selector, family,
                                                             filters, unfiltered):
        grid = ["--f", "28", "73", "--d", "1", "10", "45.9"]
        expected = run_main(["predict", "--preset", unfiltered, "--model", family, *grid])
        assert expected[0] == 0
        assert run_main(["predict", "--preset", selector, "--model", family,
                         *filters, *grid]) == expected

    def test_params_file_with_row_filters(self, clean_ci_csv, tmp_path, capsys):
        out = tmp_path / "params.json"
        main(["fit", "--input", clean_ci_csv, "--output", str(out)])
        capsys.readouterr()
        assert main(["predict", "--params", str(out), "--model", "CI",
                     "--scenario", "NLOS:CO:VV", "--fit-freq", "28",
                     "--f", "28", "--d", "10"]) == 0
        loss = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
        # free space at 1 m plus 2.5 decades of exponent 2.5
        assert loss == pytest.approx(61.390944 + 25.0, abs=1e-4)


class TestSynth:
    def test_stdout_csv_has_pinned_header(self, capsys):
        assert main(["synth", "--preset", "table3:28:VV:NLOS:CO", "--model", "CI",
                     "--scenario", "NLOS:CO:VV", "--freqs", "28:5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6

    def test_same_seed_is_byte_identical(self, tmp_path):
        argv = ["synth", "--preset", "table5:nlos-cp", "--model", "CIF",
                "--scenario", "NLOS:CP:VV", "--freqs", "28:40,73:40",
                "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        argv = ["synth", "--preset", "table5:nlos-cp", "--model", "CIF",
                "--scenario", "NLOS:CP:VV", "--freqs", "28:40,73:40"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--seed", "11", "--output", str(a)]) == 0
        assert main(argv + ["--seed", "12", "--output", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_fit_freq_selects_a_preset_row_the_scenario_only_tags(self):
        argv = ["synth", "--preset", "table3:VV:LOS:CO", "--model", "CI",
                "--scenario", "NLOS:CP:VH", "--freqs", "28:5"]
        assert run_main(argv)[:3] == (2, "", "usage error: CI selection is ambiguous (2 rows)\n")
        code, out, err, _ = run_main(argv + ["--fit-freq", "73"])
        assert (code, err) == (0, "")
        assert out == run_main(["synth", "--preset", "table3:73:VV:LOS:CO", "--model", "CI",
                                "--scenario", "NLOS:CP:VH", "--freqs", "28:5"])[1]
        assert out.splitlines()[1].endswith(",VH,NLOS,CP,,")


class TestReport:
    def test_preset_block_contains_published_values(self, capsys):
        assert main(["report", "--preset", "table5:nlos-cp"]) == 0
        text = capsys.readouterr().out
        assert "3.0" in text and "0.20" in text and "50" in text
        # two header lines plus one six-family block
        assert len(text.rstrip("\n").splitlines()) == 2 + 6

    def test_style_override(self, capsys):
        assert main(["report", "--preset", "table3:28:VV:LOS:CO",
                     "--style", "table3"]) == 0
        out = capsys.readouterr().out
        assert "PLE" in out and "1.1" in out

    def test_params_file_report(self, clean_ci_csv, tmp_path, capsys):
        out = tmp_path / "params.json"
        main(["fit", "--input", clean_ci_csv, "--output", str(out)])
        capsys.readouterr()
        assert main(["report", "--params", str(out)]) == 0
        text = capsys.readouterr().out
        assert "2.5" in text and "PLE" in text


class TestCompare:
    def test_single_frequency_sigma_gap(self, clean_ci_csv, capsys):
        assert main(["compare", "--input", clean_ci_csv]) == 0
        text = capsys.readouterr().out
        assert "single frequency: 28 GHz" in text
        assert "n=2.50" in text
        assert "sigma gap (CI - FI): 0.00 dB" in text

    def test_multi_frequency_families(self, tmp_path, capsys):
        path = synth_csv(tmp_path / "mf.csv", CiParams(2.5, 0.0), NLOS_CO_VV,
                         ((28.0, 20), (73.0, 20)), seed=9)
        assert main(["compare", "--input", path]) == 0
        text = capsys.readouterr().out
        assert "multi-frequency: 28, 73 GHz" in text
        assert "CIF" in text and "ABG" in text and "f0=51" in text
        # a given f0 is fitted as given and printed in whole GHz, ties away from zero
        assert main(["compare", "--input", path, "--f0", "50.5"]) == 0
        cif = fit_cif(dataio.read_csv(path)[0], 50.5)
        assert (f"CIF : n={format_fixed(cif.n, 2)}  b={format_fixed(cif.b, 2)}  f0=51 GHz  "
                f"sigma={format_fixed(cif.sigma_db, 2)} dB\n") in capsys.readouterr().out


class TestDeterminism:
    def test_synth_fit_report_twice_byte_identical(self, tmp_path, capsys):
        """Same config, same seed: every artifact of the pipeline repeats."""
        csv = tmp_path / "samples.csv"
        params = tmp_path / "params.json"
        table = tmp_path / "table.txt"

        def run():
            assert main(["synth", "--preset", "table5:nlos-cp", "--model", "CIF",
                         "--scenario", "NLOS:CP:VV", "--freqs", "28:60,73:60",
                         "--seed", "42", "--output", str(csv)]) == 0
            assert main(["fit", "--input", str(csv), "--output", str(params)]) == 0
            capsys.readouterr()
            assert main(["report", "--params", str(params),
                         "--style", "table5", "--output", str(table)]) == 0
            return csv.read_bytes(), params.read_bytes(), table.read_bytes()

        assert run() == run()


class TestExitCodes:
    def test_bad_preset_selector_is_usage(self, capsys):
        assert main(["report", "--preset", "table9:nlos-cp"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_model_family_is_usage(self, capsys):
        assert main(["predict", "--preset", "table3:28", "--model", "XX",
                     "--d", "10"]) == 2
        assert "usage error" in capsys.readouterr().err
        assert main(["predict", "--preset", "table3:28", "--model", "XYZ",
                     "--d", "10"]) == 2
        assert ("unknown model family 'XYZ'; choose from "
                "('CI', 'FI', 'ABG', 'CIF', 'CIX', 'ABGX', 'CIFX')") in capsys.readouterr().err

    def test_missing_frequency_for_ci_is_usage(self, capsys):
        assert main(["predict", "--preset", "table3:28:VV:LOS:CO",
                     "--model", "CI", "--d", "10"]) == 2
        assert "--freq" in capsys.readouterr().err

    def test_missing_input_file_is_data(self, capsys):
        assert main(["fit", "--input", "/no/such/file.csv"]) == 3
        assert "data error" in capsys.readouterr().err

    def test_synth_combined_polarization_is_data(self, capsys):
        assert main(["synth", "--preset", "table3:28:VV:LOS:CO", "--model", "CI",
                     "--scenario", "NLOS:CO:comb", "--freqs", "28:5"]) == 3
        assert "data error" in capsys.readouterr().err

    def test_multi_family_on_single_frequency_is_numerical(self, clean_ci_csv, capsys):
        assert main(["fit", "--input", clean_ci_csv, "--families", "abg"]) == 4
        err = capsys.readouterr().err
        assert "numerical error" in err and "frequency" in err

    def test_argparse_misuse_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit"])  # --input is required
        assert exc.value.code == 2
        capsys.readouterr()

    def test_negative_synth_seed_is_data(self, tmp_path, capsys):
        assert main(["synth", "--preset", "table3:28:VV:LOS:CO", "--model", "CI",
                     "--scenario", "NLOS:CO:VV", "--freqs", "28:5", "--seed", "-1",
                     "--output", str(tmp_path / "out.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "seed" in err

    def test_field_over_csv_limit_is_data(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        rows = [CSV_HEADER, "28,10.0,72.39,VV,NLOS,CO,TX1,RX1",
                "28,20.0,80.0,VV,NLOS,CO," + "T" * 200_000 + ",RX2",
                "28,30.0,85.0,VV,NLOS,CO,TX1,RX3"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        for mode in ("strict", "lax"):
            assert main(["fit", "--input", str(path), "--mode", mode]) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error: read_csv: row 2: field larger than field limit")

    def test_overflowing_fit_is_numerical(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        rows = [CSV_HEADER] + [f"{f},{3.0 + i},{1.7e308 - i * 1e306!r},VV,NLOS,CO,,"
                               for f in (28, 73) for i in range(19)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["fit", "--input", str(path)]) == 4
        assert capsys.readouterr().err.startswith("numerical error: fit_ci: non-finite")

    def test_overflowing_fit_prints_only_the_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        rows = [CSV_HEADER] + [f"{f},{3.0 + i},{1.7e308 - i * 1e306!r},VV,NLOS,CO,,"
                               for f in (28, 73) for i in range(19)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fit", "--input", str(path)]) == 4
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("numerical error: fit_ci: non-finite")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("where", ["header", "row 1"])
    def test_non_utf8_csv_is_data(self, tmp_path, capsys, where):
        path = tmp_path / "latin.csv"
        header, row = CSV_HEADER.encode(), b"28,10.0,72.39,VV,NLOS,CO,TX1,RX1"
        if where == "header":
            header = header.replace(b"tx_id", b"tx_\xffid")
        else:
            row = row.replace(b"TX1", b"TX\xff")
        path.write_bytes(header + b"\n" + row + b"\n")
        for mode in ("strict", "lax"):
            assert main(["fit", "--input", str(path), "--mode", mode]) == 3
            err = capsys.readouterr().err
            assert err == ("data error: read_csv: input is not UTF-8 text "
                           "(invalid start byte: 0xff)\n")

    def test_non_utf8_params_is_data(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_bytes(b'{"schema_version": 1, "rows": [], "note": "\xff"}\n')
        assert main(["report", "--params", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == ("data error: read_params_json: input is not UTF-8 text "
                       "(invalid start byte: 0xff)\n")

    def test_scenario_without_polarization_for_synth(self, capsys):
        assert main(["synth", "--preset", "table3:28:VV:LOS:CO", "--model", "CI",
                     "--scenario", "NLOS:CO", "--freqs", "28:5"]) == 2
        assert "polarization" in capsys.readouterr().err


class TestIngestionModes:
    @pytest.fixture
    def flawed_csv(self, tmp_path):
        path = tmp_path / "flawed.csv"
        rows = [
            CSV_HEADER,
            "28,10.0,72.39,VV,NLOS,CO,TX1,RX1",
            "28,20.0,80.0,VV,NLOS,CO,TX1,RX2",
            "28,0.5,60.0,VV,NLOS,CO,TX1,RX3",
        ]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return str(path)

    def test_strict_mode_rejects(self, flawed_csv, capsys):
        assert main(["fit", "--input", flawed_csv]) == 3
        assert "row 3" in capsys.readouterr().err

    def test_lax_mode_reports_skips_and_fits(self, flawed_csv, capsys):
        assert main(["fit", "--input", flawed_csv, "--mode", "lax"]) == 0
        captured = capsys.readouterr()
        assert "skipped row 3" in captured.err
        payload = json.loads(captured.out)
        assert payload["rows"][0]["n_samples"] == 2

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        rows = [CSV_HEADER, "28,10.0,72.39,VV,NLOS,CO,TX1,RX1",
                "28,20.0,80.0,VV,NLOS,CO,TX1,RX2"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        dataset, skipped = dataio.read_csv(str(path))
        assert len(dataset) == 2 and skipped == []
        assert main(["compare", "--input", str(path)]) == 0
        assert "comparison on all samples (2 samples)" in capsys.readouterr().out

    def test_duplicate_column_is_data(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        rows = [CSV_HEADER + ",freq_ghz", "28,10.0,72.39,VV,NLOS,CO,,,73",
                "28,20.0,80.0,VV,NLOS,CO,,,73"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        for mode in ("strict", "lax"):
            assert main(["compare", "--input", str(path), "--mode", mode]) == 3
            err = capsys.readouterr().err
            assert "data error: read_csv: duplicate column(s) ['freq_ghz']" in err


# a few rows a fit accepts, so that the bytes after them can reach the estimators
FIT_ROWS = [f"{f},{d},{60.0 + 2.5 * d + (f == 73) * 9.0},{pol},NLOS,CO,TX1,RX{d}"
            for f in (28, 73) for pol in ("VV", "VH") for d in (3, 7, 12, 20, 31)]

CSV_BYTES = st.one_of(
    st.binary(max_size=300),
    st.text(st.sampled_from(list('0123456789.,-+e \n\r"VHNLOSCPTRXnaif\0é')),
            max_size=300).map(str.encode),
)


class TestFitFuzz:
    @settings(max_examples=300, deadline=None)
    @given(body=CSV_BYTES, header=st.booleans(), rows=st.sampled_from([0, 5, 20]),
           mode=st.sampled_from(["strict", "lax"]))
    def test_arbitrary_bytes_exit_with_a_classified_code(self, tmp_path_factory, body,
                                                        header, rows, mode):
        path = tmp_path_factory.getbasetemp() / "fuzz-fit.csv"
        lines = [CSV_HEADER, *FIT_ROWS[:rows]] if header else []
        path.write_bytes("".join(line + "\n" for line in lines).encode() + body)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["fit", "--input", str(path), "--mode", mode])
        assert code in (0, 2, 3, 4)


def run_main(argv):
    """(exit code, stdout, stderr, warning messages) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def params_file(tmp_path, edit):
    """A fitted params JSON with one edit applied to its parsed document."""
    spec = SynthesisSpec(CiParams(2.5, 1.0), NLOS_CO_VV, ((28.0, 20), (73.0, 20)),
                         (3.9, 45.9), seed=5)
    vv = synthesize(spec)
    vh = synthesize(dataclasses.replace(spec, scenario=NLOS_CO_VH, seed=6))
    csv_path = tmp_path / "ci.csv"
    dataio.write_csv(Dataset(vv.samples + vh.samples), csv_path)
    out = tmp_path / "params.json"
    assert run_main(["fit", "--input", str(csv_path), "--output", str(out)])[0] == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    edit(doc["rows"])
    out.write_text(json.dumps(doc), encoding="utf-8")
    return str(out)


def set_param(row, name, value):
    def edit(rows):
        rows[row]["params"][name] = value
    return edit


def params_commands(path):
    """report, predict and synth, each reading the params JSON at path."""
    return (["report", "--params", path, "--style", "table3"],
            ["predict", "--params", path, "--model", "CI", "--scenario",
             "NLOS:CO:VV", "--fit-freq", "multi", "--f", "28", "--d", "5"],
            ["synth", "--params", path, "--model", "CI", "--scenario",
             "NLOS:CO:VV", "--fit-freq", "multi", "--freqs", "28:5"])


class TestNonFiniteInputs:
    def test_overflowing_frequency_is_numerical(self):
        code, out, err, caught = run_main(["predict", "--preset", "table5:nlos-cp",
                                           "--model", "CIF", "--freq", "1e308", "--d", "5"])
        assert (code, out, caught) == (4, "", [])
        assert err == ("numerical error: predict: non-finite CIF mean path loss, "
                       "the inputs overflow float64\n")

    def test_overflowing_params_are_numerical(self, tmp_path):
        path = params_file(tmp_path, set_param(0, "n", 1e308))
        code, out, err, caught = run_main(["predict", "--params", path, "--model", "CI",
                                           "--scenario", "NLOS:CO:VV", "--fit-freq", "28",
                                           "--f", "28", "--d", "1e300"])
        assert (code, out, caught) == (4, "", [])
        assert err.startswith("numerical error: predict: non-finite CI mean path loss")
        assert err.count("\n") == 1

    def test_overflowing_synthesis_is_numerical(self):
        top = "1.7976931348623157e308"
        for options, error in (
                (["--freqs", "1e308:5"], "numerical error: predict: non-finite CIF"),
                (["--freqs", "28:3", "--dmin", top, "--dmax", top],
                 "numerical error: synthesize: drawn distance overflows float64\n")):
            code, out, err, caught = run_main(["synth", "--preset", "table5:nlos-cp",
                                               "--model", "CIF", "--scenario", "NLOS:CP:VV",
                                               *options])
            assert (code, out, caught) == (4, "", [])
            assert err.startswith(error)

    @pytest.mark.parametrize("edit, field", [
        (set_param(1, "alpha_db", float("nan")), "FI parameter alpha_db"),
        (set_param(0, "n", float("inf")), "CI parameter n"),
        (lambda rows: next(r for r in rows if r["model"] == "CIFX")["params"]["base"]
         .__setitem__("b", float("-inf")), "CIF parameter b"),
        (lambda rows: rows[0].__setitem__("freq_ghz", float("nan")), "freq_ghz"),
        (lambda rows: rows[0].__setitem__("freq_ghz", "28"), "freq_ghz"),
        (set_param(0, "sigma_db", True), "CI parameter sigma_db"),
    ], ids=["fi-nan", "ci-inf", "xpd-base", "freq-nan", "freq-text", "bool"])
    def test_non_finite_params_are_data(self, tmp_path, edit, field):
        path = params_file(tmp_path, edit)
        for argv in params_commands(path):
            code, out, err, _ = run_main(argv)
            assert (code, out) == (3, "")
            assert err.startswith("data error: read_params_json:")
            assert f"{field} must be a finite number" in err
            assert err.count("read_params_json") == 1

    def test_bad_fit_frequency_is_usage(self, tmp_path):
        path = params_file(tmp_path, lambda rows: None)
        code, _, err, _ = run_main(["predict", "--params", path, "--model", "CI",
                                    "--fit-freq", "abc", "--f", "28", "--d", "5"])
        assert code == 2
        assert err == "usage error: --fit-freq 'abc' must be a GHz value or 'multi'\n"


GRID_VALUES = ["28", "73", "5", "45.9", "1", "0.5", "0", "-3", "1e-300", "1e308",
               "inf", "nan"]
PRESET_MODELS = [("table5:nlos-cp", family)
                 for family in ("CI", "CIX", "CIF", "CIFX", "ABG", "ABGX")]
PRESET_MODELS.append(("table3:28:VV:LOS:CO", "FI"))


def per_point_predict(model, freqs, dists):
    """_cmd_predict's output as a loop of scalar predict calls, or its first error."""
    lines = ["freq_ghz,distance_m,path_loss_db"]
    try:
        for f in freqs:
            for d in dists:
                loss = predict(model, f, d)
                f_cell = "" if f is None else f"{f:g}"
                lines.append(f"{f_cell},{d:g},{loss:.4f}")
    except DomainError as exc:
        return 3, "", f"data error: {exc}\n"
    except NumericalError as exc:
        return 4, "", f"numerical error: {exc}\n"
    return 0, "\n".join(lines) + "\n", ""


class TestPredictGrid:
    @settings(max_examples=300, deadline=None)
    @given(preset=st.sampled_from(PRESET_MODELS),
           freqs=st.lists(st.sampled_from(GRID_VALUES[:3] * 3 + GRID_VALUES), max_size=4),
           dists=st.lists(st.sampled_from(GRID_VALUES[1:5] * 3 + GRID_VALUES), min_size=1,
                          max_size=8))
    def test_matches_the_per_point_loop(self, preset, freqs, dists):
        selector, family = preset
        if family != "FI" and not freqs:
            freqs = ["28"]
        argv = ["predict", "--preset", selector, "--model", family, "--d", *dists]
        if freqs:
            argv += ["--f", *freqs]
        code, out, err, caught = run_main(argv)
        model = presets.preset_model(selector, family)
        grid_freqs = [float(f) for f in freqs] if freqs else [None]
        assert (code, out, err) == per_point_predict(model, grid_freqs,
                                                     [float(d) for d in dists])
        assert caught == []

    @pytest.mark.parametrize("family, freqs, dists, error", [
        ("CI", ["28"], ["5", "0.5", "inf"], "data error: distance below the 1 m reference"),
        ("CI", ["28"], ["5", "inf", "0.5"], "data error: distance must be finite"),
        ("CI", ["28", "-3"], ["inf"], "data error: distance must be finite"),
        ("CI", ["-3"], ["5", "inf"], "data error: frequency must be finite and positive"),
        ("ABG", ["-3"], ["inf"], "data error: frequency must be finite and positive"),
        ("CIF", ["28", "1e308"], ["5", "10"], "numerical error: predict: non-finite"),
        ("CIF", ["1e308"], ["5", "0.5"], "numerical error: predict: non-finite"),
        ("CIF", ["1e308"], ["0.5", "5"], "data error: distance below the 1 m reference"),
        ("FI", ["-5"], ["5"], "data error: frequency must be finite and positive"),
        ("FI", ["28", "nan"], ["5", "10"], "data error: frequency must be finite and positive"),
        ("FI", ["inf"], ["0.5"], "data error: frequency must be finite and positive"),
        ("FI", ["28", "-5"], ["5", "0.5"], "data error: distance below the 1 m reference"),
    ])
    def test_first_failing_point_names_the_error(self, family, freqs, dists, error):
        selector = "table3:28:VV:LOS:CO" if family == "FI" else "table5:nlos-cp"
        code, out, err, _ = run_main(["predict", "--preset", selector,
                                      "--model", family, "--f", *freqs, "--d", *dists])
        assert (code, out) == (3 if error.startswith("data") else 4, "")
        assert err.startswith(error)


ARGV_NUMBERS = st.sampled_from(GRID_VALUES + ["-inf", "-1e308", "-0", "1e-5", "3.9"])


class TestPredictFuzz:
    @settings(max_examples=300, deadline=None)
    @given(preset=st.sampled_from(PRESET_MODELS),
           freqs=st.lists(ARGV_NUMBERS, max_size=4),
           dists=st.lists(ARGV_NUMBERS, max_size=6))
    def test_grids_exit_with_a_classified_code(self, preset, freqs, dists):
        selector, family = preset
        argv = ["predict", "--preset", selector, "--model", family]
        argv += ["--f", *freqs] if freqs else []
        argv += ["--d", *dists] if dists else []
        code, _, err, caught = run_main(argv)
        assert code in (0, 2, 3, 4)
        assert caught == []
        assert "Warning" not in err


class TestScenarioVocabulary:
    @pytest.mark.parametrize("scenario, message", [
        ("NLOS", "scenario 'NLOS' must be ENV:LAYOUT or ENV:LAYOUT:POL"),
        ("NLOS:CO:VV:x", "scenario 'NLOS:CO:VV:x' must be ENV:LAYOUT or ENV:LAYOUT:POL"),
        ("XLOS:CO", "unknown environment 'xlos' in scenario 'XLOS:CO'"),
        ("NLOS: Hall ", "unknown layout 'hall' in scenario 'NLOS: Hall '"),
        ("NLOS:CO:HH", "unknown polarization 'hh' in scenario 'NLOS:CO:HH'"),
    ])
    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_usage_errors_are_pinned(self, clean_ci_csv, command, scenario, message):
        code, out, err, _ = run_main([command, "--input", clean_ci_csv,
                                      "--scenario", scenario])
        assert (code, out, err) == (2, "", f"usage error: {message}\n")

    @pytest.mark.parametrize("command", ["synth", "predict"])
    def test_missing_polarization_is_pinned(self, tmp_path, command):
        path = params_file(tmp_path, lambda rows: None)
        argv = [command, "--params", path, "--model", "CI", "--scenario", "NLOS:CO"]
        argv += ["--freqs", "28:5"] if command == "synth" else ["--f", "28", "--d", "5"]
        code, out, err, _ = run_main(argv)
        assert (code, out) == (2, "")
        assert err == ("usage error: scenario 'NLOS:CO' needs a polarization "
                       "(ENV:LAYOUT:POL)\n")

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_combined_table_label_is_accepted(self, tmp_path, command):
        los_co = ScenarioKey(Environment.LOS, Layout.CORRIDOR, PolarizationClass.VV)
        vv = synthesize(SynthesisSpec(CiParams(1.7, 2.0), los_co, ((28.0, 20),),
                                      (3.9, 45.9), seed=3))
        vh = synthesize(SynthesisSpec(CiParams(2.4, 2.0), dataclasses.replace(
            los_co, polarization_class=PolarizationClass.VH), ((28.0, 20),), (3.9, 45.9),
            seed=4))
        path = tmp_path / "los_co.csv"
        dataio.write_csv(Dataset(vv.samples + vh.samples), path)
        results = [run_main([command, "--input", str(path), "--scenario", scenario])
                   for scenario in ("los:co:comb.", "LOS:CO:Comb")]
        assert results[0][0] == 0
        assert results[0] == results[1]
        assert "Comb" in results[0][1]


class TestSynthChecksItsRows:
    def test_negative_path_loss_is_data(self):
        code, out, err, caught = run_main(["synth", "--preset", "table5:nlos-cp",
                                           "--model", "CIF", "--scenario", "nlos:cp:vv",
                                           "--freqs", "0.001:3"])
        assert (code, out, caught) == (3, "", [])
        assert err == ("data error: synthesize: 2 invalid sample(s), first at index 1: "
                       "path loss must be positive\n")


class TestHugeValues:
    def test_report_prints_a_huge_exponent(self, tmp_path):
        path = params_file(tmp_path, set_param(0, "n", 1e308))
        code, out, err, caught = run_main(["report", "--params", path, "--style", "table3"])
        assert (code, err, caught) == (0, "", [])
        assert "1" + "0" * 308 + ".0" in out

    def test_fit_at_huge_frequencies(self, tmp_path):
        path = tmp_path / "big.csv"
        rows = ["1e30,5,900,VV,NLOS,CO", "1e30,10,910,VV,NLOS,CO",
                "2e30,5,905,VV,NLOS,CO", "2e30,20,930,VV,NLOS,CO"]
        header = ",".join(dataio.CSV_COLUMNS[:6])
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        out_path = tmp_path / "p.json"
        code, out, err, caught = run_main(["fit", "--input", str(path),
                                           "--output", str(out_path)])
        assert (code, err, caught) == (0, "", [])
        assert "1500000000000000200000000000000" in out  # CIF f0 in whole GHz
        cif = dataio.read_params_json(str(out_path)).single("CIF", freq_ghz=None)
        assert cif.params.f0_ghz == np.mean([1e30, 1e30, 2e30, 2e30])  # already whole

    @pytest.mark.parametrize("count", [10**20, 2**61])
    def test_unsizable_synth_count_is_data(self, count):
        code, out, err, caught = run_main(["synth", "--preset", "table3:28:VV:LOS:CO",
                                           "--model", "CI", "--scenario", "LOS:CO:VV",
                                           "--freqs", f"28:{count}"])
        assert (code, out, err, caught) == (
            3, "", f"data error: synthesize: bad sample count {count}\n", [])

    # each block passes the per-block guard, but numpy cannot allocate the
    # total's columns, and refuses at once, touching no memory
    @pytest.mark.parametrize("freqs, total", [(f"28:{10**15}", 10**15),
                                              (f"28:{2**59},73:{2**59}", 2**60)])
    def test_unallocatable_synth_total_is_data(self, freqs, total):
        code, out, err, caught = run_main(["synth", "--preset", "table5:nlos-cp",
                                           "--model", "CIF", "--scenario", "NLOS:CP:VV",
                                           "--freqs", freqs])
        assert (code, out, err, caught) == (
            3, "", f"data error: synthesize: cannot allocate {total} samples\n", [])


class TestParamsDocumentShape:
    @pytest.mark.parametrize("rows, message", [
        (5, "rows must be a list, got int"),
        (None, "rows must be a list, got NoneType"),
    ], ids=["int", "null"])
    def test_rows_that_are_no_list_are_data(self, tmp_path, rows, message):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"schema_version": 1, "rows": rows}), encoding="utf-8")
        for argv in params_commands(str(path)):
            assert run_main(argv)[:3] == (3, "", f"data error: read_params_json: {message}\n")

    def test_row_model_must_match_its_params(self, tmp_path):
        # the V-V multi-frequency CI row given the 28 GHz FI row's parameters
        path = params_file(tmp_path, lambda rows: rows[4].__setitem__("params", rows[1]["params"]))
        for argv in params_commands(path):
            assert run_main(argv)[:3] == (3, "", "data error: read_params_json: bad report row: "
                                                 "model 'CI' does not match its params' model 'FI'\n")

    @pytest.mark.parametrize("value, kind", [("x", "str"), (5.0, "float"), (None, "NoneType"),
                                             ([], "list")])
    @pytest.mark.parametrize("field", ["base", "params"])
    def test_non_object_params_are_data(self, tmp_path, field, value, kind):
        def edit(rows):
            row = next(r for r in rows if r["model"] == "CIX")
            if field == "base":
                row["params"]["base"] = value
            else:
                row["params"] = value
        path = params_file(tmp_path, edit)
        what = "CIX parameter base" if field == "base" else "params"
        for argv in params_commands(path):
            assert run_main(argv)[:3] == (3, "", "data error: read_params_json: bad parameter "
                                                 f"object: {what} must be a JSON object, "
                                                 f"got {kind}\n")

    @pytest.mark.parametrize("value, kind", [(5, "int"), ("x", "str"), (None, "NoneType"),
                                             ([], "list")])
    @pytest.mark.parametrize("field", ["row", "scenario"])
    def test_non_object_rows_and_scenarios_are_data(self, tmp_path, field, value, kind):
        def edit(rows):
            if field == "row":
                rows.append(value)
            else:
                rows[0]["scenario"] = value
        path = params_file(tmp_path, edit)
        for argv in params_commands(path):
            assert run_main(argv)[:3] == (3, "", "data error: read_params_json: bad report row: "
                                                 f"{field} must be a JSON object, got {kind}\n")

    @pytest.mark.parametrize("digits, message", [
        (400, "bad parameter object: CI parameter n must be a finite number, got 1000"),
        (5000, ""),  # over int's string digit limit where Python has one: invalid JSON
    ], ids=["beyond-float", "beyond-int-digits"])
    def test_huge_integer_parameter_is_data(self, tmp_path, digits, message):
        path = params_file(tmp_path, set_param(0, "n", "HUGE"))
        with open(path, encoding="utf-8") as stream:
            text = stream.read().replace('"HUGE"', "1" + "0" * digits)
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(text)
        for argv in params_commands(path):
            code, out, err, caught = run_main(argv)
            assert (code, out, caught) == (3, "", [])
            assert err.startswith(f"data error: read_params_json: {message}")

    @pytest.mark.parametrize("text, kind", [
        ("[" * 100_000 + "]" * 100_000, "array"),
        (nested_cix_document(990), "object"),
    ], ids=["brackets", "cix-chain-990"])
    def test_too_deep_nesting_is_data(self, tmp_path, text, kind):
        path = tmp_path / "params.json"
        path.write_text(text, encoding="utf-8")
        for argv in params_commands(str(path)):
            code, out, err, caught = run_main(argv)
            assert (code, out, caught) == (3, "", [])
            assert err.startswith("data error: read_params_json: invalid JSON: maximum "
                                  f"recursion depth exceeded while decoding a JSON {kind}")

    @pytest.mark.parametrize("field, value", [
        ("n_samples", "abc"), ("n_samples", -3), ("n_samples", False), ("n_samples", 2.5),
        ("source", 5), ("source", ["a"]),
    ])
    def test_bad_row_metadata_is_data(self, tmp_path, field, value):
        path = params_file(tmp_path, lambda rows: rows[0].__setitem__(field, value))
        for argv in params_commands(path):
            code, out, err, _ = run_main(argv)
            assert (code, out) == (3, "")
            assert err.startswith(f"data error: read_params_json: bad report row: {field} must")


@pytest.fixture
def los_co_csv(tmp_path):
    """LOS corridor V-V and V-H samples at 28 and 73 GHz."""
    los_co = ScenarioKey(Environment.LOS, Layout.CORRIDOR, PolarizationClass.VV)
    freqs = ((28.0, 12), (73.0, 12))
    vv = synthesize(SynthesisSpec(CiParams(1.7, 2.0), los_co, freqs, (3.9, 45.9), seed=3))
    vh = synthesize(SynthesisSpec(CiParams(2.4, 2.0), dataclasses.replace(
        los_co, polarization_class=PolarizationClass.VH), freqs, (3.9, 45.9), seed=4))
    path = tmp_path / "los_co.csv"
    dataio.write_csv(Dataset(vv.samples + vh.samples), path)
    return str(path)


class TestRepeatedScenarios:
    @pytest.mark.parametrize("scenarios", [["LOS:CO", "LOS:CO"], ["LOS:CO:VV", "LOS:CO"],
                                           ["LOS:CO", "los:co:vh", "LOS:CO:Comb"]])
    def test_a_repeated_selection_adds_no_rows(self, los_co_csv, scenarios):
        def fit(*selected):
            argv = ["fit", "--input", los_co_csv]
            for scenario in selected:
                argv += ["--scenario", scenario]
            code, out, err, _ = run_main(argv)
            assert (code, err) == (0, "")
            return out

        once = fit("LOS:CO")
        assert len(json.loads(once)["rows"]) == 26
        assert fit(*scenarios) == once

    def test_fit_output_selects_one_row_for_predict(self, los_co_csv, tmp_path):
        out = tmp_path / "p.json"
        assert run_main(["fit", "--input", los_co_csv, "--output", str(out),
                         "--scenario", "LOS:CO:VV", "--scenario", "LOS:CO"])[0] == 0
        code, text, err, _ = run_main(["predict", "--params", str(out), "--model", "CI",
                                       "--scenario", "LOS:CO:VV", "--fit-freq", "multi",
                                       "--f", "28", "--d", "5"])
        assert (code, err) == (0, "")
        assert text.startswith("freq_ghz,distance_m,path_loss_db\n28,5,")


@st.composite
def campaign_csvs(draw):
    """CSV text of a small campaign: 1-2 measured pairs, V-V and/or V-H, at
    28 and/or 73 GHz, 2-5 distinct distances per cell in 3.9-45.9 m."""
    lines = [",".join(dataio.CSV_COLUMNS[:6])]
    freqs = draw(st.lists(st.sampled_from(["28", "73"]), min_size=1, max_size=2, unique=True))
    for env, layout in draw(st.lists(st.sampled_from(
            [("LOS", "CO"), ("NLOS", "OP"), ("NLOS", "CP")]), min_size=1, max_size=2,
            unique=True)):
        for pol in draw(st.sampled_from([("VV",), ("VH",), ("VV", "VH")])):
            for f in freqs:
                for d in draw(st.lists(st.integers(39, 459), min_size=2, max_size=5,
                                       unique=True)):
                    loss = draw(st.floats(60.0, 160.0))
                    lines.append(f"{f},{d / 10},{loss!r},{pol},{env},{layout}")
    return "\n".join(lines) + "\n"


class TestParamsClosure:
    @settings(max_examples=25, deadline=None)
    @given(text=campaign_csvs(), data=st.data())
    def test_fit_output_loads_everywhere_and_reads_back_byte_identical(
            self, tmp_path_factory, text, data):
        base = tmp_path_factory.getbasetemp()
        csv_path, params = base / "closure.csv", base / "closure.json"
        csv_path.write_text(text, encoding="utf-8")
        assert run_main(["fit", "--input", str(csv_path), "--output", str(params)])[0] == 0
        written = params.read_text(encoding="utf-8")
        report = dataio.read_params_json(str(params))
        assert dataio.dumps_params(report) == written
        assert run_main(["report", "--params", str(params)])[:3] == (0, render_tables(report), "")
        row = data.draw(st.sampled_from(report.rows))
        freq = "multi" if row.freq_ghz is None else f"{row.freq_ghz!r}"
        select = ["--params", str(params), "--model", row.family,
                  "--scenario", row.scenario.label(), "--fit-freq", freq]
        assert run_main(["predict", *select, "--f", "28", "--d", "5", "40"])[0] == 0
        code, out, err, _ = run_main(["synth", *select, "--freqs", "28:3", "--seed", "1"])
        # the row loads; a fit extrapolated below 0 dB is refused as drawn data
        assert code == 0 or (code, out) == (3, "") and err.startswith("data error: synthesize:")


def write_rows(path, rows):
    header = ",".join(dataio.CSV_COLUMNS[:6])
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return str(path)


class TestCifReferenceFrequency:
    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_f0_that_rounds_to_zero_is_numerical(self, tmp_path, command):
        path = write_rows(tmp_path / "low.csv", [f"{f},{d},{40.0 + 2.0 * d},VV,LOS,CO"
                                                 for f in (0.1, 0.2) for d in (2, 5, 9)])
        assert run_main([command, "--input", path]) == (
            4, "", "numerical error: fit_cif: reference frequency f0 rounds to 0 GHz, "
                   "the mean frequency is below 0.5 GHz\n", [])

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_overflowing_weighted_column_is_numerical(self, tmp_path, command):
        path = write_rows(tmp_path / "mf.csv", [f"{f},{d},{80.0 + 2.0 * d},VV,LOS,CO"
                                                for f in (28, 73) for d in (2, 5, 9)])
        assert run_main([command, "--input", path, "--f0", "1e308"]) == (
            4, "", "numerical error: fit_cif: frequency-weighted distance column "
                   "overflows float64\n", [])


SYNTH_CI = ["synth", "--preset", "table3:28:VV:LOS:CO", "--model", "CI",
            "--scenario", "LOS:CO:VV"]


class TestArgumentErrors:
    @pytest.mark.parametrize("freqs, message", [
        ("28:x", "bad --freqs entry '28:x'; expected GHZ:COUNT"),
        (",", "--freqs selected no frequency blocks"),
    ])
    def test_bad_freq_blocks_are_usage(self, freqs, message):
        assert run_main([*SYNTH_CI, "--freqs", freqs]) == (2, "", f"usage error: {message}\n", [])

    @pytest.mark.parametrize("joined, message", [
        (["--freqs", "28:2", "--dmin=-inf"], "distance must be finite"),
        (["--freqs=-0:2"], "frequency must be finite and positive"),
    ], ids=["dmin", "freqs"])
    def test_a_value_with_a_leading_dash_is_joined_to_its_option(self, joined, message):
        assert run_main([*SYNTH_CI, *joined]) == (3, "", f"data error: synthesize: {message}\n",
                                                  [])
        apart = [token for arg in joined for token in arg.split("=")]
        code, out, err, _ = run_main([*SYNTH_CI, *apart])  # argparse reads the value as a flag
        assert (code, out) == (2, "") and err.endswith(": expected one argument\n")

    def test_a_bare_frequency_draws_one_sample(self):
        code, out, err, _ = run_main([*SYNTH_CI, "--freqs", "28"])
        assert (code, err, out.count("\n")) == (0, "", 2)  # header and one row
        assert run_main([*SYNTH_CI, "--freqs", "28:1"])[1] == out

    def test_empty_freq_block_is_skipped(self):
        code, out, err, _ = run_main([*SYNTH_CI, "--freqs", "28:5,,73:5"])
        assert (code, err) == (0, "")
        assert run_main([*SYNTH_CI, "--freqs", "28:5,73:5"])[1] == out

    @pytest.mark.parametrize("families, refusal", [
        ("ci,auto", "unknown families ['AUTO']"),
        ("", "no families requested"),
        (",", "no families requested"),
        ("auto,auto", "unknown families ['AUTO', 'AUTO']"),
    ])
    def test_auto_stands_alone(self, clean_ci_csv, families, refusal):
        assert run_main(["fit", "--input", clean_ci_csv, "--families", families]) == (
            2, "", f"usage error: fit_scenarios: {refusal}; "
                   "choose from ('CI', 'FI', 'ABG', 'CIF')\n", [])

    def test_auto_ignores_case_and_surrounding_spaces(self, clean_ci_csv):
        auto = run_main(["fit", "--input", clean_ci_csv])
        assert auto[0] == 0
        assert run_main(["fit", "--input", clean_ci_csv, "--families", " AuTo "]) == auto

    def test_unknown_family_token_is_named(self, clean_ci_csv):
        assert run_main(["fit", "--input", clean_ci_csv, "--families", "ci,xyz"]) == (
            2, "", "usage error: fit_scenarios: unknown families ['XYZ']; "
                   "choose from ('CI', 'FI', 'ABG', 'CIF')\n", [])

    def test_compare_on_an_absent_pair_is_data(self, clean_ci_csv):
        assert run_main(["compare", "--input", clean_ci_csv, "--scenario", "LOS:CP"]) == (
            3, "", "data error: compare: no samples selected\n", [])

    def test_preset_selector_matching_nothing_is_usage(self):
        assert run_main(["report", "--preset", "table3:multi"]) == (
            2, "", "usage error: preset selector 'table3:multi' matches no rows\n", [])

    def test_empty_selector_token_is_skipped(self):
        once = run_main(["report", "--preset", "table5:nlos-cp"])
        assert once[0] == 0
        assert run_main(["report", "--preset", "table5::nlos-cp"]) == once

    @pytest.mark.parametrize("argv", [
        ["report", "--preset", ""],
        ["predict", "--preset", "", "--model", "CI", "--f", "28", "--d", "5"],
        [*SYNTH_CI[:2], "", *SYNTH_CI[3:], "--freqs", "28:3"],
    ], ids=["report", "predict", "synth"])
    def test_empty_preset_selector_is_usage(self, argv):
        assert run_main(argv) == (2, "", "usage error: unknown preset table ''; expected one "
                                         "of ('table3', 'table4', 'table5', 'table6')\n", [])

    def test_report_that_fills_no_table_prints_the_table3_header(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"schema_version": 1, "rows": []}', encoding="utf-8")
        header = render_table(FitReport(()), "table3")
        assert header.count("\n") == 2  # column names and rule
        assert run_main(["report", "--params", str(path)]) == (0, header, "", [])

    def test_header_field_over_csv_limit_is_data(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(CSV_HEADER + "T" * 200_000 + "\n28,10.0,72.39,VV,NLOS,CO,TX1,RX1\n",
                        encoding="utf-8")
        assert run_main(["fit", "--input", str(path)]) == (
            3, "", "data error: read_csv: header row: field larger than field limit (131072)\n",
            [])


# ------------------------------------------------------ one parser per process

def fresh_process(argv):
    """(exit code, stdout, stderr) of main(argv) in a new interpreter, which
    also checks that importing mmwpl.cli builds no parser."""
    script = ("import sys, mmwpl.cli as cli; assert cli._parser is None; "
              "sys.exit(cli.main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, check=False)
    return done.returncode, done.stdout, done.stderr


class TestParserReuse:
    def test_main_builds_one_parser_for_many_calls(self, monkeypatch):
        built = []
        build = cli.build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        monkeypatch.setattr(cli, "_parser", None)
        for argv in (["report", "--preset", "table5:nlos-cp"],
                     ["predict", "--preset", "table5:nlos-cp", "--model", "CI",
                      "--f", "28", "--d", "5"],
                     ["report", "--preset", "table3:multi"]):
            run_main(argv)
        assert built == [1]

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_a_usage_exit_leaves_no_state(self):
        bad = ["predict", "--preset", "table5:nlos-cp", "--model", "CI", "--f", "x"]
        good = ["report", "--preset", "table5:nlos-cp"]
        first = run_main(bad)
        assert first[0] == 2
        assert run_main(bad) == first
        assert run_main(good)[:3] == fresh_process(good)

    def test_frequencies_do_not_carry_over(self):
        fi = ["predict", "--preset", "table3:28:VV:LOS:CO", "--model", "FI", "--d", "10"]
        run_main([*fi, "--f", "28"])
        assert run_main(fi) == (0, "freq_ghz,distance_m,path_loss_db\n,10,72.6000\n", "", [])
        assert cli._parser.parse_args(fi).freq == []


# ------------------------------------------------------------ option contract

def subparsers(parser):
    """Each subcommand's parser by name, in the order the commands are declared."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def option_table(parser):
    """{command: {option strings: option(...)}} of every option of every
    subcommand; help text is left out."""
    table = {}
    for name, command in subparsers(parser).items():
        groups = {action: (*sorted(a.dest for a in group._group_actions), group.required)
                  for group in command._mutually_exclusive_groups
                  for action in group._group_actions}
        table[name] = {tuple(a.option_strings): option(
            a.dest, a.required, a.default, a.choices, a.type, a.nargs, type(a).__name__,
            groups.get(a)) for a in command._actions}
    return table


def option(dest, required=False, default=None, choices=None, type=None, nargs=None,
           action="_StoreAction", group=None):
    """One option's row: argparse's own defaults unless given."""
    return (dest, required, default, choices, type, nargs, action, group)


HELP = option("help", default=argparse.SUPPRESS, nargs=0, action="_HelpAction")
SOURCE = ("params", "preset", True)  # the required --params | --preset group
SAMPLE_OPTIONS = {
    ("-h", "--help"): HELP,
    ("--input",): option("input", required=True),
    ("--f0",): option("f0", type=float),
    ("--mode",): option("mode", default="strict", choices=("strict", "lax")),
    ("--output",): option("output"),
}
ROW_OPTIONS = {
    ("-h", "--help"): HELP,
    ("--params",): option("params", group=SOURCE),
    ("--preset",): option("preset", group=SOURCE),
    ("--model",): option("model", required=True),
    ("--fit-freq",): option("fit_freq"),
    ("--output",): option("output"),
}
# every subcommand option as the command line declares it; only help text may change
OPTION_TABLE = {
    "fit": {**SAMPLE_OPTIONS,
            ("--scenario",): option("scenario", action="_AppendAction"),
            ("--families",): option("families", default="auto")},
    "predict": {**ROW_OPTIONS,
                ("--scenario",): option("scenario"),
                ("--freq", "--f"): option("freq", default=[], type=float, nargs="+",
                                          action="_ExtendAction"),
                ("--dist", "--d"): option("dist", required=True, type=float, nargs="+",
                                          action="_ExtendAction")},
    "synth": {**ROW_OPTIONS,
              ("--scenario",): option("scenario", required=True),
              ("--freqs",): option("freqs", required=True),
              ("--dmin",): option("dmin", default=3.9, type=float),
              ("--dmax",): option("dmax", default=45.9, type=float),
              ("--seed",): option("seed", default=0, type=int)},
    "report": {("-h", "--help"): HELP,
               ("--params",): option("params", group=SOURCE),
               ("--preset",): option("preset", group=SOURCE),
               ("--style",): option("style", choices=("table3", "table4", "table5", "table6")),
               ("--output",): option("output")},
    "compare": {**SAMPLE_OPTIONS,
                ("--scenario",): option("scenario")},
}


def test_option_table():
    table = option_table(cli.build_parser())
    assert list(table) == list(OPTION_TABLE)
    assert table == OPTION_TABLE


def test_parsers_from_separate_calls_are_independent():
    first, second = cli.build_parser(), cli.build_parser()
    for name, command in subparsers(first).items():
        command.add_argument("--extra")
        assert "--extra" not in subparsers(second)[name]._option_string_actions
    assert option_table(second) == OPTION_TABLE

    def actions(parser):
        return {id(a) for command in subparsers(parser).values() for a in command._actions}
    assert actions(first).isdisjoint(actions(second))


# each subcommand's required options, with values that parse
REQUIRED_ARGV = {
    "fit": ["--input", "x.csv"],
    "predict": ["--preset", "table5:nlos-cp", "--model", "CI", "--dist", "5"],
    "synth": [*SYNTH_CI[1:], "--freqs", "28:2"],
    "report": ["--preset", "table5:nlos-cp"],
    "compare": ["--input", "x.csv"],
}


def undeclared_prefixes():
    """(command, prefix) for every proper prefix longer than "--" of every
    long option of every subcommand that is not itself an option there."""
    for name, command in subparsers(cli.build_parser()).items():
        declared = command._option_string_actions
        for flag in sorted(f for f in declared if f.startswith("--")):
            for end in range(3, len(flag)):
                if flag[:end] not in declared:
                    yield name, flag[:end]


@pytest.mark.parametrize("name, prefix", list(undeclared_prefixes()))
def test_an_option_prefix_is_refused(name, prefix):
    code, out, err, _ = run_main([name, *REQUIRED_ARGV[name], prefix])
    assert (code, out) == (2, "") and err.endswith(f": unrecognized arguments: {prefix}\n")


def test_a_prefix_before_the_subcommand_is_refused():
    assert run_main(["--he"])[:2] == (2, "")  # not --help's page and exit 0
    code, out, err, _ = run_main(["--he", "report", *REQUIRED_ARGV["report"]])
    assert (code, out) == (2, "") and err.endswith(": unrecognized arguments: --he\n")


def test_every_option_has_help():
    unhelped = [(name, a.option_strings) for name, command in subparsers(cli.build_parser()).items()
                for a in command._actions if a.dest != "help" and not a.help]
    assert unhelped == []


# ------------------------------------------------------------- closed stdout

class TestClosedStdout:
    @staticmethod
    def spawn(argv):
        script = "import sys, mmwpl.cli as cli; sys.exit(cli.main(sys.argv[1:]))"
        # a block-buffered stdout, as a pipe gets by default
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parent.parent)
        return subprocess.Popen([sys.executable, "-c", script, *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)

    def test_a_reader_that_closes_after_one_line_gets_141_and_no_stderr(self):
        with self.spawn(["synth", "--preset", "table5:nlos-cp", "--model", "CIF",
                         "--scenario", "NLOS:CP:VV", "--freqs", "28:100000,73:100000"]) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert first.startswith(b"freq_ghz,distance_m,path_loss_db,")
        assert (proc.returncode, err) == (141, b"")

    def test_a_close_before_the_last_flush_gets_141_and_no_stderr(self):
        # the table fits in stdout's buffer, so only the final flush meets the closed pipe
        with self.spawn(["report", "--preset", "table5:nlos-cp"]) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (141, b"")

    def test_a_stdout_without_a_file_gets_141_too(self, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        monkeypatch.setattr(sys, "stderr", err)
        assert main(["report", "--preset", "table5:nlos-cp"]) == 141
        assert err.getvalue() == ""


# ---------------------------------------------------------- synth-fit closure

SYNTH_MODELS = st.sampled_from([("table5:nlos-cp", family) for family in
                                ("CI", "CIX", "CIF", "CIFX", "ABG", "ABGX")]
                               + [("table3:28:VV:NLOS:CO", "FI"), ("table3:73:VH:NLOS:CO", "CI")])


# frequency blocks synth mostly accepts, edge cases included
SYNTH_BLOCKS = st.lists(
    st.tuples(st.sampled_from(["28", "73", "39", "0.3", "0.001", "1e30"]),
              st.sampled_from([":1", ":2", ":5", ""])).map("".join),
    min_size=1, max_size=3).map(",".join)


class TestSynthFitClosure:
    @settings(max_examples=60, deadline=None)
    @given(model=SYNTH_MODELS, pol=st.sampled_from(["VV", "VH"]), freqs=SYNTH_BLOCKS,
           dmin=st.sampled_from(["1", "3.9", "10"]), dmax=st.sampled_from(["10", "45.9", "1e4"]),
           seed=st.integers(0, 3))
    def test_what_synth_writes_fit_reads(self, tmp_path_factory, model, pol, freqs, dmin,
                                         dmax, seed):
        path = tmp_path_factory.getbasetemp() / "closure-synth.csv"
        code = run_main(["synth", "--preset", model[0], "--model", model[1],
                         "--scenario", f"NLOS:CO:{pol}", "--freqs", freqs, "--dmin", dmin,
                         "--dmax", dmax, "--seed", str(seed), "--output", str(path)])[0]
        if code == 0:
            assert run_main(["fit", "--input", str(path), "--mode", "strict"])[0] != 3
