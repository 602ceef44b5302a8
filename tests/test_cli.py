"""End-to-end command-line behavior, run in process through main(argv)."""

import json

import numpy as np
import pytest

from mmwpl import dataio
from mmwpl.cli import main
from mmwpl.models import CiParams
from mmwpl.synthesis import SynthesisSpec, synthesize
from mmwpl.taxonomy import (
    Dataset,
    Environment,
    Layout,
    PolarizationClass,
    ScenarioKey,
)

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
