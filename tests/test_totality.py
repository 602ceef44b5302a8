"""Totality of the command line: any argv drawn from a subcommand's grammar,
over hostile values and malformed input files, exits with a classified code
and never escapes with a traceback or a numpy warning."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwpl import dataio
from mmwpl.models import MODEL_FAMILIES, CiParams
from mmwpl.synthesis import SynthesisSpec, synthesize
from mmwpl.taxonomy import Dataset
from test_cli import (
    CSV_HEADER,
    NLOS_CO_VH,
    NLOS_CO_VV,
    SYNTH_BLOCKS,
    SYNTH_MODELS,
    run_main,
    write_rows,
)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Inputs the fuzzed commands read: CSVs of one and of two frequencies,
    one below 0.5 GHz, CRLF, BOM, quoted-label, ragged, mistokened and
    header-only CSVs, a fitted params JSON, an empty one, params documents of
    the wrong schema or shape or nested 100 000 deep, and a missing path."""
    base = tmp_path_factory.mktemp("fuzz")
    vv = synthesize(SynthesisSpec(CiParams(2.5, 4.0), NLOS_CO_VV, ((28.0, 6), (73.0, 6)),
                                  (3.9, 45.9), seed=7))
    vh = synthesize(SynthesisSpec(CiParams(3.0, 4.0), NLOS_CO_VH, ((28.0, 6), (73.0, 6)),
                                  (3.9, 45.9), seed=8))
    dataio.write_csv(Dataset(vv.samples + vh.samples), base / "both.csv")
    dataio.write_csv(Dataset(vv.samples[:6]), base / "single.csv")
    write_rows(base / "low.csv", [f"{f},{d},{40.0 + 2.0 * d},VV,LOS,CO"
                                  for f in (0.1, 0.2) for d in (2, 5, 9)])
    both = (base / "both.csv").read_text(encoding="utf-8")
    (base / "crlf.csv").write_bytes(both.replace("\n", "\r\n").encode("utf-8"))
    (base / "bom.csv").write_text("\ufeff" + both, encoding="utf-8")
    (base / "quoted.csv").write_text(CSV_HEADER + "\n" + "".join(
        f'{f},{d},{60.0 + 2.0 * d},VV,NLOS,CO,"TX,1","R""X"\n'
        for f in (28, 73) for d in (4, 9, 20)), encoding="utf-8")
    write_rows(base / "ragged.csv", ["28,5,80,VV,NLOS,CO", "", "28,9", "28,9,90,VV,NLOS,CO,a,b,c",
                                     ",,,,,", "73,9,95,VV,NLOS,CO", "73,20,110,VV,NLOS,CO"])
    write_rows(base / "mistokened.csv", ["28,5,80,vv,NLOS,CO", "28,9,90,VV,Nlos,CO",
                                         "73,9,95,VV,NLOS,corridor", "73,5m,85,VV,NLOS,CO",
                                         "73,20,110,VV,NLOS,CO", "28,20,100,VV,NLOS,CO"])
    write_rows(base / "header.csv", [])
    assert run_main(["fit", "--input", str(base / "both.csv"),
                     "--output", str(base / "params.json")])[0] == 0
    (base / "empty.json").write_text('{"schema_version": 1, "rows": []}', encoding="utf-8")
    rows = json.loads((base / "params.json").read_text(encoding="utf-8"))["rows"]
    for name, doc in [("v2.json", {"schema_version": 2, "rows": rows}),
                      ("rows_object.json", {"schema_version": 1, "rows": {"0": rows[0]}}),
                      ("row_not_object.json", {"schema_version": 1, "rows": [rows[0], 5]})]:
        (base / name).write_text(json.dumps(doc), encoding="utf-8")
    (base / "deep.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    return base


FUZZ_NUMBERS = st.sampled_from(["28", "50", "3.9", "45.9", "1", "0.5", "0", "-0", "-3",
                                "1e-300", "1e308", "inf", "nan", "x"])
FUZZ_SCENARIOS = st.sampled_from(["NLOS:CO", "nlos:co:vh", "NLOS:CO:Comb", "NLOS:CO:VV",
                                  "LOS:CP", "LOS:CP:VV", "NLOS", "XLOS:CO", "NLOS:CO:HH", ""])
# numbers that parse oddly or not at all: signed zero, the least subnormal, an
# underscore, full-width digits, NaN, the infinities and an overflowing literal
HOSTILE_NUMBERS = st.sampled_from(["0", "-0", "5e-324", "1_0", "\uff12\uff18", "nan", "inf",
                                   "-inf", "1e400"])
FUZZ_PRESETS = st.sampled_from(["table3:28:VV:NLOS:CO", "table5:nlos-cp", "table5::nlos-cp",
                                "table3", "table4:73", "table6", "table3:multi", "table9", ""])
FUZZ_MODELS = st.sampled_from(["CI", "FI", "ABG", "CIF", "CIX", "ABGX", "CIFX", "ci", "XX"])
# counts stay small: a block never asks for more than 5 samples
FUZZ_BLOCKS = st.lists(
    st.tuples(st.sampled_from(["28", "73", "0.3", "0.001", "1e30", "1e308", "nan", "-5", "x", ""]),
              st.sampled_from([":1", ":3", ":5", ":0", ":-2", ":x", ":", ""])).map("".join),
    max_size=3).map(",".join)
# blocks of hostile frequencies and counts; a count is at most 28 samples
HOSTILE_BLOCKS = st.lists(
    st.tuples(HOSTILE_NUMBERS | st.just("28"), HOSTILE_NUMBERS.map(":{}".format) | st.just(":2")
              ).map("".join), min_size=1, max_size=3).map(",".join)


def required(flag, values):
    return values.map(lambda value: [flag, value])


def joined(flag, values):
    """flag=value as one token, so that argparse passes on a value such as -inf."""
    return values.map(lambda value: [f"{flag}={value}"])


def optional(flag, values, form=required):
    return st.one_of(st.just([]), form(flag, values))


@st.composite
def fuzz_params_json(draw, files):
    """A params JSON of one fitted row per family in which one field of one
    row's params, or of its XPD base, is deleted, mistyped, or set to NaN,
    1e308 or 10**400; written over drawn.json."""
    rows = json.loads((files / "params.json").read_text(encoding="utf-8"))["rows"]
    drawn = [draw(st.sampled_from([row for row in rows if row["model"] == family]))
             for family in MODEL_FAMILIES]
    params = draw(st.sampled_from(drawn))["params"]
    target = draw(st.sampled_from([params, params["base"]] if "base" in params else [params]))
    key = draw(st.sampled_from(sorted(set(target) - {"model"})))
    value = draw(st.sampled_from(["delete", "x", True, None, math.nan, 1e308, 10**400]))
    if value == "delete":
        del target[key]
    else:
        target[key] = value
    path = files / "drawn.json"
    path.write_text(json.dumps({"schema_version": 1, "rows": drawn}), encoding="utf-8")
    return str(path)


@st.composite
def fuzz_argv(draw, command, files):
    """One command line: mostly well-formed flags with edge-case values."""
    path = st.sampled_from(["both.csv", "single.csv", "low.csv", "crlf.csv", "bom.csv",
                            "quoted.csv", "ragged.csv", "mistokened.csv", "header.csv",
                            "params.json", "missing.csv"]).map(lambda name: str(files / name))
    params = st.sampled_from(["params.json", "empty.json", "v2.json", "rows_object.json",
                              "row_not_object.json", "deep.json", "both.csv", "missing.json"]
                             ).map(lambda name: str(files / name)) | fuzz_params_json(files)
    source = st.one_of(optional("--preset", FUZZ_PRESETS), optional("--params", params))
    parts = {
        "fit": [path.map(lambda p: ["--input", p]), optional("--scenario", FUZZ_SCENARIOS),
                optional("--families", st.sampled_from(["auto", "ci", "fi,abg", "CIF,ci",
                                                        "ci,xyz", ",", "cix"])),
                optional("--f0", FUZZ_NUMBERS), optional("--mode", st.sampled_from(
                    ["strict", "lax"]))],
        "compare": [path.map(lambda p: ["--input", p]), optional("--scenario", FUZZ_SCENARIOS),
                    optional("--f0", FUZZ_NUMBERS), optional("--mode", st.sampled_from(
                        ["strict", "lax"]))],
        "report": [source, optional("--style", st.sampled_from(
            ["table3", "table4", "table5", "table6"]))],
        "predict": [required("--params", params) | required("--preset", FUZZ_PRESETS),
                    required("--model", FUZZ_MODELS), optional("--scenario", FUZZ_SCENARIOS),
                    optional("--fit-freq", st.sampled_from(["28", "73", "multi", "abc"])),
                    optional("--freq", FUZZ_NUMBERS), required("--dist", FUZZ_NUMBERS)],
        # a drawn source, family and scenario, or a preset row that synth draws
        # from and a scenario it accepts, so that the numbers reach synth
        "synth": [st.tuples(required("--params", params) | required("--preset", FUZZ_PRESETS),
                            required("--model", FUZZ_MODELS), required("--scenario", FUZZ_SCENARIOS)
                            ).map(lambda t: t[0] + t[1] + t[2])
                  | st.tuples(SYNTH_MODELS, st.sampled_from(["NLOS:CO:VV", "nlos:co:vh"])).map(
                      lambda t: ["--preset", t[0][0], "--model", t[0][1], "--scenario", t[1]]),
                  optional("--fit-freq", st.sampled_from(["28", "73", "multi", "abc"])),
                  joined("--freqs", FUZZ_BLOCKS | SYNTH_BLOCKS | HOSTILE_BLOCKS),
                  optional("--dmin", FUZZ_NUMBERS | HOSTILE_NUMBERS, joined),
                  optional("--dmax", FUZZ_NUMBERS | HOSTILE_NUMBERS, joined),
                  optional("--seed", st.sampled_from(["0", "3", "-1", "x"]) | HOSTILE_NUMBERS,
                           joined)],
    }[command]
    return [command, *(token for part in parts for token in draw(part))]


class TestArgvFuzz:
    @pytest.mark.parametrize("command", ["synth", "report", "compare", "fit", "predict"])
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_exit_code_is_classified(self, fuzz_files, command, data):
        argv = data.draw(fuzz_argv(command, fuzz_files))
        code, out, err, caught = run_main(argv)
        assert code in (0, 2, 3, 4)
        if code == 0:  # a second call in the same process gives the same bytes
            assert run_main(argv)[:3] == (code, out, err)
        assert caught == []
        assert "Traceback" not in err and "Warning" not in err
        if code != 0 and not err.startswith("usage: "):  # argparse's own refusal
            lines = err.splitlines()
            classified = [line for line in lines if line.startswith(
                ("usage error: ", "data error: ", "numerical error: "))]
            assert classified == lines[-1:], err
