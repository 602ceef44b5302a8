"""Golden outputs: every command's bytes on fixed inputs, pinned by sha256.

The inputs are drawn here with numpy's PCG64 and written with the stdlib
csv module, never with mmwpl's own synthesize or write_csv, so a change to
those cannot change what fit, report, predict and compare read. Each call
runs in process through main(argv) in a scratch working directory, with
relative paths, so the params JSON `source` fields do not name the
directory. A call's digest covers its exit code, stdout, stderr and any
file it wrote.

The digests pin the exact bytes of the fitted floats, which follow from
numpy's float64 arithmetic; they were recorded with numpy 2.4 on x86-64.
A numpy or libm whose log10 rounds differently in the last bit changes
the params JSON digests, not the tables, which print at most 4 decimals.
"""

import contextlib
import csv
import hashlib
import io

import numpy as np
import pytest

from mmwpl.cli import main

C_M_S = 299792458.0
PAIRS = (("LOS", "CO"), ("LOS", "OP"), ("NLOS", "CO"), ("NLOS", "OP"), ("NLOS", "CP"))
HEADER = ("freq_ghz", "distance_m", "path_loss_db", "polarization",
          "environment", "layout", "tx_id", "rx_id")
DISTANCES = [repr(d) for d in np.geomspace(4.0, 45.0, 37).tolist()]


def _cells(rng, cells, per_cell):
    """CIF mean (n, b = 0.2, f0 = 50.5) plus V-H offset plus shadow fading."""
    rows = []
    for k, (env, layout, pol, freq) in enumerate(cells):
        d = 10.0 ** rng.uniform(np.log10(3.9), np.log10(45.9), per_cell)
        n = 1.2 + 0.4 * (k % 5)
        mean = (20.0 * np.log10(4.0 * np.pi * freq * 1e9 / C_M_S)
                + 10.0 * n * (1.0 + 0.2 * (freq - 50.5) / 50.5) * np.log10(d))
        pl = mean + (12.0 if pol == "VH" else 0.0) + rng.normal(0.0, 4.0, per_cell)
        rows += [(repr(freq), repr(dv), repr(pv), pol, env, layout, f"TX{k % 4}", f"RX{i}")
                 for i, (dv, pv) in enumerate(zip(d.tolist(), pl.tolist()))]
    return rows


def _write(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(HEADER)
        writer.writerows(rows)


def write_inputs(rng):
    """campaign.csv: all 20 cells plus 39 GHz on NLOS:OP, rows shuffled.
    single.csv: 28 GHz only, LOS:CO in both polarizations and NLOS:OP V-V."""
    cells = [(env, layout, pol, freq) for env, layout in PAIRS
             for pol in ("VV", "VH") for freq in (28.0, 73.0)]
    cells += [("NLOS", "OP", "VV", 39.0), ("NLOS", "OP", "VH", 39.0)]
    rows = _cells(rng, cells, 25)
    _write("campaign.csv", [rows[i] for i in rng.permutation(len(rows)).tolist()])
    single = [("LOS", "CO", "VV", 28.0), ("LOS", "CO", "VH", 28.0), ("NLOS", "OP", "VV", 28.0)]
    _write("single.csv", _cells(rng, single, 30))


# (name, argv, file the call writes or None)
CALLS = (
    ("fit-campaign", ["fit", "--input", "campaign.csv", "--output", "pa.json"], "pa.json"),
    ("fit-campaign-json", ["fit", "--input", "campaign.csv"], None),
    ("fit-selected", ["fit", "--input", "campaign.csv", "--families", "ci,cif,abg",
                      "--f0", "50", "--scenario", "NLOS:CP", "--scenario", "los:co:vh",
                      "--scenario", "LOS:CO:VV"], None),
    ("fit-single", ["fit", "--input", "single.csv", "--output", "pb.json"], "pb.json"),
    ("fit-single-explicit", ["fit", "--input", "single.csv", "--families", "ci,fi,abg"], None),
    ("report-campaign", ["report", "--params", "pa.json"], None),
    *((f"report-campaign-{style}", ["report", "--params", "pa.json", "--style", style], None)
      for style in ("table3", "table4", "table5", "table6")),
    ("report-single", ["report", "--params", "pb.json"], None),
    *((f"report-preset-{table}", ["report", "--preset", table], None)
      for table in ("table3", "table4", "table5", "table6")),
    ("predict-cif", ["predict", "--params", "pa.json", "--model", "CIF",
                     "--scenario", "NLOS:CO:VV", "--fit-freq", "multi",
                     "--f", "28", "73", "--d", *DISTANCES], None),
    ("predict-ci", ["predict", "--params", "pa.json", "--model", "CI",
                    "--scenario", "LOS:OP:VH", "--fit-freq", "28",
                    "--f", "28", "--d", *DISTANCES], None),
    ("predict-abgx", ["predict", "--params", "pa.json", "--model", "ABGX",
                      "--scenario", "NLOS:OP:VH", "--fit-freq", "multi",
                      "--f", "28", "39", "73", "--d", *DISTANCES], None),
    ("predict-fi", ["predict", "--params", "pb.json", "--model", "FI",
                    "--scenario", "LOS:CO:VV", "--fit-freq", "28", "--d", *DISTANCES], None),
    ("predict-preset", ["predict", "--preset", "table5:nlos-cp", "--model", "CIFX",
                        "--f", "28", "60", "73", "--d", *DISTANCES], None),
    ("compare-all", ["compare", "--input", "campaign.csv"], None),
    ("compare-pair", ["compare", "--input", "campaign.csv", "--scenario", "NLOS:CO"], None),
    ("compare-vh", ["compare", "--input", "campaign.csv", "--scenario", "LOS:OP:VH",
                    "--f0", "40"], None),
    ("compare-single", ["compare", "--input", "single.csv", "--scenario", "LOS:CO"], None),
    ("synth-preset", ["synth", "--preset", "table5:nlos-cp", "--model", "CIF",
                      "--scenario", "NLOS:CP:VV", "--freqs", "28:300,73:300",
                      "--seed", "11"], None),
    ("synth-params", ["synth", "--params", "pa.json", "--model", "ABG",
                      "--scenario", "LOS:CO:VV", "--fit-freq", "multi",
                      "--freqs", "28:50,60:50", "--seed", "3"], None),
)

DIGESTS = {
    "compare-all": "536ce1f4553323d505e87d3c8b681019441e0306ed98982e4eeba093e980a302",
    "compare-pair": "5ce8bbd21f53a836d095bd3d30c28cb3fe5fa1a0c4d3c455d150465bc05faf72",
    "compare-single": "24cc4b76bdcd36f792cff7d40958df642aedec40b0e6eb156559e6c311a88716",
    "compare-vh": "c23800c3eccc840494f9ccd97989288109f30c040fdea7c2d4792b29dede502b",
    "fit-campaign": "ba252ba440e89fa38e56a2c2afbe4c60d3a4b74079e72d45675b8a1edd450f7c",
    "fit-campaign-json": "da2e7b8f82f8f7afa039947c2c27b5d2b4b03f70d85c78888239157b26ad42d0",
    "fit-selected": "55255947644e75e75e88e0b803ee7c3469a4192452ff878608b4e86643dbab86",
    "fit-single": "f3590f5ab2d3f4d31094701bb04d6bbf9013815520aaf60d8c3fef417f0635f8",
    "fit-single-explicit": "883f6be4cf30abb53ff05aa4d98d4a60137ee2a3672cd7785c1cad5651bdd658",
    "predict-abgx": "f171eca04829491ec2c53b60beef8c74e21fe094640c8031cd80055ae771ace0",
    "predict-ci": "c60b2e3d412af6533bff6969eb511779be8e206fcc13c13af06267f4495f41c6",
    "predict-cif": "4e617dab014b28fe9eef94689b55a6548bbecb9b994359e45e039dbfdaa0244a",
    "predict-fi": "d324d20ba622e519b647d1d9b17ccb2a637b00537ab713811cd4b6c2b03d19b0",
    "predict-preset": "9a76e8cedd6c5184ddf847c1993bd326701e7ef1868e9c658cd29bb975228e97",
    "report-campaign": "9cc17aef6e692c2dd34fa48581940288daac0377c4229798f2083afd1f9c708d",
    "report-campaign-table3": "c7cfd51f0afe0779075a8ad3c6eaf7e16ea1703b9ac5ad63a024dea34796825c",
    "report-campaign-table4": "c21813940f3d17aee31ffadf6e6c30c393e749f5b0c2f874baadd3313ed2bd1d",
    "report-campaign-table5": "40afe9742db2c4a1ee9fa3869c147d1cc78efa6c61f5e08ca866ec805b2b17fd",
    "report-campaign-table6": "1406792f86baac7d013fe600cfa3e81c970c396d242f7370cabeb2128a7846aa",
    "report-preset-table3": "3ab4d2244ba71f22d5cbbd2a6dca4bc701c54f8d28eedff59b2795397b34126e",
    "report-preset-table4": "9751c83853110701e07218b1671e7bc383f54f9b4f890aba07005e93c35c18b1",
    "report-preset-table5": "c786bcf24550b5d40bcdca0c533bd2dec98659b3820d82e0ea328f8ed96e46e5",
    "report-preset-table6": "038b43de4bd28b219b26dfbdb87603deceadf286ee4e0bed1bc4db5825ebd2e7",
    "report-single": "48f15c953ea207a4822a9edfe33907c461dd04232754e6fb77b8f913ee612cc4",
    "synth-params": "cc67b8637cf79f0110d35b9873c6f340b2715d2f7f441b6085654ae1358e16da",
    "synth-preset": "bcd32008d14233d091ed46a8d5520a3c14bc0bd82b1a660d5b9db1ec73716c29",
}


def run_calls():
    """Run every call in the current directory; returns {name: sha256 hex}."""
    write_inputs(np.random.default_rng(20150601))
    digests = {}
    for name, argv, written in CALLS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        record = f"exit {code}\n{out.getvalue()}\0{err.getvalue()}\0".encode()
        if written is not None:
            with open(written, "rb") as stream:
                record += stream.read()
        digests[name] = hashlib.sha256(record).hexdigest()
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("golden"))
        return run_calls()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_bytes_are_pinned(digests, name):
    assert digests[name] == DIGESTS[name]


def test_every_call_is_pinned():
    assert sorted(name for name, _, _ in CALLS) == sorted(DIGESTS)
