"""Correctness checks on every op's outputs, plus a self-test of each check.

Each check returns a list of problems; an empty list means the output is
correct. Fitted parameters are compared with tolerances, never hashes, so
a change of least-squares kernel that moves the last digits still passes:

  fitted parameters and sigma  |got - ref| <= 1e-6 * |ref| + 1e-9
  predict losses (4 decimals)  |got - formula| <= 6e-5 dB
  tables (1 or 2 decimals)     half a unit of the last printed digit + 1e-6
  synth columns                distance rel 1e-12, path loss 1e-9 dB
"""

from __future__ import annotations

import json
import re

import numpy as np

import workloads as wl

PARAM_REL_TOL = 1e-6
PARAM_ABS_TOL = 1e-9
PREDICT_TOL_DB = 6e-5
MAX_PROBLEMS = 5


def _close(got, ref, rel, abs_tol):
    return abs(got - ref) <= rel * abs(ref) + abs_tol


def _key(row):
    sc = row["scenario"]
    return (row["model"], sc["environment"], sc["layout"], sc["polarization"], row["freq_ghz"])


def _compare_params(where, got, want, problems):
    for field, ref in want.items():
        if isinstance(ref, dict):
            _compare_params(f"{where}.{field}", got.get(field, {}), ref, problems)
            continue
        value = got.get(field)
        if not isinstance(value, (int, float)) or not _close(value, ref, PARAM_REL_TOL, PARAM_ABS_TOL):
            problems.append(f"{where}.{field} = {value!r}, reference {ref!r}")


def check_params(text, ref):
    """A `fit --output` params JSON against the reference fits of its input."""
    try:
        doc = json.loads(text)
        rows = {}
        for row in doc["rows"]:
            key = _key(row)
            if key in rows:
                return [f"duplicate row {key}"]
            rows[key] = row
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable params JSON: {exc!r}"]
    problems = []
    if doc.get("schema_version") != 1:
        problems.append(f"schema_version {doc.get('schema_version')!r}")
    missing = sorted(set(ref) - set(rows), key=str)
    extra = sorted(set(rows) - set(ref), key=str)
    if missing:
        problems.append(f"{len(missing)} expected row(s) missing, first {missing[0]}")
    if extra:
        problems.append(f"{len(extra)} unexpected row(s), first {extra[0]}")
    for key in set(ref) & set(rows):
        n_ref, want = ref[key]
        row = rows[key]
        if row.get("n_samples") != n_ref:
            problems.append(f"{key} n_samples {row.get('n_samples')!r}, expected {n_ref}")
        params = row.get("params")
        if not isinstance(params, dict) or params.get("model") != key[0]:
            problems.append(f"{key} params model mismatch")
            continue
        _compare_params(str(key), params, want, problems)
    return problems[:MAX_PROBLEMS]


def redraw_synth(seed):
    """Independent redraw of `synth --preset table5:nlos-cp --model CIF`."""
    n, b, f0, sigma = wl.SYNTH_PRESET_CIF
    rng = np.random.default_rng(seed)
    cols = []
    for freq in wl.FREQS_GHZ:
        d = wl.log_uniform(rng, wl.SYNTH_ROWS_PER_FREQ)
        pl = wl.cif_mean_db(n, b, f0, freq, d) + rng.normal(0.0, sigma, d.size)
        cols.append((np.full(d.size, freq), d, pl))
    return tuple(np.concatenate(c) for c in zip(*cols))


def check_synth(text, expected):
    """A synth output CSV against the independent redraw of the same seed."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != ",".join(wl.CSV_HEADER):
        return ["missing or wrong header"]
    body = lines[1:]
    f_ref, d_ref, pl_ref = expected
    if len(body) != f_ref.size:
        return [f"{len(body)} rows, expected {f_ref.size}"]
    tails = {line.split(",", 3)[-1] for line in body}
    if tails != {"VV,NLOS,CP,,"}:
        return [f"unexpected label columns {sorted(tails)[:3]}"]
    try:
        got = np.loadtxt(body, delimiter=",", usecols=(0, 1, 2), ndmin=2)
    except ValueError as exc:
        return [f"unparseable numbers: {exc}"]
    problems = []
    if not np.array_equal(got[:, 0], f_ref):
        problems.append("frequency column differs from the redraw")
    bad_d = np.flatnonzero(np.abs(got[:, 1] - d_ref) > 1e-12 * d_ref)
    if bad_d.size:
        problems.append(f"{bad_d.size} distance(s) differ, first at row {bad_d[0] + 1}")
    bad_pl = np.flatnonzero(np.abs(got[:, 2] - pl_ref) > 1e-9)
    if bad_pl.size:
        problems.append(f"{bad_pl.size} path loss(es) differ, first at row {bad_pl[0] + 1}")
    return problems


def _cif_row(params_text):
    for row in json.loads(params_text)["rows"]:
        if _key(row) == ("CIF", "NLOS", "CO", "VV", None):
            return row["params"]
    raise KeyError("no multi-frequency CIF row for NLOS:CO:VV")


def check_predict(text, params_text, distances):
    """predict output against the CIF formula on the params it was given."""
    try:
        p = _cif_row(params_text)
    except (ValueError, KeyError) as exc:
        return [f"no CIF parameters to check against: {exc!r}"]
    lines = text.splitlines()
    want_rows = [(f, d) for f in wl.FREQS_GHZ for d in distances]
    if not lines or lines[0] != "freq_ghz,distance_m,path_loss_db":
        return ["missing or wrong header"]
    if len(lines) - 1 != len(want_rows):
        return [f"{len(lines) - 1} rows, expected {len(want_rows)}"]
    problems = []
    for i, (line, (f, d)) in enumerate(zip(lines[1:], want_rows), start=1):
        try:
            f_got, d_got, pl_got = (float(x) for x in line.split(","))
        except ValueError:
            problems.append(f"row {i} unparseable: {line!r}")
            continue
        ref = float(wl.cif_mean_db(p["n"], p["b"], p["f0_ghz"], f, d))
        if f_got != f or abs(d_got - d) > 1e-5 * d or abs(pl_got - ref) > PREDICT_TOL_DB:
            problems.append(f"row {i} {line!r}, expected ({f:g}, {d:g}, {ref:.4f})")
    return problems[:MAX_PROBLEMS]


_TABLE5_FIELDS = {  # model -> params-JSON fields behind n/alpha, b/beta, f0/gamma
    "CI": ("n", None, None),
    "CIF": ("n", "b", "f0_ghz"),
    "ABG": ("alpha", "beta_db", "gamma"),
}
_TABLE5_DECIMALS = (1, 2, 0)
_TABLE5_ABG_DECIMALS = (1, 1, 1)
_POL_OF_LABEL = {"V-V": "VV", "V-H": "VH"}
_LAYOUT_OF_LABEL = {"co": "CO", "op": "OP", "cp": "CP"}
# body rows per style for the 20-cell inputs: table3, table4, table5, table6
REPORT_BODY_ROWS = (30, 10, 30, 15)


def _cell_ok(text, ref, decimals):
    return abs(float(text) - ref) <= 0.5 * 10.0 ** -decimals + 1e-6


def check_report(text, ref):
    """`report --params` output: four tables of the expected shape, and the
    multi-frequency (table5) cells against the reference fits."""
    blocks = text.split("\n\n")
    if len(blocks) != 4:
        return [f"{len(blocks)} tables, expected 4"]
    problems = []
    for block, want in zip(blocks, REPORT_BODY_ROWS):
        n_body = len(block.rstrip("\n").split("\n")) - 2
        if n_body != want:
            problems.append(f"table {block.split(' ', 1)[0]!r} has {n_body} rows, expected {want}")
    for line in blocks[2].rstrip("\n").split("\n")[2:]:
        cells = [c.strip() for c in line.split("|")]
        if len(cells) != 9:
            problems.append(f"table5 row with {len(cells)} cells: {line!r}")
            continue
        env, layout, model, pol = cells[:4]
        base_model = model.removesuffix("X")
        key = (model, env, _LAYOUT_OF_LABEL.get(layout), _POL_OF_LABEL.get(pol), None)
        if key not in ref:
            problems.append(f"table5 row for unknown fit {key}")
            continue
        params = ref[key][1]
        base = params.get("base", params)
        decimals = _TABLE5_ABG_DECIMALS if base_model == "ABG" else _TABLE5_DECIMALS
        try:
            for text_cell, field, dec in zip(cells[4:7], _TABLE5_FIELDS[base_model], decimals):
                if field is not None and not _cell_ok(text_cell, base[field], dec):
                    problems.append(f"table5 {key} {field} {text_cell}, reference {base[field]}")
            if "xpd_db" in params and not _cell_ok(cells[7], params["xpd_db"], 1):
                problems.append(f"table5 {key} XPD {cells[7]}, reference {params['xpd_db']}")
            if not _cell_ok(cells[8], params["sigma_db"], 1):
                problems.append(f"table5 {key} sigma {cells[8]}, reference {params['sigma_db']}")
        except ValueError as exc:
            problems.append(f"table5 row unparseable {line!r}: {exc}")
    return problems[:MAX_PROBLEMS]


_COMPARE_FIELDS = {
    "CI": {"n": ("n", 2), "sigma": ("sigma_db", 2)},
    "CIF": {"n": ("n", 2), "b": ("b", 2), "f0": ("f0_ghz", 0), "sigma": ("sigma_db", 2)},
    "ABG": {"alpha": ("alpha", 2), "beta": ("beta_db", 2), "gamma": ("gamma", 2),
            "sigma": ("sigma_db", 2)},
}


def check_compare(text, ref):
    """`compare --scenario NLOS:CO` output against the pooled Comb fits."""
    lines = text.splitlines()
    n = ref[("CI", "NLOS", "CO", "Comb", None)][0]
    head = [f"comparison on NLOS:CO:Comb ({n} samples)", "multi-frequency: 28, 73 GHz"]
    if lines[:2] != head or len(lines) != 5:
        return [f"unexpected layout: {lines[:2]!r}, {len(lines)} lines"]
    problems = []
    for line, model in zip(lines[2:], ("CI", "CIF", "ABG")):
        if line.split(":", 1)[0].strip() != model:
            problems.append(f"expected the {model} line, got {line!r}")
            continue
        values = dict(re.findall(r"(\w+)=(-?[0-9.]+)", line))
        params = ref[(model, "NLOS", "CO", "Comb", None)][1]
        for label, (field, dec) in _COMPARE_FIELDS[model].items():
            if label not in values or not _cell_ok(values[label], params[field], dec):
                problems.append(f"{model} {label}={values.get(label)}, reference {params[field]}")
    return problems


# ------------------------------------------------------------- self-test

def _bump_first_number(text, pattern, delta):
    """Add delta to the first number matching pattern (group 1)."""
    m = re.search(pattern, text)
    if m is None:
        raise ValueError(f"self-test: pattern {pattern!r} not found")
    value = float(m.group(1)) + delta
    return text[: m.start(1)] + repr(value) + text[m.end(1):]


def self_test(samples):
    """Feed each check a genuine output and perturbed copies of it.

    samples maps a check name to the arguments of a genuine, already
    accepted output. Returns a list of failures: a genuine output rejected
    or a perturbed one accepted.
    """
    failures = []

    def expect(name, problems, should_pass):
        if bool(problems) == should_pass:
            failures.append(f"{name}: {'rejected' if should_pass else 'accepted'}"
                            f" {'genuine' if should_pass else 'perturbed'} output {problems[:1]}")

    if "params" in samples:
        text, ref = samples["params"]
        doc = json.loads(text)
        expect("params", check_params(text, ref), True)
        cif = next(r for r in doc["rows"] if r["model"] == "CIF")
        cif["params"]["n"] *= 1.0 + 1e-4
        expect("params n +0.01%", check_params(json.dumps(doc), ref), False)
        doc = json.loads(text)
        doc["rows"].pop()
        expect("params row dropped", check_params(json.dumps(doc), ref), False)
        doc = json.loads(text)
        doc["rows"][0]["params"]["sigma_db"] += 1e-3
        expect("params sigma +1e-3", check_params(json.dumps(doc), ref), False)
    if "synth" in samples:
        text, expected = samples["synth"]
        expect("synth", check_synth(text, expected), True)
        lines = text.split("\n")
        row = lines[1000].split(",")
        row[2] = repr(float(row[2]) + 1e-6)
        lines[1000] = ",".join(row)
        expect("synth path loss +1e-6", check_synth("\n".join(lines), expected), False)
        expect("synth last row dropped",
               check_synth(text.rstrip("\n").rsplit("\n", 1)[0] + "\n", expected), False)
    if "predict" in samples:
        text, params_text, distances = samples["predict"]
        expect("predict", check_predict(text, params_text, distances), True)
        bumped = _bump_first_number(text, r"\n73,[^,]+,([0-9.]+)", 1e-3)
        expect("predict loss +1e-3", check_predict(bumped, params_text, distances), False)
    if "report" in samples:
        text, ref = samples["report"]
        expect("report", check_report(text, ref), True)
        table5 = text.split("\n\n")[2]
        bumped = _bump_first_number(table5, r"\| CIF +\| V-V +\| ([0-9.]+)", 0.2)
        expect("report table5 n +0.2", check_report(text.replace(table5, bumped), ref), False)
        shorter = "\n".join(table5.rstrip("\n").split("\n")[:-1]) + "\n"
        expect("report row dropped", check_report(text.replace(table5, shorter), ref), False)
    if "compare" in samples:
        text, ref = samples["compare"]
        expect("compare", check_compare(text, ref), True)
        bumped = _bump_first_number(text, r"CI  : n=([0-9.]+)", 0.02)
        expect("compare CI n +0.02", check_compare(bumped, ref), False)
    return failures
