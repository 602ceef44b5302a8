"""Seeded inputs, reference fits and CLI op plans for the three workloads.

Inputs are drawn here with numpy's PCG64 and written with the stdlib csv
module, never with mmwpl's own synthesize/write_csv, so a change to those
functions cannot change the input of a workload that reads CSV. The
reference fits are plain np.linalg.lstsq solves on each cell's columns,
independent of mmwpl's estimators.

Workloads (all closed loop, one client, one op at a time):

  campaign-fit     one ~2e5-row CSV over all 20 measured cells; op = fit
  synth-write      op = synth of 2e5 rows from a published preset
  analyst-session  pool of ~500-row CSVs; op = fit, report, predict, compare
"""

from __future__ import annotations

import csv
import math

import numpy as np

SPEED_OF_LIGHT_M_S = 299792458.0
D_MIN_M, D_MAX_M = 3.9, 45.9
FREQS_GHZ = (28.0, 73.0)
POLS = ("VV", "VH")
# The five (environment, layout) pairs that carry measurements, in the
# order the CLI emits them.
PAIRS = (("LOS", "CO"), ("LOS", "OP"), ("NLOS", "CO"), ("NLOS", "OP"), ("NLOS", "CP"))
CSV_HEADER = ("freq_ghz", "distance_m", "path_loss_db", "polarization",
              "environment", "layout", "tx_id", "rx_id")

# Ground truth per pair: CIF exponent n, frequency weighting b, shadow
# sigma in dB, and the XPD offset added to V-H samples. Loosely the
# published multi-frequency (Table 5) values; f0 is the equal-count mean.
TRUTH = {
    ("LOS", "CO"): (1.1, 0.13, 1.7, 19.2),
    ("LOS", "OP"): (1.4, 0.24, 1.9, 17.3),
    ("NLOS", "CO"): (2.8, 0.22, 11.2, 10.8),
    ("NLOS", "OP"): (2.8, 0.21, 7.5, 10.6),
    ("NLOS", "CP"): (3.0, 0.20, 10.9, 13.5),
}
TRUTH_F0_GHZ = 50.5

CAMPAIGN_ROWS_PER_CELL = 10_000  # 20 cells -> 200_000 rows
ANALYST_ROWS_PER_CELL = 25  # 20 cells -> 500 rows, the paper's scale
ANALYST_POOL = 16
SYNTH_ROWS_PER_FREQ = 100_000
PREDICT_POINTS = 100

# The published NLOS closed-plan multi-frequency CIF row (n, b, f0, sigma)
# that `--preset table5:nlos-cp --model CIF` selects.
SYNTH_PRESET_CIF = (3.0, 0.20, 50.0, 10.9)


def fspl_1m_db(freq_ghz):
    return 20.0 * np.log10(4.0 * np.pi * np.asarray(freq_ghz, dtype=float) * 1e9
                           / SPEED_OF_LIGHT_M_S)


def cif_mean_db(n, b, f0, freq_ghz, dist_m):
    f = np.asarray(freq_ghz, dtype=float)
    return fspl_1m_db(f) + 10.0 * n * (1.0 + b * (f - f0) / f0) * np.log10(dist_m)


def log_uniform(rng, count):
    return 10.0 ** rng.uniform(math.log10(D_MIN_M), math.log10(D_MAX_M), count)


def write_campaign_csv(path, rng, rows_per_cell):
    """Draw every cell and write one CSV; returns {(env, layout, pol, f): (d, pl)}."""
    cells = {}
    with open(path, "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for env, layout in PAIRS:
            n, b, sigma, xpd = TRUTH[(env, layout)]
            for pol in POLS:
                for freq in FREQS_GHZ:
                    d = log_uniform(rng, rows_per_cell)
                    pl = cif_mean_db(n, b, TRUTH_F0_GHZ, freq, d)
                    pl = pl + (xpd if pol == "VH" else 0.0)
                    pl = pl + rng.normal(0.0, sigma, rows_per_cell)
                    tx = rng.integers(1, 5, rows_per_cell)
                    rx = rng.integers(1, 40, rows_per_cell)
                    f_cell = repr(freq)
                    writer.writerows(
                        (f_cell, repr(dv), repr(pv), pol, env, layout, f"TX{t}", f"RX{r}")
                        for dv, pv, t, r in zip(d.tolist(), pl.tolist(), tx.tolist(), rx.tolist())
                    )
                    cells[(env, layout, pol, freq)] = (d, pl)
    return cells


# ------------------------------------------------------------ references

def _lstsq(columns, y):
    design = np.column_stack(columns)
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ coef
    return coef.tolist(), float(np.sqrt(np.mean(resid**2)))


def _fit(family, f, d, pl, f0=None):
    dec = 10.0 * np.log10(d)
    if family == "CI":
        (n,), s = _lstsq((dec,), pl - fspl_1m_db(f))
        return {"n": n, "sigma_db": s}
    if family == "FI":
        (a, b), s = _lstsq((np.ones_like(dec), dec), pl)
        return {"alpha_db": a, "beta": b, "sigma_db": s}
    if family == "ABG":
        (a, b, g), s = _lstsq((dec, np.ones_like(dec), 10.0 * np.log10(f)), pl)
        return {"alpha": a, "beta_db": b, "gamma": g, "sigma_db": s}
    if family == "CIF":
        (u, v), s = _lstsq((dec, dec * (f - f0) / f0), pl - fspl_1m_db(f))
        return {"n": u, "b": v / u, "f0_ghz": f0, "sigma_db": s}
    raise ValueError(family)


def _base_mean(family, p, f, d):
    if family == "CI":
        return fspl_1m_db(f) + 10.0 * p["n"] * np.log10(d)
    if family == "ABG":
        return 10.0 * p["alpha"] * np.log10(d) + p["beta_db"] + 10.0 * p["gamma"] * np.log10(f)
    return cif_mean_db(p["n"], p["b"], p["f0_ghz"], f, d)


def _xpd(family, base, f, d, pl):
    resid = pl - _base_mean(family, base, f, d)
    xpd = float(np.mean(resid))
    return {"base": base, "xpd_db": xpd,
            "sigma_db": float(np.sqrt(np.mean((resid - xpd) ** 2)))}


def reference_fits(cells):
    """Expected params-JSON rows of `mmwpl fit` with auto families.

    Keyed by (model, env, layout, pol, freq_ghz or None); values are
    (n_samples, params dict with the params-JSON field names).
    """
    ref = {}
    for env, layout in PAIRS:
        bases = {}
        for pol in ("VV", "VH", "Comb"):
            members = POLS if pol == "Comb" else (pol,)
            per_freq = {}
            for freq in FREQS_GHZ:
                d = np.concatenate([cells[(env, layout, p, freq)][0] for p in members])
                pl = np.concatenate([cells[(env, layout, p, freq)][1] for p in members])
                per_freq[freq] = (np.full(d.size, freq), d, pl)
            pooled = tuple(np.concatenate(cols) for cols in zip(*per_freq.values()))
            # CIF reference frequency: count-weighted mean, half away from zero
            f0 = float(math.floor(float(np.mean(pooled[0])) + 0.5))
            fits = [(freq, fam, cols) for freq, cols in per_freq.items() for fam in ("CI", "FI")]
            fits += [(None, fam, pooled) for fam in ("CI", "CIF", "ABG")]
            for freq, fam, (f, d, pl) in fits:
                params = _fit(fam, f, d, pl, f0)
                ref[(fam, env, layout, pol, freq)] = (d.size, params)
                if pol == "VV" and fam != "FI":
                    bases[(freq, fam)] = params
                if pol == "VH" and fam != "FI":
                    ext = _xpd(fam, bases[(freq, fam)], f, d, pl)
                    ref[(fam + "X", env, layout, pol, freq)] = (d.size, ext)
    return ref


# ------------------------------------------------------------- workloads

class Workload:
    """Generated inputs plus the ops one run repeats, round-robin.

    ops is a list of sessions; a session is a list of CLI argv lists that
    run back to back and are timed together as one op. "{out}" in an argv
    stands for the op's own output directory.
    """

    def __init__(self, name, inputs, ops, rows_per_op, refs=None, digest_files=()):
        self.name = name
        self.inputs = inputs  # list of input file paths
        self.ops = ops
        self.rows_per_op = rows_per_op
        self.refs = refs  # per-session reference fits, same order as ops
        self.digest_files = digest_files  # hashed per op, kept only for op 0


def campaign_fit(work, seed):
    path = f"{work}/campaign.csv"
    cells = write_campaign_csv(path, np.random.default_rng(seed), CAMPAIGN_ROWS_PER_CELL)
    return Workload(
        "campaign-fit", [path], [[["fit", "--input", path, "--output", "{out}/params.json"]]],
        rows_per_op=20 * CAMPAIGN_ROWS_PER_CELL,
        refs=[reference_fits(cells)],
    )


def synth_write(work, seed):
    op = ["synth", "--preset", "table5:nlos-cp", "--model", "CIF", "--scenario", "NLOS:CP:VV",
          "--freqs", f"28:{SYNTH_ROWS_PER_FREQ},73:{SYNTH_ROWS_PER_FREQ}",
          "--seed", str(seed), "--output", "{out}/out.csv"]
    return Workload("synth-write", [], [[op]], rows_per_op=2 * SYNTH_ROWS_PER_FREQ,
                    digest_files=("out.csv",))


def predict_distances():
    return np.geomspace(4.0, 45.0, PREDICT_POINTS).tolist()


def analyst_session(work, seed):
    rng = np.random.default_rng(seed)
    dists = [repr(d) for d in predict_distances()]
    inputs, ops, refs = [], [], []
    for k in range(ANALYST_POOL):
        path = f"{work}/pool{k:02d}.csv"
        refs.append(reference_fits(write_campaign_csv(path, rng, ANALYST_ROWS_PER_CELL)))
        inputs.append(path)
        ops.append([
            ["fit", "--input", path, "--output", "{out}/p.json"],
            ["report", "--params", "{out}/p.json"],
            ["predict", "--params", "{out}/p.json", "--model", "CIF",
             "--scenario", "NLOS:CO:VV", "--fit-freq", "multi",
             "--f", "28", "73", "--d", *dists],
            ["compare", "--input", path, "--scenario", "NLOS:CO"],
        ])
    return Workload("analyst-session", inputs, ops, rows_per_op=20 * ANALYST_ROWS_PER_CELL,
                    refs=refs)


WORKLOADS = {
    "campaign-fit": campaign_fit,
    "synth-write": synth_write,
    "analyst-session": analyst_session,
}
