#!/usr/bin/env python3
"""mmwpl benchmark: end-to-end and per-layer metrics for three CLI workloads.

    python3 perfbench/run.py --workload campaign-fit --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it); mmwpl is imported
from ./src, never from an installed copy. Steps of one run:

  1. draw the workload's inputs from --seed and fit them independently
     with np.linalg.lstsq for the output checks (workloads.py);
  2. start a fresh ops process (opsrunner.py) that runs the workload's op
     back to back for --seconds and records each op's wall time and its
     peak RSS; between ops it also times SETUP_SAMPLES fresh interpreters
     that import mmwpl and build the CLI parser, spread over the run
     (setup_s). With --trace 1, one untraced and one traced ops process
     share the --seconds, and the traced one records spans (tracing.py);
  3. check every op's outputs and self-test each check on perturbed copies
     (checks.py);
  4. write the full record to perfbench/out/ and print a summary, then one
     JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is 0 whenever a result line is printed. A broken program
(a failing or hanging op, warm-up or set-up start) still gets one, with
correct false and the failures counted in "failed"; when nothing could be
timed its metrics are empty. Without the sources under src/ the run exits
non-zero with no result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 20  # spread evenly over the run, between ops
SETUP_SNIPPET = "import mmwpl.cli; mmwpl.cli.build_parser()"
SETUP_TIMEOUT_S = 30
MIN_OPS = 3  # fewest ops a run times, however short --seconds is
# How long an ops process may run past --seconds (warm-up op, the op under
# way at the deadline, MIN_OPS) before it is killed and counted as failed.
OPS_GRACE_S = 100

# Counts that repeat exactly from run to run and seed to seed, so a later
# change may cite them as count claims. .bytes repeat only for one seed.
EXACT_SUFFIXES = (".calls", ".rows", ".points", ".rows_scanned", ".rows_fitted",
                  ".selected_ratio", ".arrays_rows_per_input_row")

FITTERS = ("fit_ci", "fit_fi", "fit_abg", "fit_cif", "fit_xpd", "compute_f0")
LAYER_MODULES = tracing.MODULES


# ----------------------------------------------------------------- record

def environment(seed):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            cpu = next((line.split(":", 1)[1].strip() for line in stream
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or None,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _git_commit():
    """HEAD of the checkout this benchmark sits in, or None outside git."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _sha256(path):
    with open(path, "rb") as stream:
        return hashlib.sha256(stream.read()).hexdigest()


# ---------------------------------------------------------------- running

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # one client, one thread: keep numpy's BLAS from adding threads
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def run_ops(workload, work, seconds, trace, setup):
    """Run the op loop in a fresh process.

    Returns its result record, or None with the reason when the process
    failed or ran out of time; the caller counts that as a failed op.
    """
    work.mkdir(parents=True)
    # one untimed full-size warm-up op first, so the timed ops run in a
    # process whose heap has already grown
    warmup = [[a.replace("{out}", str(work)) for a in argv] for argv in workload.ops[0]]
    plan = {
        "src": str(SRC), "work": str(work), "trace": trace, "seconds": seconds,
        "min_ops": MIN_OPS, "ops": workload.ops, "warmup": warmup,
        "digest": list(workload.digest_files), "setup": setup,
    }
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    # its own session, so that a timeout also ends a setup child it started
    proc = subprocess.Popen([sys.executable, str(HERE / "opsrunner.py"), str(plan_path),
                             str(result_path)], env=_child_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=seconds + OPS_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None, f"ops process still running {seconds + OPS_GRACE_S:g} s after start"
    if code != 0 or not result_path.exists():
        return None, f"ops process exited {code}"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["work"] = work
    return result, None


# --------------------------------------------------------------- checking

def _read(path):
    with open(path, encoding="utf-8", newline="") as stream:
        return stream.read()


def check_ops(workload, seed, result):
    """Problems per op (an empty list is a correct op) and self-test samples."""
    verdicts, samples = [], {}
    synth_ok = {}  # digest -> problems of the op-0 output with that digest
    distances = wl.predict_distances()
    for i, op in enumerate(result["ops"]):
        op_dir = result["work"] / f"op{i:05d}"
        problems = [f"call {j} exited {code}" for j, code in enumerate(op["codes"]) if code != 0]
        if problems:
            verdicts.append(problems)
            continue
        ref = workload.refs[op["session"]] if workload.refs else None
        if workload.name == "campaign-fit":
            text = _read(op_dir / "params.json")
            problems = checks.check_params(text, ref)
            samples.setdefault("params", (text, ref))
        elif workload.name == "synth-write":
            digest = op["digests"].get("out.csv")
            if i == 0 and digest is not None:
                text = _read(op_dir / "out.csv")
                expected = checks.redraw_synth(seed)
                synth_ok[digest] = checks.check_synth(text, expected)
                samples["synth"] = (text, expected)
            problems = synth_ok.get(digest, ["output differs from the checked op-0 output"])
        else:
            params = _read(op_dir / "p.json")
            report, predicted, compared = (_read(op_dir / f"call{j}.out") for j in (1, 2, 3))
            problems = (checks.check_params(params, ref)
                        + checks.check_report(report, ref)
                        + checks.check_predict(predicted, params, distances)
                        + checks.check_compare(compared, ref))
            if not samples:
                samples = {"params": (params, ref), "report": (report, ref),
                           "predict": (predicted, params, distances),
                           "compare": (compared, ref)}
        verdicts.append(problems)
    return verdicts, samples


# ---------------------------------------------------------------- metrics

def _quantile(times, p):
    """p-quantile of the samples, interpolating between order statistics."""
    ordered = sorted(times)
    k = (len(ordered) - 1) * p
    i = int(k)
    if i + 1 >= len(ordered):
        return ordered[i]
    return ordered[i] + (ordered[i + 1] - ordered[i]) * (k - i)


def op_latency(times):
    """The gated op latency: the 90th percentile of op wall time."""
    return _quantile(times, 0.9)


def end_to_end(workload, result):
    """The gated end-to-end metrics, and the informational ones.

    Op latency is gated as the 90th percentile of the run's ops, set-up
    time as the median of the starts spread across the run: on a shared
    2-vCPU VM the CPU swings between a fast and a ~1.5-1.8x slower mode
    for seconds at a time, and these two statistics had the smallest
    largest run-to-run spread over the sets of runs in README.md. The
    others are still computed and recorded for every run.
    """
    times = [op["seconds"] for op in result["ops"]]
    gated = {
        "setup_s": (_quantile(result["setup_samples_s"], 0.5), "s"),
        "op_p90_s": (op_latency(times), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    info = {
        "op_p10_s": (_quantile(times, 0.1), "s"),
        "op_p50_s": (_quantile(times, 0.5), "s"),
        "rows_per_s": (workload.rows_per_op * len(times) / sum(times), "1/s"),
        "sessions_per_s": (len(times) / sum(times), "1/s"),
        "ops_timed": (len(times), "count"),
        "setup_samples": (len(result["setup_samples_s"]), "count"),
    }
    return gated, info


def per_layer(agg, untraced_latency, traced_latency):
    ops = agg["ops"]
    by = agg["by_name"]

    def get(name, key):
        return by.get(name, {}).get(key, 0) / ops

    m = {}

    def timed(name, *counts):
        m[f"{name}.s"] = (get(name, "s"), "s")
        for label, key in counts:
            m[f"{name}.{label}"] = (get(name, key), "bytes" if label == "bytes" else "count")

    timed("dataio.read_csv", ("rows", "a"), ("bytes", "b"))
    timed("dataio.write_csv", ("rows", "a"), ("bytes", "b"))
    timed("synthesis.synthesize", ("rows", "a"))
    part = "taxonomy.partition_by_scenario"
    timed(part, ("calls", "calls"), ("rows_scanned", "a"))
    scanned = get(part, "a")
    m[f"{part}.selected_ratio"] = (get(part, "b") / scanned if scanned else 0.0, "ratio")
    timed("taxonomy.Dataset.arrays", ("rows", "a"))
    read_rows = get("dataio.read_csv", "a")
    m["taxonomy.arrays_rows_per_input_row"] = (
        get("taxonomy.Dataset.arrays", "a") / read_rows if read_rows else 0.0, "ratio")
    for fitter in FITTERS:
        timed(f"fitting.{fitter}", ("calls", "calls"))
    m["fitting.rows_fitted"] = (agg["fitting_rows"] / ops, "count")
    m["fitting.self_s"] = (agg["fitting_self"] / ops, "s")
    timed("report.render_table", ("calls", "calls"))
    timed("report.FitReport.find", ("calls", "calls"))
    timed("dataio.write_params_json")
    timed("dataio.read_params_json")
    timed("models.predict", ("calls", "calls"), ("points", "a"))
    timed("presets.preset_model")
    timed("cli.build_parser")
    m["cli.self_s"] = (agg["op_self"] / ops, "s")
    m["trace.overhead_ratio"] = (traced_latency / untraced_latency - 1.0, "ratio")
    for module in LAYER_MODULES:
        share = agg["module_self"].get(module, 0.0) / agg["op_time"]
        m[f"layer_share.{module}"] = (share, "ratio")
    return m


def is_exact(name):
    return name.endswith(EXACT_SUFFIXES)


# ------------------------------------------------------------------- main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, work):
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed)}
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    workload = wl.WORKLOADS[args.workload](str(work), args.seed)
    record["input_gen_s"] = time.perf_counter() - t0
    record["inputs_sha256"] = {Path(p).name: _sha256(p) for p in workload.inputs}

    if args.trace:
        # untraced and traced halves; which runs first alternates with the
        # seed, so drift of the machine's speed does not always favour one
        half = args.seconds / 2.0
        order = (False, True) if args.seed % 2 == 0 else (True, False)
        done = {traced: run_ops(workload, work / ("traced" if traced else "untraced"),
                                half, traced, None) for traced in order}
        results = [done[False], done[True]]
    else:
        setup = {"argv": [sys.executable, "-c", SETUP_SNIPPET], "timeout_s": SETUP_TIMEOUT_S,
                 "every_s": args.seconds / SETUP_SAMPLES, "min_samples": SETUP_SAMPLES}
        results = [run_ops(workload, work / "ops", args.seconds, False, setup)]

    attempted, failed, problems, samples = 0, 0, [], {}
    for result, failure in results:
        if failure:
            attempted, failed = attempted + 1, failed + 1
            problems.append(failure)
            continue
        bad = [code for code in result["warmup_codes"] if code != 0]
        if bad:
            attempted, failed = attempted + 1, failed + 1
            problems.append(f"warm-up op exited {bad}")
        if result["setup_failures"]:
            attempted += result["setup_failures"]
            failed += result["setup_failures"]
            problems.append(f"{result['setup_failures']} set-up starts exited non-zero")
        verdicts, found = check_ops(workload, args.seed, result)
        samples = samples or found
        attempted += len(verdicts)
        failed += sum(1 for v in verdicts if v)
        problems += [f"op {i}: {p}" for i, v in enumerate(verdicts) for p in v]
    self_test_failures = checks.self_test(samples)
    if not samples:
        self_test_failures.append("no correct op output to self-test the checks on")
    record.update(attempted=attempted, failed=failed, ops_failed_ratio=failed / attempted,
                  check_problems=problems[:20], self_test_failures=self_test_failures)
    record["correct"] = failed == 0 and not self_test_failures
    if not all(result for result, _ in results):
        return record, {}  # an ops process failed: nothing timed to report

    untraced = results[0][0]
    record["op_seconds"] = [[op["seconds"] for op in r["ops"]] for r, _ in results]
    record["setup_samples_s"] = untraced["setup_samples_s"]
    if not args.trace:
        if not untraced["setup_samples_s"]:
            return record, {}
        metrics, record["informational"] = end_to_end(workload, untraced)
        record["end_to_end"] = metrics
        return record, metrics
    agg = tracing.analyse(*tracing.load(results[1][0]["spans"]))
    metrics = per_layer(agg, *(op_latency([op["seconds"] for op in r["ops"]])
                               for r, _ in results))
    record["per_layer"] = metrics
    record["layer_shares"] = sorted(
        ((mod, metrics[f"layer_share.{mod}"][0]) for mod in LAYER_MODULES),
        key=lambda item: -item[1])
    return record, metrics


def summary_lines(record, metrics):
    env = record["environment"]
    yield (f"mmwpl benchmark: {record['workload']} seed={record['seed']} "
           f"seconds={record['seconds']:g} trace={record['trace']}")
    yield ("environment: " + ", ".join(f"{k}={env[k]}" for k in
                                       ("python", "numpy", "nproc", "cpu", "git_commit")))
    for name, digest in record["inputs_sha256"].items():
        yield f"input {name} sha256={digest}"
    yield (f"ops attempted={record['attempted']} failed={record['failed']} "
           f"ops_failed_ratio={record['ops_failed_ratio']:.6g}")
    for line in record["check_problems"] + record["self_test_failures"]:
        yield f"CHECK FAILED: {line}"
    for name, (value, unit) in metrics.items():
        mark = "  [exact-repeat count]" if record["trace"] and is_exact(name) else ""
        yield f"{name:48s} {value:.6g} {unit}{mark}"
    for name, (value, unit) in record.get("informational", {}).items():
        yield f"{name:48s} {value:.6g} {unit}  [informational, not gated]"
    if "layer_shares" in record:
        yield "layer share (module self time / op time):"
        for module, share in record["layer_shares"]:
            yield f"  {module:10s} {share:7.1%}"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mmwpl" / "cli.py").is_file():
        print(f"mmwpl sources not found under {SRC}", file=sys.stderr)
        return 2
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{stamp}-{os.getpid()}"
    try:
        record, metrics = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stamp}.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                      encoding="utf-8")
    for line in summary_lines(record, metrics):
        print(line)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
