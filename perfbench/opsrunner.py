"""Run one workload's CLI ops in this process and record their timings.

    python perfbench/opsrunner.py PLAN.json RESULT.json

run.py starts this as a fresh process holding nothing but the program and
the op loop, so its peak RSS is the workload's. Ops call
mmwpl.cli.main(argv) in-process, one after another (closed loop, one
client). Outputs are left on disk for run.py to check; files named in the
plan's "digest" list are hashed after each op and kept only for op 0.

When the plan has a "setup" entry, the loop also times fresh interpreters
that import mmwpl and build the CLI parser, one whenever the next slot of
setup["every_s"] seconds has come, between ops and never during one, so
the samples spread over the whole run rather than over one stretch of it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
import traceback


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _call(main, argv):
    """Run one CLI call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error is a failed op, not a crashed run
            traceback.print_exc(file=err)
            code = -1
    return code, out.getvalue(), err.getvalue()


def _timed_start(argv, timeout):
    """Wall time of a child process, start to exit, or None if it failed.

    Waits with a blocking waitpid and kills from a timer thread: with a
    timeout, subprocess polls the child every 50 ms, which would quantize
    the measurement.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    return elapsed if code == 0 else None


def main():
    plan_path, result_path = sys.argv[1:3]
    with open(plan_path, encoding="utf-8") as stream:
        plan = json.load(stream)

    import mmwpl.cli

    src = os.path.realpath(plan["src"])
    if not os.path.realpath(mmwpl.cli.__file__).startswith(src + os.sep):
        sys.exit(f"mmwpl imported from {mmwpl.cli.__file__}, not from {src}")

    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    # a failing warm-up is reported, not fatal: the timed ops then fail too
    # and are counted as failed ops
    warmup_codes = [_call(mmwpl.cli.main, argv)[0] for argv in plan["warmup"]]
    if tracer:
        tracer.reset()

    setup = plan["setup"]
    setup_samples, setup_failures = [], 0

    def sample_setup():
        nonlocal setup_failures
        elapsed = _timed_start(setup["argv"], setup["timeout_s"])
        if elapsed is None:
            setup_failures += 1
        else:
            setup_samples.append(elapsed)

    ops = []
    sessions = plan["ops"]
    start = time.perf_counter()
    deadline = start + plan["seconds"]
    next_setup = start
    i = 0
    while i < plan["min_ops"] or time.perf_counter() < deadline:
        while setup and time.perf_counter() >= next_setup and time.perf_counter() < deadline:
            sample_setup()
            next_setup += setup["every_s"]
        out_dir = os.path.join(plan["work"], f"op{i:05d}")
        os.makedirs(out_dir)
        calls = [[a.replace("{out}", out_dir) for a in argv] for argv in sessions[i % len(sessions)]]
        results = []
        if tracer:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        for argv in calls:
            results.append(_call(mmwpl.cli.main, argv))
        t1 = time.perf_counter()
        if tracer:
            tracer.end_op()
        for j, (_, out, err) in enumerate(results):
            with open(os.path.join(out_dir, f"call{j}.out"), "w", encoding="utf-8") as stream:
                stream.write(out)
            if err:
                with open(os.path.join(out_dir, f"call{j}.err"), "w", encoding="utf-8") as stream:
                    stream.write(err)
        digests = {}
        for name in plan["digest"]:
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                digests[name] = _sha256(path)
                if i > 0:
                    os.remove(path)
        ops.append({"seconds": t1 - t0, "codes": [r[0] for r in results],
                    "session": i % len(sessions), "digests": digests})
        i += 1
    while setup and len(setup_samples) + setup_failures < setup["min_samples"]:
        sample_setup()

    result = {
        "ops": ops,
        "warmup_codes": warmup_codes,
        "setup_samples_s": setup_samples,
        "setup_failures": setup_failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": None,
    }
    if tracer:
        result["spans"] = os.path.join(plan["work"], "spans.json")
        tracer.dump(result["spans"])
    with open(result_path, "w", encoding="utf-8") as stream:
        json.dump(result, stream)


if __name__ == "__main__":
    main()
