"""Command-line front end: fit, predict, synth, report, compare.

Every command is deterministic: the same inputs (and, for synth, the same
seed) produce byte-identical outputs. Errors exit with a class-specific
code so scripts can tell misuse (2) from bad data (3) from numerically
ill-posed fits (4); a reader that closes stdout early gives 141, silently.

`main` builds its argparse parser on the first call and reuses it for every
later call in the process; `build_parser()` returns a new parser each time,
for callers that extend it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from . import dataio, fitting, presets
from .errors import DataError, DomainError, NumericalError, UsageError
from .models import MODEL_FAMILIES, predict
from .report import ANY_FREQ, TABLE_STYLES, render_table, render_tables
from .numformat import format_fixed
from .synthesis import DEFAULT_SEED, SynthesisSpec, synthesize
from .taxonomy import (
    Dataset,
    PolarizationClass,
    ScenarioKey,
    parse_scenario,
    partition_by_scenario,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it


def _parse_freq_blocks(text: str) -> tuple[tuple[float, int], ...]:
    """Parse --freqs blocks like "28:100,73:100" into (GHz, count) pairs."""
    blocks = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        freq_part, sep, count_part = chunk.partition(":")
        try:
            freq = float(freq_part)
            count = int(count_part) if sep else 1
        except ValueError:
            raise UsageError(
                f"bad --freqs entry {chunk!r}; expected GHZ:COUNT"
            ) from None
        blocks.append((freq, count))
    if not blocks:
        raise UsageError("--freqs selected no frequency blocks")
    return tuple(blocks)


def _load_dataset(path: str, mode: str) -> Dataset:
    dataset, skipped = dataio.read_csv(path, mode=mode)
    for item in skipped:
        print(f"skipped row {item.row}: {item.reason}", file=sys.stderr)
    return dataset


# ---------------------------------------------------------------- fit

def _requested_families(spec: str) -> Optional[tuple[str, ...]]:
    """Resolve --families into fit_scenarios' families: None for 'auto'.

    fit_scenarios checks the names; an explicit list is honored literally,
    so asking for a multi-frequency family on single-frequency data surfaces
    the estimator's refusal instead of silently skipping.
    """
    tokens = [t.strip().upper() for t in spec.split(",") if t.strip()]
    return None if not tokens or "AUTO" in tokens else tuple(tokens)


def _cmd_fit(args) -> int:
    dataset = _load_dataset(args.input, args.mode)
    selections = [parse_scenario(text) for text in args.scenario] if args.scenario else None
    families = _requested_families(args.families)
    report = fitting.fit_scenarios(dataset, selections, families, args.f0)
    if args.output:
        dataio.write_params_json(report, args.output)
        sys.stdout.write(render_tables(report))
    else:
        sys.stdout.write(dataio.dumps_params(report))
    return EXIT_OK


# ------------------------------------------------------------- predict

def _load_report(args):
    """The report that --preset or --params names."""
    if args.preset is not None:
        return presets.preset_report(args.preset)
    return dataio.read_params_json(args.params)


def _resolve_model(args):
    """The one --model row of --params or --preset that --fit-freq and --scenario
    select; synth's --scenario only tags its samples when the source is --preset."""
    family = args.model.upper()
    if family not in MODEL_FAMILIES:
        raise UsageError(f"unknown model family {args.model!r}; choose from {MODEL_FAMILIES}")
    report = _load_report(args)
    scenario = None
    if args.scenario and (args.command == "predict" or args.preset is None):
        scenario = ScenarioKey(*parse_scenario(args.scenario, need_pol=True))
    freq = ANY_FREQ
    if args.fit_freq is not None:
        try:
            freq = None if args.fit_freq.lower() == "multi" else float(args.fit_freq)
        except ValueError:
            raise UsageError(
                f"--fit-freq {args.fit_freq!r} must be a GHz value or 'multi'"
            ) from None
    return report.single(family, scenario, freq).params


def _cmd_predict(args) -> int:
    model = _resolve_model(args)
    if model.family != "FI" and not args.freq:
        raise UsageError(f"--freq is required for the {model.family} family")
    # one grid row per --freq value; FI without any gets one row of empty cells
    freqs = np.array(args.freq)[:, None] if args.freq else None
    grid = np.atleast_2d(predict(model, freqs, np.array(args.dist)))
    f_cells = [f"{f:g}" for f in args.freq] or [""]
    d_cells = [f"{d:g}" for d in args.dist]
    lines = ["freq_ghz,distance_m,path_loss_db"]
    for f_cell, losses in zip(f_cells, grid.tolist()):
        lines.extend(f"{f_cell},{d},{loss:.4f}" for d, loss in zip(d_cells, losses))
    dataio.write_text("\n".join(lines) + "\n", args.output or sys.stdout)
    return EXIT_OK


# --------------------------------------------------------------- synth

def _cmd_synth(args) -> int:
    model = _resolve_model(args)
    scenario = ScenarioKey(*parse_scenario(args.scenario, need_pol=True))
    spec = SynthesisSpec(
        model=model,
        scenario=scenario,
        frequencies=_parse_freq_blocks(args.freqs),
        distance_range_m=(args.dmin, args.dmax),
        seed=args.seed,
    )
    dataset = synthesize(spec)
    dataio.write_csv(dataset, args.output or sys.stdout)
    return EXIT_OK


# -------------------------------------------------------------- report

def _cmd_report(args) -> int:
    report = _load_report(args)
    if args.style:
        text = render_table(report, args.style)
    else:
        text = render_tables(report) or render_table(report, "table3")
    dataio.write_text(text, args.output or sys.stdout)
    return EXIT_OK


# ------------------------------------------------------------- compare

def _param_cell(name: str, value) -> str:
    """name=value to 2 decimals; a _db or _ghz name's unit follows the value, GHz whole."""
    for suffix, unit, decimals in (("_db", " dB", 2), ("_ghz", " GHz", 0), ("", "", 2)):
        if name.endswith(suffix):  # the last entry takes every other name
            return f"{name.removesuffix(suffix)}={format_fixed(value, decimals)}{unit}"


def _fit_lines(*fits) -> list[str]:
    """A line per fit: its family tag, padded to the widest, and its fields but d0_m."""
    width = max(len(fit.family) for fit in fits)
    return [f"{fit.family:<{width}} : " + "  ".join(
        _param_cell(name, value) for _, name, value in fit.record() if name != "d0_m")
        for fit in fits]


def _cmd_compare(args) -> int:
    dataset = _load_dataset(args.input, args.mode)
    label = "all samples"
    if args.scenario:
        env, layout, pol = parse_scenario(args.scenario)
        key = ScenarioKey(env, layout, pol if pol else PolarizationClass.COMBINED)
        dataset = partition_by_scenario(dataset, key)
        label = key.label()
    if len(dataset) == 0:
        raise DataError("compare: no samples selected")
    freqs = dataset.frequencies()
    lines = [f"comparison on {label} ({len(dataset)} samples)"]
    if len(freqs) == 1:
        ci, fi = fitting.fit_ci(dataset), fitting.fit_fi(dataset)
        lines += [f"single frequency: {freqs[0]:g} GHz", *_fit_lines(ci, fi),
                  f"sigma gap (CI - FI): {format_fixed(ci.sigma_db - fi.sigma_db, 2)} dB"]
    else:
        fits = fitting.fit_ci(dataset), fitting.fit_cif(dataset, args.f0), fitting.fit_abg(dataset)
        lines += [f"multi-frequency: {', '.join(f'{f:g}' for f in freqs)} GHz", *_fit_lines(*fits)]
    dataio.write_text("\n".join(lines) + "\n", args.output or sys.stdout)
    return EXIT_OK


# -------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwpl",
        description="Fit, evaluate, and compare large-scale indoor mmWave path loss models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each shared option once, on parents built per call: no two calls share an Action
    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument("--input", required=True, help="sample CSV path")
    samples.add_argument("--mode", choices=("strict", "lax"), default="strict",
                         help="CSV ingestion mode (default strict)")
    samples.add_argument("--f0", type=float,
                         help="CIF reference frequency in GHz (default: count-weighted mean)")
    source = argparse.ArgumentParser(add_help=False)
    src = source.add_mutually_exclusive_group(required=True)
    src.add_argument("--params", help="params JSON from a fit run")
    src.add_argument("--preset", help="published preset selector, e.g. table5:nlos-cp")
    row = argparse.ArgumentParser(add_help=False, parents=[source])  # what _resolve_model reads
    row.add_argument("--model", required=True, help="model family, e.g. CI")
    row.add_argument("--fit-freq", help="row filter: a GHz value or 'multi'")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="output path (default stdout)")

    fit = sub.add_parser("fit", parents=[samples], help="fit model families to a CSV dataset")
    fit.add_argument("--scenario", action="append",
                     help="restrict to ENV:LAYOUT[:POL]; repeatable")
    fit.add_argument("--families", default="auto",
                     help="comma list of ci,fi,abg,cif or 'auto' (default); "
                          "V-H data also gets XPD extensions of the V-V base fits")
    fit.add_argument("--output", help="params JSON path; table goes to stdout")
    fit.set_defaults(func=_cmd_fit)

    predict_p = sub.add_parser("predict", parents=[row, output],
                               help="evaluate a model on a (f, d) grid")
    predict_p.add_argument("--scenario", help="ENV:LAYOUT:POL row filter")
    predict_p.add_argument("--freq", "--f", action="extend", nargs="+", type=float,
                           default=[], help="frequencies in GHz")
    predict_p.add_argument("--dist", "--d", action="extend", nargs="+", type=float,
                           required=True, help="distances in meters")
    predict_p.set_defaults(func=_cmd_predict)

    synth = sub.add_parser("synth", parents=[row, output],
                           help="draw a shadow-faded dataset from a model")
    synth.add_argument("--scenario", required=True,
                       help="ENV:LAYOUT:POL tag for the generated samples; "
                            "also a row filter for --params")
    synth.add_argument("--freqs", required=True,
                       help="frequency blocks GHZ:COUNT[,GHZ:COUNT...], e.g. 28:100,73:100")
    synth.add_argument("--dmin", type=float, default=3.9,
                       help="minimum distance in m (default 3.9)")
    synth.add_argument("--dmax", type=float, default=45.9,
                       help="maximum distance in m (default 45.9)")
    synth.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"generator seed (default {DEFAULT_SEED})")
    synth.set_defaults(func=_cmd_synth)

    report_p = sub.add_parser("report", parents=[source, output],
                              help="render comparison tables")
    report_p.add_argument("--style", choices=TABLE_STYLES,
                          help="table style (default: inferred)")
    report_p.set_defaults(func=_cmd_report)

    compare = sub.add_parser("compare", parents=[samples, output],
                             help="fit and compare sigma on one dataset")
    compare.add_argument("--scenario", help="ENV:LAYOUT[:POL] partition to compare on")
    compare.set_defaults(func=_cmd_compare)

    return parser


# main's parser, built on its first call: parsing keeps no state between calls
_parser: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader that closed after the last write shows here
        return status
    except BrokenPipeError:
        # the reader went away, the data is fine: say nothing, and send what
        # is still buffered to os.devnull so that no flush fails at exit
        try:
            stdout = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout)
            os.close(devnull)
        except (OSError, ValueError):  # a stdout without a file, or no os.devnull
            pass
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, DomainError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
