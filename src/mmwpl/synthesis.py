"""Seeded generation of shadow-faded datasets from any fitted model.

Distances are drawn uniformly in log10(d) so every decade of the fitted
range carries equal leverage; shadow fading is added per sample as an
i.i.d. zero-mean Gaussian in dB with the model's sigma. The generator is
numpy's default PCG64 bit stream (numpy.random.default_rng), which is the
same on every platform; one seed gives one bit-identical dataset for one
numpy build running the same dispatched SIMD kernels, since numpy's
AVX-512 power kernel rounds differently from its baseline one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, NumericalError
from .models import PathLossModel, predict
from .taxonomy import (
    CODE,
    POINT_RULES,
    Dataset,
    Polarization,
    PolarizationClass,
    ScenarioKey,
    ensure_fit_ready,
)

DEFAULT_SEED = 0

# samples drawn per step: large enough for numpy to pay off, small enough
# that a step's temporaries stay small next to the columns
_STEP = 2**14


@dataclass(frozen=True)
class SynthesisSpec:
    """Everything a synthesis run needs, frozen so runs are reproducible.

    frequencies is a sequence of (frequency_ghz, sample_count) pairs; one
    block of samples is drawn per pair, in order.
    """

    model: PathLossModel
    scenario: ScenarioKey
    frequencies: tuple[tuple[float, int], ...]
    distance_range_m: tuple[float, float]
    seed: int = DEFAULT_SEED


def synthesize(spec: SynthesisSpec) -> Dataset:
    """Draw a dataset from a model under a frozen synthesis description.

    Identical specs give identical datasets. The scenario must name a
    concrete polarization (VV or VH): samples always carry a single
    polarization, so the Combined class cannot be synthesized directly.
    Each block's sample count must be a positive integer whose float64
    block numpy can size, and the total must be allocatable (DataError,
    raised before any draw): the three float columns, 24 bytes per sample,
    are allocated once; the polarization, environment and layout codes and
    the None labels are one shared value each, not a column per sample.
    Each block is drawn in fixed steps, so only one step's temporaries are
    held on top.
    The block frequencies and the ends of the distance range must satisfy
    taxonomy.POINT_RULES (DomainError); a drawn distance or mean that
    overflows float64 raises NumericalError. A drawn sample that breaks the
    invariants read_csv applies, such as a non-positive path loss, raises
    DataError, naming the first one.
    """
    if spec.scenario.polarization_class is PolarizationClass.COMBINED:
        raise DataError(
            "synthesize: Combined is a dataset-level selection; "
            "tag samples VV or VH and combine afterwards"
        )
    polarization = Polarization(spec.scenario.polarization_class.value)
    if (isinstance(spec.seed, bool) or not isinstance(spec.seed, numbers.Integral)
            or spec.seed < 0):
        raise DataError(f"synthesize: seed must be a non-negative integer, got {spec.seed!r}")
    if len(spec.frequencies) == 0:
        raise DataError("synthesize: no frequency blocks requested")
    largest = np.iinfo(np.intp).max // 8
    for _, count in spec.frequencies:
        try:  # the range test comes first: it refuses inf and NaN before int()
            good = not isinstance(count, bool) and 0 < count <= largest and int(count) == count
        except TypeError:  # None, a string or anything else that does not order
            good = False
        if not good:
            raise DataError(f"synthesize: bad sample count {count!r}")
    block_freqs = np.array([f_ghz for f_ghz, _ in spec.frequencies], dtype=float)
    d_lo, d_hi = (float(v) for v in spec.distance_range_m)
    for message, rule in POINT_RULES:
        if rule(block_freqs[:, None], np.array([d_lo, d_hi])).any():
            raise DomainError(f"synthesize: {message}")
    if d_hi < d_lo:
        raise DomainError("synthesize: empty distance range")

    counts = [int(count) for _, count in spec.frequencies]
    n = sum(counts)
    try:
        freq, dist, pl = np.empty(n), np.empty(n), np.empty(n)
    except (MemoryError, ValueError):  # ValueError: the byte size overflows intp
        raise DataError(f"synthesize: cannot allocate {n} samples") from None
    rng = np.random.default_rng(spec.seed)
    log_lo, log_hi = math.log10(d_lo), math.log10(d_hi)
    sigma = spec.model.sigma_db
    stop = 0
    for f_ghz, count in zip(block_freqs.tolist(), counts):
        start, stop = stop, stop + count
        freq[start:stop] = f_ghz
        steps = [slice(i, min(i + _STEP, stop)) for i in range(start, stop, _STEP)]
        # PCG64 gives the same stream drawn whole or in steps, so only the
        # order matters: every distance of a block before its first fading
        for step in steps:
            with np.errstate(over="ignore"):  # reported just below
                np.power(10.0, rng.uniform(log_lo, log_hi, step.stop - step.start),
                         out=dist[step])
            if not np.isfinite(dist[step]).all():
                raise NumericalError("synthesize: drawn distance overflows float64")
        for step in steps:
            pl[step] = predict(spec.model, f_ghz, dist[step])
            if sigma > 0.0:
                pl[step] += rng.normal(0.0, sigma, step.stop - step.start)
    dataset = Dataset.from_columns(
        freq, dist, pl,
        CODE[polarization], CODE[spec.scenario.environment], CODE[spec.scenario.layout],
        None, None,
        provenance=f"synth(seed={spec.seed})",
    )
    ensure_fit_ready(dataset, "synthesize")
    return dataset
