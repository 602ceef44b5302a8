"""Seeded generation of shadow-faded datasets from any fitted model.

Distances are drawn uniformly in log10(d) so every decade of the fitted
range carries equal leverage; shadow fading is added per sample as an
i.i.d. zero-mean Gaussian in dB with the model's sigma. The generator is
numpy's default PCG64 bit stream (numpy.random.default_rng), so one seed
gives one bit-identical dataset on every platform numpy supports.
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
    for _, count in spec.frequencies:
        if isinstance(count, bool) or int(count) != count or count <= 0:
            raise DataError(f"synthesize: bad sample count {count!r}")
    block_freqs = np.array([f_ghz for f_ghz, _ in spec.frequencies], dtype=float)
    d_lo, d_hi = (float(v) for v in spec.distance_range_m)
    for message, rule in POINT_RULES:
        if rule(block_freqs[:, None], np.array([d_lo, d_hi])).any():
            raise DomainError(f"synthesize: {message}")
    if d_hi < d_lo:
        raise DomainError("synthesize: empty distance range")

    rng = np.random.default_rng(spec.seed)
    sigma = spec.model.sigma_db
    freqs, distances, losses = [], [], []
    for f_ghz, count in spec.frequencies:
        count = int(count)
        with np.errstate(over="ignore"):  # reported just below
            block = 10.0 ** rng.uniform(math.log10(d_lo), math.log10(d_hi), count)
        if not np.isfinite(block).all():
            raise NumericalError("synthesize: drawn distance overflows float64")
        mean = predict(spec.model, float(f_ghz), block)
        fading = rng.normal(0.0, sigma, count) if sigma > 0.0 else np.zeros(count)
        freqs.append(np.full(count, float(f_ghz)))
        distances.append(block)
        losses.append(np.asarray(mean, dtype=float) + fading)
    n = sum(map(len, freqs))
    dataset = Dataset.from_columns(
        np.concatenate(freqs),
        np.concatenate(distances),
        np.concatenate(losses),
        np.full(n, CODE[polarization], np.int8),
        np.full(n, CODE[spec.scenario.environment], np.int8),
        np.full(n, CODE[spec.scenario.layout], np.int8),
        np.full(n, None, object),
        np.full(n, None, object),
        provenance=f"synth(seed={spec.seed})",
    )
    # the dataset holds copies of the blocks: free them before the check
    del freqs, distances, losses
    ensure_fit_ready(dataset, "synthesize")
    return dataset
