"""Fitted model parameter records and their mean path loss predictors.

Seven families. Four are fitted directly to co-polarized or combined data:

  CI   free-space anchor at 1 m plus one path loss exponent
  FI   floating intercept and slope, single frequency, no physical anchor
  ABG  distance exponent, offset, and frequency exponent (1 GHz reference)
  CIF  CI with the exponent linearly weighted in frequency around f0

The remaining three (CIX, ABGX, CIFX) extend a frozen co-polarized base by
a constant cross-polarization discrimination offset in dB.

Predictions are the mean path loss only; shadow fading is carried as the
sigma_db attribute and applied by the synthesis module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, NumericalError
from .freespace import friis_db, fspl_db
from .taxonomy import MIN_DISTANCE_M, Dataset, ensure_fit_ready

REFERENCE_DISTANCE_M = 1.0


def _check_sigma(sigma_db: float) -> None:
    if not math.isfinite(sigma_db) or sigma_db < 0.0:
        raise ValueError("sigma_db must be finite and non-negative")


def _check_reference(d0_m: float) -> None:
    if d0_m != REFERENCE_DISTANCE_M:
        raise ValueError("reference distance is fixed at 1 m")


def _checked_distance(distance_m):
    d = np.asarray(distance_m, dtype=float)
    if not np.all(np.isfinite(d)):
        raise DomainError("distance must be finite")
    if np.any(d < MIN_DISTANCE_M):
        raise DomainError("distance below the 1 m reference distance")
    return d


def _checked_frequency(frequency_ghz):
    f = np.asarray(frequency_ghz, dtype=float)
    if not np.all(np.isfinite(f)) or np.any(f <= 0.0):
        raise DomainError("frequency must be finite and positive")
    return f


def _require_frequency(frequency_ghz, family: str):
    if frequency_ghz is None:
        raise DomainError(f"frequency is required by the {family} family")
    return frequency_ghz


@dataclass(frozen=True)
class CiParams:
    """Close-in model: free space to 1 m, then one path loss exponent."""

    ple_n: float
    sigma_db: float
    d0_m: float = REFERENCE_DISTANCE_M

    family = "CI"

    def __post_init__(self):
        _check_sigma(self.sigma_db)
        _check_reference(self.d0_m)

    def mean_path_loss_db(self, frequency_ghz, distance_m):
        f = _require_frequency(frequency_ghz, self.family)
        return self._mean_db(f, _checked_distance(distance_m), fspl_db)

    def _mean_db(self, f, d, fspl=friis_db):
        """The mean on f and d; unchecked unless fspl is fspl_db."""
        return fspl(f, REFERENCE_DISTANCE_M) + 10.0 * self.ple_n * np.log10(d)


@dataclass(frozen=True)
class FiParams:
    """Floating-intercept line: intercept in dB plus slope per distance decade.

    Frequency never enters the prediction, which is why fitting restricts
    this family to single-frequency data.
    """

    alpha_db: float
    beta_slope: float
    sigma_db: float

    family = "FI"

    def __post_init__(self):
        _check_sigma(self.sigma_db)

    def mean_path_loss_db(self, frequency_ghz, distance_m):
        if frequency_ghz is not None:
            _checked_frequency(frequency_ghz)
        d = _checked_distance(distance_m)
        return self.alpha_db + 10.0 * self.beta_slope * np.log10(d)


@dataclass(frozen=True)
class AbgParams:
    """Multi-frequency model with separate distance and frequency exponents.

    alpha_dist scales distance decades, gamma_freq scales frequency decades
    relative to 1 GHz, beta_db is the floating offset.
    """

    alpha_dist: float
    beta_db: float
    gamma_freq: float
    sigma_db: float
    d0_m: float = REFERENCE_DISTANCE_M

    family = "ABG"

    def __post_init__(self):
        _check_sigma(self.sigma_db)
        _check_reference(self.d0_m)

    def mean_path_loss_db(self, frequency_ghz, distance_m):
        f = _checked_frequency(_require_frequency(frequency_ghz, self.family))
        return self._mean_db(f, _checked_distance(distance_m))

    def _mean_db(self, f, d):
        return (
            10.0 * self.alpha_dist * np.log10(d)
            + self.beta_db
            + 10.0 * self.gamma_freq * np.log10(f)
        )


@dataclass(frozen=True)
class CifParams:
    """Close-in model with the exponent weighted linearly in frequency.

    The effective exponent at frequency f is n * (1 + b * (f - f0) / f0);
    at f = f0, or with b = 0, the family collapses to CI with exponent n.
    """

    n: float
    b: float
    f0_ghz: float
    sigma_db: float
    d0_m: float = REFERENCE_DISTANCE_M

    family = "CIF"

    def __post_init__(self):
        _check_sigma(self.sigma_db)
        _check_reference(self.d0_m)
        if not math.isfinite(self.f0_ghz) or self.f0_ghz <= 0.0:
            raise ValueError("f0_ghz must be finite and positive")

    def mean_path_loss_db(self, frequency_ghz, distance_m):
        f = np.asarray(_require_frequency(frequency_ghz, self.family), dtype=float)
        return self._mean_db(f, _checked_distance(distance_m), fspl_db)

    def _mean_db(self, f, d, fspl=friis_db):
        slope = self.n * (1.0 + self.b * (f - self.f0_ghz) / self.f0_ghz)
        return fspl(f, REFERENCE_DISTANCE_M) + 10.0 * slope * np.log10(d)


CoPolarizedParams = Union[CiParams, AbgParams, CifParams]

# families that may carry a cross-polarization extension
XPD_BASE_FAMILIES = ("CI", "ABG", "CIF")


@dataclass(frozen=True)
class XpdExtension:
    """Constant cross-polarization offset over a frozen co-polarized base.

    The base parameters are taken as-is; only the offset and the residual
    sigma of the cross-polarized data belong to the extension.
    """

    base: CoPolarizedParams
    xpd_db: float
    sigma_db: float

    def __post_init__(self):
        _check_sigma(self.sigma_db)
        if not isinstance(self.base, (CiParams, AbgParams, CifParams)):
            raise ValueError("XPD extension requires a CI, ABG, or CIF base")

    @property
    def family(self) -> str:
        return self.base.family + "X"

    def mean_path_loss_db(self, frequency_ghz, distance_m):
        return self.base.mean_path_loss_db(frequency_ghz, distance_m) + self.xpd_db


PathLossModel = Union[CiParams, FiParams, AbgParams, CifParams, XpdExtension]

MODEL_FAMILIES = ("CI", "FI", "ABG", "CIF", "CIX", "ABGX", "CIFX")


def predict(model: PathLossModel, frequency_ghz, distance_m):
    """Mean path loss in dB at (frequency, distance), shadow fading excluded.

    frequency_ghz is required by every family except FI, which ignores its
    value (None is accepted there, but a given frequency must still be
    finite and positive). Distances below the 1 m reference raise
    DomainError; inputs or parameters so large that the mean overflows
    float64 raise NumericalError. Scalars give a float; arrays broadcast.
    """
    # numpy's overflow warnings would only repeat the NumericalError below
    with np.errstate(over="ignore", invalid="ignore"):
        out = model.mean_path_loss_db(frequency_ghz, distance_m)
    if not np.all(np.isfinite(out)):
        raise NumericalError(
            f"predict: non-finite {model.family} mean path loss, the inputs overflow float64"
        )
    if np.ndim(out) == 0:
        return float(out)
    return out


def residual_sigma(model: PathLossModel, dataset: Dataset) -> float:
    """Root-mean-square deviation in dB of a dataset from a model's mean.

    Population normalization (divide by N, not N-1): the minimum-SSE fits
    leave zero-mean residuals on their training data, and sqrt(SSE/N) is
    exactly the quantity they minimize, so this reproduces the sigma stored
    at fit time when evaluated on the training set.
    """
    f, d, pl = ensure_fit_ready(dataset, "residual_sigma")
    resid = pl - model.mean_path_loss_db(f, d)
    return float(np.sqrt(np.mean(resid**2)))
