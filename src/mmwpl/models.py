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

Every class derives from _Params, which checks sigma_db and any d0_m (fixed
at taxonomy.MIN_DISTANCE_M, 1 m) and gives mean_path_loss_db: like predict,
it checks each point against taxonomy.POINT_RULES before the class's own
unchecked _mean_db(f, d). The family tables and fit plans live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union, get_args

import numpy as np

from .errors import DomainError, NumericalError
from .freespace import friis_db
from .taxonomy import MIN_DISTANCE_M, POINT_RULES, Dataset, ensure_fit_ready


class _Params:
    """What every parameter class shares: the sigma_db check, the 1 m d0_m
    check for a class with a d0_m, and mean_path_loss_db."""

    def __post_init__(self):
        if not math.isfinite(self.sigma_db) or self.sigma_db < 0.0:
            raise ValueError("sigma_db must be finite and non-negative")
        if getattr(self, "d0_m", MIN_DISTANCE_M) != MIN_DISTANCE_M:
            raise ValueError("reference distance is fixed at 1 m")

    def mean_path_loss_db(self, frequency_ghz, distance_m):
        """Mean path loss in dB; predict's DomainErrors, an overflowing mean as is."""
        f, d = _grid(self, frequency_ghz, distance_m)
        _check_points(self, f, d)
        return self._mean_db(f, d)


mean_path_loss_db = _Params.mean_path_loss_db


@dataclass(frozen=True)
class CiParams(_Params):
    """Close-in model: free space to 1 m, then one path loss exponent."""

    ple_n: float
    sigma_db: float
    d0_m: float = MIN_DISTANCE_M

    family = "CI"

    def _mean_db(self, f, d):
        return friis_db(f, MIN_DISTANCE_M) + 10.0 * self.ple_n * np.log10(d)


@dataclass(frozen=True)
class FiParams(_Params):
    """Floating-intercept line: intercept in dB plus slope per distance decade.

    Frequency never enters the prediction, which is why fitting restricts
    this family to single-frequency data.
    """

    alpha_db: float
    beta_slope: float
    sigma_db: float

    family = "FI"

    def _mean_db(self, f, d):
        d = np.broadcast_to(d, np.broadcast(f, d).shape)  # f shapes the grid only
        return self.alpha_db + 10.0 * self.beta_slope * np.log10(d)


@dataclass(frozen=True)
class AbgParams(_Params):
    """Multi-frequency model with separate distance and frequency exponents.

    alpha_dist scales distance decades, gamma_freq scales frequency decades
    relative to 1 GHz, beta_db is the floating offset.
    """

    alpha_dist: float
    beta_db: float
    gamma_freq: float
    sigma_db: float
    d0_m: float = MIN_DISTANCE_M

    family = "ABG"

    def _mean_db(self, f, d):
        return (
            10.0 * self.alpha_dist * np.log10(d)
            + self.beta_db
            + 10.0 * self.gamma_freq * np.log10(f)
        )


@dataclass(frozen=True)
class CifParams(_Params):
    """Close-in model with the exponent weighted linearly in frequency.

    The effective exponent at frequency f is n * (1 + b * (f - f0) / f0);
    at f = f0, or with b = 0, the family collapses to CI with exponent n.
    """

    n: float
    b: float
    f0_ghz: float
    sigma_db: float
    d0_m: float = MIN_DISTANCE_M

    family = "CIF"

    def __post_init__(self):
        super().__post_init__()
        if not math.isfinite(self.f0_ghz) or self.f0_ghz <= 0.0:
            raise ValueError("f0_ghz must be finite and positive")

    def _mean_db(self, f, d):
        slope = self.n * (1.0 + self.b * (f - self.f0_ghz) / self.f0_ghz)
        return friis_db(f, MIN_DISTANCE_M) + 10.0 * slope * np.log10(d)


# the directly fitted families by name
PARAMS_CLASSES = {cls.family: cls for cls in (CiParams, FiParams, AbgParams, CifParams)}

# the families that may carry a cross-polarization extension
CoPolarizedParams = Union[CiParams, AbgParams, CifParams]
XPD_BASE_FAMILIES = tuple(cls.family for cls in get_args(CoPolarizedParams))

MODEL_FAMILIES = (*PARAMS_CLASSES, *(base + "X" for base in XPD_BASE_FAMILIES))

# the fit plans in table order: per frequency (tables 3, 4), pooled (tables 5, 6)
PER_FREQUENCY_FAMILIES = ("CI", "FI")
POOLED_FAMILIES = ("CI", "CIF", "ABG")


@dataclass(frozen=True)
class XpdExtension(_Params):
    """Constant cross-polarization offset over a frozen co-polarized base.

    The base parameters are taken as-is; only the offset and the residual
    sigma of the cross-polarized data belong to the extension.
    """

    base: CoPolarizedParams
    xpd_db: float
    sigma_db: float

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.base, CoPolarizedParams):
            raise ValueError(f"XPD extension requires a {', '.join(XPD_BASE_FAMILIES[:-1])}, "
                             f"or {XPD_BASE_FAMILIES[-1]} base")

    @property
    def family(self) -> str:
        return self.base.family + "X"

    def _mean_db(self, f, d):
        return self.base._mean_db(f, d) + self.xpd_db


PathLossModel = Union[CiParams, FiParams, AbgParams, CifParams, XpdExtension]


def _grid(model: PathLossModel, frequency_ghz, distance_m):
    """frequency_ghz and distance_m as float arrays; they broadcast to the grid."""
    if frequency_ghz is None:
        if model.family != "FI":
            raise DomainError(f"frequency is required by the {model.family} family")
        frequency_ghz = 1.0  # FI never reads it; any valid frequency stands in
    return np.asarray(frequency_ghz, dtype=float), np.asarray(distance_m, dtype=float)


def _check_points(model: PathLossModel, f, d, mean=None) -> None:
    """Raise the error of the first failing point of the f x d grid in C order:
    the DomainError of the first POINT_RULES rule it breaks, else, with mean
    given, NumericalError for a non-finite mean."""
    masks = [rule(f, d) for _, rule in POINT_RULES]
    if mean is not None:
        masks.append(~np.isfinite(mean))
    if not any(mask.any() for mask in masks):
        return
    shape = np.broadcast(f, d).shape
    masks = [np.broadcast_to(mask, shape) for mask in masks]
    point = np.unravel_index(np.argmax(np.logical_or.reduce(masks)), shape)
    for (message, _), mask in zip(POINT_RULES, masks):
        if mask[point]:
            raise DomainError(message)
    raise NumericalError(f"predict: non-finite {model.family} mean path loss, "
                         "the inputs overflow float64")


def predict(model: PathLossModel, frequency_ghz, distance_m):
    """Mean path loss in dB at (frequency, distance), shadow fading excluded.

    frequency_ghz is required by every family except FI, which ignores its
    value (None is accepted there, but a given frequency must still be
    finite and positive). The grid is evaluated once; its first failing
    point in C order names the error: the first taxonomy.POINT_RULES rule
    the point breaks (finite positive frequency, finite distance of at
    least 1 m) raises DomainError, else a mean that overflows float64
    raises NumericalError. Scalars give a float; arrays broadcast.
    """
    f, d = _grid(model, frequency_ghz, distance_m)
    # out-of-domain and overflowing points are reported by _check_points
    with np.errstate(all="ignore"):
        out = model._mean_db(f, d)
    _check_points(model, f, d, out)
    return float(out) if out.ndim == 0 else out


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
