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

Each class's fields are its family's parameter record, with a field's JSON
name in its metadata where it differs (ple_n is "n"); the params JSON codec,
the tables, compare and the estimators read it through _Params.record().
_Params refuses a bad sigma_db, d0_m (fixed at taxonomy.MIN_DISTANCE_M, 1 m),
f0_ghz or XPD base, then any other non-finite number. Its mean_path_loss_db
is predict, the one checked evaluation: each point against POINT_RULES, each
mean against float64 overflow. A class's own _mean_db(f, d) is the unchecked
kernel, called only on columns that taxonomy.ensure_fit_ready has checked.
The family tables and fit plans live here too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import Iterator, Union, get_args

import numpy as np

from .errors import DomainError, NumericalError
from .freespace import friis_db
from .taxonomy import MIN_DISTANCE_M, POINT_RULES, Dataset, ensure_fit_ready


# finite is |x| <= _FLOAT_MAX: NaN compares false, an int beyond the float range greater
_FLOAT_MAX = sys.float_info.max


class _Params:
    """What every parameter class shares: record(), the checks of sigma_db,
    d0_m, f0_ghz, an XPD base and every other number, and mean_path_loss_db."""

    def __post_init__(self):
        if not 0.0 <= self.sigma_db <= _FLOAT_MAX:
            raise ValueError("sigma_db must be finite and non-negative")
        if getattr(self, "d0_m", MIN_DISTANCE_M) != MIN_DISTANCE_M:
            raise ValueError("reference distance is fixed at 1 m")
        if not 0.0 < getattr(self, "f0_ghz", 1.0) <= _FLOAT_MAX:
            raise ValueError("f0_ghz must be finite and positive")
        if "base" in vars(self) and not isinstance(self.base, CoPolarizedParams):
            raise ValueError(f"XPD extension requires a {', '.join(XPD_BASE_FAMILIES[:-1])}, "
                             f"or {XPD_BASE_FAMILIES[-1]} base")
        for attr in self._coefficients:
            if not -_FLOAT_MAX <= getattr(self, attr) <= _FLOAT_MAX:
                raise ValueError(f"{attr} must be finite")

    def record(self) -> Iterator[tuple[str, str, object]]:
        """An iterator of (attribute, JSON name, value) per field, in field order,
        which is the order a dataclass's __init__ sets them in."""
        return zip(vars(self), self._json_names, vars(self).values())

    def mean_path_loss_db(self, frequency_ghz, distance_m):
        """predict(self, frequency_ghz, distance_m): its results and its errors."""
        return predict(self, frequency_ghz, distance_m)


def _record(cls):
    """cls as a frozen dataclass with _json_names, its fields' JSON names in order,
    and _coefficients, the attributes of the numbers before sigma_db."""
    cls = dataclass(frozen=True)(cls)
    cls._json_names = tuple(f.metadata.get("json", f.name) for f in fields(cls))
    names = [f.name for f in fields(cls)]
    cls._coefficients = tuple(name for name in names[:names.index("sigma_db")] if name != "base")
    return cls


mean_path_loss_db = _Params.mean_path_loss_db


@_record
class CiParams(_Params):
    """Close-in model: free space to 1 m, then one path loss exponent."""

    ple_n: float = field(metadata={"json": "n"})
    sigma_db: float
    d0_m: float = MIN_DISTANCE_M

    family = "CI"

    def _mean_db(self, f, d):
        return friis_db(f, MIN_DISTANCE_M) + 10.0 * self.ple_n * np.log10(d)


@_record
class FiParams(_Params):
    """Floating-intercept line: intercept in dB plus slope per distance decade.

    Frequency never enters the prediction, which is why fitting restricts
    this family to single-frequency data.
    """

    alpha_db: float
    beta_slope: float = field(metadata={"json": "beta"})
    sigma_db: float

    family = "FI"

    def _mean_db(self, f, d):
        d = np.broadcast_to(d, np.broadcast(f, d).shape)  # f shapes the grid only
        return self.alpha_db + 10.0 * self.beta_slope * np.log10(d)


@_record
class AbgParams(_Params):
    """Multi-frequency model with separate distance and frequency exponents.

    alpha_dist scales distance decades, gamma_freq scales frequency decades
    relative to 1 GHz, beta_db is the floating offset.
    """

    alpha_dist: float = field(metadata={"json": "alpha"})
    beta_db: float
    gamma_freq: float = field(metadata={"json": "gamma"})
    sigma_db: float
    d0_m: float = MIN_DISTANCE_M

    family = "ABG"

    def _mean_db(self, f, d):
        return (
            10.0 * self.alpha_dist * np.log10(d)
            + self.beta_db
            + 10.0 * self.gamma_freq * np.log10(f)
        )


@_record
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


@_record
class XpdExtension(_Params):
    """Constant cross-polarization offset over a frozen co-polarized base.

    The base parameters are taken as-is; only the offset and the residual
    sigma of the cross-polarized data belong to the extension.
    """

    base: CoPolarizedParams
    xpd_db: float
    sigma_db: float

    @property
    def family(self) -> str:
        return self.base.family + "X"

    def _mean_db(self, f, d):
        return self.base._mean_db(f, d) + self.xpd_db


PathLossModel = Union[CiParams, FiParams, AbgParams, CifParams, XpdExtension]


def _require_finite(where: str, **values: float) -> None:
    """Refuse a fitted value (parameter, sigma or mean frequency) that overflowed."""
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        raise NumericalError(f"{where}: non-finite {', '.join(bad)}, the data overflow float64")


def _rms(residuals: np.ndarray) -> float:
    # np.mean's own sum and division, without its per-call overhead
    return math.sqrt(float(np.add.reduce(residuals * residuals)) / residuals.size)


# The decorator of the estimators and residual_sigma: data near the float64
# limit overflow in their sums, and _require_finite reports the non-finite
# result, so numpy's warnings would only say the same on stderr first.
_overflow_checked = np.errstate(over="ignore", invalid="ignore")


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
    if frequency_ghz is None:
        if model.family != "FI":
            raise DomainError(f"frequency is required by the {model.family} family")
        frequency_ghz = 1.0  # FI never reads it; any valid frequency stands in
    f, d = np.asarray(frequency_ghz, dtype=float), np.asarray(distance_m, dtype=float)
    # out-of-domain and overflowing points are reported below
    with np.errstate(all="ignore"):
        out = model._mean_db(f, d)
    masks = [rule(f, d) for _, rule in POINT_RULES] + [~np.isfinite(out)]
    if any(mask.any() for mask in masks):
        shape = np.broadcast(f, d).shape
        masks = [np.broadcast_to(mask, shape) for mask in masks]
        point = np.unravel_index(np.argmax(np.logical_or.reduce(masks)), shape)
        for (message, _), mask in zip(POINT_RULES, masks):
            if mask[point]:
                raise DomainError(message)
        raise NumericalError(f"predict: non-finite {model.family} mean path loss, "
                             "the inputs overflow float64")
    return float(out) if out.ndim == 0 else out


@_overflow_checked
def residual_sigma(model: PathLossModel, dataset: Dataset) -> float:
    """Root-mean-square deviation in dB of a dataset from a model's mean.

    Population normalization (divide by N, not N-1): the minimum-SSE fits
    leave zero-mean residuals on their training data, and sqrt(SSE/N) is
    exactly the quantity they minimize, so this reproduces the sigma stored
    at fit time when evaluated on the training set. A sigma that overflows
    float64 raises NumericalError.
    """
    f, d, pl = ensure_fit_ready(dataset, "residual_sigma")
    sigma = _rms(pl - model._mean_db(f, d))  # columns ensure_fit_ready checked
    _require_finite("residual_sigma", sigma_db=sigma)
    return sigma
