"""Closed-form minimum-SSE estimators for the path loss model families.

Every fit minimizes the sum of squared dB residuals and reports sigma as
the population RMS of the training residuals, sqrt(SSE / N). The linear
families are solved through their normal equations by a small Gaussian
elimination with partial pivoting; a collapsed pivot is reported as a
SingularDesignError naming the regressor that went degenerate.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, DomainError, NumericalError, SingularDesignError
from .freespace import fspl_db
from .models import (
    AbgParams,
    CifParams,
    CiParams,
    CoPolarizedParams,
    FiParams,
    XpdExtension,
)
from .numformat import round_half_away
from .taxonomy import Dataset, ensure_fit_ready

# pivot threshold, scaled by the largest absolute entry of the normal matrix
RANK_TOLERANCE = 1e-10

# below this exponent magnitude the CIF b = v / u split is undefined
MIN_ABS_PLE = 1e-9


def _solve_normal(ata: np.ndarray, aty: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    """Solve a small normal system by Gaussian elimination, partial pivoting.

    Raises SingularDesignError naming the regressor whose pivot collapses,
    which for these systems is the column that is (numerically) a linear
    combination of the ones before it.
    """
    a = np.array(ata, dtype=float)
    b = np.array(aty, dtype=float)
    k = b.size
    scale = np.max(np.abs(a))
    tol = RANK_TOLERANCE * max(scale, 1.0)
    for j in range(k):
        p = j + int(np.argmax(np.abs(a[j:, j])))
        if abs(a[p, j]) <= tol:
            raise SingularDesignError(
                f"normal system singular: {names[j]} column degenerate",
                regressor=names[j],
            )
        if p != j:
            a[[j, p]] = a[[p, j]]
            b[[j, p]] = b[[p, j]]
        for r in range(j + 1, k):
            m = a[r, j] / a[j, j]
            a[r, j:] -= m * a[j, j:]
            b[r] -= m * b[j]
    x = np.zeros(k)
    for j in range(k - 1, -1, -1):
        x[j] = (b[j] - a[j, j + 1 :] @ x[j + 1 :]) / a[j, j]
    return x


def _rms(residuals: np.ndarray) -> float:
    return float(np.sqrt(np.mean(residuals**2)))


def _require_finite(where: str, **values: float) -> None:
    """Refuse a fitted value (parameter, sigma or mean frequency) that overflowed."""
    bad = [name for name, value in values.items() if not np.isfinite(value)]
    if bad:
        raise NumericalError(f"{where}: non-finite {', '.join(bad)}, the data overflow float64")


def fit_ci(dataset: Dataset) -> CiParams:
    """Fit the close-in model: one exponent against the 1 m free-space anchor.

    With A = PL - FSPL(f, 1 m) and D = 10*log10(d), the unique minimizer of
    sum((A - n*D)^2) is n = sum(A*D) / sum(D^2). Works on single- and
    multi-frequency data alike since the anchor is per-sample.
    """
    f, d, pl = ensure_fit_ready(dataset, "fit_ci")
    excess = pl - fspl_db(f, 1.0)
    dec = 10.0 * np.log10(d)
    denom = float(dec @ dec)
    if denom <= RANK_TOLERANCE * max(1.0, float(np.max(dec**2, initial=0.0))):
        raise NumericalError(
            "fit_ci: degenerate geometry, every sample at the 1 m reference distance"
        )
    n = float(excess @ dec) / denom
    sigma = _rms(excess - n * dec)
    _require_finite("fit_ci", n=n, sigma_db=sigma)
    return CiParams(ple_n=n, sigma_db=sigma)


def fit_fi(dataset: Dataset) -> FiParams:
    """Fit the floating-intercept line by ordinary least squares.

    Single-frequency only: the family has no frequency term, so mixing
    frequencies would silently fold the frequency dependence into the
    intercept. Multi-frequency data belongs to fit_abg or fit_cif.
    """
    f, d, pl = ensure_fit_ready(dataset, "fit_fi")
    if np.unique(f).size > 1:
        raise DataError(
            "fit_fi: dataset spans multiple frequencies; use fit_abg or fit_cif"
        )
    if np.unique(d).size < 2:
        raise SingularDesignError(
            "fit_fi: distance column degenerate, all samples at one distance",
            regressor="distance",
        )
    dec = 10.0 * np.log10(d)
    design = np.column_stack((np.ones_like(dec), dec))
    alpha, beta = _solve_normal(
        design.T @ design, design.T @ pl, ("intercept", "distance")
    )
    sigma = _rms(pl - (alpha + beta * dec))
    _require_finite("fit_fi", alpha_db=alpha, beta=beta, sigma_db=sigma)
    return FiParams(alpha_db=float(alpha), beta_slope=float(beta), sigma_db=sigma)


def fit_abg(dataset: Dataset) -> AbgParams:
    """Fit the three-parameter multi-frequency model by ordinary least squares.

    Refuses single-frequency input (the frequency regressor would be a
    constant multiple of the intercept) rather than silently degrading.
    """
    f, d, pl = ensure_fit_ready(dataset, "fit_abg")
    if np.unique(f).size < 2:
        raise SingularDesignError(
            "fit_abg: frequency column degenerate, single-frequency dataset",
            regressor="frequency",
        )
    if np.unique(d).size < 2:
        raise SingularDesignError(
            "fit_abg: distance column degenerate, all samples at one distance",
            regressor="distance",
        )
    dec = 10.0 * np.log10(d)
    fdec = 10.0 * np.log10(f)
    design = np.column_stack((dec, np.ones_like(dec), fdec))
    alpha, beta, gamma = _solve_normal(
        design.T @ design, design.T @ pl, ("distance", "intercept", "frequency")
    )
    sigma = _rms(pl - design @ np.array([alpha, beta, gamma]))
    _require_finite("fit_abg", alpha=alpha, beta_db=beta, gamma=gamma, sigma_db=sigma)
    return AbgParams(
        alpha_dist=float(alpha),
        beta_db=float(beta),
        gamma_freq=float(gamma),
        sigma_db=sigma,
    )


def compute_f0(dataset: Dataset) -> float:
    """Reference frequency for the CIF family, in whole GHz.

    The sample-count-weighted mean frequency rounded to the nearest integer
    GHz, ties away from zero (never banker's rounding: equal counts at 28
    and 73 GHz give 50.5 and must come out as 51).
    """
    f, _, _ = ensure_fit_ready(dataset, "compute_f0")
    mean = float(np.mean(f))
    _require_finite("compute_f0", mean_frequency=mean)
    return round_half_away(mean, 0)


def fit_cif(dataset: Dataset, f0_ghz: float | None = None) -> CifParams:
    """Fit the frequency-weighted close-in model.

    The family is nonlinear in (n, b) but exactly linear in u = n and
    v = n * b, so a two-regressor least squares on {D, D * (f - f0) / f0}
    is solved and split back as n = u, b = v / u. The split is refused when
    |u| falls below MIN_ABS_PLE (b is undefined for a zero exponent).

    f0_ghz defaults to the compute_f0 rule; any caller-supplied positive
    value is honored and stored as given.
    """
    f, d, pl = ensure_fit_ready(dataset, "fit_cif")
    if f0_ghz is None:
        f0 = compute_f0(dataset)
    else:
        f0 = float(f0_ghz)
        if not np.isfinite(f0) or f0 <= 0.0:
            raise DomainError("fit_cif: f0 must be finite and positive")
    if np.unique(f).size < 2:
        raise SingularDesignError(
            "fit_cif: frequency column degenerate, single-frequency dataset",
            regressor="frequency",
        )
    excess = pl - fspl_db(f, 1.0)
    dec = 10.0 * np.log10(d)
    weighted = dec * (f - f0) / f0
    design = np.column_stack((dec, weighted))
    u, v = _solve_normal(
        design.T @ design, design.T @ excess, ("distance", "frequency-weighted distance")
    )
    if abs(u) < MIN_ABS_PLE:
        raise NumericalError(
            "fit_cif: frequency weighting b undefined, fitted exponent is zero"
        )
    sigma = _rms(excess - design @ np.array([u, v]))
    _require_finite("fit_cif", n=u, b=v / u, sigma_db=sigma)
    return CifParams(n=float(u), b=float(v / u), f0_ghz=f0, sigma_db=sigma)


def fit_xpd(base: CoPolarizedParams, cross_dataset: Dataset) -> XpdExtension:
    """Fit the cross-polarization offset over a frozen co-polarized base.

    The base parameters are not re-estimated. The minimum-SSE constant
    offset is the mean residual of the cross-polarized data against the
    base prediction; sigma is the RMS spread left after the offset.
    """
    if not isinstance(base, (CiParams, AbgParams, CifParams)):
        raise DataError("fit_xpd: base must be a fitted CI, ABG, or CIF model")
    f, d, pl = ensure_fit_ready(cross_dataset, "fit_xpd")
    resid = pl - base.mean_path_loss_db(f, d)
    xpd = float(np.mean(resid))
    sigma = _rms(resid - xpd)
    _require_finite("fit_xpd", xpd_db=xpd, sigma_db=sigma)
    return XpdExtension(base=base, xpd_db=xpd, sigma_db=sigma)
