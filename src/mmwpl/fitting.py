"""Closed-form minimum-SSE estimators for the path loss model families.

Every fit minimizes the sum of squared dB residuals and reports sigma as
the population RMS of the training residuals, sqrt(SSE / N). Every
family is one least-squares solve by Gram-Schmidt orthogonalization of its
design columns; a column whose part orthogonal to the earlier columns keeps
at most RANK_TOLERANCE of its own squared norm is reported as a
SingularDesignError naming that regressor.

fit_scenarios fits every family per scenario and frequency class in one
pass over the dataset. It and the public estimators share one private
kernel per family, so the arithmetic has one copy.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import DataError, DomainError, NumericalError, SingularDesignError, UsageError
from .freespace import friis_db
from .models import (
    PER_FREQUENCY_FAMILIES,
    POOLED_FAMILIES,
    XPD_BASE_FAMILIES,
    AbgParams,
    CifParams,
    CiParams,
    CoPolarizedParams,
    FiParams,
    XpdExtension,
    _overflow_checked,
    _require_finite,
    _rms,
)
from .numformat import round_half_away
from .report import FitReport, FitRow
from .taxonomy import (
    CODE,
    LAYOUTS,
    MIN_DISTANCE_M,
    PAIRS,
    Dataset,
    Environment,
    Layout,
    Polarization,
    PolarizationClass,
    ScenarioKey,
    ensure_fit_ready,
)

# a column whose part orthogonal to the earlier columns keeps at most this
# share of its own squared norm is degenerate
RANK_TOLERANCE = 1e-10

# below this exponent magnitude the CIF b = v / u split is undefined
MIN_ABS_PLE = 1e-9


def _least_squares(columns, y: np.ndarray, names: tuple[str, ...]) -> tuple[list, np.ndarray]:
    """Minimum-SSE coefficients of y on a few columns, and the residual.

    Modified Gram-Schmidt (Bjorck, BIT 7, 1967): its error grows with the
    design's condition number, not with its square as the normal equations'
    does. A column that RANK_TOLERANCE calls degenerate raises
    SingularDesignError naming it.
    """
    # basis: (orthogonal column, its squared norm, its scale); r[j]: column j's
    # coefficients on the earlier basis columns; x: y's, then the solution
    basis, r, x = [], [], []
    for column, name in zip(columns, names):
        v, scale, own = column, 1.0, float(column @ column)
        if own == math.inf:  # a power-of-two scale is exact and keeps the sums finite
            scale = math.ldexp(1.0, -math.frexp(float(np.abs(column).max()))[1])
            v = column * scale
            own = float(v @ v)
        r.append([])
        for u, uu, _ in basis:
            c = float(u @ v) / uu
            v = v - c * u
            r[-1].append(c)
        vv = float(v @ v) if basis else own
        if vv <= RANK_TOLERANCE * own:
            raise SingularDesignError(f"singular design: {name} column degenerate",
                                      regressor=name)
        basis.append((v, vv, scale))
    for u, uu, _ in basis:
        x.append(float(y @ u) / uu)
        y = y - x[-1] * u
    for j in reversed(range(len(x))):
        x[j] -= sum(r[i][j] * x[i] for i in range(j + 1, len(x)))
    return [xj * scale for xj, (_, _, scale) in zip(x, basis)], y


class _Terms(NamedTuple):
    """Sample columns plus the per-row terms the estimators share."""

    f: np.ndarray
    d: np.ndarray
    pl: np.ndarray
    dec: np.ndarray  # 10 log10 d
    excess: np.ndarray  # PL - FSPL(f, 1 m)
    fdec: np.ndarray  # 10 log10 f

    @classmethod
    def of(cls, f: np.ndarray, d: np.ndarray, pl: np.ndarray) -> "_Terms":
        excess = pl - friis_db(f, MIN_DISTANCE_M)
        return cls(f, d, pl, 10.0 * np.log10(d), excess, 10.0 * np.log10(f))

    def take(self, index: np.ndarray) -> "_Terms":
        return _Terms(*(column[index] for column in self))


def _require_spread(where: str, t: _Terms, *regressors: str) -> None:
    """Refuse, in the order given, a frequency or distance regressor that
    holds one value: its design column would be a multiple of an earlier one."""
    for regressor in regressors:
        column, what = ((t.f, "single-frequency dataset") if regressor == "frequency"
                        else (t.d, "all samples at one distance"))
        if not (column != column[0]).any():
            raise SingularDesignError(f"{where}: {regressor} column degenerate, {what}",
                                      regressor=regressor)


def _fitted(cls, where: str, *values):
    """cls(*values); if cls refuses them, _require_finite names each non-finite one."""
    try:
        return cls(*values)
    except ValueError:
        pass
    _require_finite(where, **{n: v for n, v in zip(cls._json_names, values) if n != "base"})
    return cls(*values)


def _ci(t: _Terms) -> CiParams:
    if not t.dec.any():
        raise SingularDesignError(
            "fit_ci: degenerate geometry, every sample at the 1 m reference distance",
            regressor="distance",
        )
    (n,), resid = _least_squares((t.dec,), t.excess, ("distance",))
    return _fitted(CiParams, "fit_ci", n, _rms(resid))


def _fi(t: _Terms) -> FiParams:
    if (t.f != t.f[0]).any():
        raise DataError(
            "fit_fi: dataset spans multiple frequencies; use fit_abg or fit_cif"
        )
    _require_spread("fit_fi", t, "distance")
    (alpha, beta), resid = _least_squares(
        (np.ones_like(t.dec), t.dec), t.pl, ("intercept", "distance")
    )
    return _fitted(FiParams, "fit_fi", alpha, beta, _rms(resid))


def _abg(t: _Terms) -> AbgParams:
    _require_spread("fit_abg", t, "frequency", "distance")
    (beta, alpha, gamma), resid = _least_squares(
        (np.ones_like(t.dec), t.dec, t.fdec), t.pl, ("intercept", "distance", "frequency")
    )
    return _fitted(AbgParams, "fit_abg", alpha, beta, gamma, _rms(resid))


def _f0(f: np.ndarray) -> float:
    mean = float(np.mean(f))
    _require_finite("compute_f0", mean_frequency=mean)
    return round_half_away(mean, 0)


def _cif(t: _Terms, f0_ghz: float | None) -> CifParams:
    if f0_ghz is None:
        f0 = _f0(t.f)
    else:
        f0 = float(f0_ghz)
        if not np.isfinite(f0) or f0 <= 0.0:
            raise DomainError("fit_cif: f0 must be finite and positive")
    _require_spread("fit_cif", t, "frequency")
    if f0 == 0.0:
        raise NumericalError(
            "fit_cif: reference frequency f0 rounds to 0 GHz, the mean frequency is below 0.5 GHz"
        )
    weighted = t.dec * (t.f - f0) / f0
    if not np.isfinite(weighted).all():
        raise NumericalError(
            "fit_cif: frequency-weighted distance column overflows float64"
        )
    (u, v), resid = _least_squares(
        (t.dec, weighted), t.excess, ("distance", "frequency-weighted distance")
    )
    if abs(u) < MIN_ABS_PLE:
        raise NumericalError(
            "fit_cif: frequency weighting b undefined, fitted exponent is zero"
        )
    return _fitted(CifParams, "fit_cif", u, v / u, f0, _rms(resid))


def _xpd(base: CoPolarizedParams, t: _Terms) -> XpdExtension:
    resid = t.pl - base._mean_db(t.f, t.d)  # columns ensure_fit_ready checked
    xpd = float(np.add.reduce(resid)) / resid.size  # np.mean's sum and division
    return _fitted(XpdExtension, "fit_xpd", base, xpd, _rms(resid - xpd))


def _ready(dataset: Dataset, operation: str) -> _Terms:
    return _Terms.of(*ensure_fit_ready(dataset, operation))


@_overflow_checked
def fit_ci(dataset: Dataset) -> CiParams:
    """Fit the close-in model: one exponent against the 1 m free-space anchor.

    With A = PL - FSPL(f, 1 m) and D = 10*log10(d), the unique minimizer of
    sum((A - n*D)^2) is n = sum(A*D) / sum(D^2). Works on single- and
    multi-frequency data alike since the anchor is per-sample.
    """
    return _ci(_ready(dataset, "fit_ci"))


@_overflow_checked
def fit_fi(dataset: Dataset) -> FiParams:
    """Fit the floating-intercept line by ordinary least squares.

    Single-frequency only: the family has no frequency term, so mixing
    frequencies would silently fold the frequency dependence into the
    intercept. Multi-frequency data belongs to fit_abg or fit_cif.
    """
    return _fi(_ready(dataset, "fit_fi"))


@_overflow_checked
def fit_abg(dataset: Dataset) -> AbgParams:
    """Fit the three-parameter multi-frequency model by ordinary least squares.

    Refuses single-frequency input (the frequency regressor would be a
    constant multiple of the intercept) rather than silently degrading.
    """
    return _abg(_ready(dataset, "fit_abg"))


@_overflow_checked
def compute_f0(dataset: Dataset) -> float:
    """Reference frequency for the CIF family, in whole GHz.

    The sample-count-weighted mean frequency rounded to the nearest integer
    GHz, ties away from zero (never banker's rounding: equal counts at 28
    and 73 GHz give 50.5 and must come out as 51).
    """
    f, _, _ = ensure_fit_ready(dataset, "compute_f0")
    return _f0(f)


@_overflow_checked
def fit_cif(dataset: Dataset, f0_ghz: float | None = None) -> CifParams:
    """Fit the frequency-weighted close-in model.

    The family is nonlinear in (n, b) but exactly linear in u = n and
    v = n * b, so a two-regressor least squares on {D, D * (f - f0) / f0}
    is solved and split back as n = u, b = v / u. The split is refused when
    |u| falls below MIN_ABS_PLE (b is undefined for a zero exponent).

    f0_ghz defaults to the compute_f0 rule; any caller-supplied positive
    value is honored and stored as given.
    """
    return _cif(_ready(dataset, "fit_cif"), f0_ghz)


@_overflow_checked
def fit_xpd(base: CoPolarizedParams, cross_dataset: Dataset) -> XpdExtension:
    """Fit the cross-polarization offset over a frozen co-polarized base.

    The base parameters are not re-estimated. The minimum-SSE constant
    offset is the mean residual of the cross-polarized data against the
    base prediction; sigma is the RMS spread left after the offset.
    """
    if not isinstance(base, CoPolarizedParams):
        raise DataError(f"fit_xpd: base must be a fitted {', '.join(XPD_BASE_FAMILIES[:-1])}, "
                        f"or {XPD_BASE_FAMILIES[-1]} model")
    return _xpd(base, _ready(cross_dataset, "fit_xpd"))


# ------------------------------------------------------- scenario fitting

# the estimators by family name; FIT_FAMILIES keeps this order
_KERNELS = {"CI": _ci, "FI": _fi, "ABG": _abg, "CIF": _cif}
FIT_FAMILIES = tuple(_KERNELS)


def _fit_families(t, key, freq_tag, families, f0_ghz, source, rows, bases):
    """Fit one family set on one sample set and collect XPD extensions.

    bases maps (env, layout, freq_tag, family) to the co-polarized fit so
    that V-H sample sets can be extended once the V-V base exists.
    """
    n = len(t.f)
    pol = key.polarization_class
    for family in families:
        params = _cif(t, f0_ghz) if family == "CIF" else _KERNELS[family](t)
        rows.append(FitRow(key, params, freq_ghz=freq_tag, n_samples=n, source=source))
        if family not in XPD_BASE_FAMILIES:
            continue
        slot = (key.environment, key.layout, freq_tag, family)
        if pol is PolarizationClass.VV:
            bases[slot] = params
        elif pol is PolarizationClass.VH and slot in bases:
            rows.append(FitRow(key, _xpd(bases[slot], t), freq_ghz=freq_tag, n_samples=n,
                               source=source))


@_overflow_checked
def fit_scenarios(
    dataset: Dataset,
    selections: Optional[Iterable[tuple]] = None,
    families: Optional[Iterable[str]] = None,
    f0_ghz: float | None = None,
) -> FitReport:
    """Fit model families per scenario, the way the paper tabulates them.

    selections lists (Environment, Layout, PolarizationClass or None)
    tuples; any other selection, or none, raises UsageError. None walks PAIRS,
    the measured pairs first, and a pair without samples adds no rows. A
    selection without a polarization fits V-V, V-H and, when both are
    present, Combined; a scenario an earlier selection already fitted is
    not fitted again. Each polarization's samples are fitted per frequency
    with PER_FREQUENCY_FAMILIES (CI, FI) and, when they span several
    frequencies, pooled with POOLED_FAMILIES (CI, CIF, ABG), in that order.
    A V-H fit of an XPD_BASE_FAMILIES family whose V-V fit of the same pair
    and frequency class came earlier also gets its XPD extension.

    families None fits all of those. A list of names from FIT_FAMILIES
    keeps only the named ones; a named ABG or CIF is also fitted on samples
    of one frequency, so that the estimator's refusal is raised. An empty
    list, or a name outside FIT_FAMILIES, raises UsageError.
    f0_ghz is the CIF reference frequency, by default compute_f0's rule.

    Each selection's (environment, layout) group is selected once and its
    per-row terms computed once; every fit is a take of those rows, in file
    order.
    Raises DataError when any sample of the dataset is invalid, also one
    outside the selections, or when no selected scenario holds samples.
    """
    per_freq, pooled, one_freq = PER_FREQUENCY_FAMILIES, POOLED_FAMILIES, ()
    if families is not None:
        wanted = tuple(families)
        unknown = [f for f in wanted if f not in FIT_FAMILIES]
        if unknown:
            raise UsageError(
                f"fit_scenarios: unknown families {unknown}; choose from {FIT_FAMILIES}"
            )
        if not wanted:
            raise UsageError(f"fit_scenarios: no families requested; choose from {FIT_FAMILIES}")
        per_freq = tuple(f for f in per_freq if f in wanted)
        pooled = tuple(f for f in pooled if f in wanted)
        one_freq = tuple(f for f in pooled if f not in per_freq)
    if selections is None:
        selections = [(env, layout, None) for env, layout in PAIRS]
    else:
        selections = tuple(selections)
        if not selections:
            raise UsageError("fit_scenarios: no selections given; pass None for every pair")
        for selection in selections:
            if not (isinstance(selection, tuple) and len(selection) == 3
                    and isinstance(selection[0], Environment)
                    and isinstance(selection[1], Layout)
                    and isinstance(selection[2], (PolarizationClass, type(None)))):
                raise UsageError(f"fit_scenarios: selection {selection!r} is not "
                                 "(Environment, Layout, PolarizationClass or None)")
    if len(dataset):
        ensure_fit_ready(dataset, "fit_scenarios")
    pair_code = dataset.env * len(LAYOUTS) + dataset.layout
    rows: list[FitRow] = []
    bases: dict = {}
    fitted: set = set()  # scenario keys done, so a repeated selection adds no rows
    for env, layout, pol_filter in selections:
        group = np.flatnonzero(pair_code == CODE[env] * len(LAYOUTS) + CODE[layout])
        if group.size == 0:
            continue
        pol = dataset.pol[group]
        terms = _Terms.of(dataset.freq[group], dataset.dist[group], dataset.pl[group])
        for pol_class in PolarizationClass:
            key = ScenarioKey(env, layout, pol_class)
            if pol_filter not in (None, pol_class) or key in fitted:
                continue
            fitted.add(key)
            if pol_class is PolarizationClass.COMBINED:
                if np.unique(pol).size < 2:
                    continue  # combined duplicates a lone polarization
                part = terms
            else:
                index = np.flatnonzero(pol == CODE[Polarization(pol_class.value)])
                if index.size == 0:
                    continue
                part = terms.take(index)
            source = key.source(dataset.provenance)
            freqs = np.unique(part.f).tolist()
            for freq in freqs:
                one = part if len(freqs) == 1 else part.take(np.flatnonzero(part.f == freq))
                at = source if len(freqs) == 1 else f"{source}@{freq:g}GHz"
                _fit_families(one, key, freq, per_freq, f0_ghz, at, rows, bases)
            _fit_families(part, key, None, pooled if len(freqs) > 1 else one_freq, f0_ghz,
                          source, rows, bases)
    if not rows:
        raise DataError("fit: no scenario partition contained samples to fit")
    return FitReport(tuple(rows))
