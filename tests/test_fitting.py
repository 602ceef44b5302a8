"""Estimator behavior: exact recovery, least-squares oracles, error paths."""

import dataclasses
import inspect
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmwpl.dataio import dumps_params
from mmwpl.errors import (
    DataError,
    DomainError,
    NumericalError,
    SingularDesignError,
    UsageError,
)
from mmwpl.fitting import (
    FIT_FAMILIES,
    MIN_ABS_PLE,
    RANK_TOLERANCE,
    _abg,
    _ci,
    _cif,
    _fi,
    _Terms,
    _xpd,
    compute_f0,
    fit_abg,
    fit_ci,
    fit_cif,
    fit_fi,
    fit_scenarios,
    fit_xpd,
)
from mmwpl.freespace import fspl_db
from mmwpl.models import (
    AbgParams,
    CifParams,
    CiParams,
    FiParams,
    XpdExtension,
    predict,
)
from mmwpl.numformat import round_half_away
from mmwpl.report import FitReport, FitRow
from mmwpl.taxonomy import (
    ENVIRONMENTS,
    LAYOUTS,
    MEASURED_PAIRS,
    POLARIZATIONS,
    Dataset,
    Environment,
    Layout,
    PathLossSample,
    Polarization,
    PolarizationClass,
    ScenarioKey,
    partition_by_scenario,
)

ANCHOR_28_GHZ = 61.39094384872776


def mk(freq, dist, loss, pol=Polarization.VV):
    return PathLossSample(freq, dist, loss, pol, Environment.NLOS, Layout.CORRIDOR)


def dataset_from(model, freqs, dists, pol=Polarization.VV):
    rows = [mk(f, d, predict(model, f, d), pol) for f in freqs for d in dists]
    return Dataset(tuple(rows))


def noisy_single_freq(rng, n_points=40):
    dists = 10.0 ** rng.uniform(np.log10(2.0), np.log10(80.0), n_points)
    losses = rng.uniform(40.0, 70.0, 1)[0] + 25.0 * np.log10(dists)
    losses = losses + rng.normal(0.0, 6.0, n_points)
    losses = np.maximum(losses, 1.0)
    return Dataset(tuple(mk(28.0, float(d), float(pl))
                         for d, pl in zip(dists, losses)))


def noisy_multi_freq(rng, n_points=20):
    rows = []
    for f in (28.0, 73.0):
        dists = 10.0 ** rng.uniform(np.log10(2.0), np.log10(80.0), n_points)
        losses = (35.0 * np.log10(dists) + rng.uniform(10.0, 30.0, 1)[0]
                  + 22.0 * np.log10(f) + rng.normal(0.0, 7.0, n_points))
        losses = np.maximum(losses, 1.0)
        rows.extend(mk(f, float(d), float(pl)) for d, pl in zip(dists, losses))
    return Dataset(tuple(rows))


class TestFitCi:
    def test_exact_recovery(self):
        gen = CiParams(ple_n=2.5, sigma_db=0.0)
        fit = fit_ci(dataset_from(gen, (28.0,), (4.0, 10.0, 20.0, 45.0)))
        assert fit.ple_n == pytest.approx(2.5, abs=1e-12)
        assert fit.sigma_db <= 1e-9

    def test_single_sample_pins_the_exponent(self):
        fit = fit_ci(Dataset((mk(28.0, 10.0, 72.39),),))
        assert fit.ple_n == pytest.approx((72.39 - ANCHOR_28_GHZ) / 10.0, abs=1e-12)
        assert abs(fit.ple_n - 1.1) <= 1e-3
        assert fit.sigma_db == pytest.approx(0.0, abs=1e-12)

    def test_multi_frequency_data_is_accepted(self):
        gen = CiParams(ple_n=3.0, sigma_db=0.0)
        fit = fit_ci(dataset_from(gen, (28.0, 73.0), (4.0, 16.0, 40.0)))
        assert fit.ple_n == pytest.approx(3.0, abs=1e-12)

    def test_closed_form_matches_lstsq(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            ds = noisy_single_freq(rng)
            f, d, pl = ds.arrays()
            target = pl - fspl_db(f, 1.0)
            design = (10.0 * np.log10(d)).reshape(-1, 1)
            expected = np.linalg.lstsq(design, target, rcond=None)[0][0]
            assert fit_ci(ds).ple_n == pytest.approx(expected, abs=1e-9)

    def test_degenerate_at_reference_distance(self):
        ds = Dataset(tuple(mk(28.0, 1.0, 60.0 + i) for i in range(3)))
        with pytest.raises(NumericalError, match="1 m reference"):
            fit_ci(ds)

    def test_distances_just_past_the_reference_fit(self):
        # only every sample exactly at 1 m leaves the exponent undefined
        fit = fit_ci(dataset_from(CiParams(2.5, 0.0), (28.0,), (1.0, 1.0 + 1e-6)))
        assert fit.ple_n == pytest.approx(2.5, abs=1e-6)

    def test_empty_dataset(self):
        with pytest.raises(DataError, match="empty"):
            fit_ci(Dataset(()))


class TestFitFi:
    def test_two_points_define_the_line(self):
        ds = Dataset((mk(28.0, 10.0, 70.0), mk(28.0, 100.0, 90.0)))
        fit = fit_fi(ds)
        assert fit.alpha_db == pytest.approx(50.0, abs=1e-9)
        assert fit.beta_slope == pytest.approx(2.0, abs=1e-9)
        assert fit.sigma_db <= 1e-9

    def test_recovers_free_space_anchor_from_ci_data(self):
        gen = CiParams(ple_n=2.5, sigma_db=0.0)
        fit = fit_fi(dataset_from(gen, (28.0,), (2.0, 8.0, 25.0, 60.0)))
        assert fit.alpha_db == pytest.approx(ANCHOR_28_GHZ, abs=1e-9)
        assert fit.beta_slope == pytest.approx(2.5, abs=1e-9)

    def test_matches_lstsq(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            ds = noisy_single_freq(rng)
            _, d, pl = ds.arrays()
            design = np.column_stack((np.ones(len(ds)), 10.0 * np.log10(d)))
            expected = np.linalg.lstsq(design, pl, rcond=None)[0]
            fit = fit_fi(ds)
            assert fit.alpha_db == pytest.approx(expected[0], abs=1e-8)
            assert fit.beta_slope == pytest.approx(expected[1], abs=1e-9)
            resid = pl - design @ expected
            assert fit.sigma_db == pytest.approx(
                float(np.sqrt(np.mean(resid**2))), abs=1e-9
            )

    def test_refuses_multi_frequency_data(self):
        ds = Dataset((mk(28.0, 10.0, 70.0), mk(73.0, 20.0, 90.0),
                      mk(28.0, 30.0, 85.0)))
        with pytest.raises(DataError, match="multiple frequencies"):
            fit_fi(ds)

    def test_single_distance_is_singular(self):
        ds = Dataset(tuple(mk(28.0, 10.0, 70.0 + i) for i in range(4)))
        with pytest.raises(SingularDesignError) as err:
            fit_fi(ds)
        assert err.value.regressor == "distance"


class TestFitAbg:
    def test_exact_recovery(self):
        gen = AbgParams(alpha_dist=3.7, beta_db=12.0, gamma_freq=2.4, sigma_db=0.0)
        fit = fit_abg(dataset_from(gen, (28.0, 73.0), (4.0, 9.0, 21.0, 45.0)))
        assert fit.alpha_dist == pytest.approx(3.7, abs=1e-9)
        assert fit.beta_db == pytest.approx(12.0, abs=1e-9)
        assert fit.gamma_freq == pytest.approx(2.4, abs=1e-9)
        assert fit.sigma_db <= 1e-9

    def test_free_space_decomposition(self):
        # pure free-space data:
        # the distance and frequency exponents come out as 2 and the offset
        # as the 1 GHz, 1 m anchor
        rows = tuple(mk(f, d, fspl_db(f, d))
                     for f in (28.0, 73.0) for d in (2.0, 10.0, 30.0))
        fit = fit_abg(Dataset(rows))
        assert fit.alpha_dist == pytest.approx(2.0, abs=1e-9)
        assert fit.gamma_freq == pytest.approx(2.0, abs=1e-9)
        assert abs(fit.beta_db - 32.45) <= 0.01
        assert fit.beta_db == pytest.approx(32.44778322188338, abs=1e-9)

    def test_matches_lstsq(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            ds = noisy_multi_freq(rng)
            f, d, pl = ds.arrays()
            design = np.column_stack(
                (10.0 * np.log10(d), np.ones(len(ds)), 10.0 * np.log10(f))
            )
            expected = np.linalg.lstsq(design, pl, rcond=None)[0]
            fit = fit_abg(ds)
            assert fit.alpha_dist == pytest.approx(expected[0], abs=1e-8)
            assert fit.beta_db == pytest.approx(expected[1], abs=1e-7)
            assert fit.gamma_freq == pytest.approx(expected[2], abs=1e-8)

    def test_single_frequency_is_singular(self):
        ds = Dataset(tuple(mk(28.0, d, 60.0 + 20 * np.log10(d))
                           for d in (2.0, 5.0, 11.0, 30.0)))
        with pytest.raises(SingularDesignError, match="frequency column degenerate") as err:
            fit_abg(ds)
        assert err.value.regressor == "frequency"

    def test_single_distance_is_singular(self):
        ds = Dataset((mk(28.0, 10.0, 70.0), mk(73.0, 10.0, 80.0),
                      mk(28.0, 10.0, 71.0), mk(73.0, 10.0, 82.0)))
        with pytest.raises(SingularDesignError) as err:
            fit_abg(ds)
        assert err.value.regressor == "distance"

    def test_near_collinear_frequencies_recover(self):
        gen = AbgParams(alpha_dist=3.7, beta_db=12.0, gamma_freq=2.4, sigma_db=0.0)
        fit = fit_abg(dataset_from(gen, (28.0, 29.0), tuple(np.geomspace(2.0, 80.0, 100))))
        assert fit.alpha_dist == pytest.approx(3.7, abs=1e-11)
        assert fit.beta_db == pytest.approx(12.0, abs=1e-11)
        assert fit.gamma_freq == pytest.approx(2.4, abs=1e-11)

    def test_frequencies_closer_than_the_rank_rule_are_singular(self):
        gen = AbgParams(alpha_dist=3.7, beta_db=12.0, gamma_freq=2.4, sigma_db=0.0)
        ds = dataset_from(gen, (28.0, 28.001), tuple(np.geomspace(2.0, 80.0, 100)))
        with pytest.raises(SingularDesignError, match="singular design: frequency") as err:
            fit_abg(ds)
        assert err.value.regressor == "frequency"


class TestComputeF0:
    def test_equal_counts_round_up(self):
        ds = Dataset(tuple(mk(f, 10.0, 70.0) for f in (28.0, 73.0) for _ in range(5)))
        assert compute_f0(ds) == 51.0

    def test_count_weighting(self):
        # 10 samples at 28 and 30 at 73: mean 61.75 rounds to 62
        rows = [mk(28.0, 10.0, 70.0)] * 10 + [mk(73.0, 10.0, 80.0)] * 30
        assert compute_f0(Dataset(tuple(rows))) == 62.0

    def test_single_frequency_passthrough(self):
        ds = Dataset((mk(28.0, 10.0, 70.0),))
        assert compute_f0(ds) == 28.0


class TestFitCif:
    def test_exact_recovery(self):
        gen = CifParams(n=3.0, b=0.20, f0_ghz=50.0, sigma_db=0.0)
        fit = fit_cif(dataset_from(gen, (28.0, 73.0), (4.0, 9.0, 21.0, 45.0)), 50.0)
        assert fit.n == pytest.approx(3.0, abs=1e-9)
        assert fit.b == pytest.approx(0.20, abs=1e-9)
        assert fit.f0_ghz == 50.0
        assert fit.sigma_db <= 1e-9

    def test_default_reference_frequency(self):
        gen = CifParams(n=2.8, b=0.15, f0_ghz=51.0, sigma_db=0.0)
        ds = dataset_from(gen, (28.0, 73.0), (4.0, 9.0, 21.0))
        fit = fit_cif(ds)
        # equal counts at 28 and 73 give the 51 GHz default, matching the
        # generator, so recovery is still exact
        assert fit.f0_ghz == 51.0
        assert fit.n == pytest.approx(2.8, abs=1e-9)
        assert fit.b == pytest.approx(0.15, abs=1e-9)

    def test_caller_f0_is_stored_verbatim(self):
        rng = np.random.default_rng(13)
        ds = noisy_multi_freq(rng)
        fit = fit_cif(ds, 60.5)
        assert fit.f0_ghz == 60.5

    def test_matches_lstsq_in_substituted_coordinates(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            ds = noisy_multi_freq(rng)
            f, d, pl = ds.arrays()
            f0 = 51.0
            target = pl - fspl_db(f, 1.0)
            dec = 10.0 * np.log10(d)
            design = np.column_stack((dec, dec * (f - f0) / f0))
            u, v = np.linalg.lstsq(design, target, rcond=None)[0]
            fit = fit_cif(ds, f0)
            assert fit.n == pytest.approx(u, abs=1e-9)
            assert fit.b == pytest.approx(v / u, abs=1e-9)

    def test_single_frequency_is_singular(self):
        ds = Dataset(tuple(mk(28.0, d, 60.0 + 25 * np.log10(d))
                           for d in (2.0, 6.0, 18.0)))
        with pytest.raises(SingularDesignError) as err:
            fit_cif(ds, 28.0)
        assert err.value.regressor == "frequency"

    def test_near_equal_frequencies_recover(self):
        gen = CifParams(n=3.0, b=0.2, f0_ghz=28.0, sigma_db=0.0)
        fit = fit_cif(dataset_from(gen, (28.0, 28.001), tuple(np.linspace(4.0, 45.0, 100))),
                      28.0)
        assert fit.n == pytest.approx(3.0, abs=1e-11)
        assert fit.b == pytest.approx(0.2, abs=1e-11)

    def test_zero_exponent_leaves_b_undefined(self):
        # free-space-at-1m data regardless of distance: the distance slope
        # vanishes and the weighting split b = v/u has no meaning
        rows = tuple(mk(f, d, fspl_db(f, 1.0))
                     for f in (28.0, 73.0) for d in (2.0, 7.0, 20.0))
        with pytest.raises(NumericalError, match="zero"):
            fit_cif(Dataset(rows), 50.0)

    def test_rejects_bad_reference(self):
        from mmwpl.errors import DomainError

        ds = dataset_from(CifParams(2.0, 0.1, 50.0, 0.0), (28.0, 73.0), (4.0, 9.0))
        with pytest.raises(DomainError):
            fit_cif(ds, -5.0)


@pytest.mark.parametrize("fit, dataset", [
    (fit_ci, Dataset(tuple(mk(28.0, 1.0, 60.0 + i) for i in range(3)))),
    (fit_fi, Dataset(tuple(mk(28.0, 10.0, 70.0 + i) for i in range(3)))),
    (fit_abg, Dataset(tuple(mk(28.0, d, 70.0 + d) for d in (2.0, 5.0, 11.0)))),
    (fit_cif, Dataset(tuple(mk(28.0, d, 70.0 + d) for d in (2.0, 5.0, 11.0)))),
], ids=["ci-all-at-1m", "fi-one-distance", "abg-one-frequency", "cif-one-frequency"])
def test_degenerate_designs_raise_singular_design_error(fit, dataset):
    with pytest.raises(SingularDesignError) as err:
        fit(dataset)
    assert err.value.regressor is not None


class TestFitXpd:
    def test_constant_offset_recovery(self):
        base = CiParams(ple_n=2.5, sigma_db=1.0)
        cross = Dataset(tuple(
            mk(28.0, d, predict(base, 28.0, d) + 15.0, Polarization.VH)
            for d in (3.0, 9.0, 27.0)
        ))
        ext = fit_xpd(base, cross)
        assert ext.xpd_db == pytest.approx(15.0, abs=1e-12)
        assert ext.sigma_db <= 1e-9

    def test_offset_is_mean_residual(self):
        base = CiParams(ple_n=2.0, sigma_db=0.5)
        cross = Dataset((
            mk(28.0, 10.0, predict(base, 28.0, 10.0) + 13.0, Polarization.VH),
            mk(28.0, 20.0, predict(base, 28.0, 20.0) + 19.0, Polarization.VH),
        ))
        ext = fit_xpd(base, cross)
        assert ext.xpd_db == pytest.approx(16.0, abs=1e-12)
        assert ext.sigma_db == pytest.approx(3.0, abs=1e-12)

    def test_base_parameters_are_untouched(self):
        base = AbgParams(alpha_dist=4.2, beta_db=-17.2, gamma_freq=3.8, sigma_db=10.7)
        cross = Dataset(tuple(
            mk(f, d, predict(base, f, d) + 12.0, Polarization.VH)
            for f in (28.0, 73.0) for d in (3.0, 9.0)
        ))
        ext = fit_xpd(base, cross)
        assert ext.base is base

    def test_base_family_restriction(self):
        cross = Dataset((mk(28.0, 10.0, 80.0, Polarization.VH),))
        with pytest.raises(DataError):
            fit_xpd(FiParams(50.0, 2.0, 1.0), cross)
        with pytest.raises(DataError,
                           match="^fit_xpd: base must be a fitted CI, ABG, or CIF model$"):
            fit_xpd(FiParams(50.0, 2.0, 1.0), cross)

    def test_empty_cross_dataset(self):
        with pytest.raises(DataError, match="empty"):
            fit_xpd(CiParams(2.0, 0.0), Dataset(()))


def near_max_losses(pol=Polarization.VV):
    """38 samples at 28 and 73 GHz whose path losses sit near the float64 maximum."""
    rng = np.random.default_rng(38)
    return Dataset(tuple(
        mk(f, float(d), float(pl), pol)
        for f in (28.0, 73.0)
        for d, pl in zip(rng.uniform(2.0, 40.0, 19), rng.uniform(0.85e308, 1.7e308, 19))
    ))


class TestNonFiniteResults:
    @pytest.mark.parametrize("fit", [
        lambda: fit_ci(near_max_losses()),
        lambda: fit_fi(near_max_losses().select(near_max_losses().freq == 28.0, "28")),
        lambda: fit_abg(near_max_losses()),
        lambda: fit_cif(near_max_losses()),
        lambda: fit_xpd(CiParams(2.0, 1.0), near_max_losses(Polarization.VH)),
    ], ids=["ci", "fi", "abg", "cif", "xpd"])
    def test_overflowing_losses_are_numerical(self, fit):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite"):
                fit()

    def test_overflowing_mean_frequency_is_numerical(self):
        ds = Dataset(tuple(mk(f, d, 80.0) for f in (1.5e308, 1.7e308) for d in (3.0, 9.0)))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match="compute_f0: non-finite"):
                compute_f0(ds)


def losses_of(pl, freqs=(28.0, 73.0), pol=Polarization.VV):
    return Dataset(tuple(mk(f, d, pl, pol) for f in freqs for d in (2.0, 5.0, 11.0, 30.0)))


# each public estimator, its parameters, and a call whose arithmetic overflows
OVERFLOWING_CALLS = {
    "fit_ci": (fit_ci, ["dataset"], lambda: fit_ci(losses_of(1e308))),
    "fit_fi": (fit_fi, ["dataset"], lambda: fit_fi(losses_of(1e308, (28.0,)))),
    "fit_abg": (fit_abg, ["dataset"], lambda: fit_abg(losses_of(1e308))),
    "fit_cif": (fit_cif, ["dataset", "f0_ghz"], lambda: fit_cif(losses_of(1e308))),
    "fit_scenarios": (fit_scenarios, ["dataset", "selections", "families", "f0_ghz"],
                      lambda: fit_scenarios(losses_of(1e308))),
    "compute_f0": (compute_f0, ["dataset"],
                   lambda: compute_f0(losses_of(80.0, (1.5e308, 1.6e308, 1.7e308)))),
    "fit_xpd": (fit_xpd, ["base", "cross_dataset"],
                lambda: fit_xpd(CifParams(-1e300, 1e10, 1e-300, 0.0),
                                losses_of(80.0, pol=Polarization.VH))),
}


class TestNumpyErrorState:
    """The estimators ignore numpy's overflow and invalid-value signals for
    their own arithmetic only: whatever error state the caller set, overflow
    is a NumericalError with no warning, and the caller's state is restored."""

    @pytest.mark.parametrize("name", OVERFLOWING_CALLS)
    def test_overflow_is_numerical_under_the_callers_raise_state(self, name):
        _, _, call = OVERFLOWING_CALLS[name]
        with np.errstate(over="raise", invalid="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            caller = np.geterr()
            with pytest.raises(NumericalError, match="non-finite"):
                call()
            assert np.geterr() == caller

    @pytest.mark.parametrize("name", OVERFLOWING_CALLS)
    def test_estimators_keep_their_name_doc_and_signature(self, name):
        estimator, parameters, _ = OVERFLOWING_CALLS[name]
        assert estimator.__name__ == name
        assert estimator.__module__ == "mmwpl.fitting"
        assert estimator.__doc__ and estimator.__doc__ == inspect.unwrap(estimator).__doc__
        assert list(inspect.signature(estimator).parameters) == parameters


class TestPerturbationOptimality:
    def sse(self, model, ds):
        f, d, pl = ds.arrays()
        resid = pl - model.mean_path_loss_db(f, d)
        return float(resid @ resid)

    def test_fitted_parameters_minimize_sse(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            single = noisy_single_freq(rng)
            multi = noisy_multi_freq(rng)
            fits = [
                (fit_ci(single), single),
                (fit_fi(single), single),
                (fit_abg(multi), multi),
                (fit_cif(multi, 51.0), multi),
            ]
            for model, ds in fits:
                base_sse = self.sse(model, ds)
                for variant in _perturbed(model):
                    assert self.sse(variant, ds) >= base_sse - 1e-9


def _perturbed(model):
    """Every single-parameter variation of a fitted model at two step sizes."""
    out = []
    for eps in (0.01, 0.1, -0.01, -0.1):
        if isinstance(model, CiParams):
            out.append(CiParams(model.ple_n + eps, model.sigma_db))
        elif isinstance(model, FiParams):
            out.append(FiParams(model.alpha_db + eps, model.beta_slope, model.sigma_db))
            out.append(FiParams(model.alpha_db, model.beta_slope + eps, model.sigma_db))
        elif isinstance(model, AbgParams):
            out.append(AbgParams(model.alpha_dist + eps, model.beta_db,
                                 model.gamma_freq, model.sigma_db))
            out.append(AbgParams(model.alpha_dist, model.beta_db + eps,
                                 model.gamma_freq, model.sigma_db))
            out.append(AbgParams(model.alpha_dist, model.beta_db,
                                 model.gamma_freq + eps, model.sigma_db))
        elif isinstance(model, CifParams):
            out.append(CifParams(model.n + eps, model.b, model.f0_ghz, model.sigma_db))
            out.append(CifParams(model.n, model.b + eps, model.f0_ghz, model.sigma_db))
    return out


# ---------------------------------------------------------- fit_scenarios

def reference_fit_scenarios(dataset, selections=None, families=None, f0=None):
    """Scenario fitting as the command line did it before fit_scenarios: one
    partition_by_scenario mask per scenario, one Dataset per frequency and
    one public estimator call per fit."""
    single_all, multi_all = ("CI", "FI"), ("CI", "CIF", "ABG")
    if families is None:
        singles, multis, explicit = single_all, multi_all, False
    else:
        singles = tuple(f for f in single_all if f in families)
        multis = tuple(f for f in multi_all if f in families)
        explicit = True
    fitters = {
        "CI": lambda ds: fit_ci(ds),
        "FI": lambda ds: fit_fi(ds),
        "ABG": lambda ds: fit_abg(ds),
        "CIF": lambda ds: fit_cif(ds, f0),
    }
    if selections is None:
        codes, first = np.unique(dataset.env * len(LAYOUTS) + dataset.layout, return_index=True)
        present = [(ENVIRONMENTS[c // len(LAYOUTS)], LAYOUTS[c % len(LAYOUTS)])
                   for c in codes[np.argsort(first)].tolist()]
        pairs = [p for p in MEASURED_PAIRS if p in present]
        pairs.extend(p for p in present if p not in pairs)
        selections = [(env, layout, None) for env, layout in pairs]
    rows, bases = [], {}

    def fit_part(part, key, freq_tag, fams):
        pol = key.polarization_class
        for family in fams:
            params = fitters[family](part)
            rows.append(FitRow(family, key, params, freq_ghz=freq_tag, n_samples=len(part),
                               source=part.provenance))
            slot = (key.environment, key.layout, freq_tag, family)
            if pol is PolarizationClass.VV and family != "FI":
                bases[slot] = params
            if pol is PolarizationClass.VH and family != "FI" and slot in bases:
                rows.append(FitRow(family + "X", key, fit_xpd(bases[slot], part),
                                   freq_ghz=freq_tag, n_samples=len(part),
                                   source=part.provenance))

    done = set()  # a scenario is fitted at its first selection only
    for env, layout, pol_filter in selections:
        for pol in PolarizationClass:
            if pol_filter is not None and pol is not pol_filter:
                continue
            key = ScenarioKey(env, layout, pol)
            if key in done:
                continue
            done.add(key)
            part = partition_by_scenario(dataset, key)
            if len(part) == 0:
                continue
            if pol is PolarizationClass.COMBINED and np.unique(part.pol).size < 2:
                continue
            freqs = part.frequencies()
            for freq in freqs:
                sub = part if len(freqs) == 1 else part.select(
                    part.freq == freq, f"{part.provenance}@{freq:g}GHz")
                fit_part(sub, key, freq, singles)
            if len(freqs) > 1:
                fit_part(part, key, None, multis)
            elif explicit:
                fit_part(part, key, None, tuple(f for f in multis if f not in single_all))
    if not rows:
        raise DataError("fit: no scenario partition contained samples to fit")
    return FitReport(tuple(rows))


ALL_PAIRS = [(env, layout) for env in Environment for layout in Layout]


@st.composite
def scenario_datasets(draw):
    """Shuffled datasets over 1-5 pairs and 1-3 frequencies, some cells
    missing, some pairs with one polarization, a few cells of one sample
    or of one distance."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    freqs = draw(st.lists(st.sampled_from([28.0, 39.0, 60.0, 73.0]),
                          min_size=1, max_size=3, unique=True))
    columns = []
    for env, layout in draw(st.lists(st.sampled_from(ALL_PAIRS), min_size=1, max_size=5,
                                     unique=True)):
        pols = draw(st.sampled_from([("VV",), ("VH",), ("VV", "VH")]))
        for pol in pols:
            for f in freqs:
                if draw(st.integers(0, 4)) == 0:
                    continue  # missing cell
                n = 1 if draw(st.integers(0, 19)) == 0 else draw(st.integers(2, 6))
                if draw(st.integers(0, 29)) == 0:
                    d = np.full(n, 10.0)
                else:
                    d = 10.0 ** rng.uniform(0.1, 1.8, n)
                pl = (fspl_db(f, 1.0) + 10.0 * rng.uniform(1.0, 4.0) * np.log10(d)
                      + (12.0 if pol == "VH" else 0.0) + rng.normal(0.0, 3.0, n))
                codes = (POLARIZATIONS.index(Polarization(pol)), ENVIRONMENTS.index(env),
                         LAYOUTS.index(layout))
                columns.append((np.full(n, f), d, pl, *(np.full(n, c, np.int8) for c in codes)))
    if not columns:
        return Dataset((), provenance="none")
    cols = [np.concatenate(c) for c in zip(*columns)]
    order = rng.permutation(len(cols[0]))
    n = len(order)
    return Dataset.from_columns(*(c[order] for c in cols), np.full(n, None, object),
                                np.full(n, None, object),
                                provenance=draw(st.sampled_from(["", "data.csv"])))


def selections(dataset):
    """None, or 1-3 (env, layout, pol or None) triples, mostly of pairs in the data."""
    present = sorted({(ENVIRONMENTS[e], LAYOUTS[lo])
                      for e, lo in zip(dataset.env.tolist(), dataset.layout.tolist())},
                     key=ALL_PAIRS.index)
    pairs = st.sampled_from(present) if present else st.sampled_from(ALL_PAIRS)
    triple = st.tuples(st.one_of(pairs, pairs, st.sampled_from(ALL_PAIRS)),
                       st.sampled_from([None, *PolarizationClass]))
    return st.one_of(st.none(), st.lists(triple.map(lambda t: (*t[0], t[1])),
                                         min_size=1, max_size=3))


FAMILIES = st.one_of(st.none(), st.lists(st.sampled_from(FIT_FAMILIES), min_size=1,
                                         max_size=4, unique=True))


def fit_outcome(fit, *args):
    """The params JSON a fit gives, or the class and text of its error."""
    try:
        return dumps_params(fit(*args))
    except (DataError, DomainError, NumericalError) as exc:
        return type(exc).__name__, str(exc)


class TestFitScenarios:
    @settings(max_examples=300, deadline=None)
    @given(dataset=scenario_datasets(), families=FAMILIES,
           f0=st.sampled_from([None, None, 40.0, 50.0, -1.0]), data=st.data())
    def test_matches_per_partition_orchestration(self, dataset, families, f0, data):
        chosen = data.draw(selections(dataset))
        got = fit_outcome(fit_scenarios, dataset, chosen, families, f0)
        want = fit_outcome(reference_fit_scenarios, dataset, chosen, families, f0)
        assert got == want

    def test_pooled_families_need_several_frequencies_when_named(self):
        ds = dataset_from(CiParams(2.0, 0.0), (28.0,), (2.0, 5.0, 9.0))
        assert [r.family for r in fit_scenarios(ds).rows] == ["CI", "FI"]
        with pytest.raises(SingularDesignError, match="fit_abg: frequency column"):
            fit_scenarios(ds, families=["CI", "ABG"])

    def test_rejects_invalid_samples_and_unknown_families(self):
        ds = Dataset((mk(28.0, 5.0, 80.0), mk(28.0, 0.5, 70.0)))
        with pytest.raises(DataError, match="fit_scenarios: 1 invalid sample"):
            fit_scenarios(ds)
        with pytest.raises(UsageError, match="unknown families"):
            fit_scenarios(Dataset((mk(28.0, 5.0, 80.0),)), families=["CIX"])

    def test_empty_selection_is_data(self):
        ds = dataset_from(CiParams(2.0, 0.0), (28.0,), (2.0, 5.0))
        with pytest.raises(DataError, match="no scenario partition"):
            fit_scenarios(ds, [(Environment.LOS, Layout.CLOSED_PLAN, None)])


# --------------------------------------- kernels against exact least squares

def ref_rms(residuals):
    return float(np.sqrt(np.mean(residuals**2)))


def ref_require_finite(where, **values):
    bad = [name for name, value in values.items() if not np.isfinite(value)]
    if bad:
        raise NumericalError(f"{where}: non-finite {', '.join(bad)}, the data overflow float64")


def ref_terms(f, d, pl):
    return _Terms(f, d, pl, 10.0 * np.log10(d), pl - fspl_db(f, 1.0), 10.0 * np.log10(f))


def ref_ci(t):
    if not np.any(t.dec):
        raise SingularDesignError(
            "fit_ci: degenerate geometry, every sample at the 1 m reference distance",
            regressor="distance")
    n = float(t.excess @ t.dec) / float(t.dec @ t.dec)
    sigma = ref_rms(t.excess - n * t.dec)
    ref_require_finite("fit_ci", n=n, sigma_db=sigma)
    return CiParams(ple_n=n, sigma_db=sigma)


def ref_fi(t):
    """FI's refusals before the solve, then its design columns and target."""
    if np.unique(t.f).size > 1:
        raise DataError("fit_fi: dataset spans multiple frequencies; use fit_abg or fit_cif")
    if np.unique(t.d).size < 2:
        raise SingularDesignError(
            "fit_fi: distance column degenerate, all samples at one distance",
            regressor="distance")
    return (np.ones_like(t.dec), t.dec), t.pl


def ref_abg(t):
    """ABG's refusals before the solve, then its design columns and target."""
    if np.unique(t.f).size < 2:
        raise SingularDesignError(
            "fit_abg: frequency column degenerate, single-frequency dataset",
            regressor="frequency")
    if np.unique(t.d).size < 2:
        raise SingularDesignError(
            "fit_abg: distance column degenerate, all samples at one distance",
            regressor="distance")
    return (np.ones_like(t.dec), t.dec, t.fdec), t.pl


def ref_cif(t, f0_ghz):
    """CIF's refusals before the solve, then its design columns and target."""
    if f0_ghz is None:
        mean = float(np.mean(t.f))
        ref_require_finite("compute_f0", mean_frequency=mean)
        f0 = round_half_away(mean, 0)
    else:
        f0 = float(f0_ghz)
        if not np.isfinite(f0) or f0 <= 0.0:
            raise DomainError("fit_cif: f0 must be finite and positive")
    if np.unique(t.f).size < 2:
        raise SingularDesignError(
            "fit_cif: frequency column degenerate, single-frequency dataset",
            regressor="frequency")
    if f0 == 0.0:
        raise NumericalError("fit_cif: reference frequency f0 rounds to 0 GHz, "
                             "the mean frequency is below 0.5 GHz")
    weighted = t.dec * (t.f - f0) / f0
    if not np.all(np.isfinite(weighted)):
        raise NumericalError("fit_cif: frequency-weighted distance column overflows float64")
    return (t.dec, weighted), t.excess


def ref_xpd(base, t):
    resid = t.pl - base._mean_db(t.f, t.d)  # unchecked, as fit_xpd's own kernel
    xpd = float(np.mean(resid))
    sigma = ref_rms(resid - xpd)
    ref_require_finite("fit_xpd", xpd_db=xpd, sigma_db=sigma)
    return XpdExtension(base=base, xpd_db=xpd, sigma_db=sigma)


def kernel_outcome(kernel, *args):
    """repr of the fitted parameters (every float bit shows in a repr), or
    the class and text of the error."""
    try:
        with np.errstate(all="ignore"):
            return repr(kernel(*args))
    except (DataError, DomainError, NumericalError) as exc:
        return type(exc).__name__, str(exc)


def exact_least_squares(columns, y):
    """The least-squares solution of the float columns in exact rational
    arithmetic and its residual norm, or None when the columns are linearly
    dependent."""
    rows = [[Fraction(float(c[i])) for c in columns] + [Fraction(float(y[i]))]
            for i in range(len(y))]
    k = len(columns)
    normal = [[sum(row[i] * row[j] for row in rows) for j in range(k + 1)] for i in range(k)]
    for j in range(k):
        pivot = next((i for i in range(j, k) if normal[i][j]), None)
        if pivot is None:
            return None
        normal[j], normal[pivot] = normal[pivot], normal[j]
        for i in range(j + 1, k):
            m = normal[i][j] / normal[j][j]
            normal[i] = [a - m * b for a, b in zip(normal[i], normal[j])]
    x = [Fraction(0)] * k
    for j in reversed(range(k)):
        x[j] = (normal[j][k] - sum(normal[j][i] * x[i] for i in range(j + 1, k))) / normal[j][j]
    sse = sum((row[k] - sum(a * xj for a, xj in zip(row, x))) ** 2 for row in rows)
    return x, math.sqrt(sse)


def equilibrated(columns):
    """The design with every nonzero column scaled to unit 2-norm, and the
    columns' 2-norms."""
    units, norms = [], []
    for c in columns:
        m = np.abs(c).max()  # scaled by it first, so that no norm overflows
        u = c / m if m else c
        norms.append(float(m * np.linalg.norm(u)))
        units.append(u / np.linalg.norm(u) if m else u)
    return np.column_stack(units), norms


def coefficients(params):
    """The fitted design coefficients, in each kernel's column order."""
    if isinstance(params, FiParams):
        return [params.alpha_db, params.beta_slope]
    if isinstance(params, AbgParams):
        return [params.beta_db, params.alpha_dist, params.gamma_freq]
    return [params.n, params.n * params.b]


# path losses whose squares overflow float64: their fits need only be finite or refused
def overflows(t):
    return np.abs(t.pl).max() > np.sqrt(np.finfo(float).max)


def check_solve(kernel, ref, t, *args):
    """The kernel refuses as ref does before the solve. After it, it either
    refuses a design D (the columns scaled to unit norm) with fewer rows than
    columns or with sigma_min(D) <= sqrt(RANK_TOLERANCE), or it fits.

    A fit's error is measured in D's coordinates, |x_j - exact_j| * |a_j|,
    and bounded by 16 eps (cond(D) |x_D| + |r| / sigma_min(D)^2): the first
    term is the backward-stable bound, the second the least-squares
    sensitivity to a nonzero residual r. A bound per coefficient relative to
    the coefficient itself would not hold for any backward-stable solver when
    the scaled coefficients differ widely in size.
    """
    try:
        with np.errstate(all="ignore"):
            columns, y = ref(t, *args)
    except (DataError, DomainError, NumericalError) as exc:
        assert kernel_outcome(kernel, t, *args) == (type(exc).__name__, str(exc))
        return
    try:
        with np.errstate(all="ignore"):
            params = kernel(t, *args)
    except SingularDesignError:
        s = np.linalg.svd(equilibrated(columns)[0], compute_uv=False)
        assert len(y) < len(columns) or s[-1] <= np.sqrt(RANK_TOLERANCE)
        return
    except NumericalError as exc:
        if overflows(t):
            return
        assert "zero" in str(exc)
        exact = exact_least_squares(columns, y)
        assert exact is not None and abs(exact[0][0]) <= 2 * MIN_ABS_PLE
        return
    if overflows(t):
        assert all(np.isfinite(coefficients(params)))
        return
    exact, residual = exact_least_squares(columns, y)
    design, norms = equilibrated(columns)
    s = np.linalg.svd(design, compute_uv=False)
    x_d = math.hypot(*(float(x * Fraction(norm)) for x, norm in zip(exact, norms)))
    bound = 16 * np.finfo(float).eps * (s[0] / s[-1] * x_d + residual / s[-1] ** 2)
    for got, want, norm in zip(coefficients(params), exact, norms):
        assert float(abs(Fraction(got) - want) * Fraction(norm)) <= bound
    # the residual's error bound, 16 eps (1 + 2 cond(D)) |y|, carried to sigma
    assert abs(params.sigma_db - residual / math.sqrt(len(y))) * math.sqrt(len(y)) \
        <= 16 * np.finfo(float).eps * (1 + 2 * s[0] / s[-1]) * np.linalg.norm(y)


@st.composite
def kernel_partitions(draw):
    """Sample columns as the kernels receive them: valid samples, from one
    row up, with repeated and 1 m distances, near-equal and sub-0.5 GHz
    frequencies, and path losses near the float64 limit."""
    n = draw(st.integers(1, 12))
    freqs = draw(st.lists(st.sampled_from([0.2, 0.4, 28.0, 28.001, 39.0, 73.0, 1e30]),
                          min_size=1, max_size=3, unique=True))
    dists = draw(st.lists(st.sampled_from([1.0, 3.9, 45.9]) | st.floats(1.0, 1e4),
                          min_size=1, max_size=4))
    f = np.array([draw(st.sampled_from(freqs)) for _ in range(n)])
    d = np.array([draw(st.sampled_from(dists)) for _ in range(n)])
    if draw(st.booleans()):
        noise = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
        pl = fspl_db(f, 1.0) + 10.0 * draw(st.floats(1.0, 4.0)) * np.log10(d) + noise
        pl = np.maximum(pl, 1.0)
    else:
        pl = np.array(draw(st.lists(st.floats(1.0, 300.0) | st.sampled_from([1e300, 1e308]),
                                    min_size=n, max_size=n)))
    return f, d, pl


class TestKernelsMatchExactLeastSquares:
    @settings(max_examples=500, deadline=None)
    @given(columns=kernel_partitions(),
           f0=st.sampled_from([None, None, 40.0, 50.0, 1e-300, 1e308]))
    # below 0.5 GHz f0 rounds to 0, which CIF refuses before dividing by it
    @example(columns=(np.array([0.2, 0.4]), np.array([1.0, 1.0]), np.array([50.0, 60.0])),
             f0=None)
    @example(columns=(np.array([0.2, 0.4, 0.4]), np.array([1.0, 3.0, 1.0]),
                      np.array([50.0, 60.0, 55.0])), f0=None)
    def test_fits_refusals_and_shared_terms(self, columns, f0):
        t = _Terms.of(*columns)
        for got_column, want_column in zip(t, ref_terms(*columns)):
            assert got_column.tobytes() == want_column.tobytes()
        got, want = kernel_outcome(_ci, t), kernel_outcome(ref_ci, t)
        assert got == want or overflows(t) and "non-finite" in want[1]
        check_solve(_fi, ref_fi, t)
        check_solve(_abg, ref_abg, t)
        check_solve(_cif, ref_cif, t, f0)
        bases = [CiParams(2.0, 1.0), AbgParams(2.1, 31.0, 2.0, 1.0),
                 CifParams(2.0, 0.3, 50.0, 1.0), CifParams(-1e300, 1e10, 1e-300, 0.0)]
        for kernel, args in ((_ci, ()), (_abg, ()), (_cif, (f0,))):
            try:
                with np.errstate(all="ignore"):
                    bases.append(kernel(t, *args))
            except (DataError, DomainError, NumericalError):
                pass
        for base in bases:
            assert kernel_outcome(_xpd, base, t) == kernel_outcome(ref_xpd, base, t)


# ---------------------------------------------------- nesting as a property

# A nested family's sigma exceeds CI's by rounding only: at most 2.4e-14 dB
# over 2000 drawn datasets.
NESTING_SLACK_DB = 1e-12


@st.composite
def paper_range_datasets(draw):
    """Datasets the way the campaign measured them: 1-3 (environment, layout)
    pairs, V-V and/or V-H, at 28 and/or 73 GHz, 2-8 distinct TX-RX distances
    per cell in 3.9-45.9 m, and CI-like path loss with drawn scatter."""
    freqs = draw(st.lists(st.sampled_from([28.0, 73.0]), min_size=1, max_size=2, unique=True))
    columns = []
    for env, layout in draw(st.lists(st.sampled_from(sorted(MEASURED_PAIRS, key=str)),
                                     min_size=1, max_size=3, unique=True)):
        exponent = draw(st.floats(1.0, 4.0))
        for pol in draw(st.sampled_from([("VV",), ("VH",), ("VV", "VH")])):
            for f in freqs:
                d = np.array(draw(st.lists(st.integers(39, 459), min_size=2, max_size=8,
                                           unique=True))) / 10.0
                scatter = draw(st.lists(st.floats(-15.0, 15.0), min_size=len(d),
                                        max_size=len(d)))
                pl = (fspl_db(f, 1.0) + 10.0 * exponent * np.log10(d)
                      + (12.0 if pol == "VH" else 0.0) + scatter)
                codes = (POLARIZATIONS.index(Polarization(pol)), ENVIRONMENTS.index(env),
                         LAYOUTS.index(layout))
                columns.append((np.full(len(d), f), d, pl,
                                *(np.full(len(d), c, np.int8) for c in codes)))
    cols = [np.concatenate(c) for c in zip(*columns)]
    n = len(cols[0])
    return Dataset.from_columns(*cols, np.full(n, None, object), np.full(n, None, object))


class TestNesting:
    @settings(max_examples=200, deadline=None)
    @given(dataset=paper_range_datasets())
    def test_nested_families_fit_no_worse_than_ci(self, dataset):
        report = fit_scenarios(dataset)
        checked = 0
        for row in report.rows:
            if row.family in ("FI", "CIF", "ABG"):
                ci = report.single("CI", row.scenario, row.freq_ghz)
                assert row.n_samples == ci.n_samples and row.source == ci.source
                assert row.sigma_db <= ci.sigma_db + NESTING_SLACK_DB, row.family
                checked += 1
        assert checked


# ------------------------------------------- row order and XPD gap as properties

def _floats(params, prefix=""):
    """(field path, value) of every float parameter, an XPD base's included."""
    out = []
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        if dataclasses.is_dataclass(value):
            out += _floats(value, f"{prefix}{field.name}.")
        elif isinstance(value, float):
            out.append((prefix + field.name, value))
    return out


def _rows_by_cell(report):
    return {(r.family, r.scenario, r.freq_ghz): r for r in report.rows}


COLUMNS = ("freq", "dist", "pl", "pol", "env", "layout", "tx_id", "rx_id")


def _with_columns(dataset, **columns):
    return Dataset.from_columns(*(columns.get(n, getattr(dataset, n)) for n in COLUMNS))


# Summation order moves the least-squares sums by rounding: up to 4.3e-14 of
# max(1, |value|) over 2000 drawn datasets.
ROW_ORDER_TOL = 1e-12

# four LOS:CO:VV rows whose ABG offset, solved through the normal equations,
# moves by 1.04e-9 of its value under the permutation of seed 0
NEAR_EQUAL_DISTANCES = Dataset(tuple(
    PathLossSample(f, d, pl, Polarization.VV, Environment.LOS, Layout.CORRIDOR)
    for f, d, pl in ((28.0, 22.9, 74.98929867212664), (28.0, 23.0, 76.00822220890369),
                     (73.0, 3.9, 75.62488649455749), (73.0, 4.0, 75.73484033757212))))


class TestRowOrderInvariance:
    @settings(max_examples=200, deadline=None)
    @given(dataset=paper_range_datasets(), seed=st.integers(0, 2**32 - 1))
    @example(dataset=NEAR_EQUAL_DISTANCES, seed=0)
    def test_permuted_rows_fit_the_same_cells(self, dataset, seed):
        order = np.random.default_rng(seed).permutation(len(dataset))
        shuffled = Dataset.from_columns(*(getattr(dataset, n)[order] for n in COLUMNS))
        want = _rows_by_cell(fit_scenarios(dataset))
        got = _rows_by_cell(fit_scenarios(shuffled))
        assert got.keys() == want.keys()
        for cell, row in want.items():
            assert (got[cell].n_samples, got[cell].source) == (row.n_samples, row.source)
            for (name, x), (_, y) in zip(_floats(row.params), _floats(got[cell].params)):
                assert abs(x - y) <= ROW_ORDER_TOL * max(1.0, abs(x), abs(y)), (cell, name)


class TestXpdGapConstancy:
    @settings(max_examples=200, deadline=None)
    @given(dataset=paper_range_datasets(), c=st.floats(-50.0, 50.0))
    def test_raising_cross_polarized_loss_raises_only_the_offset(self, dataset, c):
        vh = dataset.pol == POLARIZATIONS.index(Polarization.VH)
        want = _rows_by_cell(fit_scenarios(dataset))
        got = _rows_by_cell(fit_scenarios(_with_columns(dataset,
                                                        pl=dataset.pl + np.where(vh, c, 0.0))))
        assert got.keys() == want.keys()
        for cell, row in want.items():
            if row.family in ("CIX", "CIFX", "ABGX"):
                # not xpd_db == c: CI and CIF leave a nonzero V-V residual mean
                assert abs(got[cell].params.xpd_db - (row.params.xpd_db + c)) \
                    <= 1e-9 * max(1.0, abs(c))
                assert abs(got[cell].sigma_db - row.sigma_db) <= 1e-9
            elif row.scenario.polarization_class is PolarizationClass.VV:
                assert got[cell] == row


class TestRepeatedSelections:
    def test_each_scenario_is_fitted_once_in_first_selection_order(self):
        vv = dataset_from(CiParams(2.0, 0.0), (28.0, 73.0), (2.0, 5.0, 9.0))
        vh = dataset_from(CiParams(2.5, 0.0), (28.0, 73.0), (3.0, 6.0), Polarization.VH)
        ds = Dataset(vv.samples + vh.samples)
        nlos_co = (Environment.NLOS, Layout.CORRIDOR)
        once = dumps_params(fit_scenarios(ds, [(*nlos_co, None)]))
        for chosen in ([(*nlos_co, None)] * 2,
                       [(*nlos_co, PolarizationClass.VV), (*nlos_co, None)],
                       [(*nlos_co, None), (*nlos_co, PolarizationClass.VH)]):
            assert dumps_params(fit_scenarios(ds, chosen)) == once
        vh_first = fit_scenarios(ds, [(*nlos_co, PolarizationClass.VH), (*nlos_co, None)])
        assert [r.scenario.polarization_class for r in vh_first.rows][:7] == \
            [PolarizationClass.VH] * 7
        assert "CIX" not in [r.family for r in vh_first.rows]  # no V-V base came first
        assert len({(r.family, r.scenario, r.freq_ghz) for r in vh_first.rows}) \
            == len(vh_first)
