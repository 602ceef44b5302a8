"""Parameter records and mean-value predictions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwpl import presets
from mmwpl.errors import DomainError, NumericalError
from mmwpl.freespace import fspl_db
from mmwpl.models import (
    MODEL_CLASSES,
    MODEL_FAMILIES,
    PARAMS_CLASSES,
    AbgParams,
    CifParams,
    CiParams,
    FiParams,
    XpdExtension,
    mean_path_loss_db,
    predict,
    residual_sigma,
)
from mmwpl.taxonomy import Dataset, Environment, Layout, PathLossSample, Polarization


def mk(freq, dist, loss):
    return PathLossSample(freq, dist, loss, Polarization.VV,
                          Environment.NLOS, Layout.CORRIDOR)


class TestFamilyTable:
    def test_model_families_are_the_table_names_in_order(self):
        assert MODEL_FAMILIES == tuple(MODEL_CLASSES) == (
            "CI", "FI", "ABG", "CIF", "CIX", "ABGX", "CIFX")

    def test_each_x_family_is_an_xpd_extension_and_the_rest_their_params_class(self):
        bases = {"CI": CiParams(2.0, 1.0), "ABG": AbgParams(3.0, 20.0, 2.0, 1.0),
                 "CIF": CifParams(3.0, 0.2, 50.0, 1.0)}
        for family, cls in MODEL_CLASSES.items():
            if family.endswith("X"):
                assert cls is XpdExtension
                assert cls(bases[family[:-1]], 10.0, 1.0).family == family
            else:
                assert cls is PARAMS_CLASSES[family] and cls.family == family


class TestPrediction:
    def test_ci_from_published_parameters(self):
        # exponent 1.1 at 28 GHz and 10 m: anchor + 11 dB
        model = CiParams(ple_n=1.1, sigma_db=0.7)
        assert abs(predict(model, 28.0, 10.0) - 72.39) <= 0.01

    def test_ci_equals_anchor_at_reference(self):
        model = CiParams(ple_n=2.5, sigma_db=1.0)
        assert predict(model, 28.0, 1.0) == pytest.approx(fspl_db(28.0), abs=1e-12)

    def test_fi_line(self):
        model = FiParams(alpha_db=63.6, beta_slope=0.9, sigma_db=0.6)
        assert predict(model, None, 10.0) == pytest.approx(72.6, abs=1e-12)

    def test_fi_ignores_frequency(self):
        model = FiParams(alpha_db=50.0, beta_slope=2.0, sigma_db=1.0)
        assert predict(model, 28.0, 7.0) == predict(model, 73.0, 7.0)
        assert predict(model, None, 7.0) == predict(model, 28.0, 7.0)

    def test_abg_free_space_shape(self):
        # distance exponent 2, frequency exponent 2, offset = FSPL at 1 GHz
        # and 1 m reproduces free space within the offset's rounding
        model = AbgParams(alpha_dist=2.0, beta_db=32.45, gamma_freq=2.0, sigma_db=0.0)
        for f in (1.0, 28.0, 73.0):
            for d in (1.0, 10.0, 50.0):
                assert abs(predict(model, f, d) - fspl_db(f, d)) <= 0.01

    def test_cif_reduces_to_ci_when_b_zero(self):
        ci = CiParams(ple_n=3.0, sigma_db=1.0)
        cif = CifParams(n=3.0, b=0.0, f0_ghz=50.0, sigma_db=1.0)
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = float(rng.uniform(1.0, 100.0))
            d = float(rng.uniform(1.0, 100.0))
            assert predict(cif, f, d) == pytest.approx(predict(ci, f, d), abs=1e-12)

    def test_cif_reduces_to_ci_at_reference_frequency(self):
        ci = CiParams(ple_n=3.0, sigma_db=1.0)
        cif = CifParams(n=3.0, b=0.20, f0_ghz=50.0, sigma_db=1.0)
        for d in (1.0, 5.0, 40.0):
            assert predict(cif, 50.0, d) == pytest.approx(predict(ci, 50.0, d), abs=1e-12)

    def test_xpd_offset_is_constant_everywhere(self):
        base = CifParams(n=3.0, b=0.20, f0_ghz=50.0, sigma_db=10.9)
        ext = XpdExtension(base=base, xpd_db=13.5, sigma_db=10.1)
        rng = np.random.default_rng(3)
        for _ in range(50):
            f = float(rng.uniform(1.0, 100.0))
            d = float(rng.uniform(1.0, 100.0))
            gap = predict(ext, f, d) - predict(base, f, d)
            assert gap == pytest.approx(13.5, abs=1e-9)

    def test_array_prediction_matches_scalar(self):
        model = CiParams(ple_n=2.0, sigma_db=1.0)
        d = np.array([1.0, 5.0, 25.0])
        out = predict(model, 28.0, d)
        assert out.shape == (3,)
        for i, dist in enumerate(d):
            assert out[i] == pytest.approx(predict(model, 28.0, float(dist)), abs=1e-12)

    def test_rejects_sub_reference_distance(self):
        for model in (CiParams(2.0, 0.0), FiParams(50.0, 2.0, 0.0),
                      AbgParams(2.0, 30.0, 2.0, 0.0),
                      CifParams(2.0, 0.1, 50.0, 0.0)):
            with pytest.raises(DomainError):
                predict(model, 28.0, 0.5)

    def test_frequency_required_except_fi(self):
        for model in (CiParams(2.0, 0.0), AbgParams(2.0, 30.0, 2.0, 0.0),
                      CifParams(2.0, 0.1, 50.0, 0.0)):
            with pytest.raises(DomainError):
                predict(model, None, 10.0)


# the seven families as published, and grid values with every edge of the domain
PRESET_MODELS = [presets.preset_model("table5:nlos-cp", family)
                 for family in ("CI", "CIX", "CIF", "CIFX", "ABG", "ABGX")]
PRESET_MODELS.append(presets.preset_model("table3:28:VV:LOS:CO", "FI"))
GRID_VALUES = [28.0, 73.0, 5.0, 45.9, 1.0, 0.5, 0.0, -0.0, -3.0, 1e-300, 1e308, -1e308,
               np.inf, -np.inf, np.nan]
GRID_AXIS = st.lists(st.sampled_from(GRID_VALUES[:4] * 3 + GRID_VALUES), min_size=1,
                     max_size=5).map(np.array)


def point_by_point(model, freqs, dists):
    """predict at every point of the freqs x dists grid in C order, or the first error."""
    try:
        return np.array([[predict(model, f, d) for d in dists] for f in freqs])
    except (DomainError, NumericalError) as exc:
        return exc


class TestPredictContract:
    @settings(max_examples=400, deadline=None)
    @given(model=st.sampled_from(PRESET_MODELS), freqs=GRID_AXIS, dists=GRID_AXIS)
    def test_grid_matches_the_point_loop(self, model, freqs, dists):
        expected = point_by_point(model, freqs.tolist(), dists.tolist())
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as raised:
                predict(model, freqs[:, None], dists[None, :])
            assert str(raised.value) == str(expected)
        else:
            out = predict(model, freqs[:, None], dists[None, :])
            assert out.shape == expected.shape
            assert out.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(model=st.sampled_from(PRESET_MODELS), freqs=GRID_AXIS, dists=GRID_AXIS)
    def test_method_raises_the_same_domain_errors(self, model, freqs, dists):
        try:
            expected = predict(model, freqs[:, None], dists[None, :])
        except (DomainError, NumericalError) as exc:
            with pytest.raises(type(exc)) as raised:
                model.mean_path_loss_db(freqs[:, None], dists[None, :])
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
        else:
            out = mean_path_loss_db(model, freqs[:, None], dists[None, :])
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("model", PRESET_MODELS[:6], ids=lambda m: m.family)
    def test_missing_frequency_names_the_family(self, model):
        message = f"^frequency is required by the {model.family} family$"
        with pytest.raises(DomainError, match=message):
            predict(model, None, 10.0)
        with pytest.raises(DomainError, match=message):
            model.mean_path_loss_db(None, 10.0)

    def test_an_overflowing_mean_is_numerical_in_the_method_too(self):
        model = CiParams(1e308, 1.0)
        for evaluate in (predict, mean_path_loss_db, CiParams.mean_path_loss_db):
            with pytest.raises(NumericalError, match=r"^predict: non-finite CI mean path loss, "
                                                     r"the inputs overflow float64$"):
                evaluate(model, 28.0, 1e300)

    @pytest.mark.parametrize("model", PRESET_MODELS, ids=lambda m: m.family)
    def test_a_scalar_gives_a_float(self, model):
        out = model.mean_path_loss_db(28.0, 10.0)
        assert type(out) is float
        assert out == predict(model, 28.0, 10.0)

    def test_the_frequency_rule_comes_first_for_every_family(self):
        for model in PRESET_MODELS:
            with pytest.raises(DomainError, match="^frequency must be finite and positive$"):
                predict(model, -5.0, 0.5)


class TestParameterValidation:
    def test_sigma_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            CiParams(ple_n=2.0, sigma_db=-0.1)
        with pytest.raises(ValueError):
            FiParams(alpha_db=50.0, beta_slope=2.0, sigma_db=-1.0)
        # the sigma check runs first in every class, before its own checks
        for build in (lambda s: CiParams(2.0, s, d0_m=3.0),
                      lambda s: FiParams(50.0, 2.0, s),
                      lambda s: AbgParams(2.0, 30.0, 2.0, s, d0_m=0.5),
                      lambda s: CifParams(2.0, 0.1, 0.0, s, d0_m=3.0),
                      lambda s: XpdExtension(FiParams(50.0, 2.0, 1.0), 10.0, s)):
            for sigma in (-0.1, float("nan"), float("inf")):
                with pytest.raises(ValueError,
                                   match="^sigma_db must be finite and non-negative$"):
                    build(sigma)

    def test_reference_distance_is_fixed(self):
        with pytest.raises(ValueError):
            CiParams(ple_n=2.0, sigma_db=0.0, d0_m=3.0)
        with pytest.raises(ValueError):
            AbgParams(2.0, 30.0, 2.0, 0.0, d0_m=0.5)
        # CIF checks its reference distance before its reference frequency
        for build in (lambda d0: CiParams(2.0, 0.0, d0_m=d0),
                      lambda d0: AbgParams(2.0, 30.0, 2.0, 0.0, d0_m=d0),
                      lambda d0: CifParams(2.0, 0.1, 0.0, 0.0, d0_m=d0)):
            for d0 in (3.0, 0.5, float("nan")):
                with pytest.raises(ValueError, match="^reference distance is fixed at 1 m$"):
                    build(d0)
        assert CiParams(2.0, 0.0, d0_m=1).d0_m == 1

    def test_cif_needs_positive_reference_frequency(self):
        with pytest.raises(ValueError):
            CifParams(n=2.0, b=0.1, f0_ghz=0.0, sigma_db=0.0)
        for f0 in (0.0, -51.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^f0_ghz must be finite and positive$"):
                CifParams(n=2.0, b=0.1, f0_ghz=f0, sigma_db=0.0)

    def test_xpd_base_must_be_co_polarized_family(self):
        with pytest.raises(ValueError):
            XpdExtension(base=FiParams(50.0, 2.0, 1.0), xpd_db=10.0, sigma_db=1.0)
        ext = XpdExtension(CiParams(2.0, 0.0), 10.0, 0.0)
        for base in (FiParams(50.0, 2.0, 1.0), ext, None):
            with pytest.raises(ValueError,
                               match="^XPD extension requires a CI, ABG, or CIF base$"):
                XpdExtension(base=base, xpd_db=10.0, sigma_db=1.0)

    @pytest.mark.parametrize("model, attr", [
        (CiParams(2.0, 1.0), "ple_n"),
        *((FiParams(50.0, 2.0, 1.0), attr) for attr in ("alpha_db", "beta_slope")),
        *((AbgParams(2.0, 30.0, 2.0, 1.0), attr) for attr in ("alpha_dist", "beta_db",
                                                               "gamma_freq")),
        *((CifParams(2.0, 0.1, 50.0, 1.0), attr) for attr in ("n", "b")),
        *((XpdExtension(base, 10.0, 1.0), "xpd_db") for base in (
            CiParams(2.0, 1.0), AbgParams(2.0, 30.0, 2.0, 1.0), CifParams(2.0, 0.1, 50.0, 1.0))),
    ], ids=lambda v: v if isinstance(v, str) else v.family)
    def test_non_finite_coefficient_is_refused(self, model, attr):
        # refused here, a coefficient never reaches predict, which would blame the inputs
        for value in (float("nan"), float("inf"), float("-inf"), 10**400, -10**400):
            with pytest.raises(ValueError, match=f"^{attr} must be finite$"):
                dataclasses.replace(model, **{attr: value})

    def test_int_beyond_float_range_fails_the_own_checks(self):
        # an int beyond the float range is not finite: each check gives its own text
        for build, message in (
                (lambda v: CiParams(2.0, v), "sigma_db must be finite and non-negative"),
                (lambda v: CifParams(2.0, 0.1, v, 1.0), "f0_ghz must be finite and positive"),
                (lambda v: XpdExtension(CiParams(2.0, 1.0), 10.0, v),
                 "sigma_db must be finite and non-negative")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(10**400)

    @pytest.mark.parametrize("value", [True, np.float32(2.0), np.int64(2), "2", None, 2j],
                             ids=repr)
    def test_a_number_that_is_not_a_float_or_int_is_refused(self, value):
        # params JSON holds only floats and ints; the type is checked before sigma_db
        for model in (CiParams(2.0, 1.0), FiParams(50.0, 2.0, 1.0),
                      AbgParams(2.0, 30.0, 2.0, 1.0), CifParams(2.0, 0.1, 50.0, 1.0),
                      XpdExtension(CifParams(2.0, 0.1, 50.0, 1.0), 10.0, 1.0)):
            for attr in vars(model).keys() - {"base"}:
                with pytest.raises(TypeError) as info:
                    dataclasses.replace(model, **{"sigma_db": -1.0, attr: value})
                assert str(info.value) == f"{attr} must be a float or an int, got {value!r}"

    def test_a_float_subclass_and_an_int_are_numbers(self):
        model = CifParams(np.float64(2.0), 0, np.float64(50.0), 1, d0_m=1)
        assert [type(value) for value in vars(model).values()] == \
            [np.float64, int, np.float64, int, int]

    def test_own_checks_come_before_the_coefficients(self):
        for build, message in (
                (lambda: CiParams(math.nan, -1.0), "sigma_db must be finite and non-negative"),
                (lambda: CiParams(math.nan, 1.0, d0_m=3.0), "reference distance is fixed at 1 m"),
                (lambda: CifParams(math.inf, 0.1, 0.0, 1.0), "f0_ghz must be finite and positive")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()

    def test_family_labels(self):
        assert CiParams(2.0, 0.0).family == "CI"
        assert FiParams(50.0, 2.0, 0.0).family == "FI"
        assert AbgParams(2.0, 30.0, 2.0, 0.0).family == "ABG"
        assert CifParams(2.0, 0.1, 50.0, 0.0).family == "CIF"
        assert XpdExtension(CiParams(2.0, 0.0), 10.0, 0.0).family == "CIX"
        assert XpdExtension(AbgParams(2.0, 30.0, 2.0, 0.0), 10.0, 0.0).family == "ABGX"
        assert XpdExtension(CifParams(2.0, 0.1, 50.0, 0.0), 10.0, 0.0).family == "CIFX"


class TestResidualSigma:
    def test_zero_on_generating_model(self):
        model = CiParams(ple_n=2.5, sigma_db=3.0)
        ds = Dataset(tuple(mk(28.0, d, predict(model, 28.0, d))
                           for d in (2.0, 5.0, 12.0, 30.0)))
        assert residual_sigma(model, ds) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_residuals(self):
        model = FiParams(alpha_db=60.0, beta_slope=2.0, sigma_db=0.0)
        ds = Dataset((mk(28.0, 10.0, predict(model, None, 10.0) + 3.0),
                      mk(28.0, 20.0, predict(model, None, 20.0) - 3.0)))
        assert residual_sigma(model, ds) == pytest.approx(3.0, abs=1e-12)

    def test_population_normalization(self):
        # residuals 0 and 4 give RMS sqrt(8), not the sample-variance value
        model = FiParams(alpha_db=60.0, beta_slope=2.0, sigma_db=0.0)
        ds = Dataset((mk(28.0, 10.0, predict(model, None, 10.0)),
                      mk(28.0, 20.0, predict(model, None, 20.0) + 4.0)))
        assert residual_sigma(model, ds) == pytest.approx(np.sqrt(8.0), abs=1e-12)

    @pytest.mark.parametrize("model,loss", [(CiParams(1e308, 1.0), 80.0),
                                            (CiParams(2.0, 1.0), 1e308)],
                             ids=["overflowing-mean", "overflowing-losses"])
    def test_overflowing_sigma_is_numerical(self, model, loss):
        ds = Dataset(tuple(mk(28.0, d, loss) for d in (2.0, 5.0, 12.0)))
        with pytest.raises(NumericalError, match=r"^residual_sigma: non-finite sigma_db, "
                                                 r"the data overflow float64$"):
            residual_sigma(model, ds)

    @settings(max_examples=300, deadline=None)
    @given(model=st.sampled_from([*PRESET_MODELS, CiParams(1e308, 1.0)]),
           rows=st.sampled_from([(20.0, 200.0), (1e-300, 1.7e308)]).flatmap(
               lambda losses: st.lists(st.tuples(st.sampled_from([28.0, 73.0, 1.0, 1e5]),
                                                 st.floats(1.0, 1e6), st.floats(*losses)),
                                       min_size=1, max_size=200)))
    def test_equals_the_root_mean_of_squares_bit_for_bit(self, model, rows):
        ds = Dataset(tuple(mk(f, d, pl) for f, d, pl in rows))
        f, d, pl = ds.arrays()
        with np.errstate(over="ignore", invalid="ignore"):
            # the mean on columns that passed the domain checks, then the old spread
            resid = pl - model._mean_db(f, d)
            expected = float(np.sqrt(np.mean(resid**2)))
        if math.isfinite(expected):
            assert residual_sigma(model, ds).hex() == expected.hex()
        else:
            with pytest.raises(NumericalError, match=r"^residual_sigma: non-finite sigma_db, "
                                                     r"the data overflow float64$"):
                residual_sigma(model, ds)
