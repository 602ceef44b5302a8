"""Seeded dataset generation: determinism, statistics, validation."""

import numpy as np
import pytest

from mmwpl.errors import DataError, DomainError
from mmwpl.fitting import fit_ci
from mmwpl.freespace import fspl_db
from mmwpl.models import CiParams, FiParams
from mmwpl.synthesis import SynthesisSpec, synthesize
from mmwpl.taxonomy import (
    Environment,
    Layout,
    Polarization,
    PolarizationClass,
    ScenarioKey,
)

NLOS_CP_VV = ScenarioKey(Environment.NLOS, Layout.CLOSED_PLAN, PolarizationClass.VV)


def spec(model, freqs=((28.0, 50),), d=(3.9, 45.9), seed=0, scenario=NLOS_CP_VV):
    return SynthesisSpec(model=model, scenario=scenario, frequencies=tuple(freqs),
                         distance_range_m=d, seed=seed)


def test_noiseless_draw_sits_on_the_model():
    model = CiParams(ple_n=2.0, sigma_db=0.0)
    ds = synthesize(spec(model, freqs=((28.0, 10),), d=(1.0, 1.0)))
    assert len(ds) == 10
    for s in ds:
        assert s.distance_m == 1.0
        assert abs(s.path_loss_db - 61.39) <= 0.01


def test_sample_tags_follow_the_scenario():
    model = CiParams(ple_n=2.5, sigma_db=2.0)
    key = ScenarioKey(Environment.LOS, Layout.OPEN_PLAN, PolarizationClass.VH)
    ds = synthesize(spec(model, scenario=key))
    for s in ds:
        assert s.polarization is Polarization.VH
        assert s.environment is Environment.LOS
        assert s.layout is Layout.OPEN_PLAN


def test_block_structure_and_distance_range():
    model = CiParams(ple_n=2.0, sigma_db=1.0)
    ds = synthesize(spec(model, freqs=((28.0, 30), (73.0, 20))))
    freqs = [s.frequency_ghz for s in ds]
    assert freqs == [28.0] * 30 + [73.0] * 20
    for s in ds:
        assert 3.9 <= s.distance_m <= 45.9


def test_same_seed_same_dataset():
    model = CiParams(ple_n=2.8, sigma_db=10.1)
    a = synthesize(spec(model, seed=42))
    b = synthesize(spec(model, seed=42))
    assert a == b


def test_different_seeds_differ():
    model = CiParams(ple_n=2.8, sigma_db=10.1)
    a = synthesize(spec(model, seed=1))
    b = synthesize(spec(model, seed=2))
    assert a != b


def test_fading_statistics_match_sigma():
    model = CiParams(ple_n=2.5, sigma_db=8.3)
    ds = synthesize(spec(model, freqs=((28.0, 100_000),), seed=5))
    f, d, pl = ds.arrays()
    resid = pl - (fspl_db(28.0, 1.0) + 25.0 * np.log10(d))
    assert abs(float(np.mean(resid))) <= 0.1
    assert 8.2 <= float(np.std(resid)) <= 8.4


def test_round_trip_fit_recovers_exponent():
    model = CiParams(ple_n=2.8, sigma_db=10.1)
    ds = synthesize(spec(model, freqs=((28.0, 100_000),), seed=20160520))
    fit = fit_ci(ds)
    assert abs(fit.ple_n - 2.8) <= 0.05
    assert abs(fit.sigma_db - 10.1) <= 0.3


def test_log_uniform_distance_spread():
    # log10(d) should be uniform: each half-decade of [1, 100] gets
    # roughly its share of samples
    model = CiParams(ple_n=2.0, sigma_db=0.0)
    ds = synthesize(spec(model, freqs=((28.0, 40_000),), d=(1.0, 100.0), seed=9))
    logs = np.log10([s.distance_m for s in ds])
    hist, _ = np.histogram(logs, bins=4, range=(0.0, 2.0))
    assert hist.min() > 0.9 * len(ds) / 4


def test_works_for_frequency_free_models():
    model = FiParams(alpha_db=55.0, beta_slope=3.3, sigma_db=10.0)
    ds = synthesize(spec(model, freqs=((28.0, 20),)))
    assert len(ds) == 20


def test_rejects_combined_polarization():
    key = ScenarioKey(Environment.NLOS, Layout.CORRIDOR, PolarizationClass.COMBINED)
    with pytest.raises(DataError, match="Combined"):
        synthesize(spec(CiParams(2.0, 1.0), scenario=key))


def test_rejects_sub_reference_distances():
    with pytest.raises(DomainError):
        synthesize(spec(CiParams(2.0, 1.0), d=(0.5, 10.0)))


def test_rejects_inverted_range():
    with pytest.raises(DomainError):
        synthesize(spec(CiParams(2.0, 1.0), d=(20.0, 10.0)))


def test_rejects_bad_counts_and_frequencies():
    with pytest.raises(DataError):
        synthesize(spec(CiParams(2.0, 1.0), freqs=((28.0, 0),)))
    with pytest.raises(DomainError):
        synthesize(spec(CiParams(2.0, 1.0), freqs=((-28.0, 5),)))
    with pytest.raises(DataError):
        synthesize(spec(CiParams(2.0, 1.0), freqs=()))
    with pytest.raises(DataError, match="sample count"):
        synthesize(spec(CiParams(2.0, 1.0), freqs=((28.0, True),)))


# counts numpy cannot size a float64 block for, and counts int() cannot take;
# smaller counts that numpy would try to allocate are left untested, as they
# may exhaust the machine's memory
@pytest.mark.parametrize("count", [10**20, 2**61, float("inf"), float("nan"), None])
def test_rejects_counts_numpy_cannot_size(count):
    with pytest.raises(DataError, match=f"bad sample count {count}$"):
        synthesize(spec(CiParams(2.0, 1.0), freqs=((28.0, count),)))


def test_accepts_a_whole_float_count():
    assert len(synthesize(spec(CiParams(2.0, 1.0), freqs=((28.0, 2.0),)))) == 2


@pytest.mark.parametrize("freq", [0.001, 1e-320])
def test_rejects_draws_that_break_the_sample_invariants(freq):
    # a near-zero frequency puts the mean below 0 dB, a loss read_csv refuses
    with pytest.raises(DataError, match="path loss must be positive"):
        synthesize(spec(CiParams(2.0, 0.0), freqs=((freq, 5),)))


@pytest.mark.parametrize("seed", [-1, 1.5, True, None, "7"])
def test_rejects_bad_seeds(seed):
    with pytest.raises(DataError, match="seed"):
        synthesize(spec(CiParams(2.0, 1.0), seed=seed))
