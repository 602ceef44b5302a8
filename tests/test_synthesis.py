"""Seeded dataset generation: determinism, statistics, validation."""

import copy
import io
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwpl.dataio import dumps_params, write_csv
from mmwpl.errors import DataError, DomainError
from mmwpl.fitting import fit_ci, fit_scenarios
from mmwpl.freespace import fspl_db
from mmwpl.models import AbgParams, CiParams, CifParams, FiParams, XpdExtension, predict
from mmwpl.synthesis import _STEP, SynthesisSpec, synthesize
from mmwpl.taxonomy import (
    CODE,
    Dataset,
    Environment,
    Layout,
    Polarization,
    PolarizationClass,
    ScenarioKey,
    partition_by_scenario,
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


# totals whose float64 columns no address space holds, though every block
# passes the per-block guard: numpy refuses them at once, touching no memory.
# Totals that could actually be allocated are left untested, as above.
@pytest.mark.parametrize("freqs", [((28.0, 10**15),), ((28.0, 2**59), (73.0, 2**59))])
def test_rejects_totals_numpy_cannot_allocate(freqs, monkeypatch):
    def no_draws(seed):
        raise AssertionError("synthesize drew before refusing the total")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    total = sum(count for _, count in freqs)
    with pytest.raises(DataError, match=f"^synthesize: cannot allocate {total} samples$"):
        synthesize(spec(CiParams(2.0, 1.0), freqs=freqs))


COLUMNS = ("freq", "dist", "pl", "pol", "env", "layout", "tx_id", "rx_id")


def per_block_reference(s):
    """The columns as drawn one block at a time into separate arrays, then
    concatenated: the algorithm synthesize's in-place fill must reproduce."""
    rng = np.random.default_rng(s.seed)
    d_lo, d_hi = s.distance_range_m
    freqs, distances, losses = [], [], []
    for f_ghz, count in s.frequencies:
        block = 10.0 ** rng.uniform(math.log10(d_lo), math.log10(d_hi), count)
        mean = predict(s.model, float(f_ghz), block)
        sigma = s.model.sigma_db
        fading = rng.normal(0.0, sigma, count) if sigma > 0.0 else np.zeros(count)
        freqs.append(np.full(count, float(f_ghz)))
        distances.append(block)
        losses.append(mean + fading)
    n = sum(count for _, count in s.frequencies)
    pol = CODE[Polarization(s.scenario.polarization_class.value)]
    return dict(zip(COLUMNS, (
        np.concatenate(freqs), np.concatenate(distances), np.concatenate(losses),
        np.full(n, pol, np.int8),
        np.full(n, CODE[s.scenario.environment], np.int8),
        np.full(n, CODE[s.scenario.layout], np.int8),
        np.full(n, None, object), np.full(n, None, object))))


def family_models(sigma):
    """One model of every fitted family, and an XPD row, with shadow fading sigma.
    Every mean is above 61 dB, so with sigma at most 8 dB a non-positive loss
    takes a 7.6-sigma draw."""
    ci = CiParams(2.4, sigma)
    return [ci, FiParams(70.0, 2.1, sigma), AbgParams(2.0, 30.0, 2.2, sigma),
            CifParams(3.0, 0.2, 50.5, sigma), XpdExtension(ci, 20.0, sigma)]


@settings(max_examples=150, deadline=None)
@given(counts=st.lists(st.integers(1, 50), min_size=1, max_size=4),
       ghz=st.lists(st.sampled_from([28.0, 73.0, 39.0, 60.0]), min_size=4, max_size=4),
       seed=st.integers(0, 2**32), family=st.integers(0, 4),
       sigma=st.one_of(st.just(0.0), st.floats(0.1, 8.0)),
       d=st.sampled_from([(3.9, 45.9), (1.0, 1.0), (1.0, 1e3)]),
       pol=st.sampled_from([PolarizationClass.VV, PolarizationClass.VH]))
def test_in_place_fill_is_bit_identical_to_per_block_draws(counts, ghz, seed, family,
                                                             sigma, d, pol):
    s = spec(family_models(sigma)[family], freqs=zip(ghz, counts), d=d, seed=seed,
             scenario=ScenarioKey(Environment.LOS, Layout.OPEN_PLAN, pol))
    assert_matches_per_block_draws(s)


def assert_matches_per_block_draws(s):
    ds, expected = synthesize(s), per_block_reference(s)
    assert ds.provenance == f"synth(seed={s.seed})"
    for name in COLUMNS:
        column = getattr(ds, name)
        assert column.dtype == expected[name].dtype, name
        assert np.array_equal(column, expected[name]), name
        if column.dtype != object:
            assert column.tobytes() == expected[name].tobytes(), name


# Blocks are drawn in steps of _STEP samples; a block one short of a step,
# exactly one, one over, and two steps and a bit, alone or three in a row.
@pytest.mark.parametrize("count", [_STEP - 1, _STEP, _STEP + 1, 2 * _STEP + 3])
@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("sigma", [0.0, 8.0])
def test_draws_in_steps_are_bit_identical_to_per_block_draws(count, blocks, sigma):
    freqs = [(f, count) for f in (28.0, 73.0, 39.0)[:blocks]]
    assert_matches_per_block_draws(
        spec(CifParams(3.0, 0.2, 50.5, sigma), freqs=freqs, seed=count + blocks))


def filled_copy(ds):
    """The dataset with every column a filled, writeable array of its own."""
    return Dataset.from_columns(*(np.array(getattr(ds, name)) for name in COLUMNS),
                                provenance=ds.provenance)


SHARED = ("pol", "env", "layout", "tx_id", "rx_id")


def test_shared_columns_behave_like_filled_ones():
    key = ScenarioKey(Environment.LOS, Layout.OPEN_PLAN, PolarizationClass.VH)
    ds = synthesize(spec(CifParams(3.0, 0.2, 50.5, 4.0), freqs=((28.0, 300), (73.0, 200)),
                         scenario=key, seed=11))
    filled = filled_copy(ds)
    for name in SHARED:
        assert getattr(ds, name).strides == (0,), name
        assert not getattr(ds, name).flags.writeable, name
        assert getattr(filled, name).strides != (0,), name
    assert ds == filled
    assert [getattr(ds, name).nbytes for name in COLUMNS] == [
        getattr(filled, name).nbytes for name in COLUMNS]
    texts = []
    for dataset in (ds, filled):
        stream = io.StringIO()
        write_csv(dataset, stream)
        texts.append(stream.getvalue())
    assert texts[0] == texts[1]
    assert dumps_params(fit_scenarios(ds)) == dumps_params(fit_scenarios(filled))
    mask = np.arange(len(ds)) % 3 == 0
    assert ds.select(mask, "x") == filled.select(mask, "x")
    for k in (key, ScenarioKey(Environment.LOS, Layout.OPEN_PLAN, PolarizationClass.COMBINED),
              ScenarioKey(Environment.NLOS, Layout.OPEN_PLAN, PolarizationClass.VH)):
        assert partition_by_scenario(ds, k) == partition_by_scenario(filled, k)
    assert list(ds) == list(filled)
    assert pickle.loads(pickle.dumps(ds)) == ds
    assert copy.deepcopy(ds) == ds


def test_alternating_shared_and_filled_columns_write_alike():
    # one frequency block, so freq may be shared too: shared runs lead the
    # line, sit between filled columns and end it, over two write slices
    ds = synthesize(spec(CiParams(2.0, 3.0), freqs=((28.0, 1500),), seed=5))
    filled = filled_copy(ds)
    shared = ("freq", "pol", "layout", "rx_id")
    mixed = Dataset.from_columns(*(getattr(ds, name)[0] if name in shared
                                   else getattr(filled, name) for name in COLUMNS))
    assert [getattr(mixed, name).strides == (0,) for name in COLUMNS] == [
        name in shared for name in COLUMNS]
    texts = []
    for dataset in (mixed, filled):
        stream = io.StringIO()
        write_csv(dataset, stream)
        texts.append(stream.getvalue())
    assert texts[0] == texts[1]


def traced_peak(call, *args):
    """Run call(*args) and return (its result, the bytes its run peaked at).

    The peak is tracemalloc's, above what was already traced when the call
    began; tracemalloc sees numpy's buffers. Call it once untraced first, so
    the one-off allocations of a first call are not counted.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


# The returned columns take 43 bytes a sample as nbytes counts them (three
# float64, three int8, two object pointers); one block's temporaries may ride
# on top, never a second copy of the columns.
@pytest.mark.parametrize("blocks", [1, 2, 4])
def test_peak_memory_stays_near_the_returned_columns(blocks):
    s = spec(CifParams(3.0, 0.1, 50.5, 8.0),
             freqs=[(f, 20000 // blocks) for f in (28.0, 73.0, 28.0, 73.0)[:blocks]])
    synthesize(s)  # warm-up, so one-off allocations of a first call are not counted
    ds, peak = traced_peak(synthesize, s)
    columns = sum(getattr(ds, name).nbytes for name in COLUMNS)
    assert columns == 43 * 20000
    assert peak <= 1.3 * columns


# One 2e5-sample block: the three float64 columns (24 bytes a sample, 4.8 MB)
# plus one step's temporaries and the sample check's masks, never a second
# copy of a column or a block-sized temporary.
def test_peak_of_one_large_block_stays_near_its_float_columns():
    s = spec(CifParams(3.0, 0.2, 50.0, 10.9), freqs=((28.0, 200_000),), seed=301)
    synthesize(s)  # warm-up, as above
    ds, peak = traced_peak(synthesize, s)
    floats = sum(getattr(ds, name).nbytes for name in ("freq", "dist", "pl"))
    assert floats == 24 * 200_000
    assert peak <= 1.3 * floats
