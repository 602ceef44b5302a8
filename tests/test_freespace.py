"""Free-space anchor behavior against direct Friis evaluation."""

import math

import numpy as np
import pytest

from mmwpl.errors import DomainError, NumericalError
from mmwpl.freespace import SPEED_OF_LIGHT_M_S, fspl_db

# oracle: 20*log10(4*pi*d*f/c) evaluated with the math module, frozen here
ANCHOR_28_GHZ = 61.39094384872776
ANCHOR_73_GHZ = 69.7142404242925


def friis(freq_ghz, distance_m):
    return 20.0 * math.log10(
        4.0 * math.pi * distance_m * freq_ghz * 1e9 / SPEED_OF_LIGHT_M_S
    )


def test_one_meter_anchors():
    assert fspl_db(28.0, 1.0) == pytest.approx(ANCHOR_28_GHZ, abs=1e-12)
    assert fspl_db(73.0, 1.0) == pytest.approx(ANCHOR_73_GHZ, abs=1e-12)
    # published anchor values
    assert abs(fspl_db(28.0, 1.0) - 61.39) <= 0.01
    assert abs(fspl_db(73.0, 1.0) - 69.71) <= 0.01


def test_matches_direct_friis_evaluation():
    rng = np.random.default_rng(1)
    for _ in range(200):
        f = float(rng.uniform(0.5, 110.0))
        d = float(rng.uniform(0.5, 300.0))
        assert fspl_db(f, d) == pytest.approx(friis(f, d), abs=1e-12)


def test_distance_decade_adds_twenty_db():
    for f in (1.0, 28.0, 73.0):
        for d in (1.0, 2.5, 7.0):
            assert fspl_db(f, 10.0 * d) - fspl_db(f, d) == pytest.approx(20.0, abs=1e-12)


def test_frequency_octave_adds_six_db():
    gain = 20.0 * math.log10(2.0)
    assert fspl_db(56.0, 1.0) - fspl_db(28.0, 1.0) == pytest.approx(gain, abs=1e-12)


def test_default_distance_is_one_meter():
    assert fspl_db(28.0) == fspl_db(28.0, 1.0)


def test_scalar_in_scalar_out():
    out = fspl_db(28.0, 10.0)
    assert isinstance(out, float)


def test_array_broadcast():
    d = np.array([1.0, 10.0, 100.0])
    out = fspl_db(28.0, d)
    assert out.shape == (3,)
    assert np.allclose(np.diff(out), 20.0)


def test_monotone_in_frequency_and_distance():
    freqs = np.linspace(1.0, 100.0, 50)
    assert np.all(np.diff(fspl_db(freqs, 5.0)) > 0)
    dists = np.linspace(1.0, 100.0, 50)
    assert np.all(np.diff(fspl_db(28.0, dists)) > 0)


@pytest.mark.parametrize("freq,dist", [(0.0, 1.0), (-28.0, 1.0), (28.0, 0.0),
                                       (28.0, -5.0), (float("nan"), 1.0),
                                       (28.0, float("inf"))])
def test_rejects_out_of_domain(freq, dist):
    with pytest.raises(DomainError):
        fspl_db(freq, dist)


# in the domain, but 4*pi*d*f/c overflows to inf or underflows to 0 in float64
@pytest.mark.parametrize("freq,dist", [(1e308, 1.0), (28.0, 1e300),
                                       (1e-320, 1e-10), (1e-300, 1e-300)])
def test_friis_product_out_of_float64_range_is_numerical(freq, dist):
    with pytest.raises(NumericalError, match="^fspl_db: non-finite path loss"):
        fspl_db(freq, dist)
