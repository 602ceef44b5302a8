"""Free-space reference path loss, the 1 m anchor of the close-in models."""

import numpy as np

from .errors import DomainError

SPEED_OF_LIGHT_M_S = 299792458.0  # exact by SI definition


def fspl_db(frequency_ghz, distance_m=1.0):
    """Free-space path loss in dB between isotropic antennas.

    Friis attenuation 20*log10(4*pi*d*f/c) with the frequency converted to
    Hz. Accepts scalars or numpy arrays and broadcasts; scalar inputs give
    a plain float back.

    Raises DomainError for non-positive or non-finite inputs.
    """
    f = np.asarray(frequency_ghz, dtype=float)
    d = np.asarray(distance_m, dtype=float)
    if not np.all(np.isfinite(f)) or np.any(f <= 0.0):
        raise DomainError("fspl_db: frequency must be finite and positive")
    if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
        raise DomainError("fspl_db: distance must be finite and positive")
    out = friis_db(f, d)
    if out.ndim == 0:
        return float(out)
    return out


def friis_db(f: np.ndarray, d):
    """fspl_db without its domain checks, for columns already validated."""
    return 20.0 * np.log10(4.0 * np.pi * d * f * 1e9 / SPEED_OF_LIGHT_M_S)
