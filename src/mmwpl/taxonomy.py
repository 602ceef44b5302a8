"""Measurement data model: samples, datasets, scenario partitioning and vocabulary.

Units are fixed package-wide: frequency in GHz, distance in meters, path
loss in dB. A scenario is the triple (environment, layout, polarization
class); polarization class is a dataset-level selection, so "Combined"
never appears on an individual sample, it selects the union of V-V and
V-H samples.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import DataError, UsageError

MIN_DISTANCE_M = 1.0  # close-in reference distance; the models are undefined below it


# Enum's own __hash__ is a Python-level method that hashes the member name;
# members are singletons compared by identity, so object.__hash__ fits and
# every ScenarioKey and label lookup hashes in C.
class Environment(enum.Enum):
    LOS = "LOS"
    NLOS = "NLOS"

    __hash__ = object.__hash__


class Layout(enum.Enum):
    """Antenna placement context: corridor, open-plan office, closed-plan office."""

    CORRIDOR = "CO"
    OPEN_PLAN = "OP"
    CLOSED_PLAN = "CP"

    __hash__ = object.__hash__


class Polarization(enum.Enum):
    """Antenna polarization of one sample: co-polarized or cross-polarized."""

    VV = "VV"
    VH = "VH"

    __hash__ = object.__hash__


class PolarizationClass(enum.Enum):
    """Dataset-level polarization selection; COMBINED takes V-V and V-H together."""

    VV = "VV"
    VH = "VH"
    COMBINED = "Comb"

    __hash__ = object.__hash__

    def matches(self, polarization: Polarization) -> bool:
        if self is PolarizationClass.COMBINED:
            return True
        return self.value == polarization.value


@dataclass(frozen=True)
class PathLossSample:
    """One omnidirectional path loss value at a TX-RX separation."""

    frequency_ghz: float
    distance_m: float
    path_loss_db: float
    polarization: Polarization
    environment: Environment
    layout: Layout
    tx_id: Optional[str] = None
    rx_id: Optional[str] = None


# The (frequency, distance) domain every sample and every model evaluation
# shares, in report order: a message and the mask of the points that break it.
POINT_RULES = (
    ("frequency must be finite and positive", lambda f, d: ~(np.isfinite(f) & (f > 0))),
    ("distance must be finite", lambda f, d: ~np.isfinite(d)),
    ("distance below the 1 m reference", lambda f, d: np.isfinite(d) & (d < MIN_DISTANCE_M)),
)

# Every sample rule over (f, d, pl), in report order: the point rules, then path loss.
_SAMPLE_RULES = (
    *((message, lambda f, d, pl, rule=rule: rule(f, d)) for message, rule in POINT_RULES),
    ("path loss must be finite", lambda f, d, pl: ~np.isfinite(pl)),
    ("path loss must be positive", lambda f, d, pl: np.isfinite(pl) & (pl <= 0)),
)


def sample_violations(f: np.ndarray, d: np.ndarray, pl: np.ndarray) -> dict[int, list[str]]:
    """Check sample columns against the data-model invariants.

    Maps the index of each sample that breaks an invariant, ascending, to
    its violation messages in rule order; samples that pass are absent.
    One in-place mask marks the bad samples, and the rules run again on those
    rows alone to name them. It serves validate_sample, ensure_fit_ready and read_csv.
    """
    bad = np.zeros(len(pl), bool)
    for _, rule in _SAMPLE_RULES:
        bad |= rule(f, d, pl)
    index = np.flatnonzero(bad)
    rows = (f[index], d[index], pl[index])
    named = [(message, rule(*rows).tolist()) for message, rule in _SAMPLE_RULES]
    return {i: [message for message, mask in named if mask[k]] for k, i in enumerate(index.tolist())}


def validate_sample(sample: PathLossSample) -> list[str]:
    """Check one sample against the data-model invariants.

    Returns a list of violation messages; an empty list means the sample is
    usable for fitting. Violations are reported rather than raised so callers
    can choose between strict and lax ingestion.
    """
    values = (sample.frequency_ghz, sample.distance_m, sample.path_loss_db)
    return sample_violations(*(np.array([v], dtype=float) for v in values)).get(0, [])


@dataclass(frozen=True)
class ScenarioKey:
    """One cell of the measurement taxonomy."""

    environment: Environment
    layout: Layout
    polarization_class: PolarizationClass

    def label(self) -> str:
        return ":".join(
            (self.environment.value, self.layout.value, self.polarization_class.value)
        )

    def source(self, provenance: str) -> str:
        """The name of this scenario's sample set within a dataset of the given
        provenance; delta_sigma pairs CI and FI rows by it."""
        return f"{provenance}[{self.label()}]" if provenance else self.label()


# (environment, layout) pairs that carry measurements. LOS closed-plan is a
# valid key but has no data behind it.
MEASURED_PAIRS: tuple[tuple[Environment, Layout], ...] = (
    (Environment.LOS, Layout.CORRIDOR),
    (Environment.LOS, Layout.OPEN_PLAN),
    (Environment.NLOS, Layout.CORRIDOR),
    (Environment.NLOS, Layout.OPEN_PLAN),
    (Environment.NLOS, Layout.CLOSED_PLAN),
)

# Every (environment, layout) pair in table order, the measured pairs first;
# default fits and every table walk it, whatever pairs the data holds.
PAIRS: tuple[tuple[Environment, Layout], ...] = MEASURED_PAIRS + tuple(
    p for p in itertools.product(Environment, Layout) if p not in MEASURED_PAIRS)


def measured_scenarios() -> tuple[ScenarioKey, ...]:
    """The 15 scenario keys with data: 5 (environment, layout) pairs x 3 classes.

    Order is deterministic: polarization class major (VV, VH, Combined), then
    the pair order of MEASURED_PAIRS.
    """
    return tuple(
        ScenarioKey(env, layout, pol)
        for pol in PolarizationClass
        for (env, layout) in MEASURED_PAIRS
    )


# The label a comparison table prints for each environment, layout and
# polarization class.
LABELS = {
    Environment.LOS: "LOS",
    Environment.NLOS: "NLOS",
    Layout.CORRIDOR: "co",
    Layout.OPEN_PLAN: "op",
    Layout.CLOSED_PLAN: "cp",
    PolarizationClass.VV: "V-V",
    PolarizationClass.VH: "V-H",
    PolarizationClass.COMBINED: "Comb.",
}


def _tokens(members) -> dict:
    """Lower-case tokens naming each member: its value, its name with _ as -,
    and its table label."""
    return {token.lower(): m for m in members
            for token in (m.value, m.name.replace("_", "-"), LABELS[m])}


# The tokens the CLI's --scenario and the preset selectors accept, lower case.
ENV_TOKENS = _tokens(Environment)
LAYOUT_TOKENS = _tokens(Layout)
POL_TOKENS = _tokens(PolarizationClass)


def parse_scenario(text: str, need_pol: bool = False):
    """Parse ENV:LAYOUT[:POL], e.g. NLOS:CP or los:corridor:vv, case-insensitive.

    Returns (Environment, Layout, PolarizationClass or None); raises
    UsageError on a malformed scenario, or one without a polarization when
    need_pol is set.
    """
    parts = [p.strip().lower() for p in text.split(":")]
    if len(parts) not in (2, 3):
        raise UsageError(f"scenario {text!r} must be ENV:LAYOUT or ENV:LAYOUT:POL")
    if parts[0] not in ENV_TOKENS:
        raise UsageError(f"unknown environment {parts[0]!r} in scenario {text!r}")
    if parts[1] not in LAYOUT_TOKENS:
        raise UsageError(f"unknown layout {parts[1]!r} in scenario {text!r}")
    pol: Optional[PolarizationClass] = None
    if len(parts) == 3:
        if parts[2] not in POL_TOKENS:
            raise UsageError(f"unknown polarization {parts[2]!r} in scenario {text!r}")
        pol = POL_TOKENS[parts[2]]
    if need_pol and pol is None:
        raise UsageError(f"scenario {text!r} needs a polarization (ENV:LAYOUT:POL)")
    return ENV_TOKENS[parts[0]], LAYOUT_TOKENS[parts[1]], pol


# Column codes: a member's code is its position in its enum's definition order.
POLARIZATIONS: tuple[Polarization, ...] = tuple(Polarization)
ENVIRONMENTS: tuple[Environment, ...] = tuple(Environment)
LAYOUTS: tuple[Layout, ...] = tuple(Layout)
CODE = {m: i for members in (POLARIZATIONS, ENVIRONMENTS, LAYOUTS)
        for i, m in enumerate(members)}

_COLUMN_DTYPES = {
    "freq": np.float64,
    "dist": np.float64,
    "pl": np.float64,
    "pol": np.int8,
    "env": np.int8,
    "layout": np.int8,
    "tx_id": object,
    "rx_id": object,
}

# the members each code column indexes
_CODED_COLUMNS = {"pol": POLARIZATIONS, "env": ENVIRONMENTS, "layout": LAYOUTS}


class Dataset:
    """An immutable collection of samples plus a provenance note.

    Samples are stored as read-only columns of equal length: freq, dist and
    pl (float64, in GHz, m and dB); pol, env and layout (int8 codes, the
    member's index in POLARIZATIONS, ENVIRONMENTS and LAYOUTS); tx_id and
    rx_id (object, a label or None). Dataset(samples, provenance) builds the
    columns from PathLossSample rows; from_columns takes them ready-made and
    refuses a pol, env or layout code that indexes no member.
    A column that holds one value for every sample may be a shared
    read-only view of that one value (stride 0); its nbytes still counts
    the logical size, one item per sample. Iteration and .samples give
    PathLossSample row views built on demand.
    """

    __slots__ = (*_COLUMN_DTYPES, "provenance")

    def __init__(self, samples: Iterable[PathLossSample] = (), provenance: str = ""):
        rows = tuple(samples)
        self._assign(
            provenance,
            [s.frequency_ghz for s in rows],
            [s.distance_m for s in rows],
            [s.path_loss_db for s in rows],
            [CODE[s.polarization] for s in rows],
            [CODE[s.environment] for s in rows],
            [CODE[s.layout] for s in rows],
            [s.tx_id for s in rows],
            [s.rx_id for s in rows],
        )

    @classmethod
    def from_columns(cls, freq, dist, pl, pol, env, layout, tx_id, rx_id,
                     provenance: str = "") -> "Dataset":
        """Wrap ready-made columns without building row objects.

        Arrays that already have the column's dtype are taken over, not
        copied, and become read-only. A 0-d column (a scalar) is one value
        shared by every sample: it is kept once, as a read-only zero-stride
        view with the other columns' length. At least one column must be 1-d.
        A pol, env or layout value that is not exactly an integer in
        0..len(members) - 1 (a fraction, NaN, an infinity, a non-numeric
        value, or an integer the int8 code would wrap) raises ValueError
        naming the column; the caller's values are checked before the cast.
        Every check runs before any column is taken, so a refused call
        leaves the caller's arrays writeable.
        """
        dataset = cls.__new__(cls)
        dataset._assign(provenance, freq, dist, pl, pol, env, layout, tx_id, rx_id)
        return dataset

    def _assign(self, provenance: str, *columns) -> None:
        # code columns keep the caller's dtype until checked: the int8 cast wraps
        arrays = [np.asarray(values) if dtype is np.int8 else np.asarray(values, dtype=dtype)
                  for dtype, values in zip(_COLUMN_DTYPES.values(), columns)]
        # checked first, so a refused call leaves the caller's arrays writeable
        if any(array.ndim > 1 for array in arrays):
            raise ValueError("Dataset columns must be 1-d, or 0-d for a shared value")
        lengths = {len(array) for array in arrays if array.ndim == 1}
        if not lengths:
            raise ValueError("Dataset needs at least one 1-d column")
        if len(lengths) != 1:
            raise ValueError("Dataset columns differ in length")
        n = lengths.pop()
        by_name = dict(zip(_COLUMN_DTYPES, arrays))
        for name, members in _CODED_COLUMNS.items():
            codes = by_name[name]
            # NaN and infinities fail the range test, so % 1 only sees finite floats
            if codes.size and not (codes.dtype.kind in "biuf"
                                   and 0 <= codes.min() <= codes.max() < len(members)
                                   and (codes.dtype.kind != "f" or (codes % 1 == 0).all())):
                raise ValueError(f"Dataset column {name} holds a code outside 0..{len(members) - 1}")
            by_name[name] = codes.astype(np.int8, copy=False)
        for name, array in by_name.items():
            if array.ndim == 0:
                array = np.broadcast_to(array, (n,))  # read-only already
            else:
                array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "provenance", provenance)

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is immutable; cannot set {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through from_columns, since __setattr__ refuses
        columns = tuple(getattr(self, name) for name in _COLUMN_DTYPES)
        return Dataset.from_columns, (*columns, self.provenance)

    def __len__(self) -> int:
        return len(self.freq)

    def __iter__(self) -> Iterator[PathLossSample]:
        return map(
            PathLossSample,
            self.freq.tolist(),
            self.dist.tolist(),
            self.pl.tolist(),
            map(POLARIZATIONS.__getitem__, self.pol.tolist()),
            map(ENVIRONMENTS.__getitem__, self.env.tolist()),
            map(LAYOUTS.__getitem__, self.layout.tolist()),
            self.tx_id.tolist(),
            self.rx_id.tolist(),
        )

    @property
    def samples(self) -> tuple[PathLossSample, ...]:
        """The samples as PathLossSample rows, built on each access."""
        return tuple(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.provenance == other.provenance and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _COLUMN_DTYPES
        )

    def __repr__(self) -> str:
        return f"Dataset(<{len(self)} samples>, provenance={self.provenance!r})"

    def select(self, mask: np.ndarray, provenance: str) -> "Dataset":
        """The samples where a boolean mask is true, in their original order."""
        index = np.flatnonzero(mask)
        columns = (getattr(self, name)[index] for name in _COLUMN_DTYPES)
        return Dataset.from_columns(*columns, provenance=provenance)

    def frequencies(self) -> tuple[float, ...]:
        """Distinct sample frequencies in GHz, ascending."""
        return tuple(np.unique(self.freq).tolist())

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample columns as float arrays (frequency, distance, path loss)."""
        return self.freq, self.dist, self.pl


def partition_by_scenario(dataset: Dataset, key: ScenarioKey) -> Dataset:
    """Select the samples of one scenario, preserving order.

    The Combined class takes both polarizations. An empty result is returned
    as an empty dataset, not an error.
    """
    wanted = np.array([key.polarization_class.matches(p) for p in POLARIZATIONS])
    mask = (
        (dataset.env == CODE[key.environment])
        & (dataset.layout == CODE[key.layout])
        & wanted[dataset.pol]
    )
    return dataset.select(mask, key.source(dataset.provenance))


def ensure_fit_ready(dataset: Dataset, operation: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a dataset for fitting and unpack it to arrays.

    Raises DataError if the dataset is empty or any sample violates the
    data-model invariants; the message cites the first offending sample.
    """
    if len(dataset) == 0:
        raise DataError(f"{operation}: empty dataset")
    f, d, pl = dataset.arrays()
    bad = sample_violations(f, d, pl)
    if bad:
        first = next(iter(bad))
        raise DataError(
            f"{operation}: {len(bad)} invalid sample(s), first at index {first}: "
            + "; ".join(bad[first])
        )
    return f, d, pl
