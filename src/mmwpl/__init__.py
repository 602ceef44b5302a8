"""Large-scale indoor mmWave path loss modeling.

Fit, evaluate, synthesize, and compare the CI, FI, ABG, and CIF path
loss model families (plus their cross-polarized CIX/ABGX/CIFX
extensions) on measurement datasets keyed by frequency, distance,
polarization, environment, and layout. Published 28/73 GHz indoor
office parameter sets ship as presets.
"""

from .errors import (
    DataError,
    DomainError,
    NumericalError,
    SingularDesignError,
    UsageError,
)
from .freespace import SPEED_OF_LIGHT_M_S, fspl_db
from .taxonomy import (
    MEASURED_PAIRS,
    MIN_DISTANCE_M,
    Dataset,
    Environment,
    Layout,
    PathLossSample,
    Polarization,
    PolarizationClass,
    ScenarioKey,
    measured_scenarios,
    partition_by_scenario,
    validate_sample,
)
from .models import (
    AbgParams,
    CifParams,
    CiParams,
    FiParams,
    MODEL_FAMILIES,
    XpdExtension,
    predict,
    residual_sigma,
)
from .fitting import (
    compute_f0,
    fit_abg,
    fit_ci,
    fit_cif,
    fit_fi,
    fit_scenarios,
    fit_xpd,
)
from .synthesis import DEFAULT_SEED, SynthesisSpec, synthesize
from .report import (
    ANY_FREQ,
    FitReport,
    FitRow,
    TABLE_STYLES,
    delta_sigma,
    render_table,
    render_tables,
)
from .dataio import (
    CSV_COLUMNS,
    PARAMS_SCHEMA_VERSION,
    read_csv,
    read_params_json,
    write_csv,
    write_params_json,
)
from .presets import PRESET_TABLES, preset_model, preset_report

__version__ = "0.1.0"

__all__ = [
    "ANY_FREQ",
    "AbgParams",
    "CSV_COLUMNS",
    "CifParams",
    "CiParams",
    "DataError",
    "Dataset",
    "DEFAULT_SEED",
    "DomainError",
    "Environment",
    "FiParams",
    "FitReport",
    "FitRow",
    "Layout",
    "MEASURED_PAIRS",
    "MIN_DISTANCE_M",
    "MODEL_FAMILIES",
    "NumericalError",
    "PARAMS_SCHEMA_VERSION",
    "PathLossSample",
    "Polarization",
    "PolarizationClass",
    "PRESET_TABLES",
    "ScenarioKey",
    "SingularDesignError",
    "SPEED_OF_LIGHT_M_S",
    "SynthesisSpec",
    "TABLE_STYLES",
    "UsageError",
    "XpdExtension",
    "compute_f0",
    "delta_sigma",
    "fit_abg",
    "fit_ci",
    "fit_cif",
    "fit_fi",
    "fit_scenarios",
    "fit_xpd",
    "fspl_db",
    "measured_scenarios",
    "partition_by_scenario",
    "predict",
    "preset_model",
    "preset_report",
    "read_csv",
    "read_params_json",
    "render_table",
    "render_tables",
    "residual_sigma",
    "synthesize",
    "validate_sample",
    "write_csv",
    "write_params_json",
]
