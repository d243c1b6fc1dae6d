"""Streaming audit and curation for large open-data CSV exports.

One pass over the file feeds every requested check: column profiling,
data dictionary conformance, timestamp plausibility, domain membership,
cross-column redundancy. A second entry point turns the collected
evidence into a storage reduction plan and executes it losslessly.
"""

from .config import AuditConfig, load_config
from .dictionary import DataDictionary, FieldDescriptor, load_dictionary
from .errors import ConfigError, DictionaryLoadError, InputError, OdqaError, PlanError
from .findings import Finding, FindingSink, Measurement, RULE_CATALOG, Severity
from .ingest import MissingClassifier, RawTable, RowConsumer, open_table, stream_rows
from .pipeline import (
    RunResult,
    run_audit,
    run_dict_check,
    run_profile,
    run_reduce_apply,
    run_reduce_plan,
)
from .profiling import ColumnProfile, ProfileCollector, SpaceSavingSketch, concentration
from .redundancy import PairMatchStats, StreetNormalizer, normalize_street
from .reduce import (
    ReductionPlan,
    ValueDictionary,
    apply_plan,
    build_plan,
    code_width_for,
    reconstruct_table,
)
from .report import AuditReport
from .temporal import TemporalRules, TemporalSummary, evaluate_hour_histogram, pair_duration
from .timestamps import (
    LocalTimestamp,
    TimestampParser,
    ZoneRules,
    ZoneStatus,
    us_eastern_rules,
)

__version__ = "0.1.0"

__all__ = [
    "AuditConfig",
    "AuditReport",
    "ColumnProfile",
    "ConfigError",
    "DataDictionary",
    "DictionaryLoadError",
    "FieldDescriptor",
    "Finding",
    "FindingSink",
    "InputError",
    "LocalTimestamp",
    "Measurement",
    "MissingClassifier",
    "OdqaError",
    "PairMatchStats",
    "PlanError",
    "ProfileCollector",
    "RULE_CATALOG",
    "RawTable",
    "ReductionPlan",
    "RowConsumer",
    "RunResult",
    "Severity",
    "SpaceSavingSketch",
    "StreetNormalizer",
    "TemporalRules",
    "TemporalSummary",
    "TimestampParser",
    "ValueDictionary",
    "ZoneRules",
    "ZoneStatus",
    "apply_plan",
    "build_plan",
    "code_width_for",
    "concentration",
    "evaluate_hour_histogram",
    "load_config",
    "load_dictionary",
    "normalize_street",
    "open_table",
    "pair_duration",
    "reconstruct_table",
    "run_audit",
    "run_dict_check",
    "run_profile",
    "run_reduce_apply",
    "run_reduce_plan",
    "stream_rows",
    "us_eastern_rules",
    "__version__",
]
