"""Run configuration: YAML loading, validation, canonical digest.

Config is strict: an unrecognized key anywhere in the file is a fatal
error naming the key, because a silently ignored typo in a data-quality
tool is itself a data-quality incident. All knobs have defaults; a
minimal config is just the input path.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import hashlib
import json
import logging
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Any, Mapping

import yaml

from .domain_rules import DEFAULT_MAX_DECIMALS, GeoBounds
from .errors import ConfigError
from .findings import Severity
from .ingest import MissingClassifier
from .profiling import DEFAULT_DISTINCT_CAP, DEFAULT_SKETCH_CAPACITY, DEFAULT_TOP_K
from .redundancy import StreetNormalizer, NEAR_DUPLICATE_RATE
from .reduce import PlanPolicy, DEFAULT_ENCODE_CAP, DEFAULT_SPARSE_THRESHOLD
from .temporal import TemporalRules
from .timestamps import DATE_ONLY_FORMATS, DEFAULT_TIMESTAMP_FORMATS, TimestampParser, ZoneRules, us_eastern_rules

log = logging.getLogger(__name__)

DEFAULT_SAMPLE_CAP = 100
DEFAULT_FORMATS = ("json", "markdown", "csv")
KNOWN_FORMATS = frozenset(DEFAULT_FORMATS)


@dataclass
class FieldMap:
    created: str | None = None
    closed: str | None = None
    updated: str | None = None
    agency: str | None = None
    key: str | None = None
    latitude: str | None = None
    longitude: str | None = None


@dataclass
class PairSpec:
    field_a: str
    field_b: str
    normalizer: str | None = None     # None or "street"


@dataclass
class ConcatSpec:
    target: str
    source_a: str
    source_b: str
    template: str = "({a}, {b})"


@dataclass
class UniqueSpec:
    field: str
    required: bool = False


@dataclass
class AuditConfig:
    input_path: Path | None = None
    dictionary_path: Path | None = None
    out_dir: Path = Path("odqa_out")
    field_map: FieldMap = dc_field(default_factory=FieldMap)
    timestamp_formats: tuple[str, ...] = DEFAULT_TIMESTAMP_FORMATS + DATE_ONLY_FORMATS
    extra_missing_tokens: dict[str, str] = dc_field(default_factory=dict)
    zone_spec: dict | None = None
    temporal: TemporalRules = dc_field(default_factory=TemporalRules)
    distinct_cap: int = DEFAULT_DISTINCT_CAP
    sketch_capacity: int = DEFAULT_SKETCH_CAPACITY
    top_k: int = DEFAULT_TOP_K
    concentration: dict[str, int] = dc_field(default_factory=dict)
    references: dict[str, Path] = dc_field(default_factory=dict)
    geo_bounds: GeoBounds | None = None
    precision_fields: tuple[str, ...] = ()
    max_decimals: int = DEFAULT_MAX_DECIMALS
    unique: tuple[UniqueSpec, ...] = ()
    pairs: tuple[PairSpec, ...] = ()
    concat: tuple[ConcatSpec, ...] = ()
    fd: tuple[tuple[str, str], ...] = ()
    near_duplicate_threshold: float = NEAR_DUPLICATE_RATE
    plan: PlanPolicy = dc_field(default_factory=PlanPolicy)
    severity_threshold: Severity = Severity.WARNING
    severity_overrides: dict[str, Severity] = dc_field(default_factory=dict)
    sample_cap: int = DEFAULT_SAMPLE_CAP
    formats: tuple[str, ...] = DEFAULT_FORMATS
    case_fold_domains: bool = False
    source_path: Path | None = None

    def classifier(self) -> MissingClassifier:
        return MissingClassifier(self.extra_missing_tokens or None)

    def zone_rules(self) -> ZoneRules:
        if self.zone_spec is None:
            return us_eastern_rules()
        kind = self.zone_spec.get("name", "us_eastern")
        if kind == "us_eastern":
            first = int(self.zone_spec.get("first_year", 1987))
            last = int(self.zone_spec.get("last_year", 2040))
            return us_eastern_rules(first, last)
        if kind == "fixed":
            try:
                return ZoneRules((), int(self.zone_spec["offset_seconds"]), name="fixed")
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"zone: bad fixed spec: {exc}") from exc
        if kind == "table":
            try:
                transitions = [(int(t), int(o)) for t, o in self.zone_spec["transitions"]]
                return ZoneRules(transitions, int(self.zone_spec["initial_offset"]), name="table")
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"zone: bad table spec: {exc}") from exc
        raise ConfigError(f"unknown zone spec {kind!r}")

    def timestamp_parser(self) -> TimestampParser:
        return TimestampParser(self.timestamp_formats, self.zone_rules())

    def street_normalizer(self) -> StreetNormalizer:
        return StreetNormalizer()

    def canonical_dict(self) -> dict:
        """Stable representation of every behavior-affecting knob: every
        field except where outputs go and where the config came from."""
        return {
            f.name: _canonical(getattr(self, f.name))
            for f in dataclasses.fields(self) if f.name not in _NOT_BEHAVIOR
        }

    def digest(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True, ensure_ascii=True)
        return hashlib.sha256(payload.encode("ascii")).hexdigest()


_NOT_BEHAVIOR = ("out_dir", "formats", "source_path")


def _canonical(value: Any) -> Any:
    """value as plain JSON data, for the config digest."""
    if dataclasses.is_dataclass(value):
        return {f.name: _canonical(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Severity):
        return value.label
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_canonical(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, dt.date):
        return value.isoformat()
    return value


def _require_mapping(value: Any, where: str) -> Mapping:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where}: expected a mapping")
    return value


def _check_keys(mapping: Mapping, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        names = ", ".join(sorted(str(k) for k in unknown))
        raise ConfigError(f"{where}: unknown key(s): {names}")


def _as_str_list(value: Any, where: str) -> list[str]:
    if value is None:
        return []
    if isinstance(value, str):
        return [value]
    if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
        return list(value)
    raise ConfigError(f"{where}: expected a string or list of strings")


_TOP_KEYS = {
    "input", "dictionary", "out_dir", "fields", "missing_tokens", "timestamp_formats",
    "zone", "temporal", "profile", "concentration", "references", "geo", "precision",
    "unique", "pairs", "concat", "fd", "redundancy", "plan", "severity_threshold",
    "severity_overrides", "sample_cap", "report", "case_fold_domains",
}

_FIELD_KEYS = {"created", "closed", "updated", "agency", "key", "latitude", "longitude"}
# a role that is read only together with its partners, checked in this order
_FIELD_PARTNERS = {
    "created": ("closed",),
    "closed": ("created",),
    "updated": ("created", "closed"),
    "latitude": ("longitude",),
    "longitude": ("latitude",),
}
_ZONE_KEYS = {"name", "first_year", "last_year", "offset_seconds", "transitions", "initial_offset"}
_TEMPORAL_KEYS = {"sentinel_dates", "extreme_cutoff_days", "post_close_window_days", "sigma_multiplier"}
_PROFILE_KEYS = {"distinct_cap", "sketch_capacity", "top_k"}
_GEO_KEYS = {"bounds"}
_BOUNDS_KEYS = {"lat_min", "lat_max", "lon_min", "lon_max"}
_PRECISION_KEYS = {"fields", "max_decimals"}
_PLAN_KEYS = {
    "sparse_threshold", "encode_cap", "encode", "drop", "segregate", "allow_lossy",
    "auto_drop_duplicates", "drop_concat_targets", "protected",
}
_REPORT_KEYS = {"formats"}
_REDUNDANCY_KEYS = {"near_duplicate_threshold"}


def load_config(path: str | Path) -> AuditConfig:
    """Parse and validate a YAML config file into an AuditConfig."""
    p = Path(path)
    try:
        with open(p, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {p} is not valid YAML: {exc}") from exc
    data = _require_mapping(raw, str(p))
    _check_keys(data, _TOP_KEYS, str(p))
    base = p.parent

    def resolve(value: str) -> Path:
        q = Path(value)
        return q if q.is_absolute() else base / q

    def path_str(key: str) -> str:
        value = data[key]
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{key}: expected a path string")
        return value

    cfg = AuditConfig(source_path=p)

    if data.get("input") is not None:
        cfg.input_path = resolve(path_str("input"))
    if data.get("dictionary") is not None:
        cfg.dictionary_path = resolve(path_str("dictionary"))
    if data.get("out_dir") is not None:
        cfg.out_dir = resolve(path_str("out_dir"))

    fields = _require_mapping(data.get("fields"), "fields")
    _check_keys(fields, _FIELD_KEYS, "fields")
    for key in _FIELD_KEYS:
        if fields.get(key) is not None:
            setattr(cfg.field_map, key, str(fields[key]))
    for key, partners in _FIELD_PARTNERS.items():
        if getattr(cfg.field_map, key) and (absent := [p for p in partners if not getattr(cfg.field_map, p)]):
            raise ConfigError(f"fields.{key} is given without " + " and ".join(f"fields.{p}" for p in absent))

    tokens = _require_mapping(data.get("missing_tokens"), "missing_tokens")
    cfg.extra_missing_tokens = {str(k): str(v) for k, v in tokens.items()}
    try:
        MissingClassifier(cfg.extra_missing_tokens or None)  # validate kinds now
    except ValueError as exc:
        raise ConfigError(f"missing_tokens: {exc}") from None

    if data.get("timestamp_formats") is not None:
        formats = _as_str_list(data["timestamp_formats"], "timestamp_formats")
        if not formats:
            raise ConfigError("timestamp_formats: need at least one format")
        cfg.timestamp_formats = tuple(formats)

    if data.get("zone") is not None:
        zone = dict(_require_mapping(data["zone"], "zone"))
        _check_keys(zone, _ZONE_KEYS, "zone")
        cfg.zone_spec = zone
        cfg.zone_rules()  # validate now

    temporal = _require_mapping(data.get("temporal"), "temporal")
    _check_keys(temporal, _TEMPORAL_KEYS, "temporal")
    if temporal:
        sentinels = []
        for token in _as_str_list(temporal.get("sentinel_dates"), "temporal.sentinel_dates"):
            try:
                sentinels.append(dt.date.fromisoformat(token))
            except ValueError:
                raise ConfigError(f"temporal.sentinel_dates: bad date {token!r}") from None
        cfg.temporal = TemporalRules(
            sentinel_dates=tuple(sentinels) if sentinels else TemporalRules().sentinel_dates,
            extreme_cutoff_days=int(temporal.get("extreme_cutoff_days", TemporalRules().extreme_cutoff_days)),
            post_close_window_days=int(temporal.get("post_close_window_days", TemporalRules().post_close_window_days)),
            sigma_multiplier=float(temporal.get("sigma_multiplier", TemporalRules().sigma_multiplier)),
        )

    profile = _require_mapping(data.get("profile"), "profile")
    _check_keys(profile, _PROFILE_KEYS, "profile")
    cfg.distinct_cap = int(profile.get("distinct_cap", DEFAULT_DISTINCT_CAP))
    cfg.sketch_capacity = int(profile.get("sketch_capacity", DEFAULT_SKETCH_CAPACITY))
    cfg.top_k = int(profile.get("top_k", DEFAULT_TOP_K))
    if cfg.distinct_cap < 1 or cfg.sketch_capacity < 1 or cfg.top_k < 1:
        raise ConfigError("profile: caps must be positive")

    conc = _require_mapping(data.get("concentration"), "concentration")
    cfg.concentration = {str(k): int(v) for k, v in conc.items()}
    for fname, k in cfg.concentration.items():
        if k < 1:
            raise ConfigError(f"concentration.{fname}: k must be >= 1")

    refs = _require_mapping(data.get("references"), "references")
    cfg.references = {str(k): resolve(str(v)) for k, v in refs.items()}

    geo = _require_mapping(data.get("geo"), "geo")
    _check_keys(geo, _GEO_KEYS, "geo")
    if geo or (cfg.field_map.latitude and cfg.field_map.longitude):
        bounds = _require_mapping(geo.get("bounds"), "geo.bounds") if geo else {}
        _check_keys(bounds, _BOUNDS_KEYS, "geo.bounds")
        defaults = GeoBounds()
        cfg.geo_bounds = GeoBounds(
            lat_min=float(bounds.get("lat_min", defaults.lat_min)),
            lat_max=float(bounds.get("lat_max", defaults.lat_max)),
            lon_min=float(bounds.get("lon_min", defaults.lon_min)),
            lon_max=float(bounds.get("lon_max", defaults.lon_max)),
        )

    precision = _require_mapping(data.get("precision"), "precision")
    _check_keys(precision, _PRECISION_KEYS, "precision")
    cfg.precision_fields = tuple(_as_str_list(precision.get("fields"), "precision.fields"))
    if twice := [f for i, f in enumerate(cfg.precision_fields) if f in cfg.precision_fields[:i]]:
        raise ConfigError(f"precision.fields: {twice[0]!r} is listed twice")
    cfg.max_decimals = int(precision.get("max_decimals", DEFAULT_MAX_DECIMALS))

    unique_specs: list[UniqueSpec] = []
    for item in (data.get("unique") or []):
        if isinstance(item, str):
            unique_specs.append(UniqueSpec(item))
        elif isinstance(item, Mapping):
            _check_keys(item, {"field", "required"}, "unique[]")
            if "field" not in item:
                raise ConfigError("unique[]: missing field name")
            unique_specs.append(UniqueSpec(str(item["field"]), bool(item.get("required", False))))
        else:
            raise ConfigError("unique: entries must be names or {field, required} maps")
    cfg.unique = tuple(unique_specs)

    pair_specs: list[PairSpec] = []
    for item in (data.get("pairs") or []):
        if isinstance(item, (list, tuple)) and len(item) == 2:
            pair_specs.append(PairSpec(str(item[0]), str(item[1])))
        elif isinstance(item, Mapping):
            _check_keys(item, {"a", "b", "normalizer"}, "pairs[]")
            if "a" not in item or "b" not in item:
                raise ConfigError("pairs[]: need both a and b")
            norm = item.get("normalizer")
            if norm is not None and norm != "street":
                raise ConfigError(f"pairs[]: unknown normalizer {norm!r}")
            pair_specs.append(PairSpec(str(item["a"]), str(item["b"]), norm))
        else:
            raise ConfigError("pairs: entries must be [a, b] or {a, b, normalizer}")
    cfg.pairs = tuple(pair_specs)

    concat_specs: list[ConcatSpec] = []
    for item in (data.get("concat") or []):
        item = _require_mapping(item, "concat[]")
        _check_keys(item, {"target", "a", "b", "template"}, "concat[]")
        for need in ("target", "a", "b"):
            if need not in item:
                raise ConfigError(f"concat[]: missing {need}")
        concat_specs.append(ConcatSpec(
            str(item["target"]), str(item["a"]), str(item["b"]),
            str(item.get("template", "({a}, {b})")),
        ))
    cfg.concat = tuple(concat_specs)

    fd_specs: list[tuple[str, str]] = []
    for item in (data.get("fd") or []):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigError("fd: entries must be [determinant, dependent]")
        fd_specs.append((str(item[0]), str(item[1])))
    cfg.fd = tuple(fd_specs)

    redundancy = _require_mapping(data.get("redundancy"), "redundancy")
    _check_keys(redundancy, _REDUNDANCY_KEYS, "redundancy")
    if "near_duplicate_threshold" in redundancy:
        cfg.near_duplicate_threshold = float(redundancy["near_duplicate_threshold"])
        if not 0.0 < cfg.near_duplicate_threshold <= 1.0:
            raise ConfigError("redundancy.near_duplicate_threshold: must be in (0, 1]")

    plan = _require_mapping(data.get("plan"), "plan")
    _check_keys(plan, _PLAN_KEYS, "plan")
    segregate_raw = plan.get("segregate", "auto")
    segregate = None if segregate_raw in (None, "auto") else _as_str_list(segregate_raw, "plan.segregate")
    cfg.plan = PlanPolicy(
        sparse_threshold=float(plan.get("sparse_threshold", DEFAULT_SPARSE_THRESHOLD)),
        encode_cap=int(plan.get("encode_cap", DEFAULT_ENCODE_CAP)),
        encode_fields=tuple(_as_str_list(plan.get("encode"), "plan.encode")),
        drop_fields=tuple(_as_str_list(plan.get("drop"), "plan.drop")),
        segregate_fields=None if segregate is None else tuple(segregate),
        allow_lossy=tuple(_as_str_list(plan.get("allow_lossy"), "plan.allow_lossy")),
        auto_drop_duplicates=bool(plan.get("auto_drop_duplicates", True)),
        drop_concat_targets=bool(plan.get("drop_concat_targets", True)),
        protected_fields=tuple(_as_str_list(plan.get("protected"), "plan.protected")),
    )
    if not 0.0 < cfg.plan.sparse_threshold <= 100.0:
        raise ConfigError("plan.sparse_threshold: must be in (0, 100]")

    if data.get("severity_threshold") is not None:
        try:
            cfg.severity_threshold = Severity.parse(str(data["severity_threshold"]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    overrides = _require_mapping(data.get("severity_overrides"), "severity_overrides")
    parsed_overrides: dict[str, Severity] = {}
    from .findings import RULE_CATALOG
    for rule, token in overrides.items():
        if rule not in RULE_CATALOG:
            raise ConfigError(f"severity_overrides: unknown rule {rule!r}")
        try:
            parsed_overrides[str(rule)] = Severity.parse(str(token))
        except ValueError as exc:
            raise ConfigError(f"severity_overrides.{rule}: {exc}") from None
    cfg.severity_overrides = parsed_overrides

    if data.get("sample_cap") is not None:
        cfg.sample_cap = int(data["sample_cap"])
        if cfg.sample_cap < 1:
            raise ConfigError("sample_cap: must be >= 1")

    report = _require_mapping(data.get("report"), "report")
    _check_keys(report, _REPORT_KEYS, "report")
    if report.get("formats") is not None:
        formats = tuple(_as_str_list(report["formats"], "report.formats"))
        bad = set(formats) - KNOWN_FORMATS
        if bad:
            raise ConfigError(f"report.formats: unknown format(s) {sorted(bad)}")
        cfg.formats = formats

    cfg.case_fold_domains = bool(data.get("case_fold_domains", False))
    return cfg


def parse_formats(token: str) -> tuple[str, ...]:
    """CLI --format value: comma-separated subset of json,markdown,csv."""
    formats = tuple(t.strip() for t in token.split(",") if t.strip())
    if not formats:
        raise ConfigError("--format: empty selection")
    bad = set(formats) - KNOWN_FORMATS
    if bad:
        raise ConfigError(f"--format: unknown format(s) {sorted(bad)}")
    return formats
