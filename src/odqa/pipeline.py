"""End-to-end runs: one driver streams the input once and reports.

Each run_* function is one CLI subcommand. The four streaming commands
(audit, profile, dict-check, reduce-plan) are each a tuple of stages
handed to `_run`, the single driver. `_run` opens the table, wires the
column profiler, then runs every stage up to its `yield`: that part of a
stage attaches its consumers and names the columns it needs, each with
the config key that asks for it. Before the first record is read, `_run`
resolves them all against the header with `RawTable.resolve`, the lookup
every consumer's `start` uses too, and raises one ConfigError naming
each absent column and its key. It then streams the file exactly once
through all the consumers, handing stream_rows the config's
missing-value classifier, timestamp parser and key and agency columns,
resumes the stages in the same order to turn consumer results into
report sections, then assembles the AuditReport, sets the exit status
and writes the requested renderings into out_dir. Stage order is
consumer order, and so the order in which findings reach the sink.

Every consumer, and stream_rows, is handed the run's FindingSink as its
emit. The sink applies the severity overrides. The consumers that can
flag a large share of rows (durations, reference sets, the geo box,
required keys) ask it how many sample slots a rule has left, build only
those findings and tally the rest, so counts stay exact and only the
kept samples are built.

reduce-apply streams the file through a plan instead of consumers, so it
opens the table itself and shares the driver's sink, assembly and exit
status code.

Output filenames are fixed (report.json, report.md, profiles.csv,
pairs.csv, plan.json, apply_result.json) so downstream tooling can diff
runs without guessing.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from .config import AuditConfig
from .dictionary import (
    DataDictionary,
    TypeChecker,
    check_domains,
    detect_undocumented,
    drift_findings,
    load_dictionary,
)
from .domain_rules import (
    GeoBoundsChecker,
    PrecisionAuditor,
    ReferenceChecker,
    UniqueChecker,
    load_reference,
)
from .errors import ConfigError, PlanError
from .findings import FindingSink, make_finding
from .ingest import AbsentColumns, RawTable, RowConsumer, StreamResult, open_table, stream_rows
from .profiling import ProfileCollector, concentration, tier_table
from .redundancy import ConcatChecker, FDChecker, PairCollector
from .reduce import ApplyResult, ReductionPlan, apply_plan, build_plan
from .report import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    AuditReport,
    render_json,
    render_markdown_file,
    render_pairs_csv,
    render_profiles_csv,
)
from .temporal import DurationAuditor

log = logging.getLogger(__name__)

REPORT_JSON = "report.json"
REPORT_MD = "report.md"
PROFILES_CSV = "profiles.csv"
PAIRS_CSV = "pairs.csv"
PLAN_JSON = "plan.json"
APPLY_JSON = "apply_result.json"


@dataclass
class RunResult:
    report: AuditReport
    sink: FindingSink
    exit_status: int
    profiles: list = dc_field(default_factory=list)
    pair_stats: list = dc_field(default_factory=list)
    plan: ReductionPlan | None = None
    apply_result: ApplyResult | None = None
    output_paths: dict[str, Path] = dc_field(default_factory=dict)


def _require_input(cfg: AuditConfig) -> Path:
    if cfg.input_path is None:
        raise ConfigError("no input file configured (set `input` in the config)")
    if not cfg.input_path.is_file():
        raise ConfigError(f"input file not found: {cfg.input_path}")
    return cfg.input_path


def _open(cfg: AuditConfig):
    """Return a finding sink, which applies the severity overrides, and the
    input table, whose header findings are already emitted."""
    sink = FindingSink(cfg.sample_cap, cfg.severity_overrides)
    table = open_table(cfg.input_path)
    for f in table.header_findings:
        sink.emit(f)
    return sink, table


def _conclude(cfg: AuditConfig, command: str, table: RawTable, sha256: str, sink: FindingSink,
              sections: dict, delivered: int, **fields) -> RunResult:
    """Assemble the report and set the exit status from the sink; sha256 is
    the input's digest, taken by the pass that streamed it."""
    report = AuditReport.build(
        dataset_path=str(table.path),
        dataset_sha256=sha256,
        byte_size=table.byte_size,
        row_count=table.row_count or 0,
        delivered_rows=delivered,
        headers=list(table.headers),
        config_digest=cfg.digest(),
        command=command,
        severity_threshold=cfg.severity_threshold,
        sink=sink,
        sections=sections,
    )
    status = EXIT_FINDINGS if sink.count_at_or_above(cfg.severity_threshold) else EXIT_CLEAN
    return RunResult(report=report, sink=sink, exit_status=status, **fields)


def _write_outputs(cfg: AuditConfig, result: RunResult, files: list) -> None:
    """Write each (output key, file name, render(path)) into out_dir, in order."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for key, name, render in files:
        path = out / name
        render(path)
        result.output_paths[key] = path


@dataclass
class _Run:
    """What the stages of one streaming command share."""

    cfg: AuditConfig
    table: RawTable
    emit: FindingSink       # every consumer's emit
    profiler: ProfileCollector
    consumers: list[RowConsumer] = dc_field(default_factory=list)
    wanted: dict[str, str] = dc_field(default_factory=dict)    # column -> config knob asking for it
    stream: StreamResult | None = None
    sections: dict = dc_field(default_factory=dict)
    files: list = dc_field(default_factory=list)    # written before the report renderings
    pair_stats: list = dc_field(default_factory=list)
    concat_stats: list = dc_field(default_factory=list)
    plan: ReductionPlan | None = None

    def need(self, knob: str, *columns: str) -> None:
        for name in columns:
            self.wanted[name] = knob

    def add(self, consumer):
        self.consumers.append(consumer)
        return consumer


def _run(cfg: AuditConfig, command: str, stages, write: bool) -> RunResult:
    """Run one streaming command made of stages; see the module docstring."""
    _require_input(cfg)
    sink, table = _open(cfg)
    fm = cfg.field_map
    profiler = ProfileCollector(
        distinct_cap=cfg.distinct_cap,
        sketch_capacity=cfg.sketch_capacity,
        top_k=cfg.top_k,
        emit=sink,
    )
    run = _Run(cfg, table, sink, profiler, consumers=[profiler])

    running = [stage(run) for stage in stages]
    for stage in running:
        next(stage, None)
    if fm.key:
        run.wanted[fm.key] = "fields.key"
    try:
        table.resolve(run.wanted)
    except AbsentColumns as exc:
        parts = ", ".join(f"{name!r} (from {run.wanted[name]})" for name in sorted(exc.names))
        raise ConfigError(f"configured column(s) not in the header: {parts}") from None

    stream = run.stream = stream_rows(
        table, run.consumers, emit=sink,
        classifier=cfg.classifier(), parser=cfg.timestamp_parser(), key_field=fm.key, agency_field=fm.agency,
    )
    run.sections["stream"] = {
        "rows": stream.row_count,
        "delivered": stream.delivered,
        "skipped_malformed": stream.skipped_malformed,
        "skipped_ragged": stream.skipped_ragged,
    }
    for stage in running:
        next(stage, None)

    result = _conclude(
        cfg, command, table, stream.sha256, sink, run.sections, stream.delivered,
        profiles=profiler.profiles, pair_stats=run.pair_stats, plan=run.plan,
    )
    if write:
        report = result.report
        files = run.files
        if "json" in cfg.formats:
            files.append(("report_json", REPORT_JSON, lambda p: render_json(report, p)))
        if "markdown" in cfg.formats:
            files.append(("report_md", REPORT_MD, lambda p: render_markdown_file(report, p)))
        if "csv" in cfg.formats:
            files.append(("profiles_csv", PROFILES_CSV, lambda p: render_profiles_csv(result.profiles, p)))
            pair_dicts = run.sections.get("redundancy", {}).get("pairs")
            if pair_dicts:
                files.append(("pairs_csv", PAIRS_CSV, lambda p: render_pairs_csv(pair_dicts, p)))
        _write_outputs(cfg, result, files)
    return result


# Stages. Each is a generator over the shared _Run: the code before its
# yield wires consumers, the code after it reads their results.

def _profiles(run: _Run):
    """Column profiles and their missingness tiers."""
    yield
    profiles = run.profiler.profiles
    run.sections["profiles"] = [p.as_dict() for p in profiles]
    run.sections["tiers"] = [
        {"field": r.field, "blank_pct": r.blank_pct, "tier": r.tier}
        for r in tier_table(profiles)
    ]


def _concentration(run: _Run):
    """Top-k share of the configured fields' values."""
    cfg = run.cfg
    if not cfg.concentration:
        return
    run.need("concentration", *cfg.concentration)
    yield
    out = []
    by_field = {p.field: p for p in run.profiler.profiles}
    for field_name in sorted(cfg.concentration):
        k = cfg.concentration[field_name]
        prof = by_field[field_name]
        if prof.exact_counts is None:
            out.append({
                "field": field_name, "k": k, "top_k_share": None,
                "cumulative": [], "approximate": True,
            })
            continue
        res = concentration(field_name, list(prof.exact_counts.items()), k)
        out.append({
            "field": field_name,
            "k": res.k,
            "top_k_share": round(res.top_k_share, 6),
            "cumulative": [round(c, 6) for c in res.cumulative],
            "approximate": False,
        })
    run.sections["concentration"] = out


def _dictionary(run: _Run):
    """Type checks while streaming, then field and domain drift."""
    cfg = run.cfg
    if cfg.dictionary_path is None:
        return
    dictionary = load_dictionary(cfg.dictionary_path)
    types = run.add(TypeChecker(dictionary, emit=run.emit))
    yield
    field_drift = detect_undocumented(run.table, dictionary)
    domain_drift = check_domains(
        run.profiler.profiles, dictionary,
        references=_load_domain_references(dictionary, run.emit),
        case_fold=cfg.case_fold_domains,
    )
    for f in drift_findings(field_drift, domain_drift):
        run.emit(f)
    run.sections["dictionary"] = {
        "undocumented_fields": sorted(field_drift.undocumented),
        "experimental_fields": sorted(field_drift.experimental),
        "unobserved_fields": sorted(field_drift.unobserved),
        "undeclared_values": {
            f: dict(sorted(v.items())) for f, v in sorted(domain_drift.undeclared.items())
        },
        "unobserved_declared": {
            f: list(v) for f, v in sorted(domain_drift.unobserved_declared.items())
        },
        "skipped_approximate": sorted(domain_drift.skipped_approximate),
        "type_checked": dict(sorted(types.report.checked.items())),
        "type_violations": dict(sorted(types.report.violations.items())),
    }


def _required_dictionary(run: _Run):
    if run.cfg.dictionary_path is None:
        raise ConfigError("dict-check needs a `dictionary` path in the config")
    yield from _dictionary(run)


def _load_domain_references(dictionary: DataDictionary, emit) -> dict[str, frozenset[str]]:
    """Load domain_ref files named by the dictionary, relative to it.

    An unreadable reference file degrades to a finding and skips that
    one field's domain check; the rest of the audit proceeds.
    """
    refs: dict[str, frozenset[str]] = {}
    if dictionary.source_path is None:
        return refs
    base = Path(dictionary.source_path).parent
    for desc in dictionary.fields:
        if desc.domain_ref is None:
            continue
        path = Path(desc.domain_ref)
        if not path.is_absolute():
            path = base / path
        try:
            refs[desc.name] = load_reference(path)
        except ConfigError as exc:
            emit(make_finding(
                "reference_unreadable",
                f"domain reference for {desc.name!r} could not be loaded: {exc}",
                fields=(desc.name,),
            ))
    return refs


def _temporal(run: _Run):
    """Durations, spikes, midnight and post-close checks."""
    cfg = run.cfg
    fm = cfg.field_map
    if not (fm.created and fm.closed):
        return
    run.need("fields.created", fm.created)
    run.need("fields.closed", fm.closed)
    if fm.updated:
        run.need("fields.updated", fm.updated)
    durations = run.add(DurationAuditor(
        created_field=fm.created,
        closed_field=fm.closed,
        updated_field=fm.updated,
        rules=cfg.temporal,
        emit=run.emit,
    ))
    yield
    run.sections["temporal"] = durations.summary.as_dict()


def _domain(run: _Run):
    """Reference sets, the geo box, unique keys and decimal precision."""
    cfg = run.cfg
    fm = cfg.field_map
    emit = run.emit
    references = None
    if cfg.references:
        fields = sorted(cfg.references)
        run.need("references", *fields)
        references = run.add(ReferenceChecker(
            {f: load_reference(cfg.references[f]) for f in fields},
            emit=emit,
        ))
    geo = None
    if cfg.geo_bounds is not None:
        if not (fm.latitude and fm.longitude):
            raise ConfigError("geo bounds configured but fields.latitude/longitude are not mapped")
        run.need("fields.latitude", fm.latitude)
        run.need("fields.longitude", fm.longitude)
        geo = run.add(GeoBoundsChecker(
            fm.latitude,
            fm.longitude,
            cfg.geo_bounds,
            emit=emit,
        ))
    uniques = None
    if cfg.unique:
        run.need("unique", *(spec.field for spec in cfg.unique))
        uniques = run.add(UniqueChecker(
            [(spec.field, spec.required) for spec in cfg.unique], emit=emit,
        ))
    precision = None
    if cfg.precision_fields:
        run.need("precision.fields", *cfg.precision_fields)
        precision = run.add(PrecisionAuditor(
            list(cfg.precision_fields), cfg.max_decimals, emit=emit,
        ))
    yield
    section: dict = {}
    if references is not None:
        section["references"] = [
            {
                "field": res.field,
                "checked": res.checked,
                "invalid": res.invalid,
                "invalid_rate": res.invalid_rate,
                "top_invalid": [[v, n] for v, n in res.top_invalid()],
                "by_agency_invalid": dict(sorted(res.by_agency_invalid.items())),
            }
            for res in references.results.values()
        ]
    if geo is not None:
        g = geo.result
        section["geo"] = {
            "pairs_checked": g.pairs_checked,
            "out_of_bounds": g.out_of_bounds,
            "unparsed": g.unparsed,
        }
    if uniques is not None:
        section["unique"] = [
            {
                "field": res.field,
                "total_present": res.total_present,
                "missing": res.missing,
                "duplicate_values": res.duplicate_values,
                "duplicate_rows": res.duplicate_rows,
            }
            for res in uniques.results
        ]
    if precision is not None:
        section["precision"] = [
            {
                "field": res.field,
                "max_decimals": precision.max_decimals,
                "flagged": res.flagged,
                "non_decimal": res.non_decimal,
                "max_decimals_seen": res.max_decimals_seen,
                "histogram": {str(k): v for k, v in sorted(res.histogram.items())},
            }
            for res in (precision.results[f] for f in precision.fields)
        ]
    if section:
        run.sections["domain"] = section


def _redundancy(run: _Run):
    """Column pair matches, concatenation templates and dependencies."""
    cfg = run.cfg
    pairs = None
    if cfg.pairs:
        street = cfg.street_normalizer()
        specs = []
        for p in cfg.pairs:
            run.need("pairs", p.field_a, p.field_b)
            specs.append((p.field_a, p.field_b, street if p.normalizer == "street" else None))
        pairs = run.add(PairCollector(specs, emit=run.emit))
    concats = []
    for c in cfg.concat:
        run.need("concat", c.target, c.source_a, c.source_b)
        concats.append(run.add(ConcatChecker(c.target, c.source_a, c.source_b, c.template)))
    fds = []
    for det, dep in cfg.fd:
        run.need("fd", det, dep)
        fds.append(run.add(FDChecker(det, dep)))
    yield
    section: dict = {}
    if pairs is not None:
        run.pair_stats = list(pairs.stats)
        section["pairs"] = [
            dict(stats.as_dict(), verdict=stats.verdict(cfg.near_duplicate_threshold))
            for stats in pairs.stats
        ]
    run.concat_stats = [c.stats for c in concats]
    if concats:
        section["concat"] = [stats.as_dict() for stats in run.concat_stats]
    if fds:
        section["fd"] = [c.result.as_dict() for c in fds]
    if section:
        run.sections["redundancy"] = section


def _plan(run: _Run):
    """Fold the profiles and the redundancy evidence into a reduction plan."""
    policy = run.cfg.plan
    run.need("plan.encode", *policy.encode_fields)
    run.need("plan.drop", *policy.drop_fields)
    run.need("plan.segregate", *(policy.segregate_fields or ()))
    run.need("plan.protected", *policy.protected_fields)
    run.need("plan.allow_lossy", *policy.allow_lossy)
    yield
    table = run.table
    run.plan = build_plan(
        run.profiler.profiles,
        run.pair_stats,
        policy,
        baseline_bytes=table.byte_size,
        row_count=run.stream.delivered,
        key_field=run.cfg.field_map.key,
        concat_stats=run.concat_stats,
        raw_headers=table.raw_headers,
        emit=run.emit,
    )
    run.sections["plan"] = run.plan.as_dict()
    run.files.append(("plan_json", PLAN_JSON, run.plan.write_json))


def run_audit(cfg: AuditConfig, *, write: bool = True) -> RunResult:
    """Full audit: profile, dictionary, temporal, domain, redundancy."""
    return _run(cfg, "audit", (
        _profiles, _concentration, _dictionary, _temporal, _domain, _redundancy,
    ), write)


def run_profile(cfg: AuditConfig, *, write: bool = True) -> RunResult:
    """Profile-only pass: missingness, distincts, tiers, concentration."""
    return _run(cfg, "profile", (_profiles, _concentration), write)


def run_dict_check(cfg: AuditConfig, *, write: bool = True) -> RunResult:
    """Dictionary conformance: types, field drift, domain drift."""
    return _run(cfg, "dict-check", (_required_dictionary,), write)


def run_reduce_plan(cfg: AuditConfig, *, write: bool = True) -> RunResult:
    """Profile plus redundancy evidence, folded into a reduction plan."""
    return _run(cfg, "reduce-plan", (_profiles, _redundancy, _plan), write)


def run_reduce_apply(
    cfg: AuditConfig, plan_path: str | Path | None = None, *, write: bool = True,
) -> RunResult:
    """Execute a previously written plan against the input file."""
    _require_input(cfg)
    plan_path = Path(cfg.out_dir) / PLAN_JSON if plan_path is None else Path(plan_path)
    if not plan_path.is_file():
        raise PlanError(f"plan file not found: {plan_path} (run reduce-plan first)")
    plan = ReductionPlan.read_json(plan_path)

    sink, table = _open(cfg)
    applied = apply_plan(
        table, plan, Path(cfg.out_dir),
        classifier=cfg.classifier(),
    )
    sections = {"plan": plan.as_dict(), "apply": applied.as_dict()}
    result = _conclude(
        cfg, "reduce-apply", table, applied.input_sha256, sink, sections, applied.rows_written,
        plan=plan, apply_result=applied,
    )
    if write:
        files = [("apply_json", APPLY_JSON, lambda p: p.write_text(
            json.dumps(applied.as_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8",
        ))]
        if "json" in cfg.formats:
            files.append(("report_json", REPORT_JSON, lambda p: render_json(result.report, p)))
        _write_outputs(cfg, result, files)
    return result
