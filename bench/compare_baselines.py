#!/usr/bin/env python3
"""Perf-trend gate: compare a directory of BENCH_*.json reports against
the committed snapshots in bench/baselines/.

Writes a per-bench delta table (markdown) to stdout and, when the
GITHUB_STEP_SUMMARY environment variable is set, appends it to the CI
job summary. Exit status is nonzero when

  * any bench's wall_time_s regressed by more than --max-ratio (default
    2.0x) against its baseline, provided both sides are above
    --min-seconds (tiny smoke timings are noise-dominated and never
    gate), or
  * any per-bench acceptance assertion in BENCH_GATES fails — the one
    schema-driven source of truth for every report's correctness bits
    and floor metrics (bit-identity flags, cache hit-rate floors, the
    MC lane duel speedup, the open-loop SLO). Most of these floors
    are also enforced by the bench binary's own exit code; this gate
    re-checks them against the report the artifact actually carries, or
  * a bench in EXACT_ROW_BENCHES reports `rows` that differ in any field
    from its committed baseline's (a reproduced paper figure moved), or
  * a metric listed in EXACT_METRICS differs from its committed
    baseline's value (a deterministic count moved), or
  * a baseline bench produced no report at all (a silently skipped bench
    would otherwise look like a perf win).

A bench with no committed baseline yet only *warns*: new benches land in
the same PR as their first baseline snapshot, and a branch state where
the report exists before the snapshot must not fail the gate.

Refreshing baselines after an intentional perf change:

    cmake -B build -S . && cmake --build build -j
    mkdir -p /tmp/bench-json
    cd /tmp/bench-json
    BIORANK_REPS=2 BIORANK_BENCH_JSON_DIR=$PWD <run every build/bench_*>
    cp BENCH_*.json <repo>/bench/baselines/

and commit the result (see docs/ARCHITECTURE.md, "Perf-trend gate").
"""

import argparse
import json
import os
import re
import sys
from pathlib import Path

# Benches that may legitimately be absent from a run (Google-Benchmark
# harnesses are skipped when libbenchmark-dev is not installed).
OPTIONAL_BENCHES = {
    "fig8a_reliability_methods",
    "fig8b_method_times",
    "ablation_diffusion",
}


# --- Per-bench acceptance assertions -----------------------------------
#
# Each checker takes a report's metrics dict and returns a list of
# failure strings (empty = pass). BENCH_GATES maps bench name -> its
# checkers; gates run only when the bench produced a report (a missing
# report is handled by the baseline comparison above). This table is the
# single declarative home of every report assertion CI enforces — no
# inline per-report python in the workflow.

def flag(key, why):
    """metrics[key] must be truthy (a correctness bit)."""
    def check(metrics):
        if not metrics.get(key, False):
            return [f"{why} ({key} is not true)"]
        return []
    return check


def floor(key, minimum, strict=True):
    """metrics[key] must be above (or at, when strict=False) minimum."""
    def check(metrics):
        value = float(metrics.get(key, 0.0))
        if (value <= minimum) if strict else (value < minimum):
            bound = "at or below" if strict else "below"
            return [f"{key} {value:.3f} is {bound} the {minimum:g} floor"]
        return []
    return check


def ceiling(key, maximum):
    """metrics[key] must not exceed maximum."""
    def check(metrics):
        value = float(metrics.get(key, 0.0))
        if value > maximum:
            return [f"{key} {value:.3g} exceeds the {maximum:g} cap"]
        return []
    return check


def positive(key):
    """metrics[key] must be a positive count (the bench did real work)."""
    def check(metrics):
        if int(metrics.get(key, 0)) <= 0:
            return [f"{key} is {metrics.get(key, 0)} — the bench did no work"]
        return []
    return check


def lane_duel(metrics):
    """64-lane naive kernel vs traversal kernel: thread-count invariant,
    and fast enough. Both sides run on one thread, so the 3x floor holds
    on single-core runners too and is not clamped."""
    deterministic = flag(
        "lane_deterministic",
        "64-lane naive scores diverged between 1 and 4 threads")
    fast_enough = floor("lane_speedup", 3.0, strict=False)
    return deterministic(metrics) + fast_enough(metrics)


def open_loop_slo(metrics):
    """Anytime tail-latency SLO: p99 under half the mean blocking service
    time. On a single-core runner the service-time measurement itself is
    time-sliced, so the absolute ceiling is report-only there — the
    relative p99_ratio floor still gates."""
    if int(metrics.get("hardware_concurrency", 0)) <= 1:
        return []
    p99 = float(metrics.get("anytime_p99_s", float("inf")))
    slo = float(metrics.get("slo_p99_s", 0.0))
    if p99 > slo:
        return [f"anytime_p99_s {p99:.4g}s exceeds the slo_p99_s "
                f"{slo:.4g}s ceiling"]
    return []


BENCH_GATES = {
    "serve_topk": [
        flag("deterministic_output",
             "output diverged from the cache-off single-thread reference"),
        floor("cache_hit_rate", 0.5),
        floor("pruned_fraction", 0.3),
        # obs_overhead_ratio itself stays report-only (a timing ratio is
        # flaky on shared 1-core hosts) but it must exist and be sane —
        # a zero would mean the A/B never ran.
        floor("obs_overhead_ratio", 0.0),
    ],
    "ingest_updates": [
        flag("deterministic_output",
             "incremental output diverged from the from-scratch rebuild"),
        floor("preserved_hit_rate", 0.5),
        ceiling("touched_fraction_max", 0.10),
        positive("updates"),
    ],
    "api_server": [
        flag("deterministic_batch",
             "RunBatch output diverged from serial single-request execution"),
        flag("session_rebuild_identical",
             "live-session output diverged from the from-scratch rebuild"),
        flag("anytime_identical",
             "refined anytime ranking diverged from the blocking answer"),
        flag("tracing_identical",
             "ranking with tracing on diverged from tracing off — the "
             "zero-perturbation contract broke"),
        floor("metrics_exposed", 20, strict=False),
        positive("hist_queries"),
        floor("mixed_hit_rate", 0.5),
        positive("batch_requests"),
        positive("deltas"),
    ],
    "open_loop": [
        floor("p99_ratio", 5.0, strict=False),
        open_loop_slo,
        positive("deadline_rejections"),
        positive("arrivals"),
        positive("hist_queries"),
    ],
    "parallel_scaling": [
        flag("deterministic_across_threads",
             "thread-sweep output diverged across thread counts"),
        lane_duel,
    ],
    "fig7_mc_convergence": [
        lane_duel,
    ],
    "durability": [
        flag("recovery_identical",
             "warm-booted rankings diverged bitwise from the pre-kill "
             "server"),
        flag("hit_rate_preserved",
             "post-recovery cache hit rate drifted more than 0.05 from "
             "the pre-kill pass"),
        # Group-fsync append path: even a slow CI disk batches fsyncs,
        # so the raw WAL append rate has a real floor.
        floor("wal_appends_per_sec", 1000.0),
        positive("replayed_records"),
        positive("checkpoint_bytes"),
        positive("cache_entries_restored"),
    ],
}

# Benches whose `rows` reproduce a paper figure deterministically at the
# smoke scale: every row must equal the committed baseline's exactly, so
# a change that moves a reproduced number fails instead of passing as a
# timing blip. Refresh the baseline only for an intentional change.
EXACT_ROW_BENCHES = {
    "ablation_reductions": "reduction ablation removed fraction per rule set",
    "divergent_schema": "divergent-schema mean AP per method",
    "fig4_topologies": "Fig. 4 scores per topology and method",
    "fig5_ranking_quality": "Fig. 5 mean AP per scenario and method",
    "fig6_sensitivity": "Fig. 6 mean AP per scenario, method and sigma",
    "fig7_mc_convergence": "Fig. 7 mean AP per MC trial count",
    "table1_scenario1": "Table 1 ranks per protein",
    "table2_scenario2": "Table 2 midpoint rank per method",
    "table3_scenario3": "Table 3 midpoint rank per method",
    "theorem32_reducibility": "Theorem 3.2 reducibility per schema",
}


# Deterministic counts of benches whose rows carry timings (so the rows
# cannot gate exactly): each listed metric must equal the committed
# baseline's value. The ingest counts pin which answers every delta
# dirties and which cache keys it orphans.
EXACT_METRICS = {
    "ingest_updates": ("dirty_answers", "clean_answers", "stale_keys",
                       "invalidated_entries", "cache_entries",
                       "cache_invalidations", "preserved_hit_rate"),
    # How each candidate resolved (bounds, an exact kernel: the DAG sweep
    # or factoring within its budget, MC) and what the reducer leaves: a
    # kernel change that moves an exact outcome or a reduction result
    # moves one of these counts.
    "serve_topk": ("candidates", "bound_exact", "exact_resolutions",
                   "mc_resolutions", "mc_trials",
                   "irreducible_exact_resolutions",
                   "irreducible_mc_resolutions", "cache_entries"),
    "reduction_stats": ("mean_removed_fraction",),
}


def metrics_match(current_metrics, baseline_metrics, keys):
    """Failure strings for each listed metric that differs or is absent."""
    failures = []
    for key in keys:
        if key not in current_metrics or key not in baseline_metrics:
            failures.append(f"{key} is missing from the report or the "
                            f"baseline")
        elif current_metrics[key] != baseline_metrics[key]:
            failures.append(f"{key} is {current_metrics[key]}, the baseline "
                            f"has {baseline_metrics[key]}")
    return failures


def rows_match(current_rows, baseline_rows, what):
    """Failure strings for each way current_rows differ from the baseline."""
    if len(current_rows) != len(baseline_rows):
        return [f"{what}: {len(current_rows)} rows, the baseline has "
                f"{len(baseline_rows)}"]
    return [f"{what}: row {i} is {cur}, the baseline has {base}"
            for i, (cur, base) in enumerate(zip(current_rows, baseline_rows))
            if cur != base]


# Headline metrics worth a column when both sides have them.
TRACKED_METRICS = ("cache_hit_rate", "pruned_fraction", "trials_per_sec",
                   "preserved_hit_rate", "update_latency_ms_mean",
                   "mixed_hit_rate", "batch_s_mean", "lane_speedup",
                   "p99_ratio", "anytime_p99_s",
                   "queue_s_total", "anytime_refine_s",
                   "obs_overhead_ratio", "hist_p50_ms", "hist_p99_ms",
                   "metrics_exposed", "recovery_seconds",
                   "wal_appends_per_sec", "checkpoint_mb_per_sec")


# --- Metrics-shape gate (METRICS_*.prom dumps) --------------------------
#
# bench_api_server dumps its server's full Prometheus exposition next to
# the JSON reports. This gate owns the *shape* of that surface: every
# family name obeys the biorank_<layer>_<name> grammar (layer in
# api/serve/ingest/storage), counters end in _total, histograms end in
# _seconds and carry a complete cumulative _bucket series (with +Inf)
# plus _sum and _count, and the api_server dump is wide enough (>= 20
# families, >= 3 histograms) that a silently shrunken registry fails CI
# instead of rotting.

METRIC_NAME_RE = re.compile(
    r"^biorank_(api|serve|ingest|storage)(_[a-z0-9]+)+$")
SAMPLE_LINE_RE = re.compile(
    r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})? (-?[0-9].*|[+-]?Inf|NaN)$")


def check_metrics_dump(path: Path):
    """Validates one Prometheus text dump; returns failure strings."""
    failures = []
    types = {}          # family -> counter|gauge|histogram
    sample_names = set()
    bucket_les = {}     # histogram family -> set of le labels seen
    suffixed = set()    # histogram families with _sum / _count seen
    for line_number, line in enumerate(path.read_text().splitlines(), 1):
        if not line or line.startswith("# HELP"):
            continue
        if line.startswith("# TYPE"):
            parts = line.split()
            if len(parts) != 4:
                failures.append(f"line {line_number}: malformed TYPE line")
                continue
            types[parts[2]] = parts[3]
            continue
        match = SAMPLE_LINE_RE.match(line)
        if not match:
            failures.append(f"line {line_number}: not a metric sample: "
                            f"{line[:60]!r}")
            continue
        name, labels = match.group(1), match.group(2)
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in types:
                base = name[:-len(suffix)]
                if suffix == "_bucket":
                    le = re.search(r'le="([^"]*)"', labels or "")
                    bucket_les.setdefault(base, set()).add(
                        le.group(1) if le else "")
                else:
                    suffixed.add(base)
                break
        sample_names.add(base)
        if not METRIC_NAME_RE.match(base):
            failures.append(
                f"line {line_number}: {base} violates the "
                f"biorank_<layer>_<name> grammar")
    for family, kind in types.items():
        if family not in sample_names:
            failures.append(f"{family}: TYPE declared but no samples")
        if kind == "counter" and not family.endswith("_total"):
            failures.append(f"{family}: counter must end in _total")
        if kind == "histogram":
            if not family.endswith("_seconds"):
                failures.append(f"{family}: histogram must end in _seconds")
            les = bucket_les.get(family, set())
            if "+Inf" not in les:
                failures.append(f"{family}: no le=\"+Inf\" bucket")
            if family not in suffixed:
                failures.append(f"{family}: missing _sum/_count series")
        if kind == "gauge" and family.endswith("_total"):
            failures.append(f"{family}: gauge must not end in _total")
    return failures, types


def check_metrics_shape(run_dir: Path, current):
    failures = []
    dumps = sorted(run_dir.glob("METRICS_*.prom"))
    if "api_server" in current and not any(
            d.name == "METRICS_api_server.prom" for d in dumps):
        failures.append("api_server: BENCH_api_server.json exists but "
                        "METRICS_api_server.prom was not dumped")
    for dump in dumps:
        dump_failures, types = check_metrics_dump(dump)
        failures.extend(f"{dump.name}: {f}" for f in dump_failures)
        if dump.name == "METRICS_api_server.prom" and not dump_failures:
            histograms = sum(1 for kind in types.values()
                             if kind == "histogram")
            if len(types) < 20:
                failures.append(
                    f"{dump.name}: only {len(types)} metric families "
                    f"(>= 20 required across api/serve/ingest)")
            if histograms < 3:
                failures.append(
                    f"{dump.name}: only {histograms} latency histograms "
                    f"(>= 3 required)")
    return failures


def load_reports(directory: Path):
    reports = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        with open(path) as f:
            data = json.load(f)
        reports[data.get("bench", path.stem)] = data
    return reports


def fmt(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("run_dir", type=Path,
                        help="directory holding the fresh BENCH_*.json")
    parser.add_argument("--baselines", type=Path,
                        default=Path(__file__).parent / "baselines")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when wall_time_s exceeds baseline by this")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="ignore wall-time ratios when either side is "
                             "below this (noise floor)")
    args = parser.parse_args()

    current = load_reports(args.run_dir)
    baseline = load_reports(args.baselines)
    if not baseline:
        print(f"error: no baselines found under {args.baselines}",
              file=sys.stderr)
        return 2

    failures = []
    warnings = []
    lines = [
        "## Perf trend vs committed baselines",
        "",
        f"(wall-time gate: >{args.max_ratio:g}x regression fails; "
        f"timings under {args.min_seconds:g}s never gate)",
        "",
        "| bench | baseline s | current s | ratio | metric deltas | gate |",
        "|---|---|---|---|---|---|",
    ]

    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        cur = current.get(name)
        if cur is None:
            if name in OPTIONAL_BENCHES:
                lines.append(f"| {name} | {fmt(base['wall_time_s'])} | "
                             f"missing (optional) | - | - | skipped |")
            else:
                failures.append(f"{name}: bench produced no report")
                lines.append(f"| {name} | {fmt(base['wall_time_s'])} | "
                             f"MISSING | - | - | **FAIL** |")
            continue
        if base is None:
            warnings.append(
                f"{name}: no committed baseline under bench/baselines/ — "
                f"commit this run's BENCH_{name}.json with the bench")
            lines.append(f"| {name} | new | {fmt(cur['wall_time_s'])} | - | "
                         f"- | warn (no baseline) |")
            continue

        base_s = float(base.get("wall_time_s", 0.0))
        cur_s = float(cur.get("wall_time_s", 0.0))
        # Gate whenever the *current* run is above the noise floor; a
        # sub-floor baseline must not exempt a bench from the gate (it
        # could regress unboundedly otherwise). The ratio denominator is
        # floored so tiny baselines do not inflate it.
        gated = cur_s >= args.min_seconds
        denominator = max(base_s, args.min_seconds)
        ratio = cur_s / denominator if denominator > 0 else float("inf")
        verdict = "ok"
        if gated and ratio > args.max_ratio:
            verdict = "**FAIL**"
            failures.append(
                f"{name}: wall_time_s {cur_s:.3f}s is {ratio:.2f}x the "
                f"baseline {base_s:.3f}s (max {args.max_ratio:g}x)")
        elif not gated:
            verdict = "ok (noise floor)"

        deltas = []
        base_metrics = base.get("metrics", {})
        cur_metrics = cur.get("metrics", {})
        for key in TRACKED_METRICS:
            if key in base_metrics and key in cur_metrics:
                deltas.append(
                    f"{key}: {fmt(base_metrics[key])} -> "
                    f"{fmt(cur_metrics[key])}")
        lines.append(f"| {name} | {base_s:.3f} | {cur_s:.3f} | {ratio:.2f}x "
                     f"| {'; '.join(deltas) or '-'} | {verdict} |")

    for name, checkers in sorted(BENCH_GATES.items()):
        report = current.get(name)
        if report is None:
            continue
        metrics = report.get("metrics", {})
        for checker in checkers:
            failures.extend(f"{name}: {failure}"
                            for failure in checker(metrics))

    for name, what in sorted(EXACT_ROW_BENCHES.items()):
        if name in current and name in baseline:
            failures.extend(
                f"{name}: {failure}" for failure in rows_match(
                    current[name].get("rows", []),
                    baseline[name].get("rows", []), what))

    for name, keys in sorted(EXACT_METRICS.items()):
        if name in current and name in baseline:
            failures.extend(
                f"{name}: {failure}" for failure in metrics_match(
                    current[name].get("metrics", {}),
                    baseline[name].get("metrics", {}), keys))

    failures.extend(check_metrics_shape(args.run_dir, current))

    lines.append("")
    if warnings:
        lines.append("### Warnings (non-fatal)")
        lines.extend(f"- {w}" for w in warnings)
        lines.append("")
    if failures:
        lines.append("### Failures")
        lines.extend(f"- {f}" for f in failures)
    else:
        lines.append("All benches within the gate.")

    table = "\n".join(lines) + "\n"
    print(table)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as f:
            f.write(table)

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
