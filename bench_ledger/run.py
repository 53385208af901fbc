#!/usr/bin/env python3
"""Builds and runs bench_ledger, the serving benchmark of the biorank stack.

One run, the form BENCHMARK.json's command takes (run from the repository
root; the last stdout line is the run's JSON result):

    python3 bench_ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, untraced (several seeds) and then traced, with a summary
table and one results file:

    python3 bench_ledger/run.py [--seconds S] [--repeat N]
                                [--workloads a,b] [--out results.json]

Two results files checked against BENCHMARK.json's bounds:

    python3 bench_ledger/run.py --compare parent.json change.json

The first use builds the benchmark from the repository's sources with
CMake into $CARGO_TARGET_DIR/bench_ledger (default .bench_build/).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
BUILD_JOBS = min(4, os.cpu_count() or 1)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BENCHMARK_KEYS = {"command", "paths", "run_seconds", "workloads",
                  "end_to_end", "per_layer"}


class BenchError(Exception):
    """A build, run or validation failure with a message for stderr."""


# --------------------------------------------------------------------------
# BENCHMARK.json
# --------------------------------------------------------------------------

def validate_benchmark(doc):
    """Problems with a BENCHMARK.json document's shape (empty if none)."""
    problems = []
    if not isinstance(doc, dict):
        return ["BENCHMARK.json is not an object"]
    if set(doc) != BENCHMARK_KEYS:
        problems.append(f"keys must be exactly {sorted(BENCHMARK_KEYS)}")
        return problems

    command = doc["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32 or
            not all(isinstance(c, str) and len(c) <= 200 for c in command)):
        problems.append("command must be 1-32 strings of <= 200 characters")
    else:
        for c in command:
            if c.startswith("/") or ".." in Path(c).parts:
                problems.append(f"command argument {c!r} leaves the checkout")

    paths = doc["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        problems.append("paths must list 1-16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or not PATH_RE.match(p) or
                    p.startswith("/") or ".." in Path(p).parts):
                problems.append(f"bad path {p!r}")

    seconds = doc["run_seconds"]
    if not isinstance(seconds, int) or isinstance(seconds, bool) or \
            not 1 <= seconds <= 60:
        problems.append("run_seconds must be a whole number in [1, 60]")

    names = set()

    def check_names(kind, items, keys, lo, hi):
        if not isinstance(items, list) or not lo <= len(items) <= hi:
            problems.append(f"{kind} must list {lo}-{hi} entries")
            return []
        for item in items:
            if not isinstance(item, dict) or set(item) != keys:
                problems.append(f"{kind} entries need exactly {sorted(keys)}")
                continue
            name = item["name"]
            if not isinstance(name, str) or not NAME_RE.match(name):
                problems.append(f"bad {kind} name {name!r}")
            elif name in names:
                problems.append(f"name {name!r} is used twice")
            names.add(name)
        return [i for i in items if isinstance(i, dict) and set(i) == keys]

    for w in check_names("workloads", doc["workloads"], {"name", "why"}, 2, 8):
        why = w["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or \
                "\n" in why:
            problems.append(f"workload {w['name']!r}: why must be one line "
                            "of <= 200 characters")
    metric_keys = {"name", "unit", "better"}
    e2e = check_names("end_to_end", doc["end_to_end"],
                      metric_keys | {"bound"}, 1, 16)
    layer = check_names("per_layer", doc["per_layer"], metric_keys, 1, 128)
    for m in e2e + layer:
        if not isinstance(m["unit"], str) or not UNIT_RE.match(m["unit"]):
            problems.append(f"metric {m['name']!r}: bad unit {m['unit']!r}")
        if m["better"] not in ("lower", "higher"):
            problems.append(f"metric {m['name']!r}: better must be "
                            "'lower' or 'higher'")
    for m in e2e:
        bound = m["bound"]
        if not isinstance(bound, (int, float)) or isinstance(bound, bool) or \
                not 0 < bound <= 0.25:
            problems.append(f"metric {m['name']!r}: bound must be in (0, 0.25]")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif any(m["bound"] > setup[0]["bound"] for m in e2e):
        problems.append("setup_s must carry the largest bound")
    if len(json.dumps(doc)) > 64 * 1024:
        problems.append("BENCHMARK.json exceeds 64 KiB")
    return problems


def load_benchmark(path=BENCHMARK_JSON):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")
    problems = validate_benchmark(doc)
    if problems:
        raise BenchError(f"{path}: " + "; ".join(problems))
    return doc


# --------------------------------------------------------------------------
# Building and running one workload.
# --------------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR")
    base = Path(base) if base else ROOT / ".bench_build"
    return base.resolve() / "bench_ledger"


def ensure_built():
    """Configures (once) and builds the benchmark; returns the binary."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", str(BUILD_JOBS)])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(step)}")
    binary = out / "bench_ledger"
    if not binary.exists():
        raise BenchError(f"build produced no {binary}")
    return binary


def parse_output(stdout):
    """(result, detail) from a run's stdout: the last line is the result,
    the 'ledger-detail' line carries sample counts and MADs."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise BenchError("the run printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"the last line is not JSON: {lines[-1][:200]}")
    detail = {}
    for line in lines:
        if line.startswith("ledger-detail "):
            detail = json.loads(line[len("ledger-detail "):])
    return result, detail


def validate_result(result, benchmark, trace):
    """Problems with one run's result line (empty if none)."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys must be exactly {sorted(RESULT_KEYS)}"]
    problems = []
    if result["correct"] is not True:
        problems.append("correctness checks failed")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("no operation was attempted")
    if isinstance(result["failed"], int) and result["failed"] != 0:
        problems.append(f"{result['failed']} operations failed")
    expected = benchmark["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    metrics = result["metrics"] if isinstance(result["metrics"], dict) else {}
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        problems.append(f"metrics differ from BENCHMARK.json "
                        f"(missing {missing}, extra {extra})")
    for name, m in metrics.items():
        if name in units and m.get("unit") != units[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, "
                            f"expected {units[name]!r}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (returncode, stdout, stderr)."""
    work_dir = build_dir().parent / "work"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(work_dir)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 124, "", f"bench_ledger: {workload} exceeded {RUN_TIMEOUT_S} s\n"
    return done.returncode, done.stdout, done.stderr


# --------------------------------------------------------------------------
# Spreads and comparisons.
# --------------------------------------------------------------------------

def spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles(values, n=4)); 0 for a single value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else float("inf")


def worsening(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`
    (negative when it is better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def compare_metric(parent_values, change_values, better, bound):
    """Verdict for one metric on one workload: 'ok', 'regression',
    'better' or 'unresolved'. A pair whose run-to-run spread exceeds the
    bound cannot show a regression of that size, so it is unresolved
    unless every change run beats every parent run."""
    beats = (lambda c, p: c < p) if better == "lower" else \
        (lambda c, p: c > p)
    if max(spread(parent_values), spread(change_values)) > bound:
        if all(beats(c, p) for c in change_values for p in parent_values):
            return "better"
        return "unresolved"
    worse = worsening(statistics.median(parent_values),
                      statistics.median(change_values), better)
    if worse > bound:
        return "regression"
    return "better" if -worse > bound else "ok"


def untraced_values(results):
    """{workload: {metric: [values across seeds]}} of untraced runs."""
    values = {}
    for run in results["runs"]:
        if run["trace"] or run.get("result") is None:
            continue
        per = values.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return values


def run_problems(results):
    """Runs in a results file that failed, diverged or were invalid."""
    return [f"{r['workload']} seed {r['seed']}"
            f"{' traced' if r['trace'] else ''}: {'; '.join(r['problems'])}"
            for r in results["runs"] if r["problems"]]


def compare(parent, change, benchmark):
    """Prints the comparison table; returns the number of pairs that are
    regressions or unresolved (plus invalid runs)."""
    bad = 0
    for problem in run_problems(parent) + run_problems(change):
        print(f"invalid run: {problem}")
        bad += 1
    a, b = untraced_values(parent), untraced_values(change)
    print(f"{'workload':24} {'metric':18} {'parent':>12} {'change':>12} "
          f"{'worse':>8} {'bound':>6} {'spread':>7}  verdict")
    for w in benchmark["workloads"]:
        for m in benchmark["end_to_end"]:
            pa = a.get(w["name"], {}).get(m["name"], [])
            pb = b.get(w["name"], {}).get(m["name"], [])
            if not pa or not pb:
                print(f"{w['name']:24} {m['name']:18} missing")
                bad += 1
                continue
            verdict = compare_metric(pa, pb, m["better"], m["bound"])
            ma, mb = statistics.median(pa), statistics.median(pb)
            print(f"{w['name']:24} {m['name']:18} {ma:12.5g} {mb:12.5g} "
                  f"{worsening(ma, mb, m['better']):+8.3f} {m['bound']:6.2f} "
                  f"{max(spread(pa), spread(pb)):7.3f}  {verdict}")
            if verdict in ("regression", "unresolved"):
                bad += 1
    return bad


# --------------------------------------------------------------------------
# Every workload in one command.
# --------------------------------------------------------------------------

def summarize(results, benchmark):
    units = {m["name"]: m["unit"]
             for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    for w in benchmark["workloads"]:
        runs = [r for r in results["runs"]
                if r["workload"] == w["name"] and r.get("result")]
        untraced = [r for r in runs if not r["trace"]]
        traced = [r for r in runs if r["trace"]]
        print(f"\n== {w['name']}: {w['why']}")
        if untraced:
            print(f"   end to end, median over {len(untraced)} seeds "
                  "(samples and MAD are per run, median across runs):")
            for m in benchmark["end_to_end"]:
                vals = [r["result"]["metrics"][m["name"]]["value"]
                        for r in untraced]
                det = [r["detail"].get(m["name"], {}) for r in untraced]
                samples = statistics.median(d.get("samples", 0) for d in det)
                mads = [d["mad"] for d in det if d.get("mad") is not None]
                mad = f"{statistics.median(mads):.4g}" if mads else "-"
                print(f"   {m['name']:28} {statistics.median(vals):12.5g} "
                      f"{m['unit']:8} n={samples:<8g} mad={mad:10} "
                      f"spread={spread(vals):.3f}")
        for r in traced:
            metrics = r["result"]["metrics"]
            print(f"   ledger (seed {r['seed']}, one client, one thread): "
                  f"coverage {metrics['ledger.coverage']['value']:.3f} of "
                  f"{metrics['ledger.server_ms']['value']:.4g} ms per op")
            for name, m in metrics.items():
                if name.endswith(".share"):
                    if m["value"] >= 0.0005:
                        print(f"     {name[:-6]:26} {100 * m['value']:7.2f}% "
                              "of the server's time")
            for name, m in metrics.items():
                if not name.endswith(".share") and \
                        not name.startswith("ledger."):
                    print(f"     {name:26} {m['value']:12.5g} {units[name]}")


def drive(args, benchmark):
    binary = ensure_built()
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = sorted(set(wanted) - set(names))
        if unknown:
            raise BenchError(f"unknown workloads {unknown}")
        names = [n for n in names if n in wanted]
    seconds = args.seconds or benchmark["run_seconds"]
    results = {"seconds": seconds, "runs": []}
    plan = [(n, seed, False) for n in names
            for seed in range(1, args.repeat + 1)]
    plan += [(n, 1, True) for n in names]
    for workload, seed, trace in plan:
        started = time.monotonic()
        code, stdout, stderr = run_workload(binary, workload, seed, seconds,
                                            trace)
        run = {"workload": workload, "seed": seed, "trace": trace,
               "exit": code, "result": None, "detail": {}, "problems": []}
        if code != 0:
            run["problems"].append(f"exit code {code}: "
                                   f"{stderr.strip()[-300:]}")
        else:
            try:
                run["result"], run["detail"] = parse_output(stdout)
                run["problems"] = validate_result(run["result"], benchmark,
                                                  trace)
            except BenchError as e:
                run["problems"].append(str(e))
        notes = [line for line in stderr.splitlines()
                 if line.startswith(("note:", "CHECK FAILED"))]
        print(f"{workload} seed {seed}{' traced' if trace else ''}: "
              f"{'ok' if not run['problems'] else 'FAILED'} "
              f"({time.monotonic() - started:.1f} s)", flush=True)
        for line in notes + run["problems"]:
            print(f"    {line}", flush=True)
        results["runs"].append(run)
    summarize(results, benchmark)
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults written to {out}")
    problems = run_problems(results)
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload (one JSON line)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--repeat", type=int, default=3,
                        help="all-workload mode: untraced seeds per workload")
    parser.add_argument("--workloads",
                        help="all-workload mode: comma-separated")
    parser.add_argument("--out", default="bench_ledger_results.json",
                        help="all-workload mode: results file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    try:
        benchmark = load_benchmark()
        if args.compare:
            parent, change = (json.loads(Path(p).read_text())
                              for p in args.compare)
            bad = compare(parent, change, benchmark)
            print(f"\n{bad} regressions, unresolved pairs or invalid runs")
            return 1 if bad else 0
        if args.workload is None:
            return drive(args, benchmark)
        binary = ensure_built()
        seconds = args.seconds or benchmark["run_seconds"]
        code, stdout, stderr = run_workload(binary, args.workload, args.seed,
                                            seconds, args.trace == "1")
        sys.stderr.write(stderr)
        if code != 0:
            return code
        sys.stdout.write(stdout)
        return 0
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
