#!/usr/bin/env python3
"""Campaign benchmark: builds campaign_bench, runs one workload, checks its
outputs and prints its metrics.

    python3 perfbench/run.py --workload paper_fleet --seed 20231024 \
        --seconds 25 --trace 0

Run it from the repository root. The first run configures and builds
perfbench/campaign_bench.cpp and the library under .bench_build/. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: --trace 0 gives the end-to-end metrics of untraced
iterations, --trace 1 the per-layer split of a traced run. A wrong
output (a report checksum or an exact work counter that moved) prints
"correct": false and exits 1. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
PINS_PATH = HERE / "pins.json"

WORKLOADS = ("paper_fleet", "population_spill", "warm_replay")
DEFAULT_SEED = 20231024
# Pinned like the default seed but never used while tuning a change: a
# claimed gain must also hold on it.
HELD_OUT_SEED = 20240521
BUILD_JOBS = 3
BENCH_TIMEOUT_S = 170

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

# Untraced runs: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
# Printed with the end-to-end metrics but not reported as metrics: they
# are 0 on every workload, and the result line carries them as
# attempted/failed.
FAILURE_FRACTIONS = ("failed_job_frac", "failed_visit_frac")

# The layers, in pipeline order. core.ingest runs inside core.campaign
# and has no span of its own, so it reports counters only.
LAYERS = (
    "core.fleet",
    "core.framework",
    "core.campaign",
    "core.ingest",
    "analysis.index",
    "core.cache",
    "core.merge",
    "analysis.export",
)
TIMED_LAYERS = tuple(layer for layer in LAYERS if layer != "core.ingest")

# Traced runs: name -> unit.
PER_LAYER = {
    "core.framework.build_s": "s",
    "core.framework.build_share": "1",
    "core.campaign.crawl_s": "s",
    "core.campaign.idle_s": "s",
    "core.campaign.visit_p50_ms": "ms",
    "core.campaign.visits": "count",
    "proxy.flows": "count",
    "proxy.request_bytes": "B",
    "proxy.response_bytes": "B",
    "proxy.flows_stored": "count",
    "core.ingest.flows_pushed": "count",
    "core.ingest.spill_segments": "count",
    "core.ingest.spill_bytes": "B",
    "core.ingest.stalls": "count",
    "core.ingest.flows_lost": "count",
    "analysis.index.build_s": "s",
    "analysis.index.builds": "count",
    "analysis.index.indexed_flows": "count",
    "analysis.index.append_s": "s",
    "analysis.index.deserialize_s": "s",
    "core.cache.write_s": "s",
    "core.cache.writes": "count",
    "core.cache.bytes": "B",
    "core.cache.read_s": "s",
    "core.cache.hits": "count",
    "core.merge.merge_shards_s": "s",
    "analysis.export.fleet_report_json_s": "s",
    "analysis.export.fleet_summary_csv_s": "s",
    "analysis.export.uid_smuggling_json_s": "s",
    "analysis.export.report_bytes": "B",
    "core.fleet.run_s": "s",
    "core.fleet.job_p50_ms": "ms",
    "core.fleet.job_p90_ms": "ms",
    "core.fleet.worker_idle_s": "s",
    "device.population.generate_s": "s",
    "core.fleet.plan_s": "s",
    "obs.trace_overhead_frac": "1",
    "obs.spans": "count",
    "obs.attributed_frac": "1",
}
PER_LAYER.update({f"{layer}.wall_share": "1" for layer in TIMED_LAYERS})

# Counters that are exact functions of the plan: they must repeat across
# iterations, traced or not, at any worker count, and match the pins.
EXACT_COUNTERS = (
    "core.fleet.jobs",
    "core.fleet.quarantined",
    "core.campaign.visits",
    "core.campaign.idle_ticks",
    "proxy.flows",
    "proxy.request_bytes",
    "proxy.response_bytes",
    "proxy.flows_stored",
    "core.ingest.flows_pushed",
    "core.ingest.spill_segments",
    "core.ingest.spill_bytes",
    "core.ingest.stalls",
    "core.ingest.flows_lost",
    "analysis.index.builds",
    "analysis.index.indexed_flows",
    "analysis.index.appends",
    "core.cache.hits",
    "core.cache.misses",
    "core.cache.writes",
    "analysis.export.report_bytes",
)


# --- statistics -------------------------------------------------------


def quantile(values, q):
    """Nearest-rank quantile, the fleet executor's own definition:
    the element at rank round(q * (n - 1)) of the sorted values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    q = min(max(q, 0.0), 1.0)
    return ordered[int(q * (len(ordered) - 1) + 0.5)]


def spread(values):
    """Distance between the first and third quartile as a share of the
    median, with quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


# --- spans ------------------------------------------------------------


def layer_of(span_name):
    """The layer a span's self time belongs to."""
    if span_name in ("bench.fleet_run", "fleet.run", "fleet.run_serial"):
        return "core.fleet"
    if span_name == "fleet.job":
        return "core.framework"
    if span_name.startswith("campaign."):
        return "core.campaign"
    if span_name.startswith("index."):
        return "analysis.index"
    if span_name == "bench.merge_shards":
        return "core.merge"
    if span_name.startswith(("bench.render.", "analysis.", "battery.")):
        return "analysis.export"
    return "other"


def self_times(spans):
    """Nests the spans of each thread by their intervals.

    `spans` holds [name, tid, start_ns, duration_ns]. Returns one dict
    per span with its name, tid, start, dur, its parent's name (None at
    top level) and its self time: its duration minus the part of it its
    direct children cover."""
    by_tid = defaultdict(list)
    for name, tid, start, dur in spans:
        by_tid[tid].append((start, -dur, name))
    out = []
    for tid, items in by_tid.items():
        items.sort()
        stack = []
        for start, neg_dur, name in items:
            dur = -neg_dur
            while stack and stack[-1]["end"] <= start:
                stack.pop()
            parent = stack[-1] if stack else None
            record = {
                "name": name,
                "tid": tid,
                "start": start,
                "dur": dur,
                "end": start + dur,
                "self": dur,
                "parent": parent["name"] if parent else None,
            }
            if parent:
                parent["self"] -= min(record["end"], parent["end"]) - start
            stack.append(record)
            out.append(record)
    for record in out:
        record["self"] = max(record["self"], 0)
    return out


def layer_split(iteration):
    """Per-layer self time, wall-clock share and calls of one traced
    iteration.

    Worker threads run in parallel, so a layer's worker self time counts
    toward the wall clock divided by the worker count; the main thread's
    time inside the fleet run is only the wait for the workers and is
    replaced by them. Worker time outside every span is snapshot I/O
    (the cache's own read/write timers, minus the index spans nested in
    it) or the executor's own: per-job overhead and idle workers."""
    records = self_times(iteration["spans"])
    main_tid = next(r["tid"] for r in records if r["name"] == "bench.fleet_run")
    run_ns = next(r["dur"] for r in records if r["name"] == "bench.fleet_run")
    workers = max(iteration["run_workers"], 1)
    main = defaultdict(float)
    worker = defaultdict(float)
    calls = Counter()
    worker_top_s = 0.0
    cache_nested_s = 0.0
    for r in records:
        layer = layer_of(r["name"])
        calls[layer] += 1
        seconds = r["self"] * 1e-9
        if r["tid"] == main_tid:
            if layer != "core.fleet":
                main[layer] += seconds
            continue
        worker[layer] += seconds
        if r["parent"] is None:
            worker_top_s += r["dur"] * 1e-9
            if r["name"] != "fleet.job":
                cache_nested_s += r["dur"] * 1e-9
    timers = iteration["timers"]
    cache_s = max(timers["core.cache.read_s"] + timers["core.cache.write_s"] - cache_nested_s, 0.0)
    worker["core.cache"] += cache_s
    calls["core.cache"] += sum(iteration["timer_calls"].values())
    worker["core.fleet"] += max(workers * run_ns * 1e-9 - worker_top_s - cache_s, 0.0)
    calls["core.fleet"] = len(iteration["job_seconds"])
    wall = iteration["wall_s"]
    split = {}
    for layer in set(main) | set(worker):
        wall_equivalent = main[layer] + worker[layer] / workers
        split[layer] = {
            "self_s": main[layer] + worker[layer],
            "share": wall_equivalent / wall if wall else 0.0,
            "calls": calls[layer],
        }
    return split, records


def per_layer_metrics(iteration, raw):
    """The per-layer metrics of one traced iteration."""
    split, records = layer_split(iteration)

    def total(name):
        return sum(r["dur"] for r in records if r["name"] == name) * 1e-9

    def self_total(name):
        return sum(r["self"] for r in records if r["name"] == name) * 1e-9

    counters = iteration["counters"]
    jobs_s = total("fleet.job")
    visits_ms = [r["dur"] * 1e-6 for r in records if r["name"] == "campaign.visit"]
    job_seconds = iteration["job_seconds"]
    m = {
        "core.framework.build_s": self_total("fleet.job"),
        "core.framework.build_share": self_total("fleet.job") / jobs_s if jobs_s else 0.0,
        "core.campaign.crawl_s": total("campaign.crawl"),
        "core.campaign.idle_s": total("campaign.idle"),
        "core.campaign.visit_p50_ms": quantile(visits_ms, 0.5),
        "analysis.index.build_s": total("index.build"),
        "analysis.index.append_s": total("index.append"),
        "analysis.index.deserialize_s": total("index.deserialize"),
        "core.cache.write_s": iteration["timers"]["core.cache.write_s"],
        "core.cache.read_s": iteration["timers"]["core.cache.read_s"],
        "core.merge.merge_shards_s": total("bench.merge_shards"),
        "analysis.export.fleet_report_json_s": total("bench.render.fleet_report_json"),
        "analysis.export.fleet_summary_csv_s": total("bench.render.fleet_summary_csv"),
        "analysis.export.uid_smuggling_json_s": total("bench.render.uid_smuggling_json"),
        "core.fleet.run_s": iteration["run_s"],
        "core.fleet.job_p50_ms": quantile(job_seconds, 0.5) * 1e3,
        "core.fleet.job_p90_ms": quantile(job_seconds, 0.9) * 1e3,
        "core.fleet.worker_idle_s": max(
            iteration["run_workers"] * iteration["run_s"] - sum(job_seconds), 0.0
        ),
        "device.population.generate_s": statistics.median(raw["setup"]["generate_s"]),
        "core.fleet.plan_s": statistics.median(raw["setup"]["plan_s"]),
        "obs.spans": len(records),
        "obs.attributed_frac": sum(v["share"] for v in split.values()),
    }
    for name in PER_LAYER:
        if name in counters:
            m[name] = counters[name]
    for layer in TIMED_LAYERS:
        m[f"{layer}.wall_share"] = split.get(layer, {}).get("share", 0.0)
    return m, split


# --- output checks ----------------------------------------------------


def check_run(raw, pins):
    """Every reason the run's outputs are wrong; empty when correct."""
    problems = []
    iterations = raw["iterations"]
    if not iterations:
        return ["no iterations ran"]
    first = iterations[0]
    for i, it in enumerate(iterations):
        label = f"iteration {i} ({'traced' if it['traced'] else 'untraced'}, {it['workers']} workers)"
        if it["merged_results"] != raw["expected_results"]:
            problems.append(f"{label}: {it['merged_results']} merged results, expected {raw['expected_results']}")
        if it["counters"].get("core.fleet.quarantined", 0):
            problems.append(f"{label}: quarantined jobs")
        if it["checksums"] != first["checksums"]:
            problems.append(f"{label}: report checksums differ from iteration 0")
        for name in EXACT_COUNTERS:
            if it["counters"].get(name) != first["counters"].get(name):
                problems.append(
                    f"{label}: counter {name} = {it['counters'].get(name)}, "
                    f"iteration 0 had {first['counters'].get(name)}"
                )
        if raw["cold_cache"] and (
            it["counters"]["core.cache.writes"] != it["planned_jobs"]
            or it["counters"]["core.cache.hits"] != 0
        ):
            problems.append(f"{label}: a cold cache must write every job and hit none")
        if raw["warm_cache"]:
            if it["counters"]["core.cache.hits"] != it["planned_jobs"]:
                problems.append(f"{label}: a warm cache must replay every job")
            if it["checksums"] != raw.get("prefill_checksums"):
                problems.append(f"{label}: replayed reports differ from the cold run that filled the cache")
        if raw["spill"] and not it["counters"]["core.ingest.spill_segments"]:
            problems.append(f"{label}: nothing spilled")
        if it["counters"].get("core.ingest.flows_lost", 0):
            problems.append(f"{label}: flows lost")
    problems += check_pins(raw["workload"], raw["seed"], first, pins)
    return problems


def check_pins(workload, seed, iteration, pins):
    """Compares one iteration's report checksums and exact counters with
    the pins for (workload, seed), if any. warm_replay must render the
    reports pinned for paper_fleet: replay may not change a byte."""
    problems = []
    seed_key = str(seed)
    pinned = pins.get(workload, {}).get(seed_key)
    if pinned:
        for name, value in pinned["reports"].items():
            if iteration["checksums"].get(name) != value:
                problems.append(f"report {name}: checksum {iteration['checksums'].get(name)}, pinned {value}")
        for name, value in pinned["counters"].items():
            if iteration["counters"].get(name) != value:
                problems.append(f"counter {name}: {iteration['counters'].get(name)}, pinned {value}")
    cold = pins.get("paper_fleet", {}).get(seed_key)
    if workload == "warm_replay" and cold and iteration["checksums"] != cold["reports"]:
        problems.append("warm_replay reports differ from the pinned paper_fleet reports")
    return problems


def pin_entry(iteration):
    return {
        "reports": dict(sorted(iteration["checksums"].items())),
        "counters": {name: iteration["counters"][name] for name in EXACT_COUNTERS},
    }


# --- machine ----------------------------------------------------------


def source_rev(root):
    """The git revision when the tree is a checkout, else a digest of
    the sources the benchmark builds."""
    git = root / ".git"
    head = git / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = git / name
        if loose.is_file():
            return loose.read_text().strip()
        packed = git / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
    digest = hashlib.sha1()
    for directory in ("src", "perfbench"):
        for path in sorted((root / directory).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


# --- running ----------------------------------------------------------


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_ROOT / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR)])
    steps.append(
        ["cmake", "--build", str(BUILD_DIR), "--target", "campaign_bench", "-j", str(BUILD_JOBS)]
    )
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log_path})")
    return BUILD_DIR / "campaign_bench"


def run_bench(binary, args, work_dir):
    out_path = work_dir / "raw.json"
    command = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(work_dir),
        "--out", str(out_path),
    ]
    # Its own process group, so stopping it also stops the child that
    # fills warm_replay's cache.
    try:
        with subprocess.Popen(command, start_new_session=True) as bench:
            try:
                returncode = bench.wait(timeout=BENCH_TIMEOUT_S)
            except BaseException:
                os.killpg(bench.pid, signal.SIGKILL)
                bench.wait()
                raise
    except subprocess.TimeoutExpired:
        fail(f"campaign_bench exceeded {BENCH_TIMEOUT_S}s")
    if returncode != 0:
        fail(f"campaign_bench exited with code {returncode}")
    return json.loads(out_path.read_text())


def end_to_end_metrics(raw):
    runs = [it for it in raw["iterations"] if not it["traced"] and it["workers"] == raw["workers"]]
    walls = [it["wall_s"] for it in runs]
    wall = statistics.median(walls)
    planned = runs[0]["planned_jobs"]
    visits = sum(it["visits_attempted"] for it in runs)
    metrics = {
        "wall_s": wall,
        "jobs_per_s": statistics.median(planned / w for w in walls),
        "cpu_s": statistics.median(it["cpu_s"] for it in runs),
        "peak_rss_mib": raw["peak_rss_kib"] / 1024.0,
        "setup_s": statistics.median(raw["setup"]["total_s"]) + raw["setup"]["prefill_s"],
    }
    info = {
        "failed_job_frac": sum(it["counters"]["core.fleet.quarantined"] for it in runs)
        / (planned * len(runs)),
        "failed_visit_frac": sum(it["visits_failed"] for it in runs) / visits if visits else 0.0,
        "wall_spread": spread(walls),
        "iterations": len(runs),
    }
    return metrics, info


def per_layer_run(raw):
    traced = [it for it in raw["iterations"] if it["traced"]]
    untraced = [it for it in raw["iterations"] if not it["traced"] and it["workers"] == raw["workers"]]
    samples = [per_layer_metrics(it, raw) for it in traced]
    # Counts are exact (check_run enforces it), so they need no median.
    metrics = {
        name: value if name in traced[0]["counters"] else statistics.median(m[name] for m, _ in samples)
        for name, value in samples[0][0].items()
    }
    metrics["obs.trace_overhead_frac"] = (
        statistics.median(it["wall_s"] for it in traced)
        / statistics.median(it["wall_s"] for it in untraced)
        - 1.0
    )
    middle = sorted(zip(traced, samples), key=lambda pair: pair[0]["wall_s"])[len(traced) // 2]
    return metrics, middle[0], middle[1][1]


def print_layer_table(iteration, split):
    wall = iteration["wall_s"]
    print(f"traced wall_s {wall:.3f} s, {iteration['run_workers']} workers")
    print(f"{'layer':<18} {'self_s':>10} {'share':>7} {'calls':>9}")
    attributed = 0.0
    for layer in LAYERS + ("other",):
        row = split.get(layer)
        if row is None:
            if layer == "core.ingest":
                print(f"{layer:<18} {'(inside core.campaign; counters only)':>28}")
            continue
        attributed += row["share"]
        print(f"{layer:<18} {row['self_s']:>10.3f} {row['share']:>6.1%} {row['calls']:>9}")
    print(f"{'unattributed':<18} {'':>10} {1 - attributed:>6.1%}")


def print_metrics(metrics, units):
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6g} {units.get(name, '1')}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-pins",
        action="store_true",
        help="record this run's report checksums and exact counters as the pins for its seed",
    )
    args = parser.parse_args(argv)

    binary = build()
    work_dir = BUILD_ROOT / "work" / f"{args.workload}-{time.time_ns()}"
    work_dir.mkdir(parents=True)
    try:
        raw = run_bench(binary, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.is_file() else {}
    if args.update_pins:
        pins.setdefault(args.workload, {})[str(args.seed)] = pin_entry(raw["iterations"][0])
        PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    problems = check_run(raw, pins)

    machine = dict(raw["machine"], git_rev=source_rev(ROOT))
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, {len(raw['iterations'])} iterations")
    if args.trace:
        metrics, iteration, split = per_layer_run(raw)
        print_layer_table(iteration, split)
        print_metrics(metrics, PER_LAYER)
    else:
        metrics, info = end_to_end_metrics(raw)
        print_metrics(metrics, END_TO_END)
        print_metrics({name: info[name] for name in FAILURE_FRACTIONS}, {})
        print(f"wall_s spread over {info['iterations']} iterations: {info['wall_spread']:.2%}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    attempted = sum(it["planned_jobs"] for it in raw["iterations"])
    failed = sum(it["counters"]["core.fleet.quarantined"] for it in raw["iterations"])
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
