#!/usr/bin/env python3
"""simbench: end-to-end benchmark of the ViReC simulator.

    python3 simbench/run.py --workload paper_grid --seed 0 --seconds 20 --trace 0

Builds the driver (simbench/driver.cpp) against libvirec into
.bench_build/, then runs repetitions of one workload -- each in a fresh
driver process -- until --seconds have been spent, checks every point
against the reference digests in simbench/digests.json, and prints the
metrics by name with their units. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics: layer counts,
span totals, the self-time split of the timed phase and the tracing
overhead (traced vs untraced wall time).

Other modes:
    --record      re-record simbench/digests.json for every workload seed
    --self-test   show that a perturbed digest or result is caught

See simbench/README.md for the workloads, metrics and layer map.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "simbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "simbench"
DRIVER = BUILD / "simbench_driver"
DIGESTS = BENCH / "digests.json"
BUILD_TYPE = "Release"

WORKLOADS = ("paper_grid", "sampled_grid", "nmp16", "store_warm")
# The benchmark seed picks one of these workload seeds (WorkloadParams
# seed), each with recorded reference digests. Seed 0 -> 42 is the
# workloads' default; seed 1 -> 43 is the held-out seed.
WSEED_BASE = 42
WSEED_COUNT = 16
DRIVER_TIMEOUT_S = 170

# Span names of the timed phase (self-time split).
SELF_SPANS = ("sim.point", "sim.build", "sim.run", "bench.collect",
              "tiered.run", "svc.service", "svc.submit")
CPI_BUCKETS = ("commit", "pipeline", "decode_fill", "frontend_wait",
               "mispredict_redirect", "switch_overhead", "switch_no_target",
               "switch_masked", "mem_data", "mem_reg", "mem_mshr", "sq_full",
               "idle", "fast_forward")
COUNT_METRICS = (["cpu.instructions", "cpu.core_cycles", "cpu.context_switches"]
                 + ["cpu.cpi." + b for b in CPI_BUCKETS]
                 + ["core.rf_hits", "core.rf_misses", "core.bsi_fills",
                    "core.bsi_spills", "core.csl_sysreg_prefetches",
                    "mem.dcache_accesses", "mem.dcache_misses",
                    "mem.dram_reads", "mem.dram_writes",
                    "mem.dram_row_conflicts", "mem.xbar_transfers",
                    "mem.xbar_contention_cycles"])

END_TO_END_UNITS = {
    "wall_s": "s", "points_per_s": "1/s", "sim_mips": "MIPS", "cpu_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "point_p50_us": "us",
    "point_p99_us": "us", "ipc_accuracy_pct": "%",
}


def wseed_of(seed):
    return WSEED_BASE + seed % WSEED_COUNT


def die(msg):
    print("simbench: " + msg, file=sys.stderr)
    sys.exit(1)


# ------------------------------------------------------------------ build

def build():
    """Configure (once) and build the driver; exit 1 on failure."""
    BUILD_ROOT.mkdir(exist_ok=True)
    log = BUILD_ROOT / "build.log"
    steps = []
    if not (BUILD / "Makefile").exists():  # written by a successful configure
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "simbench_driver", "-j", "4"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                tail = log.read_text().splitlines()[-20:]
                die("build failed (" + str(log) + "):\n" + "\n".join(tail))


# ------------------------------------------------------------ repetitions

def run_rep(workload, wseed, traced):
    """One repetition in a fresh driver process; returns its report."""
    tmp_root = BUILD_ROOT / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    trace_dir = BUILD_ROOT / "traces"
    trace_dir.mkdir(exist_ok=True)
    cmd = [str(DRIVER), "--workload", workload, "--wseed", str(wseed),
           "--trace", "1" if traced else "0", "--tmp", tmp,
           "--trace-out", str(trace_dir / f"{workload}-w{wseed}.json")]
    try:
        t_spawn = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        die(f"driver failed on {workload} (exit {proc.returncode}):\n"
            + proc.stderr[-2000:])
    rep = json.loads(proc.stdout)
    # Set-up = launch of the fresh process to the start of the timed
    # phase (both stamps are CLOCK_MONOTONIC).
    rep["setup_s"] = rep["t_ready"] - t_spawn
    return rep


def run_reps(workload, wseed, seconds, traced):
    """Repetitions until --seconds are spent (at least one; in trace
    mode at least one untraced/traced pair, alternating)."""
    reps = []
    start = time.monotonic()
    durations = []
    while True:
        t = time.monotonic()
        tracing = traced and len(reps) % 2 == 1
        reps.append(run_rep(workload, wseed, tracing))
        durations.append(time.monotonic() - t)
        need_pair = traced and len(reps) % 2 == 1
        elapsed = time.monotonic() - start
        if not need_pair and elapsed + statistics.median(durations) > seconds:
            return reps


# ------------------------------------------------------------- checking

def digest(point):
    """Reference digest of one point: cycles, instructions, CPI stack
    and, for sampled points, the IPC estimate (doubles by bit pattern)."""
    text = "%d|%d|%s" % (point["cycles"], point["instructions"],
                         ",".join(float(c).hex() for c in point["cpi"]))
    if point["est_ipc"] >= 0:
        text += "|" + float(point["est_ipc"]).hex()
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_refs():
    if not DIGESTS.exists():
        die("missing " + str(DIGESTS) + " (run with --record)")
    return json.loads(DIGESTS.read_text())


def check_points(workload, wseed, points, refs):
    """Failures (one string per failing point) against the references."""
    ref = refs["digests"].get(workload, {}).get(str(wseed))
    if ref is None:
        return [f"{workload}: no reference digests for workload seed {wseed}"]
    failures = []
    seen = set()
    for p in points:
        seen.add(p["label"])
        want = ref.get(p["label"])
        if want is None:
            failures.append(p["label"] + ": no reference digest")
        elif digest(p) != want:
            failures.append(p["label"] + ": digest " + digest(p) + " != " + want)
    failures += [label + ": point missing" for label in sorted(set(ref) - seen)]
    return failures


def sample_err_pct(points, refs, wseed):
    """Mean |est_ipc - full_ipc| / full_ipc over a sampled grid, against
    the recorded full-model IPC of the same spec (in percent)."""
    full = refs["full_ipc"][str(wseed)]
    errs = [abs(p["est_ipc"] - full[p["label"]]) / full[p["label"]]
            for p in points]
    return 100.0 * statistics.fmean(errs)


# --------------------------------------------------------------- metrics

def percentile(values, q):
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(rep, refs):
    """End-to-end metrics of one untraced repetition."""
    n_points = len(rep["latencies_us"])
    wall = rep["wall_s"]
    insts = rep["counts"].get("cpu.instructions",
                              rep["counts"].get("cpu.instructions_served", 0))
    accuracy = 100.0
    if rep["workload"] == "sampled_grid":
        accuracy -= sample_err_pct(rep["points"], refs, rep["wseed"])
    return {
        "wall_s": wall,
        "points_per_s": n_points / wall,
        "sim_mips": insts / wall / 1e6,
        "cpu_s": rep["cpu_s"],
        "setup_s": rep["setup_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "point_p50_us": percentile(rep["latencies_us"], 50),
        "point_p99_us": percentile(rep["latencies_us"], 99),
        "ipc_accuracy_pct": accuracy,
    }


def per_layer(rep, refs):
    """Per-layer metrics of one traced repetition."""
    spans = rep["spans"]
    total = spans["timed"]["total_s"]
    counts = rep["counts"]
    m = {name: float(counts.get(name, 0.0)) for name in COUNT_METRICS}
    run_s = total.get("sim.run", 0.0)
    m["sim.build_s"] = total.get("sim.build", 0.0)
    m["sim.run_s"] = run_s
    m["sim.ns_per_inst"] = (1e9 * run_s / m["cpu.instructions"]
                            if run_s and m["cpu.instructions"] else 0.0)
    m["sim.ns_per_core_cycle"] = (1e9 * run_s / m["cpu.core_cycles"]
                                  if run_s and m["cpu.core_cycles"] else 0.0)
    m["sim.skip_efficiency"] = max(rep["skip_efficiency"], 0.0)
    m["sim.pool_busy_frac"] = (total.get("sim.point", 0.0)
                               / (rep["lanes"] * rep["wall_s"]))
    m["sim.longest_point_s"] = spans["timed"]["longest_s"].get("sim.point", 0.0)
    m["tiered.run_s"] = total.get("tiered.run", 0.0)
    m["tiered.functional_s"] = counts.get("tiered.functional_s", 0.0)
    m["tiered.detailed_s"] = counts.get("tiered.detailed_s", 0.0)
    insts_total = counts.get("tiered.insts_total", 0.0)
    m["tiered.detailed_inst_frac"] = (counts.get("tiered.insts_detailed", 0.0)
                                      / insts_total if insts_total else 0.0)
    m["tiered.stream_builds"] = float(rep["stream"]["built"])
    m["tiered.stream_mem_hits"] = float(rep["stream"]["mem_hits"])
    sampled = rep["workload"] == "sampled_grid"
    m["tiered.ci_half_pct"] = (statistics.fmean(p["ci_half_pct"]
                                                for p in rep["points"])
                               if sampled else 0.0)
    m["tiered.sample_err_pct"] = (sample_err_pct(rep["points"], refs,
                                                 rep["wseed"])
                                  if sampled else 0.0)
    probe_s, probe_n = spans["probe"]["total_s"], spans["probe"]["calls"]

    def per_call_us(name):
        return 1e6 * probe_s[name] / probe_n[name] if probe_n.get(name) else 0.0

    m["svc.lookup_us"] = per_call_us("svc.lookup")
    m["ckpt.spec_hash_us"] = per_call_us("ckpt.spec_hash")
    m["svc.submit_s"] = total.get("svc.submit", 0.0)
    m["svc.put_s"] = spans["setup"]["total_s"].get("svc.put", 0.0)
    return m


def self_split(rep):
    """Self time per span (wall-equivalent) + unattributed == wall."""
    split = {"self." + name + "_s": rep["spans"]["self_s"].get(name, 0.0)
             for name in SELF_SPANS}
    split["self.unattributed_s"] = rep["spans"]["unattributed_s"]
    return split


def sim_counts(rep):
    """Simulated counts that tracing must not change."""
    keys = [k for k in rep["counts"] if not k.startswith("tiered.")
            or k.startswith("tiered.insts")]
    return {k: rep["counts"][k] for k in keys}


def medians(rows):
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def end_to_end_summary(rows):
    """Means over the untraced repetitions; set-up time is their median.

    Host speed on a shared machine switches between a fast and a slow
    level every few seconds. A median of per-repetition values jumps
    from one level to the other as their mix nears one half; a mean
    moves in proportion to the mix, so repeated runs agree more closely.
    """
    summary = {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}
    summary["setup_s"] = statistics.median(r["setup_s"] for r in rows)
    return summary


# ------------------------------------------------------------------ main

def measure(workload, seed, seconds, traced):
    refs = load_refs()
    wseed = wseed_of(seed)
    reps = run_reps(workload, wseed, seconds, traced)
    attempted = sum(r["attempted"] for r in reps)
    failures = [e for r in reps for e in r["errors"]]
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        bad = check_points(workload, wseed, r["points"], refs)
        failed += len(bad)
        failures += bad
    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    for t in traced_reps:
        for p in plain:
            attempted += 1
            if sim_counts(t) != sim_counts(p):
                failed += 1
                failures.append("traced repetition's simulated counts differ")
    e2e = end_to_end_summary([end_to_end(r, refs) for r in plain])

    first = reps[0]
    print(f"simbench {workload}: seed {seed} (workload seed {wseed}), "
          f"{len(plain)} untraced + {len(traced_reps)} traced repetitions, "
          f"{first['build_type']} build, {first['compiler']}, "
          f"{os.cpu_count()} CPUs, {platform.node()}")
    print(f"  ops_failed_frac {failed / attempted:.6g} "
          f"({failed} of {attempted} point operations failed)")
    for f in failures[:10]:
        print("  FAIL " + f)
    if workload == "sampled_grid":
        print("  sample_err_pct %.4f %% (vs recorded full-model IPC)"
              % (100.0 - e2e["ipc_accuracy_pct"]))
    n_lat = len(first["latencies_us"])
    print(f"  end-to-end (mean of {len(plain)} repetitions, setup_s median; "
          f"point percentiles over {n_lat} points each):")
    for name, value in e2e.items():
        print(f"    {name:<18} {value:.6g} {END_TO_END_UNITS[name]}")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in e2e.items()}

    if traced:
        layer = medians([per_layer(r, refs) for r in traced_reps])
        # Split of the traced repetition with the median wall time.
        mid = sorted(traced_reps, key=lambda r: r["wall_s"])[
            (len(traced_reps) - 1) // 2]
        split = self_split(mid)
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in traced_reps)
        layer["trace.wall_s"] = mid["wall_s"]
        layer["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
        layer.update(split)
        print(f"  timed phase {mid['wall_s']:.4f} s split by span self time"
              f" ({mid['lanes']} lane(s)):")
        for name, value in split.items():
            print(f"    {name:<26} {value:.6f} s")
        print(f"    {'sum':<26} {sum(split.values()):.6f} s")
        print(f"  tracing overhead {layer['trace.overhead_pct']:.2f} % "
              f"(traced {traced_wall:.4f} s vs untraced {plain_wall:.4f} s)")
        print("  per-layer (median of traced repetitions):")
        for name, value in layer.items():
            print(f"    {name:<30} {value:.6g} {layer_unit(name)}")
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in layer.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def layer_unit(name):
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_frac") or name == "sim.skip_efficiency":
        return "ratio"
    for suffix, unit in (("_us", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    if name.startswith("sim.ns_per"):
        return "ns"
    if name.startswith("cpu.cpi.") or name == "cpu.core_cycles":
        return "cycles"
    return "count"


def record():
    """Re-record the reference digests for every workload seed."""
    refs = {"digests": {w: {} for w in WORKLOADS}, "full_ipc": {}}
    for wseed in range(WSEED_BASE, WSEED_BASE + WSEED_COUNT):
        for workload in WORKLOADS:
            rep = run_rep(workload, wseed, False)
            if rep["failed"]:
                die(f"{workload} w{wseed} failed: {rep['errors']}")
            refs["digests"][workload][str(wseed)] = {
                p["label"]: digest(p) for p in rep["points"]}
            if workload == "paper_grid":
                refs["full_ipc"][str(wseed)] = {
                    p["label"]: p["ipc"] for p in rep["points"]}
        print(f"recorded workload seed {wseed}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def self_test():
    """A perturbed reference digest and a perturbed result are caught."""
    refs = load_refs()
    workload, wseed = "nmp16", wseed_of(0)
    rep = run_rep(workload, wseed, False)
    points = rep["points"]
    assert rep["failed"] == 0, rep["errors"]
    assert check_points(workload, wseed, points, refs) == [], "clean run failed"

    bad_refs = json.loads(json.dumps(refs))
    table = bad_refs["digests"][workload][str(wseed)]
    label = sorted(table)[0]
    table[label] = ("0" if table[label][0] != "0" else "1") + table[label][1:]
    caught = check_points(workload, wseed, points, bad_refs)
    assert len(caught) == 1 and caught[0].startswith(label), caught

    bad_points = json.loads(json.dumps(points))
    bad_points[-1]["cpi"][0] += 1.0
    caught = check_points(workload, wseed, bad_points, refs)
    assert len(caught) == 1 and caught[0].startswith(points[-1]["label"]), caught
    print("self-test OK: perturbed digest and perturbed result both caught")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    build()
    if args.record:
        record()
    elif args.self_test:
        self_test()
    elif args.workload is None:
        ap.error("--workload is required")
    else:
        measure(args.workload, args.seed, args.seconds, args.trace == 1)


if __name__ == "__main__":
    main()
