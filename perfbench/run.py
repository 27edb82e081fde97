#!/usr/bin/env python3
"""Repository benchmark: host cost of regenerating the HiRA figures.

Run from the repository root:

    python3 perfbench/run.py --workload periodic_capacity --seed 1 \
        --seconds 35 --trace 0

Workloads are periodic_capacity (the Fig. 9 grid), para_nrh (the Fig. 12
grid) and chip_characterize (the Table 1 / Fig. 4-5 pipeline); see
perfbench/README.md. The first call builds hira_perfbench from ../src
with CMake into $CARGO_TARGET_DIR (default .bench_build).

One repetition is one hira_perfbench process that submits the whole
workload once and exits (a closed batch on nproc threads). The script
runs one untimed warm-up repetition, then repeats it until --seconds
have passed and reports medians over the repetitions. Between
repetitions it times a fixed calibration kernel and reports end-to-end
times scaled to a host that runs that kernel in CALIB_REF_S seconds, so
that drift in the speed of a shared host moves them less.
--trace 0 prints the end-to-end metrics of BENCHMARK.json;
--trace 1 alternates untraced repetitions with traced ones
(HIRA_METRICS=full, HIRA_TRACE_EVENTS=<file>) and prints the per-layer
metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

WORKLOADS = ("periodic_capacity", "para_nrh", "chip_characterize")
MIN_REPS = 3

# The calibration kernel's typical time on the reference host (4 threads
# on 4 vCPUs of an Intel Xeon, where the benchmark was tuned), and the
# checksum that a complete run of the kernel gives on every host.
CALIB_REF_S = 0.2
CALIB_CHECKSUM = "0000831feaed60f4"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build hira_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        sys.exit(2)
    os.makedirs(build_dir, exist_ok=True)
    logfile = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "hira_perfbench", "-j", str(os.cpu_count() or 1)])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
                log("perfbench: build failed; see " + logfile)
                sys.exit(2)
    return os.path.join(build_dir, "hira_perfbench")


def child_env(trace_file=None):
    """The caller's environment with every HIRA_* knob cleared, so no
    result cache, corpus, standard, kernel or metrics selection leaks
    in; a traced repetition then turns on metrics and event tracing."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HIRA_")}
    if trace_file:
        env["HIRA_METRICS"] = "full"
        env["HIRA_TRACE_EVENTS"] = trace_file
    return env


def calibrate(exe):
    """Seconds the calibration kernel takes now."""
    out = subprocess.run([exe, "--workload", "calibrate"], env=child_env(),
                         stdout=subprocess.PIPE, check=True).stdout
    result = json.loads(out.decode().strip().splitlines()[-1])
    if result["checksum"] != CALIB_CHECKSUM:
        log("perfbench: calibration checksum %s, expected %s"
            % (result["checksum"], CALIB_CHECKSUM))
        sys.exit(1)
    return result["calib_s"]


def run_rep(exe, args, build_dir, index, traced):
    """One repetition: returns the child's JSON plus process wall time,
    CPU time and peak RSS measured from outside."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed)]
    stem = os.path.join(build_dir, "runs",
                        "%s-%d-%d" % (args.workload, args.seed, index))
    trace_file = stem + ".trace.json" if traced else None
    with open(stem + ".out", "w") as out, open(stem + ".err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                env=child_env(trace_file))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        log("perfbench: %s exited with %d; stderr in %s.err"
            % (" ".join(cmd), code, stem))
        sys.exit(1)
    with open(stem + ".out") as f:
        rep = json.loads(f.read().strip().splitlines()[-1])
    rep["wall_s"] = wall
    rep["cpu_s"] = usage.ru_utime + usage.ru_stime
    rep["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    rep["traced"] = traced
    if traced:
        rep["trace"] = parse_trace(trace_file)
        os.remove(trace_file)
    return rep


def parse_trace(path):
    """Spans of one traced repetition: the bench's own B/E spans around
    library calls, the kernel's warmup/measure spans, and the sweep
    pool's X slices (with their queue_wait_us)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {}  # name -> [(start_us, end_us)]
    open_spans = {}  # (tid, name) -> [start_us]
    slices = []  # (start_us, dur_us, queue_wait_us)
    for e in events:
        ph = e.get("ph")
        if ph == "X" and e.get("cat") == "sweep":
            slices.append((e["ts"], e["dur"],
                           e.get("args", {}).get("queue_wait_us", 0.0)))
        elif ph == "B":
            open_spans.setdefault((e["tid"], e["name"]), []).append(e["ts"])
        elif ph == "E":
            start = open_spans[(e["tid"], e["name"])].pop()
            spans.setdefault(e["name"], []).append((start, e["ts"]))
    return {"spans": spans, "slices": slices}


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def total(metrics, pattern):
    """Sum of every merged simulator metric whose name matches."""
    rx = re.compile(pattern)
    return sum(v for k, v in metrics.items() if rx.fullmatch(k) and v)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(rep):
    """Host times of one repetition, scaled to the reference host by the
    calibration times taken just before and after it."""
    ops = rep["sims"] if "sims" in rep else rep["tested_rows"]
    scale = CALIB_REF_S / rep["calib_s"]
    return {
        "wall_s": rep["wall_s"] * scale,
        "cpu_s": rep["cpu_s"] * scale,
        "setup_s": rep["setup_s"] * scale,
        "peak_rss_mb": rep["peak_rss_mb"],
        "ops_per_s": ops / (rep["measure_s"] * scale),
    }


def sim_layers(rep):
    """experiment / sim / mem / core metrics of one traced sweep rep."""
    m = rep["metrics"]
    tr = rep["trace"]
    spans = tr["spans"]
    (rp_start, rp_end), = spans["runPoints"]
    slices = tr["slices"]
    sim_ms = [d / 1e3 for _, d, _ in slices]
    alone_ms = [(e - s) / 1e3 for s, e in spans.get("aloneIpc", [])]
    busy = sum(d for _, d, _ in slices) / 1e6

    def in_sweep(name):
        return sum(e - s for s, e in spans.get(name, [])
                   if s >= rp_start) / 1e6

    warm, meas = in_sweep("warmup"), in_sweep("measure")
    cycles = total(m, r"kernel\.simulated_cycles")
    executed = total(m, r"kernel\.executed_cycles")
    cpu_cycles = total(m, r"core\d+\.cpu_cycles")
    retired = total(m, r"core\d+\.retired")
    reads = total(m, r"ctrl\d+\.reads_served")
    row_hits = total(m, r"ctrl\d+\.row_hits")
    row_all = row_hits + total(m, r"ctrl\d+\.row_(misses|conflicts)")
    llc_hits = total(m, r"llc\.hits")
    row_refreshes = total(m, r"ctrl\d+\.scheme\.row_refreshes")
    generated = total(m, r"ctrl\d+\.scheme\.preventive_generated")
    access_paired = total(m, r"ctrl\d+\.scheme\.access_paired")
    refresh_paired = total(m, r"ctrl\d+\.scheme\.refresh_paired")
    return {
        "experiment.points": rep["points"],
        "experiment.sims": rep["sims"],
        "experiment.alone_runs": rep["alone_runs"],
        "experiment.alone_p50_ms": percentile(alone_ms, 50),
        "experiment.alone_p90_ms": percentile(alone_ms, 90),
        "experiment.sim_p50_ms": percentile(sim_ms, 50),
        "experiment.sim_p90_ms": percentile(sim_ms, 90),
        "experiment.busy_s": busy,
        "experiment.queue_wait_s": sum(w for _, _, w in slices) / 1e6,
        "experiment.pool_util":
            busy / (rep["threads"] * (rp_end - rp_start) / 1e6),
        "experiment.tail_s": (max(s + d for s, d, _ in slices)
                              - max(s for s, _, _ in slices)) / 1e6,
        "sim.kernel.construct_s": busy - warm - meas,
        "sim.kernel.warmup_s": warm,
        "sim.kernel.measure_s": meas,
        "sim.kernel.warmup_frac": ratio(warm, warm + meas),
        "sim.kernel.executed_frac": ratio(executed, cycles),
        "sim.kernel.ctrl_ticks_per_cycle":
            ratio(total(m, r"kernel\.ctrl_ticks"), cycles),
        "sim.kernel.heap_rekeys_per_cycle":
            ratio(total(m, r"kernel\.heap_rekeys"), cycles),
        "sim.kernel.heap_lowers_per_cycle":
            ratio(total(m, r"kernel\.heap_lowers"), cycles),
        "sim.kernel.llc_stall_skips": total(m, r"kernel\.llc_stall_skips"),
        "sim.kernel.skip_len_mean":
            ratio(total(m, r"kernel\.skip_len\.sum"),
                  total(m, r"kernel\.skip_len\.count")),
        "sim.kernel.host_ns_per_executed_cycle": ratio(meas * 1e9, executed),
        "sim.core.retired_minsts": retired / 1e6,
        "sim.core.stall_frac":
            ratio(total(m, r"core\d+\.stall_cycles"), cpu_cycles),
        "sim.core.ff_ticks_frac":
            ratio(total(m, r"core\d+\.ff_ticks"), cpu_cycles),
        "sim.core.sim_minsts_per_cpu_s": ratio(retired / 1e6, meas),
        "sim.cache.hit_ratio":
            ratio(llc_hits, llc_hits + total(m, r"llc\.misses")),
        "sim.cache.mshr_merges": total(m, r"llc\.mshr_merges"),
        "sim.cache.blocked": total(m, r"llc\.blocked"),
        "mem.controller.reads_served": reads,
        "mem.controller.writes_served": total(m, r"ctrl\d+\.writes_served"),
        "mem.controller.rejected_requests":
            total(m, r"ctrl\d+\.rejected_requests"),
        "mem.controller.row_hit_ratio": ratio(row_hits, row_all),
        "mem.controller.row_conflicts": total(m, r"ctrl\d+\.row_conflicts"),
        "mem.controller.wake_recomputes_per_executed_cycle":
            ratio(total(m, r"ctrl\d+\.wake_recomputes"), executed),
        "mem.controller.wake_enqueue_lowers":
            total(m, r"ctrl\d+\.wake_enqueue_lowers"),
        "mem.controller.read_q_depth_mean":
            ratio(total(m, r"ctrl\d+\.read_q_depth\.sum"),
                  total(m, r"ctrl\d+\.read_q_depth\.count")),
        "mem.controller.avg_read_latency_cycles":
            ratio(total(m, r"ctrl\d+\.read_latency_sum"), reads),
        "mem.controller.cmd_act": total(m, r"ctrl\d+\.cmd\.act"),
        "mem.controller.cmd_pre": total(m, r"ctrl\d+\.cmd\.pre"),
        "mem.controller.cmd_ref": total(m, r"ctrl\d+\.cmd\.ref"),
        "mem.controller.cmd_hira": total(m, r"ctrl\d+\.cmd\.hira"),
        "mem.refresh.ref_commands":
            total(m, r"ctrl\d+\.scheme\.ref_commands"),
        "mem.refresh.row_refreshes": row_refreshes,
        "mem.refresh.preventive_generated": generated,
        "mem.refresh.preventive_drop_ratio":
            ratio(total(m, r"ctrl\d+\.scheme\.preventive_dropped"),
                  generated),
        "mem.refresh.deadline_miss_ratio":
            ratio(total(m, r"ctrl\d+\.scheme\.deadline_misses"),
                  row_refreshes),
        "mem.refresh.host_overhead_frac": rep["host_overhead_frac"],
        "core.hira_mc.paired_ratio":
            ratio(access_paired + refresh_paired, row_refreshes),
        "core.hira_mc.access_paired": access_paired,
        "core.hira_mc.refresh_paired": refresh_paired,
        "core.hira_mc.standalone": total(m, r"ctrl\d+\.scheme\.standalone"),
        "core.hira_mc.pr_fifo_depth_mean":
            ratio(total(m, r"ctrl\d+\.scheme\.pr_fifo_depth\.sum"),
                  total(m, r"ctrl\d+\.scheme\.pr_fifo_depth\.count")),
        "core.hira_mc.refptr_resets":
            total(m, r"ctrl\d+\.scheme\.refptr_resets"),
    }


def chip_layers(rep):
    """chip / characterize metrics of one traced characterization rep."""
    spans = rep["trace"]["spans"]

    def span_s(name):
        return sum(e - s for s, e in spans.get(name, [])) / 1e6

    coverage = span_s("measureCoverage")
    return {
        "chip.construct_s": span_s("DramChip"),
        "characterize.coverage_s": coverage,
        "characterize.threshold_s": span_s("measureNormalizedNrh"),
        "characterize.pair_tests": rep["pair_tests"],
        "characterize.us_per_pair_test":
            ratio(coverage * 1e6, rep["pair_tests"]),
    }


def per_layer(untraced, traced, names):
    """Median over traced repetitions of every per-layer metric; layers
    the workload bypasses read 0."""
    samples = {}
    for rep in traced:
        layers = sim_layers(rep) if "sims" in rep else chip_layers(rep)
        for k, v in layers.items():
            samples.setdefault(k, []).append(v)
    values = {k: statistics.median(v) for k, v in samples.items()}
    if "sims" in untraced[0]:
        values["sweep_mcycles_per_s"] = statistics.median(
            r["sim_cycles"] / r["measure_s"] / 1e6 for r in untraced)
        values["sim_mcycles_per_cpu_s"] = statistics.median(
            r["sim_cycles"] / r["busy_s"] / 1e6 for r in untraced)
    values["bench.calib_s"] = statistics.median(
        r["calib_s"] for r in untraced + traced)
    values["bench.trace_overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced) - 1.0)
    return {n: values.get(n, 0.0) for n in names}


def report(args, reps, spec_metrics, values, correct, problems,
           attempted, failed):
    """Human-readable summary on stdout, ahead of the JSON line."""
    first = reps[0]
    print("perfbench %s  seed=%d  nproc=%d threads=%d  build=%s  rev=%s"
          % (args.workload, args.seed, first["nproc"], first["threads"],
             first["build_type"], first["git_rev"]))
    print("knobs: %s  repetitions=%d (%d traced) after one warm-up"
          % (first["knobs"], len(reps), sum(r["traced"] for r in reps)))
    print("calibration: median %.4f s, reference %.3f s; end-to-end times "
          "are scaled by reference / calibration"
          % (statistics.median(r["calib_s"] for r in reps), CALIB_REF_S))
    print("outputs (simulated / modelled; unvalidated model, checked "
          "not gated):")
    outputs = dict(first["outputs"])
    modules = outputs.pop("modules", {})
    for k, v in outputs.items():
        print("  %-32s %s" % (k, v))
    for label, vals in modules.items():
        print("  %-12s %s" % (label, ", ".join(
            "%s=%.4g" % kv for kv in vals.items())))
    print("digest %s   failed_frac %.4g (%d of %d operations)   "
          "checks: %s" % (first["digest"], ratio(failed, attempted), failed,
                          attempted, "PASS" if correct else "FAIL"))
    for p in problems:
        print("  check failed: " + p)
    n = sum(r["traced"] == bool(args.trace) for r in reps)
    for spec in spec_metrics:
        print("  %-52s %14.6g %-9s (n=%d)"
              % (spec["name"], values[spec["name"]], spec["unit"], n))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    exe = build(build_dir)
    os.makedirs(os.path.join(build_dir, "runs"), exist_ok=True)

    # An untimed warm-up repetition, checked like the others; then
    # untraced repetitions (alternating with traced ones under --trace 1)
    # until the measuring time is used up. The run stops when less than
    # half a repetition's time is left, so that it ends near the deadline.
    warmup = run_rep(exe, args, build_dir, 0, False)
    reps = []
    calib = calibrate(exe)
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = run_rep(exe, args, build_dir, len(reps) + 1, traced)
        after = calibrate(exe)
        rep["calib_s"] = 0.5 * (calib + after)
        calib = after
        reps.append(rep)
        elapsed = time.monotonic() - start
        enough = (sum(not r["traced"] for r in reps) >= MIN_REPS
                  and sum(r["traced"] for r in reps)
                  >= (MIN_REPS if args.trace else 0))
        if enough and elapsed * (1 + 0.5 / len(reps)) >= args.seconds:
            break
    checked = [warmup] + reps

    problems = [m for r in checked for m in r["failures"]]
    digests = {r["digest"] for r in checked}
    if len(digests) != 1:
        problems.append("digest differs between repetitions: "
                        + " ".join(sorted(digests)))
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    correct = not problems and failed == 0

    untraced = [r for r in reps if not r["traced"]]
    if args.trace:
        spec_metrics = spec["per_layer"]
        values = per_layer(untraced, [r for r in reps if r["traced"]],
                           [m["name"] for m in spec_metrics])
    else:
        spec_metrics = spec["end_to_end"]
        samples = [end_to_end(r) for r in untraced]
        values = {m["name"]: statistics.median(s[m["name"]] for s in samples)
                  for m in spec_metrics}
    report(args, reps, spec_metrics, values, correct, problems,
           attempted, failed)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]}
                    for m in spec_metrics},
    }))


if __name__ == "__main__":
    main()
