#!/usr/bin/env python3
"""The repository benchmark: times one mrmsim workload and checks its outputs.

    python3 mrmbench/run.py --workload serve_hbm --seed 1 --seconds 55 --trace 0

Builds mrmbench/ (and the mrmsim libraries it links) into .bench_build/, or
into $CARGO_TARGET_DIR when that is set, then runs the workload's
repetitions, one process each, for about --seconds. Every repetition's
modelled outputs must be identical to the first one's and to the recorded
reference for the seed (reference.json), and its work must lie inside its
timer. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics over the repetitions (SUMMARY says
how), with host seconds scaled to a fixed host speed that the host-speed probe
(probe.cc), run before every repetition, measures. --trace 1 alternates untraced and traced repetitions; its result line
holds the per-layer metrics every workload measures (PER_LAYER, medians over
the traced repetitions) and trace.overhead_frac, and the lines above it the
metrics of the layers only this workload exercises (DETAIL). README.md has
the workloads, the metrics and the reasons for each.

    python3 mrmbench/run.py --record 0-31     # re-record reference.json
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("serve_hbm", "mrm_aging")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # reserved for confirming a claimed gain; never tune on it

REP_TIMEOUT_S = 100  # one repetition; the slowest takes about 5 s
PROBE_TIMEOUT_S = 20  # one probe; it takes about 0.3 s
MEASURE_LIMIT_S = 150  # every repetition of a run ends by then (the run must end by 180 s)
MIN_REPS = {0: 3, 1: 4}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# How a run summarises its repetitions. wall_s and setup_s are means, i.e. the
# run's host seconds over its repetitions: a shared host's speed steps between
# levels that last seconds, so a repetition lands in one level, and a median
# flips between the levels where a mean moves with the share of repetitions in
# each (README.md, "Noise").
SUMMARY = {"wall_s": statistics.fmean, "setup_s": statistics.fmean,
           "peak_rss_mb": statistics.median}
# Host seconds are reported at the host speed at which the probe takes this
# long: a run's means are multiplied by PROBE_NOMINAL_S over the mean of the
# probes run between its repetitions, which cancels the host's minute-scale
# drift (README.md, "Noise").
SCALED = ("wall_s", "setup_s")
PROBE_NOMINAL_S = 0.25

# The per-layer metrics of a traced run's result line (BENCHMARK.json's
# per_layer): the ones every workload measures.
PER_LAYER = {
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "trace.overhead_frac": "ratio",
}

# The per-layer metrics of the layers only one workload exercises (README.md,
# "Per-layer metrics"). A traced run prints them and saves them with the run,
# but leaves them out of its result line: the other workload does no work in
# those layers, so it has no value for them.
DETAIL = {
    "serve_hbm": {
        "sim.epochs": "count",
        "sim.dispatches": "count",
        "sim.epochs_per_dispatch": "ratio",
        "sim.rebalances": "count",
        "mem.requests": "count",
        "mem.row_hit_rate": "ratio",
        "mem.refreshes": "count",
        "mem.ns_per_request": "ns",
        "workload.steps": "count",
        "workload.tokens": "count",
        "workload.self_s": "s",
        "driver.construct_s": "s",
        "driver.submit_s": "s",
        "driver.step_ms_p50": "ms",
        "driver.step_ms_tail": "ms",
        "driver.step_ms_tail_pct": "%",
        "driver.step_ms_samples": "count",
        "driver.dram_segments": "count",
    },
    "mrm_aging": {
        "sim.self_s": "s",
        "mrm.appends": "count",
        "mrm.blocks_read": "count",
        "mrm.scrub_rewrites": "count",
        "mrm.deadline_evals": "count",
        "mrm.max_safe_age_us": "us",
        "mrm.append_us_p50": "us",
        "mrm.append_us_tail": "us",
        "mrm.append_us_tail_pct": "%",
        "mrm.append_us_samples": "count",
        "mrm.read_issue_us_p50": "us",
        "mrm.self_s": "s",
        "fault.injected": "count",
        "fault.resolved": "count",
        "mrm.zones_retired": "count",
        "snapshot.saves": "count",
        "snapshot.bytes": "B",
        "snapshot.save_ms_p50": "ms",
        "snapshot.load_ms": "ms",
        "snapshot.self_s": "s",
    },
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(*targets):
    """Configures (once) and builds `targets` (by default the benchmark and
    its probe); returns the path of the first or None."""
    targets = targets or ("mrmbench", "mrmbench_probe")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("mrmbench: no mrmsim sources (src/) next to the benchmark; nothing to build")
        return None
    build_dir = os.path.join(build_root(), "mrmbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    # One target per step: the first may regenerate the build system, after
    # which a target added to CMakeLists.txt is known.
    steps += [["cmake", "--build", build_dir, "--target", t, "-j", jobs] for t in targets]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("mrmbench: build step failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, targets[0])


def run_probe(binary):
    """Host seconds of one run of the host-speed probe built beside `binary`,
    or None when it fails."""
    try:
        proc = subprocess.run([binary + "_probe"], capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        return float(json.loads(proc.stdout)["probe_s"]) if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired, ValueError, KeyError):
        return None


def run_rep(binary, workload, seed, trace_out=None, extra=(), timeout=REP_TIMEOUT_S):
    """Runs one repetition in its own process. Returns (record, error)."""
    scratch = os.path.join(build_root(), "runs")
    os.makedirs(scratch, exist_ok=True)
    args = [binary, f"--workload={workload}", f"--seed={seed}", *extra]
    checkpoints = None
    if workload == "mrm_aging":
        # A fresh, empty directory each time: the workload starts cold.
        checkpoints = tempfile.mkdtemp(prefix="ckpt-", dir=scratch)
        args.append(f"--checkpoint-dir={checkpoints}")
    if trace_out:
        args.append(f"--trace-out={trace_out}")
    try:
        proc = subprocess.run(args, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    finally:
        if checkpoints:
            shutil.rmtree(checkpoints, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"exit code {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "unparseable output"


def rep_errors(rep):
    """Checks one repetition's own consistency: its work lies inside its timer
    and its outputs obey the workload's invariants."""
    errors = []
    window = rep["window"]
    out = rep["outputs"]
    if window["units_after"] - window["units_before"] != window["reported_units"]:
        errors.append("reported work lies outside the timed window")
    if window["events_after"] <= window["events_before"]:
        errors.append("no simulator events inside the timed window")
    if rep["workload"] == "mrm_aging":
        if int(out["aging.days"]) != rep["ops"] + 1:  # one warm-up day before the timer
            errors.append("day count disagrees with ops")
        if int(out["aging.appends_ok"]) + int(out["aging.appends_failed"]) != window["units_after"]:
            errors.append("append count disagrees with the timer edges")
        if out["restore.ledgers_equal"] != "true":
            errors.append("restored checkpoint ledgers differ from the live stack")
        if out["aging.accounting_errors"] != "0":
            errors.append("control-plane accounting errors")
    else:
        if int(out["engine.steps"]) != window["reported_units"]:
            errors.append("engine steps disagree with the timer edges")
        if int(out["engine.requests"]) != rep["ops"]:
            errors.append("request count disagrees with ops")
        if int(out["engine.requests_completed"]) + int(out["engine.requests_rejected"]) != rep["ops"]:
            errors.append("requests neither completed nor rejected")
    return errors


def digest(outputs):
    canonical = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def reference_errors(workload, seed, outputs, reference):
    """Compares one repetition's outputs with the recorded reference. Returns
    (errors, note)."""
    entry = reference.get(workload, {})
    full = entry.get("outputs", {}).get(str(seed))
    if full is not None:
        if full == outputs:
            return [], f"equal to the recorded reference outputs for seed {seed}"
        keys = sorted(set(full) | set(outputs))
        diff = [k for k in keys if full.get(k) != outputs.get(k)]
        shown = ", ".join(f"{k}: {full.get(k)} -> {outputs.get(k)}" for k in diff[:5])
        return [f"{len(diff)} outputs differ from the reference ({shown})"], ""
    recorded = entry.get("digests", {}).get(str(seed))
    if recorded is not None:
        if recorded == digest(outputs):
            return [], f"equal to the recorded reference digest for seed {seed}"
        return ["outputs differ from the recorded reference digest"], ""
    return [], (f"no reference recorded for seed {seed}; checked repeatability "
                "and invariants only")


def evaluate(workload, seed, reps, failures, reference):
    """Verdict over one run. `reps` are the repetitions that produced a
    record, `failures` the error strings of those that did not. Any error
    fails every op of the run."""
    errors = list(failures)
    note = ""
    for i, rep in enumerate(reps):
        errors += [f"rep {i}: {e}" for e in rep_errors(rep)]
        if rep["outputs"] != reps[0]["outputs"]:
            errors.append(f"rep {i}: outputs differ from rep 0 (not repeatable)")
    if reps:
        ref_errors, note = reference_errors(workload, seed, reps[0]["outputs"], reference)
        errors += ref_errors
    ops_per_rep = reps[0]["ops"] if reps else 1
    attempted = max(1, sum(rep["ops"] for rep in reps) + ops_per_rep * len(failures))
    failed = attempted if errors else 0
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "errors": errors, "note": note}


def provenance(seed, reps):
    def git(*args):
        try:
            proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                                  timeout=10)
            return proc.stdout.strip() if proc.returncode == 0 else None
        except OSError:
            return None

    sha = git("rev-parse", "HEAD") or "unknown (not a git checkout)"
    dirty = git("status", "--porcelain", "--untracked-files=no")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    first = reps[0] if reps else {}
    return {
        "git_sha": sha,
        "git_dirty": None if dirty is None else bool(dirty),
        "build_type": first.get("build", {}).get("type"),
        "compiler": first.get("build", {}).get("compiler"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "sim_threads": first.get("sim_threads"),
        "seed": seed,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def measure(binary, workload, seed, seconds, trace):
    """Runs repetitions for about `seconds` (at least MIN_REPS): a repetition
    starts only if, at the median length so far, it would end less than half a
    repetition after `seconds`. With trace, odd repetitions are traced. The
    probe runs before every repetition and after the last.
    Returns (reps, failures, probes, trace_file)."""
    trace_dir = os.path.join(build_root(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, f"{workload}-seed{seed}.json")
    reps, failures, probes, lengths = [], [], [], []

    def probe():
        probe_s = run_probe(binary)
        if probe_s is None:
            failures.append("the host-speed probe failed")
        else:
            probes.append(probe_s)

    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        count = len(lengths)  # repetitions started
        expected = median(lengths)
        if ((count >= MIN_REPS[trace] and elapsed + expected / 2 >= seconds)
                or elapsed >= MEASURE_LIMIT_S):
            break
        probe()
        traced = trace == 1 and count % 2 == 1
        rep, error = run_rep(binary, workload, seed, trace_file if traced else None,
                             timeout=max(1.0, min(REP_TIMEOUT_S,
                                                  MEASURE_LIMIT_S - (time.monotonic() - start))))
        lengths.append(time.monotonic() - start - elapsed)
        if rep is not None:
            reps.append(rep)
        elif error.startswith("exit code 3"):  # the build refuses to be timed
            log("mrmbench: " + error)
            sys.exit(1)
        else:
            failures.append(f"rep {count}: {error}")
    probe()
    return reps, failures, probes, trace_file


def report(workload, seed, trace, reps, failures, probes, trace_file, verdict):
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    def layer(name, unit):
        return {"value": median([r["layers"][name] for r in traced]), "unit": unit}

    metrics, detail, host = {}, {}, {}
    if trace == 0 and untraced and probes:
        host["probe_s"] = statistics.fmean(probes)
        for name, unit in END_TO_END.items():
            value = SUMMARY[name]([r[name] for r in untraced])
            if name in SCALED:
                host[name] = value
                value *= PROBE_NOMINAL_S / host["probe_s"]
            metrics[name] = {"value": value, "unit": unit}
    elif trace == 1 and traced and untraced:
        wall = SUMMARY["wall_s"]
        overhead = wall([r["wall_s"] for r in traced]) / wall([r["wall_s"] for r in untraced])
        for name, unit in PER_LAYER.items():
            metrics[name] = ({"value": overhead - 1.0, "unit": unit}
                             if name == "trace.overhead_frac" else layer(name, unit))
        detail = {name: layer(name, unit) for name, unit in DETAIL[workload].items()}

    prov = provenance(seed, reps)
    print(f"mrmbench {workload} seed={seed} trace={trace}: {len(reps)} repetitions "
          f"({len(traced)} traced), {len(failures)} failed")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    if detail:
        print(f"  layers only {workload} exercises (not in the result line):")
    for name, metric in detail.items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    if host:
        print(f"  unscaled: wall_s {host['wall_s']:.6g} s, setup_s {host['setup_s']:.6g} s; "
              f"probe mean {host['probe_s']:.6g} s over {len(probes)} "
              f"(scaled to {PROBE_NOMINAL_S} s)")
    ops = verdict["attempted"]
    print(f"  {'ops':28s} {ops:>16d} (failed_ops {verdict['failed']})")
    status = "PASS" if verdict["correct"] else "FAIL"
    check = "; ".join(verdict["errors"][:5]) if verdict["errors"] else (
        f"outputs identical across {len(reps)} repetitions and {verdict['note']}")
    print(f"  exact check: {status}: {check}")
    if trace == 1:
        print(f"  span file: {trace_file}")
    print("  provenance: " + json.dumps(prov, sort_keys=True))

    results_dir = os.path.join(build_root(), "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{workload}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump({"workload": workload, "seed": seed, "trace": trace, "provenance": prov,
                   "verdict": verdict, "metrics": metrics, "layer_detail": detail,
                   "unscaled": host, "probes": probes, "repetitions": reps,
                   "failures": failures}, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": verdict["correct"], "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(binary, seeds):
    """Re-records reference.json: full outputs for the default and held-out
    seeds, a SHA-256 digest of the outputs for every other seed."""
    reference = {}
    for workload in WORKLOADS:
        entry = {"outputs": {}, "digests": {}}
        for seed in seeds:
            rep, error = run_rep(binary, workload, seed)
            if rep is None or rep_errors(rep):
                log(f"mrmbench: cannot record {workload} seed {seed}: "
                    f"{error or rep_errors(rep)}")
                return 1
            if seed in (DEFAULT_SEED, HELD_OUT_SEED):
                entry["outputs"][str(seed)] = rep["outputs"]
            entry["digests"][str(seed)] = digest(rep["outputs"])
            log(f"recorded {workload} seed {seed}")
        reference[workload] = entry
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="SEEDS",
                        help="re-record reference.json for SEEDS (e.g. 0-31) and exit")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    binary = build()
    if binary is None:
        return 1
    if args.record:
        return record(binary, parse_seeds(args.record))
    if args.workload is None:
        parser.error("--workload is required")

    reference = load_reference()
    reps, failures, probes, trace_file = measure(binary, args.workload, args.seed,
                                                 args.seconds, args.trace)
    verdict = evaluate(args.workload, args.seed, reps, failures, reference)
    report(args.workload, args.seed, args.trace, reps, failures, probes, trace_file, verdict)
    return 0


if __name__ == "__main__":
    sys.exit(main())
