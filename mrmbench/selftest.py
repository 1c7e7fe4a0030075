#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 mrmbench/selftest.py

Builds the benchmark and bench_aging_campaign, then checks that
  1. the same seed gives identical modelled outputs, traced or not;
  2. different seeds give different request mixes and fault schedules;
  3. a perturbed reference, or a crashed repetition, fails every op;
  4. serve_hbm's outputs are identical at 1 and 2 sim threads;
  5. mrm_aging reproduces `bench_aging_campaign --days=30 --fault-seed=S`
     metrics exactly;
  6. run.py's metric tables match BENCHMARK.json, a traced repetition reports
     every per-layer metric its workload exercises, and run.py's last line
     has exactly the keys correct, attempted, failed and metrics, with every
     end-to-end metric (--trace 0) or every per-layer metric of BENCHMARK.json
     (--trace 1, on each workload) in its unit;
  7. without the mrmsim sources the benchmark exits non-zero and prints no
     result.
Every repetition runs the workload at the size the benchmark times. Takes
about three minutes. Exits 0 when every check passes.
"""

import copy
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def rep_of(binary, workload, seed, *extra, traced=False):
    trace_out = os.path.join(run.build_root(), "traces", "selftest.json") if traced else None
    if trace_out:
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    rep, error = run.run_rep(binary, workload, seed, trace_out, extra=extra)
    assert rep is not None, f"{workload} seed {seed}: {error}"
    errors = run.rep_errors(rep)
    assert not errors, f"{workload} seed {seed}: {errors}"
    return rep


def check_same_seed(binary, reps):
    for workload in run.WORKLOADS:
        again = rep_of(binary, workload, 1)
        assert reps[workload]["traced"] and not again["traced"]
        assert again["outputs"] == reps[workload]["outputs"], f"{workload}: not repeatable"


def check_seeds_differ(binary, reps):
    mix = ("engine.prefill_tokens", "engine.decode_tokens", "engine.kv_read_bytes")
    other = rep_of(binary, "serve_hbm", 2)
    assert any(other["outputs"][k] != reps["serve_hbm"]["outputs"][k] for k in mix), \
        "seeds 1 and 2 gave the same request mix"
    other = rep_of(binary, "mrm_aging", 2)
    faults = [k for k in other["outputs"] if k.startswith("fault.")]
    assert any(other["outputs"][k] != reps["mrm_aging"]["outputs"][k] for k in faults), \
        "seeds 1 and 2 gave the same fault schedule"


def check_perturbed_reference(reps):
    rep = reps["serve_hbm"]
    exact = {"serve_hbm": {"outputs": {"1": rep["outputs"]}}}
    verdict = run.evaluate("serve_hbm", 1, [rep, rep], [], exact)
    assert verdict["correct"] and verdict["failed"] == 0, verdict

    perturbed = copy.deepcopy(exact)
    outputs = perturbed["serve_hbm"]["outputs"]["1"]
    # One unit in the last place of one double.
    bits = struct.unpack("<q", struct.pack("<d", float(outputs["engine.energy_j"])))[0] ^ 1
    outputs["engine.energy_j"] = "%.17g" % struct.unpack("<d", struct.pack("<q", bits))[0]
    verdict = run.evaluate("serve_hbm", 1, [rep, rep], [], perturbed)
    assert not verdict["correct"] and verdict["failed"] == verdict["attempted"] > 0, verdict

    wrong_digest = {"serve_hbm": {"digests": {"1": "0" * 64}}}
    verdict = run.evaluate("serve_hbm", 1, [rep], [], wrong_digest)
    assert not verdict["correct"] and verdict["failed"] == verdict["attempted"], verdict

    verdict = run.evaluate("serve_hbm", 1, [rep], ["rep 1: exit code -9: killed"], exact)
    assert verdict["failed"] == verdict["attempted"] == 2 * rep["ops"], verdict


def check_threads(binary, reps):
    serial = rep_of(binary, "serve_hbm", 1, "--sim-threads=1")
    assert reps["serve_hbm"]["sim_threads"] == 2 and serial["sim_threads"] == 1
    assert serial["outputs"] == reps["serve_hbm"]["outputs"], "serve_hbm differs at 1 vs 2 threads"


def check_campaign(binary):
    campaign = run.build("bench_aging_campaign")
    assert campaign, "bench_aging_campaign did not build"
    seed = 7
    rep = rep_of(binary, "mrm_aging", seed)
    days = int(rep["outputs"]["aging.days"])
    out = tempfile.mkdtemp(prefix="campaign-", dir=run.build_root())
    try:
        env = dict(os.environ, MRMSIM_BENCH_OUT=out)
        subprocess.run([campaign, f"--days={days}", f"--fault-seed={seed}",
                        f"--checkpoint-dir={out}"], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        with open(os.path.join(out, "BENCH_aging_campaign.json")) as f:
            point = json.load(f)["points"][0]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for key, value in point["metrics"].items():
        mine = float(rep["outputs"]["aging." + key])
        assert mine == value, f"aging.{key}: mrmbench {mine} != campaign {value}"
    assert rep["window"]["events_after"] == point["events"], "simulator event counts differ"


def check_tables_and_result_line(reps):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "mrmbench/run.py"]
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for workload, rep in reps.items():
        wanted = (set(run.PER_LAYER) - {"trace.overhead_frac"}) | set(run.DETAIL[workload])
        missing = wanted - set(rep["layers"])
        assert not missing, f"{workload} traced repetition lacks {sorted(missing)}"

    # The shortest runs run.py makes: its minimum number of repetitions.
    runs = [(w, 1, run.PER_LAYER) for w in run.WORKLOADS] + [("mrm_aging", 0, run.END_TO_END)]
    for workload, trace, table in runs:
        proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
                               workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                              cwd=run.ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == table, f"{workload} --trace {trace}: {units}"
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result


def check_bare_directory():
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.build_root())
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "mrmbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        proc = subprocess.run([sys.executable, "mrmbench/run.py", "--workload", "serve_hbm",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, env=env, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "run.py succeeded without sources"
    assert '"correct"' not in proc.stdout, "run.py printed a result without sources"


def main():
    binary = run.build()
    if binary is None:
        return 1
    reps = {w: rep_of(binary, w, 1, traced=True) for w in run.WORKLOADS}
    checks = [
        ("same seed, same outputs, traced or not", lambda: check_same_seed(binary, reps)),
        ("different seeds, different mixes and faults", lambda: check_seeds_differ(binary, reps)),
        ("perturbed reference or crash fails every op", lambda: check_perturbed_reference(reps)),
        ("serve_hbm identical at 1 and 2 threads", lambda: check_threads(binary, reps)),
        ("mrm_aging reproduces bench_aging_campaign", lambda: check_campaign(binary)),
        ("tables match BENCHMARK.json; result line", lambda: check_tables_and_result_line(reps)),
        ("no sources: non-zero exit, no result", check_bare_directory),
    ]
    failed = 0
    for name, check in checks:
        try:
            check()
            print(f"PASS  {name}")
        except AssertionError as error:
            failed += 1
            print(f"FAIL  {name}: {error}")
    print(f"{len(checks) - failed}/{len(checks)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
