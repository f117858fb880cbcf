#!/usr/bin/env python3
"""End-to-end benchmark of the bsk stream path and managed farm.

Run from the repository root:

    python3 perfbench/run.py --workload stream-shm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Builds bskd and the C++ load generator from source in Release (.bench_build/), runs
one workload, checks the run (every task back exactly once, in order and
byte-equal; the validity gates; no surviving bskd or shm segment), records
the result with its machine context under .bench_build/results/, and prints
as its last line one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones. perfbench/README.md describes both.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
TMP = os.path.join(ROOT, ".bench_build", "tmp")
LOAD_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build bskd + perfbench_load in Release."""
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "worker_pool.hpp")):
        fail("no bsk sources next to perfbench/ (expected src/net/)")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    configured = os.path.isfile(cache) and any(
        line.strip() == "CMAKE_BUILD_TYPE:STRING=Release"
        for line in open(cache))
    out = sys.stderr
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.call(["cmake", "--build", BUILD, "-j", jobs, "--target",
                        "perfbench_load", "bskd"],
                       stdout=out, stderr=out) != 0:
        fail("build failed")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stderr=subprocess.DEVNULL).decode().strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def expected_metrics(bench, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def leftovers(pids):
    """bskd processes or shm segments of this run that survived it."""
    found = []
    try:
        shm = os.listdir("/dev/shm")
    except OSError:
        shm = []
    for pid in pids:
        if pid_alive(pid):
            found.append("bskd %d still running" % pid)
        prefix = "bsk.shm.%d." % pid
        found += ["/dev/shm/" + n for n in shm if n.startswith(prefix)]
    return found


def run_load(workload, seed, seconds, trace):
    os.makedirs(TMP, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    spans = os.path.join(RESULTS, "%s-seed%d.spans.jsonl" % (workload, seed))
    if trace and os.path.exists(spans):
        os.remove(spans)
    cmd = [os.path.join(BUILD, "perfbench_load"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--bskd", os.path.join(BUILD, "bskd"),
           "--config", os.path.join(HERE, "workloads.json")]
    if trace:
        cmd += ["--spans-out", spans]
    env = dict(os.environ, TMPDIR=TMP)
    # Its own process group, so a hung run goes down with its daemons.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=LOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("perfbench_load exceeded %d s" % LOAD_TIMEOUT_S, 1)
    lines = [l for l in out.decode(errors="replace").splitlines()
             if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        fail("perfbench_load exited with %d" % proc.returncode, 1)
    return json.loads(lines[-1])


def check_names(result, expected):
    """Emitted metric names and units must match BENCHMARK.json exactly."""
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    problems = ["missing %s" % n for n in expected if n not in got]
    problems += ["unexpected %s" % n for n in got if n not in expected]
    problems += ["%s: unit %s, BENCHMARK.json says %s" % (n, got[n], u)
                 for n, u in expected.items() if n in got and got[n] != u]
    return problems


def run_once(bench, workload, seed, seconds, trace):
    """One checked run; returns (result line, record with context)."""
    res = run_load(workload, seed, seconds, trace)
    problems = check_names(res, expected_metrics(bench, trace))
    if problems:
        fail("metric set does not match BENCHMARK.json: " +
             "; ".join(problems), 3)
    invalid = list(res["invalid"]) + leftovers(res["bskd_pids"])
    correct = res["failed"] == 0 and not invalid
    line = {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                        for n, m in sorted(res["metrics"].items())}}
    record = dict(line, workload=workload, invalid=invalid, info=res["info"],
                  context=dict(res["context"], commit=git_commit()))
    return line, record


def self_check(bench, seconds):
    """Short run of every workload in both modes: names, units, checks."""
    bad = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            line, record = run_once(bench, w["name"], 1, seconds, trace)
            ok = line["correct"]
            bad += not ok
            print("%-11s trace=%d %s attempted=%d failed=%d %s" % (
                w["name"], trace, "ok " if ok else "BAD", line["attempted"],
                line["failed"], "; ".join(record["invalid"])))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="short run of every workload, both modes; exit 1 "
                         "on any mismatch with BENCHMARK.json")
    args = ap.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("no BENCHMARK.json at the repository root")
    with open(bench_path) as f:
        bench = json.load(f)
    build()
    if args.self_check:
        sys.exit(self_check(bench, args.seconds or 3.0))

    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of " + ", ".join(names))
    seconds = args.seconds or bench["run_seconds"]
    line, record = run_once(bench, args.workload, args.seed, seconds,
                            args.trace)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    ctx = record["context"]
    print("perfbench %s seed=%d trace=%d | %s, %d cpus, %s, %s, commit %s%s" % (
        args.workload, args.seed, args.trace, ctx["cpu"], ctx["nproc"],
        ctx["compiler"], ctx["build_type"], ctx["commit"],
        "" if line["correct"] else " | INVALID: " +
        ("; ".join(record["invalid"]) or "task mismatch")))
    unbounded = sorted(k for k in record["info"] if k.startswith("tail_"))
    if unbounded:
        print("recorded, not bounded: " + ", ".join(
            "%s=%.6g" % (k, record["info"][k]) for k in unbounded))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
