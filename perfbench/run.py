#!/usr/bin/env python3
"""Benchmark driver: build the OCaml benchmark from source, run one
workload, check the result line and print it as the last line.

    python3 perfbench/run.py --workload kv-mem --seed 1 --seconds 10 --trace 0

Run from the root of a source tree.  Everything it writes stays inside
that tree: the dune build in _build/, image files in perfbench/_work/
(deleted afterwards) and the traced run's span dump in perfbench/_out/.
Exits non-zero, without a result line, when the build or the run fails
or the result line is malformed.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def run(cmd, env, timeout, stdout):
    # own process group, so a timeout stops every process the run started
    p = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return p.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="negative control: corrupt PM mid-run")
    args = ap.parse_args()

    spec, expected = expected_metrics(args.trace)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    work = os.path.join(HERE, "_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(work, exist_ok=True)
    if args.trace:
        os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(work, "cache")
    try:
        code, _ = run(["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
                      env, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            fail("build failed")
        exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", work,
               "--spans", os.path.join(out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
        if args.inject_fault:
            cmd.append("--inject-fault")
        code, out = run(cmd, env, RUN_TIMEOUT_S, subprocess.PIPE)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    lines = out.decode().rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("benchmark exited with code %d" % code)

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has keys " + ", ".join(sorted(result)))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(set(got) ^ set(expected)))
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            fail("metric %s is not a finite number" % k)
    if result["attempted"] < 1:
        fail("nothing was attempted")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
