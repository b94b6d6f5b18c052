#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, at smoke size (tiny circuits, a
2-second window):
  * --trace 0 passes the correctness gate and emits exactly the end_to_end
    metrics, each with its unit;
  * --trace 1 emits exactly the per_layer metrics, each with its unit;
  * --flip-byte (one corrupted proof byte) is caught: exit 1, "correct":
    false, "failed" >= 1;
  * the SLO limit and arrival rate the benchmark program uses are the ones
    the workload's note in BENCHMARK.json states.
Finally, a directory holding only BENCHMARK.json and perfbench/ must fail
fast, with a non-zero exit and no result line.
Exits 0 when every check passes, 1 otherwise.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
SMOKE_SECONDS = "2"

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT, env=None):
    r = subprocess.run(RUN + args, cwd=cwd, env=env, capture_output=True,
                       text=True, timeout=180)
    lines = r.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    stamp = None
    for line in lines:
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
    return r.returncode, result, stamp, r


def metrics_match(result, spec, label):
    got = result.get("metrics", {}) if result else {}
    want = {m["name"]: m["unit"] for m in spec}
    diff = sorted(set(got) ^ set(want))
    bad_units = sorted(n for n, u in want.items() if n in got and (
        got[n].get("unit") != u
        or not isinstance(got[n].get("value"), (int, float))))
    check(not diff and not bad_units,
          f"{label}: {len(want)} metrics, each with its unit"
          + (f"; missing or extra {diff}" if diff else "")
          + (f"; bad unit or value {bad_units}" if bad_units else ""))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for wl in bench["workloads"]:
        name = wl["name"]
        base = ["--workload", name, "--seed", "1", "--seconds",
                SMOKE_SECONDS, "--smoke"]

        rc, res, stamp, r = run(base + ["--trace", "0"])
        check(rc == 0 and res is not None and res.get("correct") is True
              and res.get("failed") == 0 and res.get("attempted", 0) >= 1,
              f"{name}: clean smoke run passes the gate (exit {rc})")
        if rc != 0:
            sys.stderr.write(r.stdout[-2000:] + r.stderr[-2000:])
        if res:
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result has exactly the four keys")
            metrics_match(res, bench["end_to_end"], f"{name} trace=0")

        if stamp:
            slo = re.search(r"SLO (\d+(?:\.\d+)?) ms", wl["why"])
            check(slo is not None and float(slo.group(1)) == stamp["slo_ms"],
                  f"{name}: note states the SLO limit {stamp['slo_ms']} ms")
            if stamp["rate_per_s"] > 0:
                rate = re.search(r"Poisson (\d+(?:\.\d+)?)/s", wl["why"])
                check(rate is not None
                      and float(rate.group(1)) == stamp["rate_per_s"],
                      f"{name}: note states the rate "
                      f"{stamp['rate_per_s']}/s")
            keys = ("git_sha", "nproc", "cpu_model", "asm_kernels",
                    "build_type")
            check(all(k in stamp for k in keys),
                  f"{name}: stamp carries {', '.join(keys)}")

        rc, res, _, _ = run(base + ["--trace", "1"])
        check(rc == 0 and res is not None and res.get("correct") is True,
              f"{name}: traced smoke run passes the gate (exit {rc})")
        if res:
            metrics_match(res, bench["per_layer"], f"{name} trace=1")

        rc, res, _, _ = run(base + ["--trace", "0", "--flip-byte"])
        check(rc == 1 and res is not None and res.get("correct") is False
              and res.get("failed", 0) >= 1,
              f"{name}: a flipped proof byte fails the gate (exit {rc})")

    # A directory with only the benchmark's own files cannot build the
    # prover and must say so with a non-zero exit and no result line.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    name = bench["workloads"][0]["name"]
    rc, res, _, _ = run(["--workload", name, "--seed", "1", "--seconds", "1",
                         "--trace", "0"], cwd=bare, env=env)
    check(rc != 0 and res is None,
          f"bare directory fails without a result (exit {rc})")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
