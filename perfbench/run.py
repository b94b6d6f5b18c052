#!/usr/bin/env python3
"""Build the prover from source and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The prover library and the benchmark program
in perfbench/main.cpp are built with CMake (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset. The program's standard output is passed through; its last line is
the result JSON. The exit code is the program's: 0 on success, 1 when a proof
failed the correctness gate, 2 on a usage or build error.

Extra flags for the self-test and for re-measuring the burst rate:
--smoke, --flip-byte, --measure-saturation (see perfbench/main.cpp).
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solo-rescue", "burst-mixed", "streamed-vanilla")
DEFAULT_SEED = 1
# A run must end within 180 s; leave room for process start and teardown.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build once per checkout; later calls are no-ops apart
    from make's up-to-date check. Build output goes to a log file so that
    standard output stays the benchmark program's."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no prover sources: {os.path.join(ROOT, 'src')} is missing")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed (exit {rc}); log: {log_path}")
    return os.path.join(out, "perfbench")


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """sha256 over every file under src/ and perfbench/, so that results
    from a checkout without git history still name the code they ran."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--flip-byte", action="store_true")
    ap.add_argument("--measure-saturation", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(),
           "--out", os.path.join(os.path.dirname(exe), "traces")]
    if args.smoke:
        cmd.append("--smoke")
    if args.flip_byte:
        cmd.append("--flip-byte")
    if args.measure_saturation:
        cmd.append("--measure-saturation")
    # The prover reads ZKPHIRE_* variables (thread count, streaming, asm,
    # failpoints); clear them so every run measures the same configuration.
    # Mapped slabs go inside the build directory, not to $TMPDIR.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ZKPHIRE_")}
    env["ZKPHIRE_STREAM_DIR"] = os.path.join(os.path.dirname(exe), "slabs")
    os.makedirs(env["ZKPHIRE_STREAM_DIR"], exist_ok=True)
    print(f"source_sha256 {source_digest()}", flush=True)
    try:
        rc = subprocess.run(cmd, cwd=ROOT, env=env,
                            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"benchmark program exceeded {RUN_TIMEOUT_S} s and was killed")
    sys.exit(rc)


if __name__ == "__main__":
    main()
