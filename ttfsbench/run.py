#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 ttfsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one workload, or `all` to run every workload in turn. Run from the
root of a checkout. The first run configures and builds the
library and the benchmark under .bench_build/ttfsbench (a few minutes at
most); later runs only re-check the build. The benchmark binary then runs
the workload and its last stdout line is the JSON result. Exit status is the
binary's: 0 when every output was correct, nonzero otherwise, and nonzero
without a result line when the sources are missing, the build fails or the
run outlives its wall-clock limit.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "ttfsbench"
BUILD_DIR = ROOT / ".bench_build" / "ttfsbench"
WORKLOADS = ("wire_light", "wire_poisson", "offline_event", "offline_quant")
BUILD_TIMEOUT_S = 850
KILL_AFTER_S = 175  # backstop behind the binary's own 170 s watchdog


def fail(message, status=2):
    print(f"ttfsbench: {message}", file=sys.stderr)
    sys.exit(status)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "ttfsbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out after {BUILD_TIMEOUT_S} s: {' '.join(cmd)}")
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")
    return BUILD_DIR / "ttfsbench"


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file() and p.suffix in
                           (".h", ".cpp", ".txt", ".py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run(binary, workload, args):
    """Runs one workload, forwards its stdout and returns its exit status."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--src-digest", source_digest()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=KILL_AFTER_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{workload} killed after {KILL_AFTER_S} s", 3)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode in (0, 1) and not check_result(lines[-1]):
        print(out, file=sys.stderr, end="")
        fail("the benchmark printed no result line", 4)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def check_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    sys.exit(max(run(binary, w, args) for w in workloads))


if __name__ == "__main__":
    main()
