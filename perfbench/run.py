#!/usr/bin/env python3
"""Build the PSF framework from source and run the two-clock benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-mix|halo-storm|serve-open \
        --seed N --seconds S --trace 0|1

The driver binary is built into .bench_build/ on first use. Build output
goes to stderr; the benchmark's own lines go to stdout, and the last line
of stdout is the JSON result. The result is checked against the metric
names and units in BENCHMARK.json before it is printed; any mismatch, build
failure or driver failure exits non-zero without printing a result.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "psf_perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_ = ["cmake", "--build", BUILD, "--target", "psf_perfbench",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main(argv):
    flags = dict(zip(argv[::2], argv[1::2]))
    try:
        trace = flags["--trace"] == "1"
        seconds = float(flags["--seconds"])
    except (KeyError, ValueError):
        fail("--trace 0|1 and --seconds S are required")
    expected = expected_metrics(trace)
    build()
    proc = subprocess.run([BINARY] + argv, stdout=subprocess.PIPE, text=True,
                          timeout=2 * seconds + 60)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("driver metrics do not match BENCHMARK.json")
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
