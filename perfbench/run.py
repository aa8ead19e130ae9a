#!/usr/bin/env python3
"""Builds and runs the roicl benchmark (see perfbench/README.md).

One workload, as the command in BENCHMARK.json runs it:

    python3 perfbench/run.py --workload batch_score --seed 1 --seconds 35 --trace 0

Every workload, with a summary table of each end-to-end metric:

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The benchmark binary is built from the source
tree next to this directory (CMake, into $CARGO_TARGET_DIR or .bench_build);
runs write fixtures, traces and a JSON-lines record of every result under
.bench_out. The last line of stdout is the JSON result of the (last) run.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 1
HELD_OUT_SEED = 90210
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"{path} not found", 2)
    with open(path) as f:
        return json.load(f)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_quiet(cmd):
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    return done.returncode, done.stdout


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(f"roicl sources not found ({required} is missing); run from "
                 "a checkout of the repository", 2)
    out = build_dir()
    configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        code, log = run_quiet(configure)
        if code != 0:
            # A cache left by a checkout at another path: start over once.
            shutil.rmtree(out, ignore_errors=True)
            code, log = run_quiet(configure)
        if code != 0:
            fail("cmake configure failed:\n" + log[-4000:], 3)
    code, log = run_quiet(["cmake", "--build", out, "--target",
                           "roicl_perfbench", "-j", str(nproc())])
    if code != 0:
        fail("build failed:\n" + log[-4000:], 3)
    return os.path.join(out, "roicl_perfbench")


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_digest():
    """SHA-256 over the build inputs, for checkouts without git metadata."""
    digest = hashlib.sha256()
    roots = ["CMakeLists.txt", "src", os.path.relpath(BENCH_DIR, ROOT)]
    files = []
    for entry in roots:
        path = os.path.join(ROOT, entry)
        if os.path.isfile(path):
            files.append(entry)
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if not d.startswith("."))
            files.extend(os.path.relpath(os.path.join(base, n), ROOT)
                         for n in names)
    for rel in sorted(files):
        digest.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def host_block(seed):
    cpu_model, avx512 = "unknown", False
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and cpu_model == "unknown":
                    cpu_model = line.split(":", 1)[1].strip()
                if line.startswith("flags") and " avx512f" in line:
                    avx512 = True
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        code, out = run_quiet([compiler, "--version"])
        version = out.splitlines()[0] if code == 0 and out else ""
    code, describe = run_quiet(["git", "describe", "--always", "--dirty",
                                "--tags"])
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "avx512": avx512,
        "compiler": version or compiler or "unknown",
        "build_type": cmake_cache("CMAKE_BUILD_TYPE") or "unknown",
        "git_describe": describe.strip() if code == 0 else "none",
        "source_sha256": source_digest(),
        "kernel": platform.release(),
        "seed": seed,
    }


def check_result(result, spec, trace):
    """The binary's result must carry exactly the metrics BENCHMARK.json
    names for this mode, with the same units."""
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}"
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"extra {extra}, unit mismatch {units}"
    return None


def run_one(binary, spec, workload, seed, seconds, trace, results_path):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--threads", str(nproc()), "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 5)
    lines = done.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(done.stdout, end="")
        fail(f"{workload} printed no result (exit {done.returncode})", 4)
    # A run whose output checks failed may stop before every metric exists;
    # its result is still reported, with a non-zero exit.
    problem = check_result(result, spec, trace) if result.get("correct") \
        else None
    if problem:
        print("\n".join(lines[:-1]))
        fail(problem, 4)
    host = host_block(seed)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "host": host, "result": result,
              "report": lines[:-1]}
    with open(results_path, "a") as f:
        f.write(json.dumps(record) + "\n")
    print("\n".join(lines[:-1]))
    print("host " + json.dumps(host))
    return result, done.returncode, lines[-1]


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print a summary")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results",
                        default=os.path.join(ROOT, ".bench_out",
                                             "runs.jsonl"),
                        help="JSON-lines file every run is appended to")
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    seconds = int(args.seconds) if args.seconds == int(args.seconds) \
        else args.seconds

    binary = build()
    os.makedirs(os.path.dirname(os.path.abspath(args.results)),
                exist_ok=True)
    if not args.all:
        _, code, last = run_one(binary, spec, args.workload, args.seed,
                                seconds, args.trace, args.results)
        print(last)
        sys.exit(code)

    summary, worst, last = [], 0, ""
    for workload in workloads:
        result, code, last = run_one(binary, spec, workload, args.seed,
                                     seconds, args.trace, args.results)
        worst = worst or code
        summary.append((workload, result))
    print(f"\n{'workload':<16} {'metric':<28} {'value':>18}  unit")
    for workload, result in summary:
        for name, metric in sorted(result["metrics"].items()):
            print(f"{workload:<16} {name:<28} {metric['value']:>18.6g}  "
                  f"{metric['unit']}")
        print(f"{workload:<16} {'failed/attempted':<28} "
              f"{result['failed']:>10}/{result['attempted']:<7}  "
              f"correct={str(result['correct']).lower()}")
    print(last)
    sys.exit(worst)


if __name__ == "__main__":
    main()
