#!/usr/bin/env python3
"""The repository's benchmark: builds perfbench in Release and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Before the result, stdout carries a
"# context" line (build type, nproc, host, compiler, git sha, source digest,
workload and seed) and the workload's human-readable summary; the last line
is the JSON result. The exit status is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import socket
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def cmake_cache(build):
    cache = {}
    path = os.path.join(build, "CMakeCache.txt")
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    return cache


def build():
    """Configures (once) and builds the Release tree; returns its path."""
    out = build_dir()
    if cmake_cache(out).get("CMAKE_BUILD_TYPE") != "Release":
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if os.path.exists(os.path.join(out, "CMakeCache.txt")):
            shutil.rmtree(out)
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return out


def source_digest():
    """sha256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def context(build_path, args):
    cache = cmake_cache(build_path)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    return {
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "nproc": os.cpu_count(),
        "host": socket.gethostname(),
        "machine": platform.machine(),
        "compiler": f"{compiler} ({version})",
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """Problems with the result line against BENCHMARK.json and the grammar."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    declared = declared_metrics(trace)
    got = result["metrics"]
    if set(got) != set(declared):
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(declared) - set(got))}, extra {sorted(set(got) - set(declared))}")
    for name, m in got.items():
        if not NAME_RE.match(name) or not UNIT_RE.match(m.get("unit", "")):
            problems.append(f"bad metric name or unit: {name} {m.get('unit')}")
        elif declared.get(name) not in (None, m["unit"]):
            problems.append(f"{name}: unit {m['unit']} but BENCHMARK.json says {declared[name]}")
    return problems


def selftest():
    out = build()
    bad = 0
    for name in ("setup_s", "p99_us", "sim.events", "dnswire.ecs_key_ratio"):
        bad += not NAME_RE.match(name)
    for name in ("", ".x", "has space", "x" * 65):
        bad += bool(NAME_RE.match(name))
    for trace in (False, True):
        for name, unit in declared_metrics(trace).items():
            if not NAME_RE.match(name) or not UNIT_RE.match(unit):
                log(f"BENCHMARK.json: bad name or unit {name} {unit}")
                bad += 1
    ok_result = {"correct": True, "attempted": 1, "failed": 0,
                 "metrics": {n: {"value": 1.0, "unit": u}
                             for n, u in declared_metrics(False).items()}}
    bad += bool(validate(ok_result, False))
    ok_result["metrics"].popitem()
    bad += not validate(ok_result, False)
    if bad:
        log(f"run.py self-test: {bad} check(s) failed")
    rc = subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    return 1 if bad or rc else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload or args.seed < 0 or args.seconds < 1:
        ap.error("--workload, a --seed >= 0 and --seconds >= 1 are required")

    out = build()
    ctx = context(out, args)
    if ctx["build_type"] != "Release":
        log(f"refusing to record a {ctx['build_type']} build")
        return 2
    print("# context " + json.dumps(ctx, sort_keys=True), flush=True)

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        log(f"{args.workload} printed no result (exit {proc.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    problems = validate(result, bool(args.trace))
    if problems:
        for p in problems:
            log(p)
        return 1

    capture_dir = os.path.join(out, "captures")
    os.makedirs(capture_dir, exist_ok=True)
    capture = os.path.join(capture_dir,
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(capture, "w") as f:
        json.dump({"context": ctx, "result": result}, f, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.CalledProcessError, json.JSONDecodeError) as e:
        log(str(e))
        sys.exit(1)
