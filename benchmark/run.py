#!/usr/bin/env python3
"""Build and run the Jigsaw benchmark.

One workload, one mode (the last stdout line is the result):

    python3 benchmark/run.py --workload sim-k48 --seed 3 --seconds 20 --trace 0

Every workload, plain and traced, into one result file with a host record:

    python3 benchmark/run.py --seed 0 --out benchmark/results/mine.json

The benchmark binary is built from ../src and ../tools by the standalone CMake
project in this directory, in Release mode, into build-benchmark/. Each
workload run is its own process. See README.md for the workloads and
metrics.
"""

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-benchmark"
BINARY = BUILD / "jigsaw_benchmark"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then build (a no-op when nothing changed)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # The build-system file exists only after a configure that succeeded.
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "jigsaw_benchmark", "shape_tables"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=850)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit(f"benchmark build failed: {' '.join(cmd)}")


def run_workload(workload, seed, seconds, trace):
    """One workload in its own process; returns the binary's JSON record."""
    run_dir = BUILD / "run" / str(os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        done = subprocess.run(
            [str(BINARY), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if trace else "0",
             "--tables", str(BUILD / "shape_tables"),
             "--run-dir", os.path.relpath(run_dir, ROOT)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=170)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if done.returncode != 0:
        log(done.stderr)
        raise SystemExit(f"{workload}: benchmark binary failed")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(record, expected):
    """The result line: correctness plus exactly the expected metrics."""
    names = {m["name"]: m["unit"] for m in expected}
    got = record["metrics"]
    if set(got) != set(names):
        raise SystemExit("metric set mismatch: missing "
                         f"{sorted(set(names) - set(got))}, extra "
                         f"{sorted(set(got) - set(names))}")
    for name, unit in names.items():
        if got[name]["unit"] != unit:
            raise SystemExit(f"{name}: unit {got[name]['unit']} != {unit}")
    failed_checks = sorted(k for k, ok in record["checks"].items() if not ok)
    failed_checks += sorted(f"{n} is not finite" for n in names
                            if got[n]["value"] is None)
    if failed_checks:
        log("failed checks:", ", ".join(failed_checks))
    return {
        "correct": not failed_checks and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": got[n]["value"] or 0.0, "unit": names[n]}
                    for n in names},
    }


def cmake_cache(key):
    try:
        text = (BUILD / "CMakeCache.txt").read_text()
    except OSError:
        return ""
    m = re.search(rf"^{re.escape(key)}:[A-Z]+=(.*)$", text, re.M)
    return m.group(1) if m else ""


def host_record(seed, records):
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    for f in (BUILD / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake"):
        found = dict(re.findall(
            r'set\(CMAKE_CXX_COMPILER_(ID|VERSION) "([^"]*)"\)', f.read_text()))
        compiler += f" ({found.get('ID', '')} {found.get('VERSION', '')})"
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    flags = " ".join(filter(None, [
        cmake_cache("CMAKE_CXX_FLAGS"),
        cmake_cache("CMAKE_CXX_FLAGS_" + build_type.upper())]))
    commit = "unknown"
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True).stdout
        commit = git("rev-parse", "HEAD").strip() or commit
        if git("status", "--porcelain", "--untracked-files=no", "--", "src",
               "tools", "benchmark"):
            commit += "-dirty"
    info = [r.get("info", {}) for r in records]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "kernel": platform.release(),
        "compiler": compiler,
        "flags": flags,
        "build_type": build_type,
        "shape_tables": sorted({i["shape_tables"] for i in info
                                if i.get("shape_tables", "none") != "none"}),
        "simd": sorted({i["simd"] for i in info if "simd" in i}),
        "commit": commit,
        "seed": seed,
    }


def print_lines(workload, summary):
    for name, m in summary["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="one workload (default: all, plain "
                   "and traced)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="write a result file with a host record")
    args = p.parse_args()

    bench = spec()
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload}; one of {names}")
    build()

    runs = []  # (workload, trace, binary's record, summary)
    todo = ([(args.workload, bool(args.trace))] if args.workload else
            [(w, t) for w in names for t in (False, True)])
    for workload, trace in todo:
        record = run_workload(workload, args.seed, seconds, trace)
        summary = summarize(record, bench["per_layer" if trace else
                                          "end_to_end"])
        runs.append((workload, trace, record, summary))
        print_lines(workload, summary)

    if args.out:
        result = {"host": host_record(args.seed, [r for _, _, r, _ in runs]),
                  "seconds": seconds, "workloads": {}}
        for workload, trace, record, summary in runs:
            entry = result["workloads"].setdefault(workload, {})
            entry["traced" if trace else "plain"] = {
                **summary, "checks": record["checks"],
                "info": record.get("info", {})}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
            f.write("\n")

    if args.workload:
        print(json.dumps(runs[0][3]))
        return 0
    return 0 if all(s["correct"] for _, _, _, s in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
