#!/usr/bin/env python3
"""Runs one workload of the benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0
    python3 perfbench/run.py --selftest

Builds the repository's libraries, litmusd and the workload binary
(Release) into .bench_build/perfbench, checks the thread budget
against the cores available, runs the workload in its own process,
checks its output against BENCHMARK.json and prints a summary, the
full result (with a host block) and, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.  The
metrics are the end-to-end ones with --trace 0 and the per-layer ones
with --trace 1.  Everything the run writes stays under .bench_build/.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Busy threads per workload: 2 engine threads plus the engine's chunk
# prefetcher for the sweeps; litmusd's one engine thread plus the two
# client threads for serve.
THREAD_BUDGET = {"sweep": 3, "checkpoint": 3, "serve": 3}
# Each run ends within 180 s; keep a margin for the build check.
RUN_LIMIT_S = 170.0
# glibc's malloc raises its mmap threshold, up to 32 MiB, to the size
# of each mapped block it frees, so whether a later large buffer (such
# as a checkpoint seal's copy of the whole store) is mapped or carved
# from the heap depends on what the threads freed before it.  With that,
# checkpoint's peak RSS split into modes 7% apart from run to run.
# Fixed at the 32 MiB the threshold climbs toward, it held within 3%
# over six runs, and in two runs paired with the default checkpoint was
# 1% and 3% slower; fixed at its initial 128 KiB, the peak held too, but
# checkpoint ran 6.5% slower.  The workload process and litmusd (which
# inherits it) run with this.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "33554432"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def spec_problems(spec):
    """Where BENCHMARK.json breaks the benchmark's naming rules."""
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            names.append(metric["name"])
            if not UNIT_RE.match(metric["unit"]):
                problems.append(f"bad unit {metric['unit']!r}")
            if metric["better"] not in ("higher", "lower"):
                problems.append(f"bad 'better' of {metric['name']}")
            if group == "end_to_end" and not 0 < metric["bound"] <= 0.25:
                problems.append(f"bound of {metric['name']} out of range")
    for name in names:
        if not NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        problems.append("no setup_s metric")
    return problems


def build(targets):
    """Configures once, then builds `targets`; output goes to stderr."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        BUILD_DIR.mkdir(parents=True, exist_ok=True)
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                    "--target", *targets], stdout=sys.stderr, check=True)


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cmake_cache():
    cache = {}
    with open(BUILD_DIR / "CMakeCache.txt") as f:
        for line in f:
            match = re.match(r"^([A-Za-z0-9_]+):[A-Z]+=(.*)$", line.rstrip())
            if match:
                cache[match.group(1)] = match.group(2)
    return cache


def filesystem_of(path):
    """Type and source of the mount holding `path`."""
    best = ("", "unknown", "unknown")
    real = os.path.realpath(path)
    with open("/proc/self/mounts") as f:
        for line in f:
            source, point, fstype = line.split()[:3]
            inside = real == point or real.startswith(point.rstrip("/") + "/")
            if inside and len(point) > len(best[0]):
                best = (point, fstype, source)
    return {"mount": best[0], "type": best[1], "source": best[2]}


def source_digest():
    """sha256 over the sources the benchmark is built from, for checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    digest.update((ROOT / "CMakeLists.txt").read_bytes())
    return digest.hexdigest()


def host_block(workdir):
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")]))
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    host = {
        "nproc": cores(),
        "cpu_model": cpu,
        "compiler": f"{compiler} ({version[0] if version else '?'})",
        "cxx_flags": flags,
        "build_type": build_type,
        "git_rev": git.stdout.strip() if git.returncode == 0 else None,
        "store_filesystem": filesystem_of(workdir),
        "malloc_env": MALLOC_ENV,
    }
    if git.returncode != 0:
        host["source_sha256"] = source_digest()
    return host


def run_workload(workload, args, deadline):
    """One workload process; returns its result object, or None if it
    crashed or printed no result."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    workdir = BUILD_DIR / f"run-{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    trace_file = BUILD_DIR / "traces" / f"{workload}-seed{args.seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    command = [str(BUILD_DIR / "perfbench_workload"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-file", str(trace_file),
               "--litmusd", str(BUILD_DIR / "mcmc" / "litmusd"),
               "--workdir", str(workdir)]
    # A process group of its own, so a timeout kills litmusd as well.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **MALLOC_ENV},
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(5.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"perfbench: {workload} did not finish in time")
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: {workload} exited {proc.returncode} "
            "without a result")
        return None
    result["host"] = host_block(workdir)
    result["settings"] = {"seed": args.seed, "seconds": args.seconds,
                          "trace": args.trace}
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def number(value):
    """A metric for the summary; null stands for no finite value (a
    failed request's latency)."""
    return f"{value:>16.6g}" if value is not None else f"{'none':>16}"


def summary(result, spec):
    """Human-readable lines for one workload's result."""
    ops = ", ".join(f"{kind} {o['attempted'] - o['failed']}/{o['attempted']}"
                    for kind, o in result["operations"].items())
    verdict = "correct" if result["correct"] else "INCORRECT"
    lines = [f"perfbench {result['workload']}: {verdict}; "
             f"{result['attempted']} attempted, {result['failed']} failed "
             f"(ok/attempted: {ops})"]
    lines += [f"  problem: {p}" for p in result["problems"]]
    group = "per_layer" if result["settings"]["trace"] else "end_to_end"
    for metric in spec[group]:
        value = number(result[group][metric["name"]])
        lines.append(f"  {metric['name']:<34} {value} {metric['unit']}")
    for name, q in result["detail"].get("latency", {}).items():
        lines.append(f"  {name:<34} {number(q['value'])} ms "
                     f"(q {q['q']:.4f}, {q['samples']} samples, "
                     f"{q['beyond']} beyond)")
    return lines


def contract_line(result, spec):
    group = "per_layer" if result["settings"]["trace"] else "end_to_end"
    return {
        "correct": result["correct"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"] if result["attempted"] > 0 else 1,
        "metrics": {m["name"]: {"value": result[group][m["name"]],
                                "unit": m["unit"]} for m in spec[group]},
    }


def save(result):
    out = BUILD_DIR / "results" / (
        f"{result['workload']}-seed{result['settings']['seed']}"
        f"-trace{result['settings']['trace']}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")


def selftest(spec):
    problems = spec_problems(spec)
    for problem in problems:
        log(f"BENCHMARK.json: {problem}")
    build(["perfbench_selftest"])
    workdir = BUILD_DIR / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    tests = subprocess.run([str(BUILD_DIR / "perfbench_selftest")],
                           cwd=workdir, stdout=sys.stderr)
    return 0 if tests.returncode == 0 and not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    started = time.time()

    spec = load_spec()
    if args.selftest:
        return selftest(spec)
    problems = spec_problems(spec)
    if problems:
        log("BENCHMARK.json: " + "; ".join(problems))
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        log(f"unknown workload {args.workload!r}; one of {names} or all")
        return 2
    for workload in workloads:
        if cores() < THREAD_BUDGET[workload]:
            log(f"{workload} needs {THREAD_BUDGET[workload]} cores, "
                f"{cores()} available")
            return 2

    try:
        build(["perfbench_workload"])
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"perfbench: build failed: {error}")
        return 2
    # A checkout's first run compiles for minutes and may take longer;
    # later runs only check the build and count it against the limit.
    checked_s = time.time() - started
    limit = RUN_LIMIT_S - (checked_s if checked_s < 30 else 0)

    results = []
    for workload in workloads:
        result = run_workload(workload, args, time.time() + limit)
        if result is None:
            return 2
        for group in ("end_to_end", "per_layer"):
            wanted = {m["name"] for m in spec[group]}
            if set(result[group]) != wanted:
                log(f"perfbench: the {group} metrics differ from "
                    f"BENCHMARK.json: {sorted(set(result[group]) ^ wanted)}")
                return 2
        save(result)
        results.append(result)
        print("\n".join(summary(result, spec)), flush=True)
        print(json.dumps(result), flush=True)

    if len(results) == 1:
        print(json.dumps(contract_line(results[0], spec)), flush=True)
    else:
        print(json.dumps({r["workload"]: contract_line(r, spec)
                          for r in results}), flush=True)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
