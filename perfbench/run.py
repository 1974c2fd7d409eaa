#!/usr/bin/env python3
"""Host-cost benchmark for BridgeCL (see perfbench/README.md).

Builds the benchmark driver from source (Release, under .bench_build/ in
the checkout), runs one workload in a process of its own and prints two
JSON lines: the driver's full report (host facts, every metric, counts,
failures), then the summary line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end metrics with --trace 0 and
its per_layer metrics with --trace 1.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --check    # every workload twice, same seed
    python3 perfbench/run.py --smoke    # the same with one op per workload
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
RUN_TIMEOUT_S = 170

# Per-pass counts that must repeat exactly across same-seed runs.
COUNT_KEYS = (
    "interp.launches", "interp.ops", "simgpu.work_items", "simgpu.barriers",
    "simgpu.bytes_copied", "native.api_calls", "interp.cache_hits",
    "interp.cache_misses", "sim_ratio_geomean",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (a no-op once configured) and brings the driver up to
    date."""
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "perfbench_driver"],
                   check=True, stdout=sys.stderr)


def revision():
    """The git revision, else a hash of the sources the driver builds."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for d in ("src", "perfbench"):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def driver_env():
    """The caller's environment without the program's BRIDGECL_* switches
    (guarded memory, module-cache kill switch, tracing, worker count,
    hazard diagnostics), each of which changes what a run measures; and
    the names of those it dropped."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BRIDGECL_")}
    return env, sorted(set(os.environ) - set(env))


def run_driver(workload, seed, seconds, trace, smoke=False):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--expected", str(HERE / "expected.tsv"),
           "--revision", revision()]
    if trace:
        cmd += ["--spans", str(BUILD / f"spans_{workload}_{seed}.tsv")]
    if smoke:
        cmd.append("--smoke")
    env, dropped = driver_env()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                         timeout=RUN_TIMEOUT_S, check=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed no report")
    report = json.loads(lines[-1])
    report["host"]["env_dropped"] = dropped
    return report


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def summary(report, trace):
    """The contract line; raises when a metric is missing."""
    e2e, layers = metric_specs()
    section = report["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in (layers if trace else e2e):
        if m["name"] not in section:
            raise RuntimeError(f"metric {m['name']} missing from the report")
        metrics[m["name"]] = {"value": section[m["name"]], "unit": m["unit"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def check(smoke):
    """Every workload twice with the same seed and tracing on: every named
    metric must appear and the counts must repeat exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        runs = [run_driver(name, 7, 0, True, smoke) for _ in range(2)]
        for r in runs:
            summary(r, True)
            summary(r, False)
            if not r["correct"]:
                ok = False
                log(f"{name}: incorrect: {r['failures']}")
        a, b = (r["counts"] for r in runs)
        diff = [k for k in COUNT_KEYS if a[k] != b[k]]
        if diff:
            ok = False
            log(f"{name}: counts differ across same-seed runs: {diff}")
        log(f"{name}: {'ok' if not diff else 'FAILED'} "
            f"counts={json.dumps(a, sort_keys=True)}")
    print(json.dumps({"check": "smoke" if smoke else "full", "ok": ok}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.check or args.smoke):
        ap.error("--workload, --check or --smoke is required")

    build()
    if args.check or args.smoke:
        return check(smoke=args.smoke)
    report = run_driver(args.workload, args.seed, args.seconds,
                        args.trace == 1)
    print(json.dumps(report))
    print(json.dumps(summary(report, args.trace == 1)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
