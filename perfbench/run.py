#!/usr/bin/env python3
"""Repository benchmark: the simulated Amoeba controller, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cluster_day --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

The script builds perfbench/ (the simulator libraries from src/ plus the C++
driver) into .bench_build/perfbench as a Release build, fills a profile cache
private to that driver binary, and runs the driver once per measurement.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
BENCHMARK.json). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines above it list every
metric by name and unit. Each run is also appended, with its seed and build
provenance, to .bench_build/perfbench/results.jsonl. The exit code is 0 only
when every output check passed.

Seeds: --seed defaults to 42. Seed 1729 is held out: a gain claimed with this
benchmark must also hold on it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("cluster_day", "callgraph_day", "profile_sweep")
DEFAULT_SEED = 42
# The workload whose per-query retention is measured from two run lengths
# (the others report stats.bytes_per_query as 0).
RETENTION_WORKLOAD = "cluster_day"
DAY_FRACTIONS = (0.5, 1.0)
RUN_TIMEOUT_S = 170

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build" / "perfbench"
BUILD_DIR = BUILD_ROOT / "build"
DRIVER = BUILD_DIR / "perfbench_driver"
RESULTS = BUILD_ROOT / "results.jsonl"


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; raises on failure."""
    BUILD_ROOT.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_ROOT / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_driver", "-j", jobs])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = build_log.read_text(errors="replace").splitlines()[-20:]
                raise RuntimeError("build failed:\n" + "\n".join(tail))


def digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def cache_dir():
    """The profile cache keyed to this very driver binary, filled on first use.

    A cache written by another build (other sources, flags or physics) has
    another key, so it is never read.
    """
    key = digest([DRIVER])
    path = BUILD_ROOT / f"cache-{key}"
    done = path / "complete"
    if not done.exists():
        path.mkdir(parents=True, exist_ok=True)
        threads = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        log(f"filling profile cache {path.name} ({threads} threads)")
        driver(["fill-cache", "--cache", str(path), "--threads", threads])
        done.write_text("ok\n")
    return path


def driver(args):
    """Run the driver; return its JSON (last stdout line) and exit code."""
    proc = subprocess.run([str(DRIVER)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"driver {args[0]} printed nothing "
                           f"(exit {proc.returncode})")
    return json.loads(lines[-1]), proc.returncode


def provenance():
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        describe = ""
    sources = sorted(p for d in (ROOT / "src", BENCH_DIR)
                     for p in d.rglob("*") if p.is_file())
    return {
        "git_describe": describe or "unavailable",
        "source_digest": digest(sources),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def bytes_per_query(workload, seed, cache):
    """Retained bytes per simulated query: peak RSS over two run lengths."""
    runs = []
    for days in DAY_FRACTIONS:
        out, code = driver(["day", "--workload", workload, "--seed", str(seed),
                            "--days", str(days), "--cache", str(cache)])
        if code != 0 or not out.get("correct"):
            raise RuntimeError(f"{workload} at {days} days failed: "
                               f"{out.get('errors')}")
        runs.append(out)
    (short, full) = runs
    dq = full["queries"] - short["queries"]
    dmb = full["peak_rss_mb"] - short["peak_rss_mb"]
    return dmb * 2**20 / dq if dq > 0 else 0.0, runs


def run_one(workload, seed, seconds, trace, cache, prov):
    out, code = driver(["run", "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--cache", str(cache),
                        "--trace", str(trace)])
    record = {"workload": workload, "seed": seed, "trace": trace,
              "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              **prov, "driver": out}
    metrics = out["metrics"]
    if trace:
        bpq = 0.0
        if workload == RETENTION_WORKLOAD:
            bpq, days = bytes_per_query(workload, seed, cache)
            record["day_runs"] = days
        metrics["stats.bytes_per_query"] = {"value": bpq, "unit": "B"}
    with open(RESULTS, "a") as f:
        f.write(json.dumps(record) + "\n")
    correct = bool(out["correct"]) and code == 0
    for err in out["errors"]:
        log(f"CHECK FAILED: {err}")
    return {"correct": correct, "attempted": int(out["attempted"]),
            "failed": int(out["failed"]), "metrics": metrics}


def print_table(workload, seed, trace, result):
    print(f"# {workload} seed={seed} trace={trace} "
          f"correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:>18.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default: both)")
    args = ap.parse_args()

    try:
        build()
        cache = cache_dir()
        prov = provenance()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        traces = (0, 1) if args.trace is None else (args.trace,)
        results = []
        for w in workloads:
            for t in traces:
                r = run_one(w, args.seed, args.seconds, t, cache, prov)
                print_table(w, args.seed, t, r)
                results.append(r)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2

    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
