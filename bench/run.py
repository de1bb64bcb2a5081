"""symldpc benchmark: one seeded workload, checked outputs, metrics by name.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths resolve from this file);
the package is imported from `src`, so nothing needs installing.  Every
set-up probe and every measuring process is its own fresh single-threaded
interpreter (bench/worker.py), started one at a time, with BLAS/OpenMP
threads pinned to 1.

--trace 0 runs up to ROUNDS rounds of set-up probes and one measuring
process, each round's passes ending by its share of --seconds, with at
least MIN_PASSES passes in all, and reports the end-to-end metrics as
medians over passes and set-up samples.
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced one, plus their wall-time difference as
trace.overhead_s.

Every pass's outputs are checked (workloads.py) and must repeat exactly
across passes and between the traced and untraced pass.  The last line of
standard output is the JSON result; the full record, with provenance, goes
to bench/out/.  Exits 2 without a result when the package source or a
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

ROUNDS = 4
PROBES_PER_ROUND = 3
# a workload whose pass takes half of --seconds still gets a median of two
MIN_PASSES = 2
DEADLINE_S = 170.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "SYMLDPC_THREADS": "1",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "words_per_s": "words/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_PER_S_UNITS = {
    "decode.bp_edge_updates_per_s": "edges/s",
    "symspace.lines_per_s": "lines/s",
}


def layer_unit(name: str) -> str:
    if name in _PER_S_UNITS:
        return _PER_S_UNITS[name]
    if name.endswith("_us_per_word"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_mean_iterations"):
        return "iterations"
    return "count"


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str, deadline: float,
               until: float = 0.0, trace: bool = False) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget spent before the run finished")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--out-dir", str(OUT), "--mode", mode, "--until", repr(until)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **THREAD_ENV)
    # an installed package imports from cached bytecode, so let the warm-up write it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {mode} ran past the time budget")
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def check_pass(workload: str, seed: int, result: dict) -> wl.Verdict:
    if workload in wl.SWEEPS:
        return wl.check_sweep(workload, seed, result["cells"])
    return wl.check_analyze(result["commands"])


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Run probes and measuring processes; returns (metrics, verdict, record)."""
    OUT.mkdir(exist_ok=True)
    # the first interpreter byte-compiles the package; its time is not a sample
    first = run_worker(workload, seed, "setup", deadline)
    setups, procs = [], []

    def probe():
        for _ in range(PROBES_PER_ROUND):
            setups.append(run_worker(workload, seed, "setup", deadline)["setup_s"])

    if trace:
        probe()
        procs.append(run_worker(workload, seed, "measure", deadline))
        procs.append(run_worker(workload, seed, "measure", deadline, trace=True))
    else:
        # rounds of set-up probes and one measuring process spread both kinds
        # of sample over the whole run, so slow spells of a shared host
        # weigh on them alike
        start = time.time()
        while True:
            t = time.time()
            probe()
            until = start + seconds * (len(procs) + 1) / ROUNDS
            procs.append(run_worker(workload, seed, "measure", deadline, until=until))
            now = time.time()
            passes = sum(len(p["passes"]) for p in procs)
            # start another round only if it should end within --seconds
            if passes >= MIN_PASSES and now + (now - t) > start + seconds:
                break
        setups += [p["setup_s"] for p in procs]
    passes = [ps for p in procs for ps in p["passes"]]

    verdict = wl.Verdict()
    for k, ps in enumerate(passes):
        v = check_pass(workload, seed, ps)
        verdict.attempted += v.attempted
        verdict.failed += v.failed
        raised = ps.get("errors", []) + [c["error"] for c in ps.get("commands", []) if "error" in c]
        verdict.problems += [f"pass {k}: {p}" for p in v.problems + raised]
        verdict.drift_cells = max(verdict.drift_cells, v.drift_cells)
        if k:
            verdict.attempted += 1
            if wl.outcome_counts(ps) != wl.outcome_counts(passes[0]):
                verdict.fail(f"pass {k}: outputs differ from pass 0")

    if trace:
        plain, traced = passes
        metrics = dict(procs[1]["layers"])
        metrics["decode.golden_drift_cells"] = verdict.drift_cells
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(ps["wall_s"] for ps in passes),
            "words_per_s": statistics.median(ps["words"] / ps["wall_s"] for ps in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in procs),
        }
        units = END_TO_END_UNITS
    record = {
        "provenance": {
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": procs[0]["numpy"],
            "git_commit": git_commit(),
            "seed": seed,
            "threads": 1,
            "thread_env": THREAD_ENV,
        },
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "first_setup_s": first["setup_s"],
        "setup_samples": setups,
        "processes": [{k: v for k, v in p.items() if k != "layers"} for p in procs],
    }
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}, verdict, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "symldpc" / "__init__.py").is_file():
        print(f"error: no symldpc package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, verdict, record = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    share = verdict.failed / verdict.attempted
    record.update(metrics=metrics, attempted=verdict.attempted, failed=verdict.failed,
                  ops_failed_share=share, golden_drift_cells=verdict.drift_cells,
                  problems=verdict.problems)
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    passes = sum(len(p["passes"]) for p in record["processes"])
    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={passes} "
          f"setup_samples={len(record['setup_samples'])} record={result_file.relative_to(ROOT)}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'ops_failed_share':32s} {share:.6g} ratio ({verdict.failed} of {verdict.attempted})")
    if not args.trace:
        print(f"  {'decode.golden_drift_cells':32s} {verdict.drift_cells} count")
    for problem in verdict.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
