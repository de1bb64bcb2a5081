"""One workload process: cold set-up, then optionally measured passes.

    python3 bench/worker.py --workload NAME --seed N --out-dir DIR \
        --mode setup|measure [--until T] [--trace]

run.py starts a fresh interpreter per set-up probe and per measuring
process, because `codes.sym_space`, `gf.field_of_size` and `SymSpace.lines`
cache what a cold `symldpc` process has to build.  Set-up is the cold
import of `symldpc` plus construction of every code the workload sweeps
(import only for analyze_cold, where construction is the measured work).

A pass is one run of the workload's operations.  Sweeps repeat passes in
the process until the next one would end past the time.time() value
--until (at least one pass); the sweep calls build their decoders
themselves and touch no cache.  analyze_cold makes exactly one pass, so its construction stays cold.  The
last line of standard output is one JSON object with every pass's raw
outputs; run.py checks them.  Needs `src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import workloads as wl
from tracing import Tracer, children_of, install_library_spans, layer_metrics

_MASK64 = (1 << 64) - 1


def build_code(symldpc, label: str):
    kind, *params = wl.CODES[label]
    if kind == "geometry":
        return symldpc.codes.make_code(*params)
    return symldpc.codes.gallager_random(*params, seed=wl.GALLAGER_SEED)


def bec_peeling_counts(np, h, p: float, trials: int, seed: int, cell: int) -> tuple[int, int]:
    """(word errors, bit errors) of a BEC cell by batched parallel peeling.

    Regenerates the cell's erasures from the Philox stream layout that
    `symldpc.sim` documents, then resolves every erased bit that is the only
    erasure of some check, all trials at once, until nothing changes.  What
    remains is the largest stopping set inside the erasure pattern, which
    any peeling order reaches, so the counts must equal the sweep's.
    """
    n = h.ncols
    wpt = (n + 3) // 4 * 4
    bg = np.random.Philox(key=((seed & _MASK64) << 64) | (cell & _MASK64))
    raw = bg.random_raw(trials * wpt).reshape(trials, wpt)[:, :n]
    erased = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53 < p
    hmat = h.toarray().astype(np.int32)
    while True:
        lonely = (erased.astype(np.int32) @ hmat.T) == 1
        solved = erased & ((lonely.astype(np.int32) @ hmat) > 0)
        if not solved.any():
            break
        erased &= ~solved
    left = erased.sum(axis=1)
    return int(np.count_nonzero(left)), int(left.sum())


def run_sweep(symldpc, spec: wl.Sweep, built: dict, seed: int, span):
    """Returns [(code label, sweep span or None, results)] and the errors raised."""
    sweep = symldpc.sim.run_awgn_sweep if spec.channel == "awgn" else symldpc.sim.run_bec_sweep
    runs, errors = [], []
    for label in spec.codes:
        results = []
        with span("sim.sweep") as rec:
            try:
                results = sweep(built[label], spec.params, spec.trials, seed, threads=1)
            except Exception as exc:  # its cells go missing, so the check fails them
                errors.append(f"{label}: {type(exc).__name__}: {exc}")
        if rec is not None:
            rec["counts"]["cells"] = len(results)
        runs.append((label, rec, results))
    return runs, errors


def run_analyze(symldpc, tmp: str, span):
    commands = []
    for inst in wl.ANALYZE_COLD:
        alist = os.path.join(tmp, f"{inst.family}-{inst.n}-{inst.q}.alist")
        build = ["build", "--n", str(inst.n), "--q", str(inst.q), "--family", inst.family, "--out", alist]
        analyze = ["analyze", "--infile", alist]
        if inst.checks:
            analyze += ["--checks", inst.checks]
        if inst.budget:
            analyze += ["--budget", str(inst.budget)]
        for command, argv in (("build", build), ("analyze", analyze)):
            buf = io.StringIO()
            entry = {"instance": inst.label, "command": command, "alist": alist}
            t0 = time.perf_counter()
            try:
                with span(f"cli.{command}"), contextlib.redirect_stdout(buf):
                    entry["rc"] = symldpc.cli.main(argv)
            except Exception as exc:  # a raised error is a failed operation, not a crash
                entry["rc"] = None
                entry["error"] = f"{type(exc).__name__}: {exc}"
            entry["seconds"] = time.perf_counter() - t0
            entry["stdout"] = buf.getvalue()
            commands.append(entry)
    return commands


def _parsed_outputs(commands: list[dict]) -> list[dict]:
    """Analyze reports and build metadata, read after the timed section."""
    out = []
    for c in commands:
        entry = {k: c[k] for k in ("instance", "command", "rc", "seconds") if k in c}
        if "error" in c:
            entry["error"] = c["error"]
        try:
            if c["rc"] == 0 and c["command"] == "analyze":
                report = json.loads(c["stdout"])
                for check in report.values():
                    check.pop("dependent_columns", None)
                entry["report"] = report
            elif c["rc"] == 0:
                with open(c["alist"] + ".meta.json", encoding="utf-8") as f:
                    entry["meta"] = json.load(f)
        except (OSError, ValueError) as exc:  # the check finds no report and fails it
            entry["error"] = f"{type(exc).__name__}: {exc}"
        out.append(entry)
    return out


def _cell_detail(spans, runs) -> list[dict]:
    """Per-cell records for the trace file; decoder spans split evenly over cells."""
    out = []
    for label, rec, results in runs:
        bp = children_of(spans, rec["id"], "decode.bp")
        peel = children_of(spans, rec["id"], "decode.peel")
        for k, r in enumerate(results):
            row = {"code": label, "param": r.param, "trials": r.trials,
                   "seconds": r.elapsed, "words_per_s": r.trials / r.elapsed}
            if bp:
                part = bp[k * len(bp) // len(results):(k + 1) * len(bp) // len(results)]
                row["mean_iterations"] = (
                    sum(s["counts"]["iterations"] for s in part) / sum(s["counts"]["words"] for s in part)
                )
            if peel:
                part = peel[k * len(peel) // len(results):(k + 1) * len(peel) // len(results)]
                row["stalled_share"] = sum(s["counts"]["stalled"] for s in part) / len(part)
            out.append(row)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "measure"])
    parser.add_argument("--until", type=float, default=0.0, help="time.time() by which sweep passes end")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    spec = wl.SWEEPS.get(args.workload)

    t0 = time.perf_counter()
    import symldpc
    import symldpc.cli

    tracer = Tracer() if args.trace else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    if tracer:
        install_library_spans(tracer, symldpc)
    built = {label: build_code(symldpc, label) for label in spec.codes} if spec else {}
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import numpy as np

    passes = []
    tmp = tempfile.mkdtemp(prefix="analyze-", dir=args.out_dir)
    try:
        while True:
            t1 = time.perf_counter()
            with span("bench.measured"):
                if spec:
                    runs, errors = run_sweep(symldpc, spec, built, args.seed, span)
                else:
                    commands = run_analyze(symldpc, tmp, span)
            now = time.perf_counter()
            if spec:
                cells = [{"code": label, "param": r.param, "trials": r.trials,
                          "word_errors": r.word_errors, "bit_errors": r.bit_errors}
                         for label, _, results in runs for r in results]
                passes.append({"wall_s": now - t1, "cells": cells, "errors": errors,
                               "words": sum(c["trials"] for c in cells)})
            else:
                passes.append({"wall_s": now - t1, "commands": commands, "words": len(wl.ANALYZE_COLD)})
            # analyze_cold stays cold: one pass per process
            if not spec or time.time() + (now - t1) > args.until:
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if tracer:
            for owner, attr, original in tracer.uninstall():
                if vars(owner)[attr] is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} was not restored")
        if spec and spec.channel == "bec":
            # every pass decodes the same noise, so one oracle serves them all
            oracle = [bec_peeling_counts(np, built[label].h, r.param, r.trials, args.seed, cell)
                      for label, _, results in runs for cell, r in enumerate(results)]
            for p in passes:
                for cell, counts in zip(p["cells"], oracle):
                    cell["oracle"] = counts
        if not spec:
            passes[0]["commands"] = _parsed_outputs(commands)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result.update(passes=passes, rss_mb=rss_mb, numpy=np.__version__)
    if tracer:
        result["layers"] = layer_metrics(tracer.spans)
        trace_file = os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_file, "w", encoding="utf-8") as f:
            json.dump({
                "workload": args.workload,
                "seed": args.seed,
                "cells": _cell_detail(tracer.spans, runs) if spec else [],
                "spans": tracer.spans,
            }, f)
        result["trace_file"] = trace_file
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
