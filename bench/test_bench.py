"""Self-tests of the benchmark: output checks, tracing and its definition.

    python3 -m pytest bench/test_bench.py -q

Small sizes only; the full workloads run through bench/run.py.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402
import symldpc  # noqa: E402
import symldpc.cli  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer, install_library_spans, layer_metrics  # noqa: E402
from worker import bec_peeling_counts, build_code  # noqa: E402


def _pinned_cells(workload: str, seed: int) -> list[dict]:
    spec = wl.SWEEPS[workload]
    cells = []
    for code in spec.codes:
        for p in spec.params:
            we, be = wl.PINNED[workload][wl.cell_key(code, p)][str(seed)]
            cell = {"code": code, "param": p, "trials": spec.trials, "word_errors": we, "bit_errors": be}
            if spec.channel == "bec":
                cell["oracle"] = [we, be]
            cells.append(cell)
    return cells


def test_pinned_counts_pass_at_both_pinned_seeds():
    for workload in wl.SWEEPS:
        for seed in (wl.DEFAULT_SEED, 1):
            v = wl.check_sweep(workload, seed, _pinned_cells(workload, seed))
            assert (v.attempted, v.failed, v.drift_cells) == (len(_pinned_cells(workload, seed)), 0, 0)


def test_perturbed_awgn_count_fails_far_and_drifts_near():
    pinned = copy.deepcopy(wl.PINNED)
    key = wl.cell_key("C(2,4)", 1.0)
    we, be = pinned["awgn_waterfall"][key]["2026"]
    cells = _pinned_cells("awgn_waterfall", 2026)

    pinned["awgn_waterfall"][key]["2026"] = (we + 1, be)
    v = wl.check_sweep("awgn_waterfall", 2026, cells, pinned)
    assert (v.failed, v.drift_cells) == (0, 1)

    pinned["awgn_waterfall"][key] = {"2026": (2 * we, be), "1": (2 * we, be)}
    v = wl.check_sweep("awgn_waterfall", 2026, cells, pinned)
    assert v.failed == 1 and key in v.problems[0]


def test_perturbed_bec_count_fails():
    pinned = copy.deepcopy(wl.PINNED)
    key = wl.cell_key("CT(2,4)", 0.45)
    we, be = pinned["bec_sweep"][key]["1"]
    pinned["bec_sweep"][key]["1"] = (we, be + 1)
    v = wl.check_sweep("bec_sweep", 1, _pinned_cells("bec_sweep", 1), pinned)
    assert v.failed == 1 and v.drift_cells == 0

    cells = _pinned_cells("bec_sweep", 1)
    cells[0]["oracle"] = [cells[0]["word_errors"] + 1, cells[0]["bit_errors"]]
    assert wl.check_sweep("bec_sweep", 1, cells).failed == 1


def test_missing_cell_is_a_failed_operation():
    cells = _pinned_cells("awgn_high_snr", 2026)[1:]
    v = wl.check_sweep("awgn_high_snr", 2026, cells)
    assert (v.attempted, v.failed) == (6, 1)


def _passing_commands(instances) -> list[dict]:
    commands = []
    for inst in instances:
        commands.append({"instance": inst.label, "command": "build", "rc": 0, "meta": {"girth": 8}})
        report = {check: dict(fields) for check, fields in inst.expect.items()}
        commands.append({"instance": inst.label, "command": "analyze", "rc": 0, "report": report})
    return commands


def test_perturbed_analyze_value_fails():
    commands = _passing_commands(wl.ANALYZE_COLD)
    v = wl.check_analyze(commands)
    assert v.failed == 0 and v.attempted == 4 + sum(len(i.expect) for i in wl.ANALYZE_COLD)

    perturbed = [wl.Instance(**{**vars(i), "expect": copy.deepcopy(i.expect)}) for i in wl.ANALYZE_COLD]
    perturbed[0].expect["diameter"]["value"] = 7
    assert wl.check_analyze(commands, perturbed).failed == 1

    commands[1]["rc"] = 1
    assert wl.check_analyze(commands).failed == len(wl.ANALYZE_COLD[0].expect)


def _small_pass(symldpc, span, tmp: Path) -> list:
    """A small sweep on each channel plus a build and an analyze."""
    codes = {label: build_code(symldpc, label) for label in ("CT(2,4)", "G(12,2,3)")}
    out = []
    with span("sim.sweep"):
        out += symldpc.sim.run_awgn_sweep(codes["G(12,2,3)"], [1.0, 4.0], 300, 5, threads=1, batch_size=128)
    with span("sim.sweep"):
        out += symldpc.sim.run_bec_sweep(codes["CT(2,4)"], [0.4], 200, 5, threads=1)
    alist = str(tmp / "c22.alist")
    for argv in (["build", "--n", "2", "--q", "2", "--family", "symmetric", "--out", alist],
                 ["analyze", "--infile", alist, "--checks", "structure,girth,diameter,rank,stopdist,witnesses"]):
        buf = io.StringIO()
        with span(f"cli.{argv[0]}"), contextlib.redirect_stdout(buf):
            assert symldpc.cli.main(argv) == 0
        out.append(buf.getvalue())
    return [(r.word_errors, r.bit_errors) if hasattr(r, "word_errors") else r for r in out]


def test_traced_pass_restores_originals_and_keeps_counts(tmp_path):
    untraced = _small_pass(symldpc, lambda name: contextlib.nullcontext(), tmp_path)

    tracer = Tracer()
    install_library_spans(tracer, symldpc)
    patched = [(owner, attr) for owner, attr, _ in tracer._patches]
    originals = {(id(owner), attr): original for owner, attr, original in tracer._patches}
    assert all(vars(owner)[attr] is not originals[(id(owner), attr)] for owner, attr in patched)
    try:
        traced = _small_pass(symldpc, tracer.span, tmp_path)
    finally:
        tracer.uninstall()

    assert all(vars(owner)[attr] is originals[(id(owner), attr)] for owner, attr in patched)
    assert traced == untraced
    layers = layer_metrics(tracer.spans)
    assert layers["decode.bp_words"] == 600 and layers["decode.bp_calls"] == 6
    assert layers["decode.peel_calls"] == 200
    assert layers["sim.self_s"] < layers["sim.sweep_s"]
    assert layers["incidence.girth_calls"] == 2  # build metadata and the girth check
    assert layers["gf2.stopping_distance_s"] > 0 and layers["cli.alist_read_s"] > 0


def test_self_time_excludes_children():
    def bp(span_id, start, end, iterations, converged):
        counts = {"words": 2, "iterations": iterations, "edge_updates": 10 * iterations,
                  "converged": converged, "undetected": 0}
        return {"id": span_id, "name": "decode.bp", "parent": 0, "start": start, "end": end, "counts": counts}

    spans = [
        {"id": 0, "name": "sim.sweep", "parent": None, "start": 0.0, "end": 10.0, "counts": {}},
        bp(1, 1.0, 4.0, 6, 1),
        bp(2, 5.0, 9.0, 2, 2),
    ]
    m = layer_metrics(spans)
    assert m["sim.sweep_s"] == 10.0 and m["sim.self_s"] == 3.0
    assert m["decode.bp_s"] == 7.0 and m["decode.bp_mean_iterations"] == 2.0
    assert m["decode.bp_converged_share"] == 0.75 and m["decode.bp_edge_updates_per_s"] == 80 / 7


def test_batched_peeling_matches_library_sweep():
    code = build_code(symldpc, "CT(2,4)")
    for seed in (1, 9):
        res = symldpc.sim.run_bec_sweep(code, [0.3, 0.45], 150, seed, threads=1)
        for cell, r in enumerate(res):
            assert bec_peeling_counts(np, code.h, r.param, 150, seed, cell) == (r.word_errors, r.bit_errors)
    assert res[1].word_errors > 0


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = [*layer_metrics([]), "decode.golden_drift_cells", "trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {n: run.layer_unit(n) for n in layer_names}
