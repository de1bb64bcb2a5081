"""Spans around the library's public entry points, recorded from outside.

A Tracer replaces each entry point with a wrapper at the place its caller
looks it up (a module global or a class attribute), records one span per
call (name, start, end, parent) plus per-call counts, and puts the original
object back on uninstall.  Spans stay in memory until the run writes them.
Self time of a span is its duration minus the time its child spans cover;
the program is single-threaded, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace calls of owner.attr; count(counts, args, result) fills span counts."""
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(rec)
            if count is not None:
                count(rec["counts"], args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> list[tuple[object, str, object]]:
        """Restore every wrapped name; returns the (owner, attr, original) list."""
        patches = self._patches
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        self._patches = []
        return patches


def _count_bp(counts, args, result):
    decoder = args[0]
    bits, converged, iterations = result
    total = int(iterations.sum())
    counts["words"] = len(iterations)
    counts["iterations"] = total
    counts["converged"] = int(converged.sum())
    # all-zero codeword sent: a converged nonzero word is an undetected error
    counts["undetected"] = int((converged & bits.any(axis=1)).sum())
    counts["edge_updates"] = total * int(decoder.n_edges)


def _count_peel(counts, args, result):
    counts["stalled"] = int(result.status == "stalled")


def install_library_spans(tracer: Tracer, symldpc) -> None:
    """Wrap every traced entry point where its callers look it up."""
    cli, codes, decode, gf2, sim = (
        symldpc.cli, symldpc.codes, symldpc.decode, symldpc.gf2, symldpc.sim,
    )
    seen_spaces = set()

    def count_lines(counts, args, result):
        # the first call on a SymSpace enumerates; later calls return its cache
        if id(args[0]) not in seen_spaces:
            seen_spaces.add(id(args[0]))
            counts["lines"] = len(result)

    tracer.wrap(sim, "peel_decode_bec", "decode.peel", _count_peel)
    tracer.wrap(decode.SumProductDecoder, "decode_batch", "decode.bp", _count_bp)
    tracer.wrap(decode.SumProductDecoder, "__init__", "decode.bp_init")
    tracer.wrap(codes, "make_code", "codes.make_code")
    tracer.wrap(codes, "build_h", "incidence.build_h")
    tracer.wrap(codes, "graph_girth", "incidence.girth")
    tracer.wrap(codes, "field_of_size", "gf.field_tables")
    tracer.wrap(symldpc.symspace.SymSpace, "lines", "symspace.lines", count_lines)
    tracer.wrap(gf2, "rank_gf2", "gf2.rank")
    tracer.wrap(gf2, "min_distance", "gf2.min_distance")
    tracer.wrap(gf2, "stopping_distance", "gf2.stopping_distance")
    for witness in ("ctranspose_witness", "c2q_witness", "independent_row_family"):
        tracer.wrap(codes, witness, "codes.witness")
    tracer.wrap(cli, "girth", "incidence.girth")
    tracer.wrap(cli, "diameter", "incidence.diameter")
    tracer.wrap(cli, "verify_structure", "incidence.verify_structure")
    tracer.wrap(cli, "read_alist", "cli.alist_read")
    tracer.wrap(cli, "write_alist", "cli.alist_write")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one pass's spans (0 where a layer did not run).

    Totals and call counts take only the outermost span of each name, so a
    name that re-enters itself is not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def outermost(s):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                return False
            p = by_id[p]["parent"]
        return True

    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    counts = defaultdict(int)
    for s in spans:
        dur = s["end"] - s["start"]
        self_time[s["name"]] += dur - child_time[s["id"]]
        if outermost(s):
            total[s["name"]] += dur
            calls[s["name"]] += 1
        for k, v in s["counts"].items():
            counts[f"{s['name']}.{k}"] += v

    bp_s, bp_words = total["decode.bp"], counts["decode.bp.words"]
    peel_s, peel_calls = total["decode.peel"], calls["decode.peel"]
    return {
        "decode.bp_s": bp_s,
        "decode.bp_calls": calls["decode.bp"],
        "decode.bp_words": bp_words,
        "decode.bp_iterations": counts["decode.bp.iterations"],
        "decode.bp_mean_iterations": _ratio(counts["decode.bp.iterations"], bp_words),
        # computed: sum over words of iterations x Tanner-graph edges, over bp_s
        "decode.bp_edge_updates_per_s": _ratio(counts["decode.bp.edge_updates"], bp_s),
        "decode.bp_converged_share": _ratio(counts["decode.bp.converged"], bp_words),
        "decode.bp_undetected_errors": counts["decode.bp.undetected"],
        "decode.bp_init_s": total["decode.bp_init"],
        "sim.sweep_s": total["sim.sweep"],
        "sim.self_s": self_time["sim.sweep"],
        "sim.self_share": _ratio(self_time["sim.sweep"], total["sim.sweep"]),
        "sim.cells": counts["sim.sweep.cells"],
        "decode.peel_s": peel_s,
        "decode.peel_calls": peel_calls,
        "decode.peel_us_per_word": _ratio(peel_s * 1e6, peel_calls),
        "decode.peel_stalled_share": _ratio(counts["decode.peel.stalled"], peel_calls),
        "gf.field_tables_s": total["gf.field_tables"],
        "symspace.lines_s": total["symspace.lines"],
        "symspace.lines_per_s": _ratio(counts["symspace.lines.lines"], total["symspace.lines"]),
        "incidence.build_h_s": total["incidence.build_h"],
        "incidence.build_h_calls": calls["incidence.build_h"],
        "gf2.rank_s": total["gf2.rank"],
        "gf2.rank_calls": calls["gf2.rank"],
        "codes.make_code_self_s": self_time["codes.make_code"],
        "incidence.girth_s": total["incidence.girth"],
        "incidence.girth_calls": calls["incidence.girth"],
        "incidence.diameter_s": total["incidence.diameter"],
        "incidence.verify_structure_s": total["incidence.verify_structure"],
        "gf2.min_distance_s": total["gf2.min_distance"],
        "gf2.stopping_distance_s": total["gf2.stopping_distance"],
        "codes.witness_s": total["codes.witness"],
        "cli.build_s": total["cli.build"],
        "cli.analyze_s": total["cli.analyze"],
        "cli.alist_read_s": total["cli.alist_read"],
        "cli.alist_write_s": total["cli.alist_write"],
        "cli.self_s": self_time["cli.build"] + self_time["cli.analyze"],
    }


def children_of(spans: list[dict], parent_id: int, name: str) -> list[dict]:
    return [s for s in spans if s["parent"] == parent_id and s["name"] == name]
