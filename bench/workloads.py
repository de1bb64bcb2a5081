"""Workload definitions, pinned results and the output checks.

Every workload is a fixed list of operations on fixed instances.  The
benchmark's --seed keys only the Philox channel noise of the sweeps; the
Gallager baselines are always drawn with GALLAGER_SEED, and analyze_cold
does not depend on the seed at all.  NOTES.md says why each workload and
instance was chosen.

An operation is one sweep cell or one analyze check (a build command
counts as one check: exit code plus the girth in its metadata).  The check
functions take the pinned tables as arguments so the self-tests can hand
them perturbed copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DEFAULT_SEED = 2026
GALLAGER_SEED = 101

# label -> ("geometry", family, n, q) or ("gallager", length, col_wt, row_wt)
CODES = {
    "C(2,4)": ("geometry", "symmetric", 2, 4),
    "CT(2,4)": ("geometry", "symmetric_transpose", 2, 4),
    "CT(2,2)": ("geometry", "symmetric_transpose", 2, 2),
    "G(12,2,3)": ("gallager", 12, 2, 3),
    "G(64,3,4)": ("gallager", 64, 3, 4),
    "G(80,3,5)": ("gallager", 80, 3, 5),
}


@dataclass(frozen=True)
class Sweep:
    channel: str  # "awgn" (params are Eb/N0 in dB) or "bec" (erasure probabilities)
    codes: tuple[str, ...]
    params: tuple[float, ...]
    trials: int  # per cell; below the library's default batch of 8192 one cell is one batch


@dataclass(frozen=True)
class Instance:
    label: str
    family: str
    n: int
    q: int
    checks: str | None  # None runs every analyze check
    budget: int | None
    # check name -> report fields that must match exactly
    expect: dict


SWEEPS = {
    "awgn_waterfall": Sweep(
        "awgn", ("C(2,4)", "CT(2,4)", "G(64,3,4)", "G(80,3,5)"), (1.0, 2.5), 4096
    ),
    "awgn_high_snr": Sweep(
        "awgn",
        ("CT(2,2)", "G(12,2,3)", "C(2,4)", "CT(2,4)", "G(64,3,4)", "G(80,3,5)"),
        (7.0,),
        16384,
    ),
    "bec_sweep": Sweep("bec", ("CT(2,4)", "C(2,4)"), (0.35, 0.45), 1000),
}

_GEOMETRY_CHECKS = "structure,girth,diameter,rank,witnesses"
_PASS = {"status": "pass"}

ANALYZE_COLD = (
    Instance(
        "C(3,3)", "symmetric", 3, 3, _GEOMETRY_CHECKS, None,
        {"structure": _PASS, "girth": {"value": 8}, "diameter": {"value": 8},
         "rank": {"value": 729}, "witnesses": _PASS},
    ),
    Instance(
        "CT(2,8)", "symmetric_transpose", 2, 8, _GEOMETRY_CHECKS, None,
        {"structure": _PASS, "girth": {"value": 8}, "diameter": {"value": 6},
         "rank": {"value": 289}, "witnesses": _PASS},
    ),
    Instance(
        "CT(2,4)", "symmetric_transpose", 2, 4, None, 8,
        {"structure": _PASS, "girth": {"value": 8}, "diameter": {"value": 6},
         "rank": {"value": 45},
         "mindist": {"value": 8, "exactness": "exact"},
         "stopdist": {"value": 8, "exactness": "exact"},
         "witnesses": _PASS},
    ),
    Instance(
        "C(2,4)", "symmetric", 2, 4, "mindist,witnesses", None,
        {"mindist": {"value": 16, "exactness": "exact", "method": "enumeration"},
         "witnesses": _PASS},
    ),
)
BUILD_GIRTH = 8

WORKLOADS = (*SWEEPS, "analyze_cold")

# Pinned (word_errors, bit_errors) per "code@param" cell, by noise seed, at the
# trial counts above.  Produced by the library at the seed commit of this
# benchmark; re-pin only with an explanation of the numerics change.
PINNED = {
    "awgn_waterfall": {
        "C(2,4)@1": {"2026": (600, 11562), "1": (669, 12772)},
        "C(2,4)@2.5": {"2026": (155, 2978), "1": (123, 2477)},
        "CT(2,4)@1": {"2026": (841, 11726), "1": (863, 12421)},
        "CT(2,4)@2.5": {"2026": (126, 1459), "1": (136, 1639)},
        "G(64,3,4)@1": {"2026": (1613, 20656), "1": (1682, 21791)},
        "G(64,3,4)@2.5": {"2026": (491, 5934), "1": (438, 5060)},
        "G(80,3,5)@1": {"2026": (1696, 19295), "1": (1764, 19864)},
        "G(80,3,5)@2.5": {"2026": (344, 3498), "1": (324, 3317)},
    },
    "awgn_high_snr": {
        "CT(2,2)@7": {"2026": (4, 16), "1": (7, 29)},
        "G(12,2,3)@7": {"2026": (111, 213), "1": (97, 192)},
        "C(2,4)@7": {"2026": (0, 0), "1": (0, 0)},
        "CT(2,4)@7": {"2026": (0, 0), "1": (0, 0)},
        "G(64,3,4)@7": {"2026": (0, 0), "1": (0, 0)},
        "G(80,3,5)@7": {"2026": (0, 0), "1": (0, 0)},
    },
    "bec_sweep": {
        "CT(2,4)@0.35": {"2026": (24, 249), "1": (14, 134)},
        "CT(2,4)@0.45": {"2026": (170, 2989), "1": (154, 2897)},
        "C(2,4)@0.35": {"2026": (0, 0), "1": (0, 0)},
        "C(2,4)@0.45": {"2026": (2, 32), "1": (0, 0)},
    },
}

# A cell whose word errors lie farther than this many standard deviations
# from the pinned rate fails; a closer difference only counts as drift.
WER_Z = 5.0


def cell_key(code: str, param: float) -> str:
    return f"{code}@{param:g}"


def reference_rate(pinned_cell: dict, trials: int) -> float:
    """Word error rate pooled over every pinned seed of one cell."""
    errors = sum(we for we, _ in pinned_cell.values())
    return errors / (trials * len(pinned_cell))


def wer_within_tolerance(word_errors: int, trials: int, pinned_cell: dict) -> bool:
    """Binomial test of one cell's word errors against the pooled pinned rate.

    The standard deviation is that of the difference between two binomial
    counts (this run and the pooled reference), with the rate floored at
    one error over the reference trials so that a pinned zero still allows
    a few errors.  The extra one absorbs rounding at tiny counts.
    """
    ref_trials = trials * len(pinned_cell)
    p = max(reference_rate(pinned_cell, trials), 1.0 / ref_trials)
    sd = math.sqrt(trials * p * (1.0 - p) * (1.0 + trials / ref_trials))
    return abs(word_errors - p * trials) <= WER_Z * sd + 1.0


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    drift_cells: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def check_sweep(workload: str, seed: int, cells: list[dict], pinned=PINNED) -> Verdict:
    """Check one pass's sweep cells.

    AWGN cells fail outside the binomial tolerance; at a pinned seed, counts
    that differ but stay inside it are drift.  BEC counts must equal the
    pinned counts at a pinned seed and the benchmark's own batched peeling
    result at every seed.
    """
    spec = SWEEPS[workload]
    verdict = Verdict()
    by_key = {cell_key(c["code"], c["param"]): c for c in cells}
    for key in (cell_key(c, p) for c in spec.codes for p in spec.params):
        verdict.attempted += 1
        cell = by_key.get(key)
        if cell is None:
            verdict.fail(f"{key}: no result")
            continue
        counts = (cell["word_errors"], cell["bit_errors"])
        pinned_cell = pinned[workload][key]
        exact = pinned_cell.get(str(seed))
        if cell["trials"] != spec.trials:
            verdict.fail(f"{key}: ran {cell['trials']} trials, expected {spec.trials}")
        elif spec.channel == "bec":
            if tuple(cell["oracle"]) != counts:
                verdict.fail(f"{key}: counts {counts} differ from batched peeling {cell['oracle']}")
            elif exact is not None and tuple(exact) != counts:
                verdict.fail(f"{key}: counts {counts} differ from pinned {tuple(exact)}")
        elif not wer_within_tolerance(cell["word_errors"], spec.trials, pinned_cell):
            verdict.fail(
                f"{key}: {cell['word_errors']} word errors outside the tolerance of the "
                f"pinned rate {reference_rate(pinned_cell, spec.trials):.5f}"
            )
        elif exact is not None and tuple(exact) != counts:
            verdict.drift_cells += 1
    return verdict


def check_analyze(commands: list[dict], instances=ANALYZE_COLD) -> Verdict:
    """Check one analyze_cold pass: builds, then every pinned report value."""
    verdict = Verdict()
    by_key = {(c["instance"], c["command"]): c for c in commands}
    for inst in instances:
        build = by_key.get((inst.label, "build"))
        verdict.attempted += 1
        if build is None or build["rc"] != 0:
            verdict.fail(f"{inst.label}: build did not exit 0")
        elif build.get("meta", {}).get("girth") != BUILD_GIRTH:
            verdict.fail(f"{inst.label}: build metadata girth is not {BUILD_GIRTH}")
        analyze = by_key.get((inst.label, "analyze"))
        for check, fields in inst.expect.items():
            verdict.attempted += 1
            if analyze is None or analyze["rc"] != 0:
                verdict.fail(f"{inst.label}: analyze did not exit 0")
                continue
            entry = analyze.get("report", {}).get(check, {})
            for field, want in fields.items():
                if entry.get(field) != want:
                    verdict.fail(f"{inst.label} {check}.{field}: {entry.get(field)!r}, expected {want!r}")
                    break
    return verdict


def outcome_counts(pass_result: dict):
    """The outputs of one pass that must repeat exactly across passes."""
    if "cells" in pass_result:
        return [(c["code"], c["param"], c["word_errors"], c["bit_errors"]) for c in pass_result["cells"]]
    return [(c["instance"], c["command"], c["rc"], c.get("report"), c.get("meta"))
            for c in pass_result["commands"]]
