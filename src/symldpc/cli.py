"""Command-line surface: build, analyze, simulate, export.

The alist interchange format, written bit-exactly:

    line 1: "N M"            N = columns (variable nodes), M = rows (checks)
    line 2: "max_col_wt max_row_wt"
    line 3: N column weights
    line 4: M row weights
    next N lines: 1-based row indices per column, zero-padded to max_col_wt
    next M lines: 1-based column indices per row, zero-padded to max_row_wt

Single-space separation, every line newline-terminated.  `build` writes a
sidecar JSON metadata file next to the alist.  `analyze` and `simulate`
work on one `codes.CodeSpec`, made by `_load_code`: from the alist, with
family, n and q taken from the flags or else the sidecar, or by
`make_code` from the flags.  `analyze` seeds both distance searches with
`CodeSpec.witness`, which the searches check; it is built at most once per
run, by the first check that needs it.  All simulate output is the fixed
CSV schema from `sim`.  Bad input (files, sidecar values, sweep items)
ends in one `error:` line and exit status 1.

`build_parser` is the one description of the flags: their names, defaults,
choices and which are required.  Each subcommand handler takes the parsed
`argparse.Namespace` as it is, and `--dry-run` prints that namespace (the
subcommand's own flags plus `subcommand` and `dry_run`) as JSON.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import codes, gf2, sim
from .exceptions import BadParametersError, StructureViolationError, SymLdpcError
from .incidence import SparseBitMatrix, diameter, girth, translation_roots, verify_structure


# -- alist ----------------------------------------------------------------


def write_alist(h: SparseBitMatrix, path) -> None:
    """Write h as an alist, each block of lists from one side's `cols` and `row_weights` arrays."""
    sides = (h.transpose(), h)
    widths = [int(side.row_weights.max(initial=0)) for side in sides]
    lines = [f"{h.ncols} {h.nrows}", " ".join(map(str, widths))]
    lines += (" ".join(map(str, side.row_weights.tolist())) for side in sides)
    for side, width in zip(sides, widths):
        # each list's 1-based entries in order, then 0s up to the block's width
        padded = np.zeros((side.nrows, width), dtype=np.int64)
        padded[np.arange(width) < side.row_weights[:, None]] = side.cols + 1
        lines += (" ".join(map(str, row)) for row in padded.tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sorted_entries(lists) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of a block of lists as arrays, and each list's count.

    Returns (list number, value) of every nonzero entry, ordered by list and
    then by value, and the number of nonzero entries per list.
    """
    sizes = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    values = np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=int(sizes.sum()))
    owner = np.repeat(np.arange(len(lists)), sizes)
    keep = values != 0
    owner, values = owner[keep], values[keep]
    order = np.lexsort((values, owner))
    return owner[order], values[order], np.bincount(owner, minlength=len(lists))


def read_alist(path) -> SparseBitMatrix:
    """H built from an alist's row lists, with each column list checked against it.

    Zero entries are padding, and the entries of a list may come in any
    order.  Only blank lines may follow the last list.  Each block of lists
    is checked as arrays, and the first faulty list is named by its line.
    """

    def bad(lineno: int, message: str) -> BadParametersError:
        return BadParametersError(f"{path}:{lineno}: {message}")

    def first_fault(faults, start: int) -> None:
        """Raise for the earliest list of any (list numbers, message) pair; earlier pairs win ties."""
        found = [(int(at[0]), k) for k, (at, _) in enumerate(faults) if len(at)]
        if found:
            i, k = min(found)
            raise bad(start + i, faults[k][1](i))

    lists: list[list[int]] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        try:
            lists.append(list(map(int, line.split())))
        except ValueError as exc:
            raise bad(lineno, f"not an integer row: {exc}")
    if len(lists) < 4:
        raise BadParametersError(f"{path}: truncated alist (needs at least 4 lines)")
    if len(lists[0]) != 2 or min(lists[0]) < 0:
        raise bad(1, "expected 'N M'")
    ncols, nrows = lists[0]
    expected = 4 + ncols + nrows
    if len(lists) < expected:
        raise BadParametersError(f"{path}: expected {expected} data lines, found {len(lists)}")
    for k in range(expected, len(lists)):
        if lists[k]:
            raise bad(k + 1, "data after the last list")
    col_weights, row_weights = lists[2], lists[3]
    if len(col_weights) != ncols:
        raise bad(3, f"expected {ncols} column weights")
    if len(row_weights) != nrows:
        raise bad(4, f"expected {nrows} row weights")
    max_col, max_row = max(col_weights, default=0), max(row_weights, default=0)
    if lists[1] != [max_col, max_row]:
        raise bad(2, f"expected the max column and row weights {max_col} {max_row}")
    try:
        row, col, counts = _sorted_entries(lists[4 + ncols : expected])
        col_of, row_of_col, col_counts = _sorted_entries(lists[4 : 4 + ncols])
    except OverflowError:
        k = next(k for k in range(4, expected) if any(abs(v) >= 1 << 63 for v in lists[k]))
        raise bad(k + 1, "an index does not fit in 64 bits")
    del lists[4:]  # the arrays hold the lists' entries now
    repeats = (row[1:] == row[:-1]) & (col[1:] == col[:-1])
    first_fault(
        [
            (np.flatnonzero(counts != row_weights),
             lambda i: f"row {i} lists {counts[i]} columns, weight says {row_weights[i]}"),
            (row[1:][repeats], lambda i: f"row {i} repeats a column index"),
            (row[(col < 1) | (col > ncols)], lambda i: f"row {i} has a column index out of range"),
        ],
        5 + ncols,
    )
    h = SparseBitMatrix.from_flat(nrows, ncols, col - 1, counts)
    # a column disagrees when its count does or, at an equal count, an entry does
    same = col_counts == h.col_weights
    listed, built = np.repeat(same, col_counts), np.repeat(same, h.col_weights)
    differs = ~same
    differs[col_of[listed][row_of_col[listed] - 1 != h.transpose().cols[built]]] = True
    first_fault(
        [
            (np.flatnonzero(col_counts != col_weights),
             lambda j: f"column {j} lists {col_counts[j]} rows, weight says {col_weights[j]}"),
            (np.flatnonzero(differs),
             lambda j: f"column {j} disagrees with the row lists"),
        ],
        5,
    )
    return h


# -- subcommands -------------------------------------------------------------


def _meta_path(out: str) -> Path:
    return Path(str(out) + ".meta.json")


def cmd_build(args: argparse.Namespace) -> int:
    if args.fmt != "alist":
        raise BadParametersError(f"unknown build format {args.fmt!r}")
    code = codes.make_code(args.family, args.n, args.q)
    # everything the sidecar holds, the girth too, comes before any file is
    # written, so a refusal leaves neither file rather than an alist without one
    meta = {
        "family": code.family,
        "n": args.n,
        "q": args.q,
        "rows": code.h.nrows,
        "cols": code.h.ncols,
        "rho": int(code.h.row_weights[0]),
        "gamma": int(code.h.col_weights[0]),
        "girth": _jsonable(code.girth),
    }
    write_alist(code.h, args.out)
    _meta_path(args.out).write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {code.h.nrows}x{code.h.ncols} alist to {args.out}")
    return 0


def _jsonable(value):
    if value == float("inf"):
        return "infinite"
    return value


ALL_CHECKS = ["structure", "girth", "diameter", "rank", "mindist", "stopdist", "witnesses"]


def cmd_analyze(args: argparse.Namespace) -> int:
    code = _load_code(args)
    checks = args.checks.split(",") if args.checks else list(ALL_CHECKS)
    for c in checks:
        if c not in ALL_CHECKS:
            raise BadParametersError(f"unknown check {c!r}; choose from {ALL_CHECKS}")
    if args.budget is not None and args.budget < 1:
        raise BadParametersError(f"--budget must be >= 1, got {args.budget}")
    report: dict[str, dict] = {}
    for check in checks:
        report[check] = _run_check(check, code, args.budget)
    print(json.dumps(report, indent=2, sort_keys=True))
    ok = all(entry.get("status") not in ("fail", "error") for entry in report.values())
    return 0 if ok else 1


def _run_check(check: str, code: codes.CodeSpec, budget: int | None) -> dict:
    h = code.h
    if check == "structure":
        if code.n is None or code.q is None:
            return {"status": "error", "detail": "structure check needs --n and --q"}
        oriented = h.transpose() if code.family == codes.FAMILY_TRANSPOSE else h
        try:
            rep = verify_structure(oriented, code.n, code.q)
        except StructureViolationError as exc:
            return {"status": "fail", "detail": str(exc)}
        return {"status": "pass", "rho": rep.rho, "gamma": rep.gamma, "lambda_max": rep.lambda_max}
    if check in ("girth", "diameter"):
        value = (girth if check == "girth" else diameter)(h)
        return {"status": "ok", "value": _jsonable(value), "roots": len(translation_roots(h))}
    if check == "rank":
        return {
            "status": "ok",
            "value": code.length - code.dimension,
            "dimension": code.dimension,
            "method": code.dimension_method,
        }
    if check == "mindist":
        budgets = {} if budget is None else {"budget": budget}
        return _distance_entry(gf2.min_distance(h, seed=code.witness, **budgets))
    if check == "stopdist":
        return _distance_entry(gf2.stopping_distance(h, budget=budget, seed=code.witness))
    if check == "witnesses":
        return _witness_check(code)
    raise AssertionError(check)


def _distance_entry(res: gf2.DistanceResult) -> dict:
    return {"status": "ok", "value": res.value, "exactness": res.status, "method": res.method}


def _witness_check(code: codes.CodeSpec) -> dict:
    h, family, n, q = code.h, code.family, code.n, code.q
    if family not in (codes.FAMILY_SYMMETRIC, codes.FAMILY_TRANSPOSE) or n is None or q is None:
        return {
            "status": "error",
            "detail": "witness checks need a symmetric-family alist with --family/--n/--q",
        }
    out: dict = {"status": "pass"}
    witness = code.witness
    if witness is not None:
        ok = gf2.columns_sum_zero(h, witness)
        out["dependent_columns"] = sorted(witness)
        out["columns_sum_zero"] = ok
        if not ok:
            out["status"] = "fail"
    if family == codes.FAMILY_SYMMETRIC:
        rows = codes.independent_row_family(n, q)
        if max(rows) >= h.nrows:
            raise StructureViolationError(
                f"{code.code_id}: independent row {max(rows)} is outside the {h.nrows} rows of h"
            )
        keep = np.isin(h.nonzero()[0], list(rows))
        weights = h.row_weights[sorted(rows)]
        sub = SparseBitMatrix.from_flat(len(rows), h.ncols, h.cols[keep], weights)
        rank = gf2.rank_gf2(sub)
        out["independent_rows"] = len(rows)
        out["independent_rows_rank"] = rank
        if rank != len(rows):
            out["status"] = "fail"
    return out


def _parse_sweep(text: str) -> list[float]:
    def number(part: str) -> float:
        try:
            return float(part)
        except ValueError:
            raise BadParametersError(f"sweep {text!r}: {part!r} is not a number")

    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise BadParametersError(f"sweep range must be start:stop:step, got {text!r}")
        start, stop, step = (number(p) for p in parts)
        if step <= 0:
            raise BadParametersError("sweep step must be positive")
        out = []
        v = start
        while v <= stop + 1e-9:
            out.append(round(v, 10))
            v += step
    else:
        out = [number(p) for p in text.split(",") if p.strip()]
    if not out:
        raise BadParametersError(f"sweep {text!r} has no points")
    return out


def _load_code(args: argparse.Namespace) -> codes.CodeSpec:
    """The code that analyze and simulate work on.

    With --infile, h is read from the alist and the file stem is the code
    id; family, n and q come from the flags, else the build sidecar, else
    the family is "alist", and CodeSpec checks them.  Otherwise make_code
    builds the code from the flags.
    """
    if not args.infile:
        if args.family is None or args.n is None or args.q is None:
            raise BadParametersError("simulate requires --infile or --family/--n/--q")
        return codes.make_code(args.family, args.n, args.q)
    h = read_alist(args.infile)
    meta = _read_meta(_meta_path(args.infile))
    return codes.CodeSpec(
        family=args.family or meta.get("family") or "alist",
        h=h,
        code_id=Path(args.infile).stem,
        n=meta.get("n") if args.n is None else args.n,
        q=meta.get("q") if args.q is None else args.q,
    )


def _read_meta(path: Path) -> dict:
    """The sidecar next to an alist as a dict; empty when there is none."""
    if not path.exists():
        return {}
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise BadParametersError(f"{path}: not JSON: {exc}")
    if not isinstance(meta, dict):
        raise BadParametersError(f"{path}: expected a JSON object, got {type(meta).__name__}")
    return meta


def _parse_gallager(text: str, seed: int) -> codes.CodeSpec:
    if not text.startswith("gallager:"):
        raise BadParametersError(f"baseline must look like gallager:LEN,COLWT,ROWWT, got {text!r}")
    try:
        length, col_wt, row_wt = (int(v) for v in text.split(":", 1)[1].split(","))
    except ValueError:
        raise BadParametersError(f"baseline must look like gallager:LEN,COLWT,ROWWT, got {text!r}")
    return codes.gallager_random(length, col_wt, row_wt, seed)


def _check_out_dir(out: str) -> None:
    """Fail before any work when out's directory is missing or not writable."""
    parent = Path(out).parent
    if not parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(parent))
    if not os.access(parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(parent))


def cmd_simulate(args: argparse.Namespace) -> int:
    # the CSV is written only once the sweeps succeed, so its directory is
    # checked first, not after the whole simulation
    _check_out_dir(args.out)
    if args.trials is None:
        raise BadParametersError("simulate requires --trials")
    code_list = [_load_code(args)]
    if args.baseline:
        bseed = args.baseline_seed if args.baseline_seed is not None else args.seed
        code_list.append(_parse_gallager(args.baseline, bseed))
    if args.channel == "awgn":
        if args.ebno is None:
            raise BadParametersError("awgn simulate requires --ebno")
        params = _parse_sweep(args.ebno)
        per_code = [
            sim.run_awgn_sweep(
                c, params, args.trials, args.seed,
                max_iters=args.max_iters, threads=args.threads,
            )
            for c in code_list
        ]
    else:
        if args.probs is None:
            raise BadParametersError("bec simulate requires --probs")
        params = _parse_sweep(args.probs)
        per_code = [
            sim.run_bec_sweep(c, params, args.trials, args.seed, threads=args.threads)
            for c in code_list
        ]
    interleaved = [res[i] for i in range(len(params)) for res in per_code]
    sim.results_to_csv(interleaved, args.out)
    print(f"wrote {len(interleaved)} rows to {args.out}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    if args.infile:
        h = read_alist(args.infile)
    elif args.baseline:
        h = _parse_gallager(args.baseline, args.seed).h
    else:
        raise BadParametersError("export requires --infile or --baseline gallager:...")
    if args.fmt == "alist":
        write_alist(h, args.out)
    else:
        text = "\n".join(row.tobytes().decode("ascii") for row in h.toarray() + ord("0"))
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(f"wrote {h.nrows}x{h.ncols} matrix to {args.out}")
    return 0


# -- entry point --------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dry-run", action="store_true", help="echo parsed flags as JSON and exit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symldpc",
        description="Build, verify and simulate LDPC codes from symmetric-matrix geometry.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build", help="construct a code family and write its alist")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--family", choices=[codes.FAMILY_SYMMETRIC, codes.FAMILY_TRANSPOSE], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", dest="fmt", default="alist")
    _add_common(p)

    p = sub.add_parser("analyze", help="run checks against an alist matrix")
    p.add_argument("--infile", required=True)
    p.add_argument("--checks", help=f"comma list from {','.join(ALL_CHECKS)} (default: all)")
    p.add_argument("--family")
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--budget", type=int)
    _add_common(p)

    p = sub.add_parser("simulate", help="Monte-Carlo WER/BER sweep to CSV")
    p.add_argument("--family", choices=[codes.FAMILY_SYMMETRIC, codes.FAMILY_TRANSPOSE])
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--infile", help="alist file instead of --family/--n/--q")
    p.add_argument("--channel", choices=["awgn", "bec"], default="awgn")
    p.add_argument("--ebno", help="Eb/N0 sweep: start:stop:step or comma list (dB)")
    p.add_argument("--probs", help="erasure probability sweep for --channel bec")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-iters", type=int, dest="max_iters", default=sim.DEFAULT_MAX_ITERS)
    p.add_argument("--baseline", help="second code, e.g. gallager:12,2,3")
    p.add_argument("--baseline-seed", type=int, dest="baseline_seed")
    p.add_argument("--threads", type=int, help="worker threads (default: SYMLDPC_THREADS or 1)")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("export", help="re-export an alist or a gallager baseline")
    p.add_argument("--infile")
    p.add_argument("--baseline", help="gallager:LEN,COLWT,ROWWT source")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--format", dest="fmt", default="alist", choices=["alist", "dense"])
    p.add_argument("--out", required=True)
    _add_common(p)

    return parser


COMMANDS = {
    "build": cmd_build,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "export": cmd_export,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.dry_run:
        print(json.dumps(vars(args), sort_keys=True))
        return 0
    try:
        return COMMANDS[args.subcommand](args)
    except (SymLdpcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
