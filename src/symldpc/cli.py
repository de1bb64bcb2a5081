"""Command-line surface: build, analyze, simulate, export.

The alist interchange format, written bit-exactly:

    line 1: "N M"            N = columns (variable nodes), M = rows (checks)
    line 2: "max_col_wt max_row_wt"
    line 3: N column weights
    line 4: M row weights
    next N lines: 1-based row indices per column, zero-padded to max_col_wt
    next M lines: 1-based column indices per row, zero-padded to max_row_wt

Single-space separation, every line newline-terminated.  `build` writes a
sidecar JSON metadata file next to the alist; `analyze` picks it up
automatically.  All simulate output is the fixed CSV schema from `sim`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import codes, gf2, sim
from .exceptions import BadParametersError, StructureViolationError, SymLdpcError
from .gf import factor_prime_power
from .incidence import SparseBitMatrix, diameter, girth, verify_structure


@dataclass
class CommandConfig:
    """Parsed flags, echoed verbatim in --dry-run mode."""

    subcommand: str
    n: int | None = None
    q: int | None = None
    family: str | None = None
    infile: str | None = None
    out: str | None = None
    fmt: str = "alist"
    checks: str | None = None
    budget: int | None = None
    seed: int = 1
    trials: int | None = None
    channel: str = "awgn"
    ebno: str | None = None
    probs: str | None = None
    max_iters: int = 50
    baseline: str | None = None
    baseline_seed: int | None = None
    threads: int | None = None
    dry_run: bool = False


# -- alist ----------------------------------------------------------------


def write_alist(h: SparseBitMatrix, path) -> None:
    max_col = max((len(c) for c in h.col_support), default=0)
    max_row = max((len(r) for r in h.row_support), default=0)
    lines = [
        f"{h.ncols} {h.nrows}",
        f"{max_col} {max_row}",
        " ".join(str(len(c)) for c in h.col_support),
        " ".join(str(len(r)) for r in h.row_support),
    ]
    for col in h.col_support:
        padded = [str(i + 1) for i in col] + ["0"] * (max_col - len(col))
        lines.append(" ".join(padded))
    for row in h.row_support:
        padded = [str(j + 1) for j in row] + ["0"] * (max_row - len(row))
        lines.append(" ".join(padded))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_alist(path) -> SparseBitMatrix:
    text = Path(path).read_text(encoding="utf-8")
    rows_of_ints: list[list[int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            rows_of_ints.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise BadParametersError(f"{path}:{lineno}: not an integer row: {exc}")
    if len(rows_of_ints) < 4:
        raise BadParametersError(f"{path}: truncated alist (needs at least 4 lines)")
    if len(rows_of_ints[0]) != 2:
        raise BadParametersError(f"{path}:1: expected 'N M'")
    ncols, nrows = rows_of_ints[0]
    expected = 4 + ncols + nrows
    while len(rows_of_ints) > expected and not rows_of_ints[-1]:
        rows_of_ints.pop()  # trailing blank lines are harmless
    if len(rows_of_ints) < expected:
        raise BadParametersError(
            f"{path}: expected {expected} data lines, found {len(rows_of_ints)}"
        )
    col_weights = rows_of_ints[2]
    row_weights = rows_of_ints[3]
    if len(col_weights) != ncols:
        raise BadParametersError(f"{path}:3: expected {ncols} column weights")
    if len(row_weights) != nrows:
        raise BadParametersError(f"{path}:4: expected {nrows} row weights")
    max_col, max_row = max(col_weights, default=0), max(row_weights, default=0)
    if rows_of_ints[1] != [max_col, max_row]:
        raise BadParametersError(
            f"{path}:2: expected the max column and row weights {max_col} {max_row}"
        )
    rows: list[list[int]] = [[] for _ in range(nrows)]
    for j in range(ncols):
        lineno = 5 + j
        entries = [v for v in rows_of_ints[4 + j] if v != 0]
        if len(entries) != col_weights[j]:
            raise BadParametersError(
                f"{path}:{lineno}: column {j} lists {len(entries)} rows, "
                f"weight says {col_weights[j]}"
            )
        if len(set(entries)) != len(entries):
            raise BadParametersError(f"{path}:{lineno}: column {j} repeats a row index")
        for v in entries:
            if not 1 <= v <= nrows:
                raise BadParametersError(f"{path}:{lineno}: row index {v} out of range")
            rows[v - 1].append(j)
    h = SparseBitMatrix.from_rows(nrows, ncols, (sorted(r) for r in rows))
    for i in range(nrows):
        lineno = 5 + ncols + i
        entries = [v for v in rows_of_ints[4 + ncols + i] if v != 0]
        if len(entries) != row_weights[i]:
            raise BadParametersError(
                f"{path}:{lineno}: row {i} lists {len(entries)} columns, "
                f"weight says {row_weights[i]}"
            )
        if sorted(v - 1 for v in entries) != list(h.row_support[i]):
            raise BadParametersError(
                f"{path}:{lineno}: row {i} support disagrees with the column lists"
            )
    return h


# -- subcommands -------------------------------------------------------------


def _meta_path(out: str) -> Path:
    return Path(str(out) + ".meta.json")


def cmd_build(cfg: CommandConfig) -> int:
    if cfg.n is None or cfg.q is None or cfg.family is None or cfg.out is None:
        raise BadParametersError("build requires --n, --q, --family and --out")
    factor_prime_power(cfg.q)
    code = codes.make_code(cfg.family, cfg.n, cfg.q)
    if cfg.fmt != "alist":
        raise BadParametersError(f"unknown build format {cfg.fmt!r}")
    write_alist(code.h, cfg.out)
    rho = len(code.h.row_support[0])
    gamma = len(code.h.col_support[0])
    meta = {
        "family": code.family,
        "n": cfg.n,
        "q": cfg.q,
        "rows": code.h.nrows,
        "cols": code.h.ncols,
        "rho": rho,
        "gamma": gamma,
        "girth": _jsonable(code.girth),
    }
    _meta_path(cfg.out).write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {code.h.nrows}x{code.h.ncols} alist to {cfg.out}")
    return 0


def _jsonable(value):
    if value == float("inf"):
        return "infinite"
    return value


ALL_CHECKS = ["structure", "girth", "diameter", "rank", "mindist", "stopdist", "witnesses"]


def cmd_analyze(cfg: CommandConfig) -> int:
    if cfg.infile is None:
        raise BadParametersError("analyze requires --infile")
    h = read_alist(cfg.infile)
    family, n, q = cfg.family, cfg.n, cfg.q
    meta_file = _meta_path(cfg.infile)
    if meta_file.exists():
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
        family = family or meta.get("family")
        n = n if n is not None else meta.get("n")
        q = q if q is not None else meta.get("q")
    checks = cfg.checks.split(",") if cfg.checks else list(ALL_CHECKS)
    for c in checks:
        if c not in ALL_CHECKS:
            raise BadParametersError(f"unknown check {c!r}; choose from {ALL_CHECKS}")
    report: dict[str, dict] = {}
    for check in checks:
        report[check] = _run_check(check, h, family, n, q, cfg.budget)
    print(json.dumps(report, indent=2, sort_keys=True))
    ok = all(entry.get("status") not in ("fail", "error") for entry in report.values())
    return 0 if ok else 1


def _run_check(check, h, family, n, q, budget) -> dict:
    if check == "structure":
        if n is None or q is None:
            return {"status": "error", "detail": "structure check needs --n and --q"}
        oriented = h.transpose() if family == codes.FAMILY_TRANSPOSE else h
        try:
            rep = verify_structure(oriented, n, q)
        except StructureViolationError as exc:
            return {"status": "fail", "detail": str(exc)}
        return {"status": "pass", "rho": rep.rho, "gamma": rep.gamma, "lambda_max": rep.lambda_max}
    if check == "girth":
        return {"status": "ok", "value": _jsonable(girth(h))}
    if check == "diameter":
        return {"status": "ok", "value": _jsonable(diameter(h))}
    if check == "rank":
        r = gf2.rank_gf2(h)
        return {"status": "ok", "value": r, "dimension": h.ncols - r}
    if check == "mindist":
        res = gf2.min_distance(h, budget=budget if budget else 6)
        return {
            "status": "ok",
            "value": res.value,
            "exactness": res.status,
            "method": res.method,
        }
    if check == "stopdist":
        res = gf2.stopping_distance(h, budget=budget)
        return {
            "status": "ok",
            "value": res.value,
            "exactness": res.status,
            "method": res.method,
        }
    if check == "witnesses":
        return _witness_check(h, family, n, q)
    raise AssertionError(check)


def _witness_check(h, family, n, q) -> dict:
    if family not in (codes.FAMILY_SYMMETRIC, codes.FAMILY_TRANSPOSE) or n is None or q is None:
        return {
            "status": "error",
            "detail": "witness checks need a symmetric-family alist with --family/--n/--q",
        }
    out: dict = {"status": "pass"}
    if family == codes.FAMILY_TRANSPOSE:
        witness = codes.ctranspose_witness(n, q)
        ok = gf2.columns_sum_zero(h, witness)
        out["dependent_columns"] = sorted(witness)
        out["columns_sum_zero"] = ok
        if not ok:
            out["status"] = "fail"
    else:
        p, _ = factor_prime_power(q)
        if p == 2 and n == 2:
            witness = codes.c2q_witness(q)
            ok = gf2.columns_sum_zero(h, witness)
            out["dependent_columns"] = sorted(witness)
            out["columns_sum_zero"] = ok
            if not ok:
                out["status"] = "fail"
        rows = codes.independent_row_family(n, q)
        sub = SparseBitMatrix.from_rows(
            len(rows), h.ncols, (h.row_support[i] for i in sorted(rows))
        )
        rank = gf2.rank_gf2(sub)
        out["independent_rows"] = len(rows)
        out["independent_rows_rank"] = rank
        if rank != len(rows):
            out["status"] = "fail"
    return out


def _parse_sweep(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise BadParametersError(f"sweep range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise BadParametersError("sweep step must be positive")
        out = []
        v = start
        while v <= stop + 1e-9:
            out.append(round(v, 10))
            v += step
        return out
    return [float(p) for p in text.split(",") if p.strip()]


def _code_from_flags(cfg: CommandConfig) -> codes.CodeSpec:
    if cfg.infile:
        h = read_alist(cfg.infile)
        return codes.CodeSpec(
            family="alist",
            h=h,
            length=h.ncols,
            dimension=gf2.code_dimension(h),
            code_id=Path(cfg.infile).stem,
        )
    if cfg.family is None or cfg.n is None or cfg.q is None:
        raise BadParametersError("simulate requires --infile or --family/--n/--q")
    return codes.make_code(cfg.family, cfg.n, cfg.q)


def _parse_gallager(text: str, seed: int) -> codes.CodeSpec:
    if not text.startswith("gallager:"):
        raise BadParametersError(f"baseline must look like gallager:LEN,COLWT,ROWWT, got {text!r}")
    try:
        length, col_wt, row_wt = (int(v) for v in text.split(":", 1)[1].split(","))
    except ValueError:
        raise BadParametersError(f"baseline must look like gallager:LEN,COLWT,ROWWT, got {text!r}")
    return codes.gallager_random(length, col_wt, row_wt, seed)


def cmd_simulate(cfg: CommandConfig) -> int:
    if cfg.trials is None:
        raise BadParametersError("simulate requires --trials")
    if cfg.out is None:
        raise BadParametersError("simulate requires --out")
    code_list = [_code_from_flags(cfg)]
    if cfg.baseline:
        bseed = cfg.baseline_seed if cfg.baseline_seed is not None else cfg.seed
        code_list.append(_parse_gallager(cfg.baseline, bseed))
    if cfg.channel == "awgn":
        if cfg.ebno is None:
            raise BadParametersError("awgn simulate requires --ebno")
        params = _parse_sweep(cfg.ebno)
        per_code = [
            sim.run_awgn_sweep(
                c, params, cfg.trials, cfg.seed,
                max_iters=cfg.max_iters, threads=cfg.threads,
            )
            for c in code_list
        ]
    elif cfg.channel == "bec":
        if cfg.probs is None:
            raise BadParametersError("bec simulate requires --probs")
        params = _parse_sweep(cfg.probs)
        per_code = [
            sim.run_bec_sweep(c, params, cfg.trials, cfg.seed, threads=cfg.threads)
            for c in code_list
        ]
    else:
        raise BadParametersError(f"unknown channel {cfg.channel!r}")
    interleaved = [res[i] for i in range(len(params)) for res in per_code]
    sim.results_to_csv(interleaved, cfg.out)
    print(f"wrote {len(interleaved)} rows to {cfg.out}")
    return 0


def cmd_export(cfg: CommandConfig) -> int:
    if cfg.out is None:
        raise BadParametersError("export requires --out")
    if cfg.infile:
        h = read_alist(cfg.infile)
    elif cfg.baseline:
        h = _parse_gallager(cfg.baseline, cfg.seed).h
    else:
        raise BadParametersError("export requires --infile or --baseline gallager:...")
    if cfg.fmt == "alist":
        write_alist(h, cfg.out)
    elif cfg.fmt == "dense":
        text = "\n".join(
            "".join("1" if j in set(row) else "0" for j in range(h.ncols))
            for row in h.row_support
        )
        Path(cfg.out).write_text(text + "\n", encoding="utf-8")
    else:
        raise BadParametersError(f"unknown export format {cfg.fmt!r}")
    print(f"wrote {h.nrows}x{h.ncols} matrix to {cfg.out}")
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
    p.add_argument("--max-iters", type=int, dest="max_iters", default=50)
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


def config_from_args(args: argparse.Namespace) -> CommandConfig:
    cfg = CommandConfig(subcommand=args.subcommand)
    for key, value in vars(args).items():
        if key != "subcommand" and hasattr(cfg, key):
            setattr(cfg, key, value)
    return cfg


COMMANDS = {
    "build": cmd_build,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "export": cmd_export,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    if cfg.dry_run:
        print(json.dumps(asdict(cfg), sort_keys=True))
        return 0
    try:
        return COMMANDS[cfg.subcommand](cfg)
    except SymLdpcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
