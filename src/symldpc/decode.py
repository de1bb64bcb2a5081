"""Iterative decoders: sum-product belief propagation and erasure peeling.

The BP decoder runs a flooding schedule on the Tanner graph of the
parity-check matrix, with the tanh-rule check update and message
magnitudes clipped at LLR_CLIP.  It is written over batches of words (the
batch axis is the trailing one) so the Monte-Carlo harness can decode
thousands of noise realizations per numpy call; each word's evolution is
independent of the rest of the batch, so results never depend on how
trials are grouped.

Messages live in two padded layouts: the check side is (nonzero rows x max
row weight) and the variable side is (columns x max column weight).  Slots
past a node's degree read a sentinel row: v2c = +inf on the check side
(tanh = 1, exact in the product), c2v = 0 and bit 0 on the variable side.
Irregular graphs and unchecked columns thus need no separate code path.

Convention: BPSK maps bit 0 to +1 and bit 1 to -1, and the channel LLR of
a received amplitude y is 2y/sigma^2 (positive means bit 0 more likely).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec
from .exceptions import (
    BadParametersError,
    InconsistentError,
    LengthMismatchError,
)

LLR_CLIP = 30.0
DEFAULT_MAX_ITERS = 50

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_STALLED = "stalled"

ERASED = -1


@dataclass(frozen=True)
class AwgnChannel:
    """Binary-input AWGN channel parametrized by Eb/N0 in dB and code rate."""

    ebno_db: float
    rate: float

    @property
    def sigma(self) -> float:
        if self.rate <= 0:
            raise BadParametersError("channel needs a positive code rate")
        return float(1.0 / np.sqrt(2.0 * self.rate * 10.0 ** (self.ebno_db / 10.0)))


@dataclass(frozen=True, eq=False)
class DecodeOutcome:
    """Decoder result: status, hard-decision word, iteration count, syndrome."""

    status: str
    word: np.ndarray
    iterations: int
    syndrome_ok: bool


class SumProductDecoder:
    """Flooding sum-product decoder bound to one parity-check matrix.

    check_side[c, k] holds the variable-side slot j * col_wt + k' of check
    c's k-th edge, and var_side[j, k'] the check-side slot c * row_wt + k of
    the same edge.  Padding points at the sentinel slot past the other side.
    """

    def __init__(self, h):
        # zero-weight rows impose no constraint and are dropped from the graph
        rows = [r for r in h.row_support if r]
        var_of_edge = np.array([j for r in rows for j in r], dtype=np.int64)
        row_deg = np.array([len(r) for r in rows], dtype=np.int64)
        col_deg = np.bincount(var_of_edge, minlength=h.ncols)
        # width >= 1 on the variable side, so a graph without edges needs no
        # special case: its columns read only the c2v = 0 sentinel
        row_wt, col_wt = row_deg.max(initial=0), col_deg.max(initial=1)
        self.ncols = h.ncols
        self.n_edges = len(var_of_edge)
        self.check_side = np.full((len(rows), row_wt), h.ncols * col_wt)
        self.var_side = np.full((h.ncols, col_wt), len(rows) * row_wt)
        # real slots in row-major order list the edges check-major on the
        # check side, variable-major (ascending check) on the variable side
        check_slot = np.flatnonzero(np.arange(row_wt) < row_deg[:, None])
        var_slot = np.flatnonzero(np.arange(col_wt) < col_deg[:, None])
        check_slot = check_slot[np.argsort(var_of_edge, kind="stable")]
        self.check_side.flat[check_slot] = var_slot
        self.var_side.flat[var_slot] = check_slot

    def decode_batch(
        self, llrs: np.ndarray, max_iters: int = DEFAULT_MAX_ITERS
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode a (batch, n) array of channel LLRs.

        Returns (bits, converged, iterations): bits is (batch, n) uint8,
        converged is a bool mask, iterations holds the iteration at which
        each word first satisfied all checks (max_iters when it never did).
        Each word is frozen at its own first success, so outputs are
        independent of batching.
        """
        if llrs.ndim != 2 or llrs.shape[1] != self.ncols:
            raise LengthMismatchError(
                f"llr array must be (batch, {self.ncols}), got {llrs.shape}"
            )
        if max_iters < 1:
            raise BadParametersError("max_iters must be >= 1")
        batch = llrs.shape[0]
        bits_out = np.zeros((batch, self.ncols), dtype=np.uint8)
        iters_out = np.full(batch, max_iters, dtype=np.int32)
        converged = np.zeros(batch, dtype=bool)

        col_wt = self.var_side.shape[1]
        var_of_check_slot = self.check_side // col_wt  # sentinel -> ncols
        active = np.arange(batch)
        llr_t = np.ascontiguousarray(np.clip(llrs, -LLR_CLIP, LLR_CLIP).T)  # (n, B)
        post = llr_t
        c2v_var = np.zeros((*self.var_side.shape, batch))
        tanh_cap = np.tanh(0.5 * LLR_CLIP)

        for it in range(1, max_iters + 1):
            b = len(active)
            v2c = np.empty((self.var_side.size + 1, b))
            v2c[-1] = np.inf  # tanh(inf) = 1 leaves the check product exact
            out = v2c[:-1].reshape(c2v_var.shape)
            np.clip(post[:, None] - c2v_var, -LLR_CLIP, LLR_CLIP, out=out)

            t = np.tanh(0.5 * v2c[self.check_side])  # (checks, row_wt, B)
            zero = t == 0.0
            t_nz = np.where(zero, 1.0, t)
            prod = np.multiply.reduce(t_nz, axis=1, keepdims=True)
            zcnt = np.count_nonzero(zero, axis=1, keepdims=True)
            loo = np.where(
                zcnt == 0,
                prod / t_nz,
                np.where((zcnt == 1) & zero, prod, 0.0),
            )
            np.clip(loo, -tanh_cap, tanh_cap, out=loo)
            c2v = np.zeros((self.check_side.size + 1, b))  # sentinel row: c2v = 0
            np.multiply(2.0, np.arctanh(loo), out=c2v[:-1].reshape(loo.shape))

            c2v_var = c2v[self.var_side]  # (n, col_wt, B)
            # x0 + ((x1 + x2) + ...) matches the reference decoder in the tests
            # bit for bit up to column weight 8; zero padding leaves it exact
            tail = sum((c2v_var[:, k] for k in range(1, col_wt)), -0.0)
            post = llr_t + (c2v_var[:, 0] + tail)
            bits = np.zeros((self.ncols + 1, b), dtype=np.uint8)  # sentinel: bit 0
            bits[:-1] = post < 0.0
            parity = np.bitwise_xor.reduce(bits[var_of_check_slot], axis=1)
            ok = ~np.any(parity, axis=0)

            # `active` columns map back to original trial indices
            newly = np.flatnonzero(ok)
            if newly.size:
                orig = active[newly]
                bits_out[orig] = bits[:-1, newly].T
                iters_out[orig] = it
                converged[orig] = True
            if newly.size == ok.size:
                return bits_out, converged, iters_out
            if it == max_iters:
                rest = np.flatnonzero(~ok)
                bits_out[active[rest]] = bits[:-1, rest].T
                return bits_out, converged, iters_out

            if newly.size:
                keep = np.flatnonzero(~ok)
                active = active[keep]
                llr_t = llr_t[:, keep]
                post = post[:, keep]
                c2v_var = c2v_var[..., keep]

        raise AssertionError("unreachable")


def _syndrome_ok(h, word: np.ndarray) -> bool:
    return all(int(word[list(row)].sum()) % 2 == 0 for row in h.row_support if row)


def bp_decode_awgn(
    code: CodeSpec, llr, max_iters: int = DEFAULT_MAX_ITERS
) -> DecodeOutcome:
    """Sum-product decode of one word of channel LLRs."""
    llr = np.asarray(llr, dtype=np.float64)
    if llr.ndim != 1 or llr.shape[0] != code.length:
        raise LengthMismatchError(
            f"llr must have length {code.length}, got shape {llr.shape}"
        )
    bits, conv, iters = SumProductDecoder(code.h).decode_batch(llr[None, :], max_iters)
    return DecodeOutcome(
        status=STATUS_CONVERGED if conv[0] else STATUS_MAX_ITERS,
        word=bits[0],
        iterations=int(iters[0]),
        syndrome_ok=_syndrome_ok(code.h, bits[0]),
    )


def peel_decode_bec(code: CodeSpec, received) -> DecodeOutcome:
    """Peel erasures: repeatedly solve checks with exactly one erased bit.

    `received` holds 0, 1, or ERASED (-1) per position.  Converges when no
    erasures remain; stalls when the remaining erasures form a stopping
    set.  A fully known check with odd parity raises InconsistentError.
    """
    h = code.h
    received = list(int(b) for b in received)
    if len(received) != code.length:
        raise LengthMismatchError(
            f"received word must have length {code.length}, got {len(received)}"
        )
    if any(b not in (0, 1, ERASED) for b in received):
        raise BadParametersError("received symbols must be 0, 1 or ERASED")

    word = [0 if b == ERASED else b for b in received]
    erased = [b == ERASED for b in received]
    erased_count = []
    parity = []
    for row in h.row_support:
        e = sum(1 for j in row if erased[j])
        p = sum(word[j] for j in row if not erased[j]) % 2
        erased_count.append(e)
        parity.append(p)
        if e == 0 and p != 0:
            raise InconsistentError("a fully known parity check fails")

    queue = [i for i, e in enumerate(erased_count) if e == 1]
    steps = 0
    while queue:
        i = queue.pop()
        if erased_count[i] != 1:
            continue
        j = next(jj for jj in h.row_support[i] if erased[jj])
        value = parity[i]
        word[j] = value
        erased[j] = False
        steps += 1
        for ii in h.col_support[j]:
            erased_count[ii] -= 1
            if value:
                parity[ii] ^= 1
            if erased_count[ii] == 1:
                queue.append(ii)
            elif erased_count[ii] == 0 and parity[ii] != 0:
                raise InconsistentError("a fully known parity check fails")

    out = np.array(word, dtype=np.uint8)
    stalled = any(erased)
    return DecodeOutcome(
        status=STATUS_STALLED if stalled else STATUS_CONVERGED,
        word=out,
        iterations=steps,
        syndrome_ok=_syndrome_ok(h, out),
    )
