"""Iterative decoders: sum-product belief propagation and erasure peeling.

The BP decoder runs a flooding schedule on the Tanner graph of the
parity-check matrix, with the tanh-rule check update and message
magnitudes clipped at LLR_CLIP.  It is written over batches of words (the
batch axis is the trailing one) so the Monte-Carlo harness can decode
thousands of noise realizations per numpy call; each word's evolution is
independent of the rest of the batch, so results never depend on how
trials are grouped.

A call decodes its words in a pool of lanes, and lanes [0, live) of the
pool always hold the words still decoding.  The pool is LANES wide, or
narrower where one edge-sized float64 buffer (a row per check-side slot,
plus the sentinel row) of that width would pass POOL_BYTES, and never
wider than the batch.  After each iteration the words that converged or
reached max_iters are written out, and the live lanes at or past `live`
move down into the finished lanes below it, so a move touches at most as
many lanes as just finished.  The free lanes at the top then take the
next pending words of the batch as one row block llrs[lo:hi], read
front to back, each row once, and checked for NaN as it is loaded: only
the words' LLRs are written, clipped straight into the lanes.  So the
batch need not exist as one array: a source that draws its rows as they
are asked for (the AWGN sweep's noise) serves as well as an ndarray.  A
fresh lane's first
iteration needs nothing else, because its c2v messages are all 0, so its
v2c on every edge is clip(llr - 0) = llr: the iteration computes
tanh(llr / 2) once per bit for the fresh lanes and copies it to the
bit's slots, while the held lanes compute tanh(v2c / 2) slot by slot,
and one gather then reads both onto the check side.  Halving and tanh
are the same operations on the same values before the gather as after
it, so this is exact.  Once fewer words are pending than lanes are free,
the live prefix is re-laid as a narrower (rows, live) block at the front
of the same buffers.  The message and scratch buffers are allocated once
per call, at the pool's width, as one float64 and one bool block, and
filled in place, so the decoder's
working memory scales with POOL_BYTES rather than with the batch; only
the outputs hold a row per word (batch x n bytes of bits).  The check
update divides each slot's tanh out of its check's product whenever no
check's product is 0, which is nearly always; otherwise it takes the
zero-count branch, and both give each lane the same values.  Lanes never
interact: every operation is elementwise per lane or reduces over one
check's slots of one lane.  So a word's lane, and when it moves, never
affects its result: bits, convergence and iteration counts do not depend
on the lane count or on how trials are batched.

Messages live in the padded layouts of `incidence.edge_slots`: the check
side is (rows x max row weight), the variable side (columns x max column
weight).  Slots past a node's degree read a sentinel row: tanh(v2c / 2) =
1 on the check side (v2c = +inf, exact in the product), c2v = 0 and bit 0
on the variable side.  Irregular graphs, unchecked columns and zero-weight
rows (checks always met) thus need no separate code path.

Convention: BPSK maps bit 0 to +1 and bit 1 to -1, and the channel LLR of
a received amplitude y is 2y/sigma^2 (positive means bit 0 more likely).

The peeler works on Python-int bitmasks: bit j of a mask is column j.  A
word is two masks, its erased bits and its known ones, and each check is
its row mask.  The masks and each column's rows are one entry of
SparseBitMatrix._cached, built from `supports()` on the first call.
Erased counts and parities are popcounts of ANDs, and resolving a
degree-1 check touches only the checks on its one column.  The peeling
order is free: it does not change the outcome (see peel_decode_bec).

Both decoders report `syndrome_ok` from the parity they already track: BP
stops a word only when its hard decisions satisfy every check, and the
peeler reads each check's parity over its known ones, with erased bits
returned as 0; a word that converged made every check fully known and
even, so only a stall with a known 1 needs that pass over the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec
from .exceptions import (
    BadParametersError,
    InconsistentError,
    LengthMismatchError,
    check_integer,
)
from .incidence import edge_slots

LLR_CLIP = 30.0
DEFAULT_MAX_ITERS = 50

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_STALLED = "stalled"

ERASED = -1

# words BP decodes at once: a word that converges or reaches max_iters hands
# its lane to the next pending word of the batch
LANES = 1024
# bytes of one edge-sized float64 buffer of the pool; a graph with many edges
# gets fewer than LANES lanes, so the pool's buffers stay cache-sized
POOL_BYTES = 512 * 1024


@dataclass(frozen=True)
class AwgnChannel:
    """Binary-input AWGN channel parametrized by Eb/N0 in dB and code rate."""

    ebno_db: float
    rate: float

    @property
    def sigma(self) -> float:
        if self.rate <= 0:
            raise BadParametersError("channel needs a positive code rate")
        try:
            sigma = 1.0 / math.sqrt(2.0 * self.rate * 10.0 ** (self.ebno_db / 10.0))
            if 0.0 < 2.0 / (sigma * sigma) < math.inf:
                return sigma
        except (OverflowError, ZeroDivisionError):
            pass
        raise BadParametersError(f"Eb/N0 of {self.ebno_db} dB gives no finite LLR scale 2/sigma^2")


@dataclass(frozen=True, eq=False)
class DecodeOutcome:
    """Decoder result: status, hard-decision word, iteration count, syndrome."""

    status: str
    word: np.ndarray
    iterations: int
    syndrome_ok: bool


class SumProductDecoder:
    """Flooding sum-product decoder bound to one parity-check matrix.

    check_side and var_side are the row and column sides of
    `incidence.edge_slots(h)`: each slot names its edge's slot on the other
    side, and padding the sentinel slot past it.
    """

    def __init__(self, h):
        self.ncols = h.ncols
        self.n_edges = h.edge_count
        self.check_side, self.var_side = edge_slots(h)

    def _pool_width(self, batch: int) -> int:
        """Lanes of a call's pool: LANES, fewer where an edge-sized float64
        buffer of that width would pass POOL_BYTES, and no more than the batch."""
        per_lane = 8 * (self.check_side.size + 1)
        return min(LANES, batch, max(1, POOL_BYTES // per_lane))

    def decode_batch(
        self, llrs: np.ndarray, max_iters: int = DEFAULT_MAX_ITERS
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode a (batch, n) block of channel LLRs.

        Returns (bits, converged, iterations): bits is (batch, n) uint8,
        converged is a bool mask, iterations holds the iteration at which
        each word first satisfied all checks (max_iters when it never did).
        Each word is frozen at its own first success, so outputs are
        independent of batching.

        `llrs` is any object with `shape` (batch, n), a real `dtype` and row
        slicing: the words are read as row blocks llrs[lo:hi], front to
        back, each row once, as lanes free up, and each block is checked
        for NaN as it is loaded.  An ndarray of any memory layout is one
        such object, and is never written; an input without `shape`, such
        as a list, is read through np.asarray.
        """
        if not hasattr(llrs, "shape"):
            llrs = np.asarray(llrs)
        if llrs.dtype.kind not in "biuf":
            raise BadParametersError(f"llr array must hold real numbers, got dtype {llrs.dtype}")
        if len(llrs.shape) != 2 or llrs.shape[1] != self.ncols:
            raise LengthMismatchError(
                f"llr array must be (batch, {self.ncols}), got {llrs.shape}"
            )
        max_iters = check_integer("max_iters", max_iters, 1)
        batch = llrs.shape[0]
        bits_out = np.empty((batch, self.ncols), dtype=np.uint8)
        iters_out = np.empty(batch, dtype=np.int32)
        converged = np.empty(batch, dtype=bool)

        n, col_wt = self.var_side.shape
        m, row_wt = self.check_side.shape
        var_slots = self.var_side.ravel()
        check_slots = self.check_side.ravel()
        var_of_check_slot = check_slots // col_wt  # sentinel -> ncols
        tanh_cap = np.tanh(0.5 * LLR_CLIP)

        # every buffer is allocated once, at the pool's starting width, and
        # lives in this call (a sweep shares the decoder across threads); a
        # pool of `width` lanes uses the first rows * width entries as a (rows, width) array
        width = self._pool_width(batch)
        floats = _buffers(
            width,
            np.float64,
            n,  # channel LLRs
            n,  # posteriors
            var_slots.size,  # c2v per variable slot
            var_slots.size + 1,  # tanh(v2c / 2), then its sentinel row
            m,  # check product
            # tanh, leave-one-out, then c2v per check slot; then c2v's sentinel row
            check_slots.size + 1,
        )
        bools = _buffers(
            width,
            bool,
            n + 1,  # hard decisions, then the sentinel bit
            check_slots.size,  # decisions gathered per check slot
            m,  # check parity
        )
        state, scratch = floats[:3], floats[3:] + bools
        llr_t, post, c2v_var = state
        lane_word = np.empty(width, dtype=np.int64)
        lane_iter = np.empty(width, dtype=np.int32)
        live = loaded = 0

        while True:
            # the free lanes [live, width) take the next pending words as a
            # block; until their first iteration only llr_t holds their state
            held = live
            fresh = min(width - live, batch - loaded)
            if fresh:
                lanes = slice(live, live + fresh)
                block = np.asarray(llrs[loaded : loaded + fresh])
                # NaN LLRs decide bit 0, so an all-NaN word would "converge" to the
                # zero codeword; +-inf is legal, since the LLRs are clipped here
                if np.isnan(block).any():
                    raise BadParametersError("llr array contains NaN")
                np.clip(block.T, -LLR_CLIP, LLR_CLIP, out=llr_t[:, lanes])
                del block  # so a row source can free the rows it drew before drawing more
                lane_word[lanes] = np.arange(loaded, loaded + fresh)
                lane_iter[lanes] = 0
                live += fresh
                loaded += fresh
            if not live:
                return bits_out, converged, iters_out
            if live < width:
                # nothing is left to load: narrow the pool to its live prefix
                narrowed = [_lane_view(buf, live) for buf in state]
                for new, old in zip(narrowed, (llr_t, post, c2v_var)):
                    new[...] = old[:, :live]  # numpy buffers the overlapping copy
                llr_t, post, c2v_var = narrowed
                lane_word, lane_iter = lane_word[:live], lane_iter[:live]
                width = live
            c2v_by_var = c2v_var.reshape(n, col_wt, width)
            tv, prod, c2v, bits, par, parity = (
                _lane_view(buf, width) for buf in scratch
            )

            # tanh(v2c / 2) on the variable side, then gathered per check slot:
            # the same operations on the same values as gathering v2c first
            tv[-1] = 1.0  # tanh(inf / 2) = 1 leaves the check product exact
            tv_by_var = tv[:-1].reshape(c2v_by_var.shape)
            v = tv_by_var[..., :held]
            np.subtract(post[:, None, :held], c2v_by_var[..., :held], out=v)
            np.clip(v, -LLR_CLIP, LLR_CLIP, out=v)
            np.multiply(0.5, v, out=v)
            np.tanh(v, out=v)
            # a fresh lane's c2v are 0, so its v2c on every edge is its clipped
            # LLR: one tanh per bit, copied to the bit's slots.  The tanh goes
            # in the lane's posterior, unused until the variable update, as a
            # source inside tv would make numpy buffer the whole broadcast
            first = post[:, held:]
            np.multiply(0.5, llr_t[:, held:], out=first)
            np.tanh(first, out=first)
            tv_by_var[..., held:] = first[:, None]

            # mode="clip" skips the bounds-check copy; the slots are in range
            t = c2v[:-1]
            np.take(tv, check_slots, axis=0, out=t, mode="clip")
            t = t.reshape(m, row_wt, width)
            np.multiply.reduce(t, axis=1, out=prod)
            if prod.all():
                # no product is 0, so no tanh is: the zero-count branch
                # reduces to this division
                loo = np.divide(prod[:, None], t, out=t)
            else:
                # a zero product with no zero tanh (an underflow) gets prod / t
                # here too, as the division would give
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
            np.arctanh(loo, out=t)
            np.multiply(2.0, t, out=t)
            c2v[-1] = 0.0

            np.take(c2v, var_slots, axis=0, out=c2v_var, mode="clip")
            # x0 + ((x1 + x2) + ...) matches the reference decoder in the tests
            # bit for bit up to column weight 8; zero padding leaves it exact
            post.fill(-0.0)
            for k in range(1, col_wt):
                np.add(post, c2v_by_var[:, k], out=post)
            np.add(c2v_by_var[:, 0], post, out=post)
            np.add(llr_t, post, out=post)
            bits[-1] = False
            np.less(post, 0.0, out=bits[:-1])
            np.take(bits, var_of_check_slot, axis=0, out=par, mode="clip")
            np.bitwise_xor.reduce(par.reshape(m, row_wt, width), axis=1, out=parity)
            ok = ~parity.any(axis=0)

            lane_iter += 1
            done = ok | (lane_iter >= max_iters)
            free = np.flatnonzero(done)
            words = lane_word[free]
            bits_out[words] = bits[:-1, free].T
            converged[words] = ok[free]
            iters_out[words] = lane_iter[free]
            # pack: the live lanes at or past `live` fill the finished ones below it
            live = width - free.size
            holes = free[: np.searchsorted(free, live)]
            movers = live + np.flatnonzero(~done[live:])
            for arr in (llr_t, post, c2v_var):
                arr[:, holes] = arr[:, movers]
            lane_word[holes] = lane_word[movers]
            lane_iter[holes] = lane_iter[movers]


def _buffers(width: int, dtype, *rows: int) -> list[np.ndarray]:
    """(r, width) buffers for each r in rows, cut from one allocation.

    One block per call, not one array per buffer: freeing a call's buffers
    then hands one region back to the allocator, which keeps it for the
    next call instead of returning pool-sized pieces to the system and
    faulting them in again (with glibc 2.36 malloc, 1552 minor page faults
    per 16384-word sweep of C(2,4) at 7 dB when each buffer was its own
    array, 0 as one block).
    """
    return np.split(np.empty((sum(rows), width), dtype), np.cumsum(rows[:-1]))


def _lane_view(buf: np.ndarray, width: int) -> np.ndarray:
    """The first rows * width entries of a (rows, lanes) buffer, as (rows, width)."""
    rows = buf.shape[0]
    return buf.reshape(-1)[: rows * width].reshape(rows, width)


def bp_decode_awgn(
    code: CodeSpec, llr, max_iters: int = DEFAULT_MAX_ITERS
) -> DecodeOutcome:
    """Sum-product decode of one word of channel LLRs."""
    llr = np.asarray(llr)
    if llr.ndim != 1 or llr.shape[0] != code.length:
        raise LengthMismatchError(
            f"llr must have length {code.length}, got shape {llr.shape}"
        )
    bits, conv, iters = SumProductDecoder(code.h).decode_batch(llr[None, :], max_iters)
    return DecodeOutcome(
        status=STATUS_CONVERGED if conv[0] else STATUS_MAX_ITERS,
        word=bits[0],
        iterations=int(iters[0]),
        syndrome_ok=bool(conv[0]),
    )


def peel_decode_bec(code: CodeSpec, received) -> DecodeOutcome:
    """Peel erasures: repeatedly solve checks with exactly one erased bit.

    `received` holds 0, 1, or ERASED (-1) per position.  Converges when no
    erasures remain; stalls when the remaining erasures form a stopping
    set.  A fully known check with odd parity raises InconsistentError.

    The word is two int bitmasks over the columns, `erased` and `ones`, and
    each check is its row mask, cached on h with each column's rows: a
    check's erased count is (erased & r).bit_count() and the parity of its
    known bits is (ones & r).bit_count() & 1.

    The queue order is free: neither the word returned nor whether
    InconsistentError is raised depends on it.  Every order resolves the
    same bits, all but the largest stopping set inside the erasures.
    Suppose one order A finishes without a contradiction.  Then every check
    that any order can make fully known is fully known under A, and even
    under A's values.  By induction over the steps of any other order B,
    each bit B resolves comes from a check whose other bits already hold
    A's values, so B assigns it A's value and no check B completes is odd.
    """
    h = code.h
    received = np.asarray(received)
    if received.ndim == 0 or len(received) != code.length:
        raise LengthMismatchError(
            f"received word must have length {code.length}, got shape {received.shape}"
        )
    erased_at, one_at = received == ERASED, received == 1
    # compared by value, so 1.0 passes while 0.9, -1.5, NaN or "0" is refused,
    # not truncated; a (length, 1) column holds rows, not symbols
    if received.ndim != 1 or not (erased_at | one_at | (received == 0)).all():
        raise BadParametersError("received symbols must be 0, 1 or ERASED")

    masks, cols = h._cached(
        "peel", lambda: ([sum(1 << j for j in r) for r in h.supports()], h.transpose().supports())
    )
    erased = unresolved = _bitmask(erased_at)
    ones = _bitmask(one_at)
    count = [(erased & r).bit_count() for r in masks]
    if ones and any(not e and (ones & r).bit_count() & 1 for e, r in zip(count, masks)):
        raise InconsistentError("a fully known parity check fails")

    queue = [i for i, e in enumerate(count) if e == 1]
    while queue:
        i = queue.pop()
        if count[i] != 1:
            continue
        bit = erased & masks[i]
        erased ^= bit
        if ones and (ones & masks[i]).bit_count() & 1:
            ones |= bit
        for ii in cols[bit.bit_length() - 1]:
            count[ii] -= 1
            if count[ii] == 1:
                queue.append(ii)
            elif not count[ii] and ones and (ones & masks[ii]).bit_count() & 1:
                raise InconsistentError("a fully known parity check fails")

    # erased bits are output as 0, so a check's syndrome bit is the parity of
    # its ones; a converged word made every check fully known and even
    syndrome_ok = not (erased and ones) or not any(
        (ones & r).bit_count() & 1 for r in masks
    )
    word = np.frombuffer(ones.to_bytes((code.length + 7) // 8, "little"), dtype=np.uint8)
    return DecodeOutcome(
        status=STATUS_STALLED if erased else STATUS_CONVERGED,
        word=np.unpackbits(word, count=code.length, bitorder="little"),
        iterations=unresolved.bit_count() - erased.bit_count(),
        syndrome_ok=syndrome_ok,
    )


def _bitmask(flags: np.ndarray) -> int:
    """The int with bit j set where flags[j] is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")
