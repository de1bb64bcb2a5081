"""Monte-Carlo word/bit error rate sweeps with reproducible noise.

Transmission is always the all-zero codeword (the code is linear and both
channels are symmetric, so error rates are codeword-independent); BPSK
maps it to the all +1 sequence.

Randomness is a counter-based Philox stream keyed by (seed, sweep-cell
index); trial t consumes the 64-bit words [t*W, (t+1)*W) of that stream,
where W is the per-trial word budget rounded up to the 4-word Philox
block.  Noise values therefore depend only on (seed, cell, trial), never
on batch size, thread count, or schedule, and reruns are bit-identical.

Both sweeps share one cell driver, `_sweep`: it splits a cell into
batches, counts word and bit errors and builds the SimResult, while the
channel supplies only the per-trial bit errors of a batch, drawing the
batch's uniforms through the driver.  The BEC channel draws a batch at
once.  The AWGN channel hands the decoder an `_LlrRows`, which draws the
uniforms, normals and LLRs of the rows the decoder loads one chunk of
about POOL_BYTES at a time, so a batch's noise never exists as one
block.
"""

from __future__ import annotations

import csv
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .codes import CodeSpec
from .decode import (
    DEFAULT_MAX_ITERS,
    ERASED,
    POOL_BYTES,
    AwgnChannel,
    SumProductDecoder,
    peel_decode_bec,
)
from .exceptions import BadParametersError, check_integer

CSV_HEADER = ["code_id", "channel", "param", "trials", "word_errors", "bit_errors", "wer", "ber", "seed"]

DEFAULT_BATCH = 8192

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimResult:
    """Accumulated error statistics for one (code, channel, parameter) cell."""

    code_id: str
    channel: str
    param: float
    trials: int
    word_errors: int
    bit_errors: int
    wer: float
    ber: float
    seed: int
    elapsed: float = field(compare=False, default=0.0)

    def csv_row(self) -> list:
        return [
            self.code_id,
            self.channel,
            self.param,
            self.trials,
            self.word_errors,
            self.bit_errors,
            self.wer,
            self.ber,
            self.seed,
        ]


def results_to_csv(results, out) -> None:
    """Write results under the fixed header; `out` is a path or a text file."""
    if hasattr(out, "write"):
        w = csv.writer(out, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for r in results:
            w.writerow(r.csv_row())
    else:
        with open(out, "w", encoding="utf-8", newline="") as f:
            results_to_csv(results, f)


def default_threads() -> int:
    env = os.environ.get("SYMLDPC_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _words_per_trial(count: int) -> int:
    # round up to the Philox 4-word block so trials start on block boundaries
    return (count + 3) // 4 * 4


def _uniforms(seed: int, cell: int, start_word: int, nwords: int) -> np.ndarray:
    """Open-interval (0,1) doubles from the (seed, cell) Philox stream.

    Computed in the raw words' own memory: (raw >> 11) + 0.5, times 2^-53.
    The conversion runs POOL_BYTES at a time: numpy copies an input that
    shares memory with an output of another dtype, so the copy is one chunk
    rather than the whole block.  The shifted words are read as int64; each
    is below 2^53, so they cast to the same doubles as uint64 would.
    """
    if start_word % 4:
        raise BadParametersError(f"start word {start_word} is not on a Philox block boundary")
    key = ((seed & _MASK64) << 64) | (cell & _MASK64)
    bg = np.random.Philox(key=key)
    bg.advance(start_word // 4)
    raw = bg.random_raw(nwords)
    raw >>= np.uint64(11)
    words, u = raw.view(np.int64), raw.view(np.float64)
    chunk = POOL_BYTES // raw.itemsize
    for lo in range(0, nwords, chunk):
        np.add(words[lo : lo + chunk], 0.5, out=u[lo : lo + chunk])
    u *= 2.0**-53
    return u


def _standard_normals(u: np.ndarray, n: int) -> np.ndarray:
    """Box-Muller transform of a (batch, even) uniform block; first n columns.

    The pairs are written back into u: column 2i gets r cos(theta) and column
    2i + 1 gets r sin(theta), where r = sqrt(-2 log u[:, 2i]) and theta =
    2 pi u[:, 2i + 1].  The transform runs over row chunks of about
    POOL_BYTES, so its temporaries (sin, and the copy numpy makes of theta
    where it interleaves with r) stay chunk-sized.
    """
    rows = max(1, POOL_BYTES // (u.shape[1] * u.itemsize))
    for lo in range(0, len(u), rows):
        r, theta = u[lo : lo + rows, 0::2], u[lo : lo + rows, 1::2]
        np.log(r, out=r)
        np.multiply(-2.0, r, out=r)
        np.sqrt(r, out=r)
        np.multiply(2.0 * np.pi, theta, out=theta)
        sin = np.sin(theta)
        np.multiply(r, sin, out=sin)
        np.cos(theta, out=theta)
        np.multiply(r, theta, out=r)
        theta[...] = sin
    return u[:, :n]


class _LlrRows:
    """A batch's AWGN channel LLRs, as a (batch, n) row source for decode_batch.

    `draw(lo, hi)` gives the (hi - lo, words) uniforms of the batch's
    trials [lo, hi).  A slice reaching past the rows drawn so far draws
    from its first missing row on: the larger of the rows it asks for and
    about POOL_BYTES of rows, turned into normals and LLRs in the draw's
    memory, with the same operations on the same values as the whole
    batch would take.  The stream is counter-based, so any slice gives
    the right values; ascending slices, as the decoder takes, draw each
    row once.
    """

    dtype = np.dtype(np.float64)

    def __init__(self, draw, batch: int, n: int, sigma: float):
        self.shape = (batch, n)
        self._draw, self._sigma = draw, sigma
        self._chunk = max(1, POOL_BYTES // (8 * _words_per_trial(n)))
        self._start = self._stop = 0
        self._llrs = None

    def _fill(self, lo: int, hi: int) -> None:
        """Draw rows [lo, max(hi, lo + chunk)), clipped to the batch."""
        sigma = self._sigma
        self._llrs = None  # the rows drawn before go first, so two draws never coexist
        self._start, self._stop = lo, min(self.shape[0], max(hi, lo + self._chunk))
        # the LLR (2 / sigma^2) (1 + sigma z), computed in the noise's memory
        llrs = _standard_normals(self._draw(self._start, self._stop), self.shape[1])
        llrs *= sigma
        llrs += 1.0
        llrs *= 2.0 / (sigma * sigma)
        self._llrs = llrs

    def __getitem__(self, rows: slice) -> np.ndarray:
        lo, hi, step = rows.indices(self.shape[0])
        want = range(lo, hi, step)
        if not want:
            return np.empty((0, self.shape[1]))
        if step != 1:  # the block spanning the rows, then every step-th one
            return self[min(want) : max(want) + 1][::step]
        if self._start <= lo < self._stop < hi:
            # the block runs past the drawn rows: keep their tail, draw on from there
            head = self._stop - lo
            block = np.empty((hi - lo, self.shape[1]))
            block[:head] = self._llrs[lo - self._start :]
            self._fill(self._stop, hi)
            block[head:] = self._llrs[: hi - self._start]
            return block
        if not self._start <= lo < hi <= self._stop:
            self._fill(lo, hi)
        return self._llrs[lo - self._start : hi - self._start]


def _sweep(code, channel, params, trials, seed, errors, threads, batch_size):
    """Run one cell per parameter; the channel enters only through `errors`.

    Each trial draws one uniform per code bit, rounded up to the Philox
    block (so always an even count, as Box-Muller needs).  errors(param,
    batch, draw) gives the per-trial bit error counts of a batch, where
    draw(lo, hi) is the (hi - lo, words) uniform block of the batch's
    trials [lo, hi); a trial with any bit error is a word error.
    """
    trials = check_integer("trials", trials, 1)
    seed = check_integer("seed", seed, 0)
    if seed > _MASK64:  # Philox keys on 64 bits, so a wider seed would alias one below
        raise BadParametersError(f"seed must be below 2^64, got {seed}")
    batch_size = check_integer("batch_size", batch_size, 1)
    wpt = _words_per_trial(code.length)

    def run_cell(cell: int) -> SimResult:
        t0 = time.perf_counter()
        param = params[cell]
        word_errors = 0
        bit_errors = 0
        done = 0
        while done < trials:
            b = min(batch_size, trials - done)

            def draw(lo: int, hi: int, first: int = done) -> np.ndarray:
                u = _uniforms(seed, cell, (first + lo) * wpt, (hi - lo) * wpt)
                return u.reshape(hi - lo, wpt)

            errs = errors(param, b, draw)
            word_errors += int(np.count_nonzero(errs))
            bit_errors += int(errs.sum())
            done += b
        return SimResult(
            code_id=code.code_id,
            channel=channel,
            param=param,
            trials=trials,
            word_errors=word_errors,
            bit_errors=bit_errors,
            wer=word_errors / trials,
            ber=bit_errors / (trials * code.length),
            seed=seed,
            elapsed=time.perf_counter() - t0,
        )

    return _run_cells(run_cell, len(params), threads)


def run_awgn_sweep(
    code: CodeSpec,
    ebno_list,
    trials: int,
    seed: int,
    max_iters: int = DEFAULT_MAX_ITERS,
    threads: int | None = None,
    batch_size: int = DEFAULT_BATCH,
) -> list[SimResult]:
    """All-zero-codeword AWGN sweep; one SimResult per Eb/N0 point."""
    if code.dimension < 1:
        raise BadParametersError("AWGN Eb/N0 scaling needs code dimension >= 1")
    ebno_list = [float(e) for e in ebno_list]
    for ebno in ebno_list:
        if not np.isfinite(ebno):
            raise BadParametersError(f"Eb/N0 must be finite, got {ebno}")
        AwgnChannel(ebno_db=ebno, rate=code.rate).sigma  # refuses an unusable noise scale
    max_iters = check_integer("max_iters", max_iters, 1)
    decoder = SumProductDecoder(code.h)
    n = code.length

    def errors(ebno: float, batch: int, draw) -> np.ndarray:
        sigma = AwgnChannel(ebno_db=ebno, rate=code.rate).sigma
        bits, _, _ = decoder.decode_batch(_LlrRows(draw, batch, n, sigma), max_iters)
        return bits.sum(axis=1)

    return _sweep(code, "awgn", ebno_list, trials, seed, errors, threads, batch_size)


def run_bec_sweep(
    code: CodeSpec,
    erasure_probs,
    trials: int,
    seed: int,
    threads: int | None = None,
    batch_size: int = DEFAULT_BATCH,
) -> list[SimResult]:
    """All-zero-codeword erasure-channel sweep using the peeling decoder."""
    probs = [float(p) for p in erasure_probs]
    for p in probs:
        if not 0.0 <= p < 1.0:
            raise BadParametersError(f"erasure probability must be in [0, 1), got {p}")
    n = code.length

    def errors(p: float, batch: int, draw) -> np.ndarray:
        erase = draw(0, batch)[:, :n] < p
        words = np.where(erase, np.int8(ERASED), np.int8(0))
        # the bits left erased: the sent word is all-zero, so the peeler
        # resolves every bit it reaches to 0; a stall leaves at least one
        errs = erase.sum(axis=1)
        for t, word in enumerate(words):
            errs[t] -= peel_decode_bec(code, word).iterations
        return errs

    return _sweep(code, "bec", probs, trials, seed, errors, threads, batch_size)


def _run_cells(run_cell, n_cells: int, threads: int | None) -> list[SimResult]:
    """Run independent sweep cells, optionally on a thread pool.

    Each cell's stream is keyed by its index, so results are identical for
    any worker count; they are returned in cell order.
    """
    workers = threads if threads is not None else default_threads()
    if workers <= 1 or n_cells <= 1:
        return [run_cell(c) for c in range(n_cells)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_cell, range(n_cells)))
