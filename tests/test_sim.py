import io

import numpy as np
import pytest

from symldpc import (
    AwgnChannel,
    CodeSpec,
    SumProductDecoder,
    results_to_csv,
    run_awgn_sweep,
    run_bec_sweep,
)
from symldpc import sim
from symldpc.decode import POOL_BYTES
from symldpc.exceptions import BadParametersError
from symldpc.incidence import SparseBitMatrix
from symldpc.sim import _MASK64, _standard_normals, _uniforms, _words_per_trial


def test_uniform_stream_is_counter_addressable():
    # reading at an offset must equal the tail of a longer read
    whole = _uniforms(seed=7, cell=3, start_word=0, nwords=64)
    tail = _uniforms(seed=7, cell=3, start_word=16, nwords=48)
    assert np.array_equal(whole[16:], tail)
    other_cell = _uniforms(seed=7, cell=4, start_word=0, nwords=64)
    assert not np.array_equal(whole, other_cell)
    assert np.all((whole > 0.0) & (whole < 1.0))


def reference_uniforms(seed, cell, start_word, nwords):
    key = ((seed & _MASK64) << 64) | (cell & _MASK64)
    bg = np.random.Philox(key=key)
    bg.advance(start_word // 4)
    raw = bg.random_raw(nwords)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


# the conversion runs in chunks of POOL_BYTES: counts just below, at and past
# one chunk, and over several, from the stream's start and from a later block
@pytest.mark.parametrize("start_word", [0, 4 * 1237])
@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("chunks", [1, 3])
def test_uniforms_equal_the_oracle_across_conversion_chunks(chunks, extra, start_word):
    nwords = chunks * (POOL_BYTES // 8) + extra
    got = _uniforms(2026, 5, start_word, nwords)
    want = reference_uniforms(2026, 5, start_word, nwords)
    assert got.dtype == np.float64 and got.shape == (nwords,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def reference_standard_normals(u, n):
    r = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    theta = (2.0 * np.pi) * u[:, 1::2]
    z = np.empty_like(u)
    z[:, 0::2] = r * np.cos(theta)
    z[:, 1::2] = r * np.sin(theta)
    return z[:, :n]


# the transform runs over row chunks of about POOL_BYTES: row counts just
# below, at and past one chunk, and over several
@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("chunks", [1, 3])
@pytest.mark.parametrize("width", [12, 64, 80])
def test_standard_normals_equal_the_oracle_across_row_chunks(width, chunks, extra):
    rows = chunks * (POOL_BYTES // (8 * width)) + extra
    u = _uniforms(2026, 5, 0, rows * width).reshape(rows, width)
    want = reference_standard_normals(u.copy(), width - 1)
    got = _standard_normals(u, width - 1)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def reference_llrs(seed, cell, start_word, batch, n, sigma):
    """The noise as the batch-sized-temporaries code drew it, kept as the
    oracle of the in-place path: LLR (2 / sigma^2) (1 + sigma z)."""
    wpt = _words_per_trial(n)
    u = reference_uniforms(seed, cell, start_word, batch * wpt).reshape(batch, wpt)
    y = 1.0 + sigma * reference_standard_normals(u, n)
    return (2.0 / (sigma * sigma)) * y


def _chain_code(n):
    # checks x_j + x_j+1: any length, dimension 1, so the sweep's Eb/N0 scaling applies
    rows = [(j, j + 1) for j in range(n - 1)]
    return CodeSpec("chain", SparseBitMatrix.from_rows(n - 1, n, rows), f"chain({n})")


@pytest.mark.parametrize("batch", [1, 300])
@pytest.mark.parametrize("n", [11, 12, 27, 64, 80])
def test_in_place_noise_matches_reference_llrs(n, batch, monkeypatch):
    code = _chain_code(n)
    seen = []
    decode_batch = SumProductDecoder.decode_batch

    def record(self, llrs, max_iters):
        # the row blocks the decoder reads, in order: together they must be the batch
        blocks = []

        class Tap:
            shape, dtype = llrs.shape, llrs.dtype

            def __getitem__(self, rows):
                blocks.append(np.array(llrs[rows], copy=True))
                return blocks[-1]

        out = decode_batch(self, Tap(), max_iters)
        seen.append(np.concatenate(blocks))
        return out

    monkeypatch.setattr(SumProductDecoder, "decode_batch", record)
    ebnos, seed = [-1.0, 2.5, 7.0], 2026
    # three batches per cell: the second and third start past word 0
    run_awgn_sweep(code, ebnos, 3 * batch, seed, max_iters=1, threads=1, batch_size=batch)
    wpt = _words_per_trial(n)
    for cell, ebno in enumerate(ebnos):
        sigma = AwgnChannel(ebno_db=ebno, rate=code.rate).sigma
        for k in range(3):
            start = k * batch * wpt
            assert np.array_equal(
                _uniforms(seed, cell, start, batch * wpt),
                reference_uniforms(seed, cell, start, batch * wpt),
            )
            want = reference_llrs(seed, cell, start, batch, n, sigma)
            assert np.array_equal(seen[3 * cell + k], want)


def test_llr_rows_give_the_batch_for_any_slice():
    # 64-bit words draw 1024 rows per chunk: slices inside a chunk, across a
    # chunk's end, jumping back, stepped either way, negative and empty
    n, batch, seed, cell, start, sigma = 64, 3000, 2026, 1, 4 * 64, 0.7
    wpt = _words_per_trial(n)

    def draw(lo, hi):
        return _uniforms(seed, cell, start + lo * wpt, (hi - lo) * wpt).reshape(hi - lo, wpt)

    rows = sim._LlrRows(draw, batch, n, sigma)
    assert rows.shape == (batch, n) and rows.dtype == np.float64
    want = reference_llrs(seed, cell, start, batch, n, sigma)
    for index in [
        slice(0, 5), slice(5, 1000), slice(1000, 1030), slice(1030, None), slice(-10, None),
        slice(100, 200), slice(None, None, -7), slice(3, 2500, 333), slice(100, 50),
    ]:
        got = rows[index]
        assert got.shape == want[index].shape
        assert np.array_equal(got, want[index])


def test_words_per_trial_block_aligned():
    assert _words_per_trial(12) == 12
    assert _words_per_trial(13) == 16
    assert _words_per_trial(64) == 64


def test_thread_env_var_controls_default_without_changing_counts(ct22, monkeypatch):
    from symldpc.sim import default_threads

    monkeypatch.setenv("SYMLDPC_THREADS", "3")
    assert default_threads() == 3
    a = run_awgn_sweep(ct22, [1.0, 5.0], 400, seed=6)
    monkeypatch.setenv("SYMLDPC_THREADS", "1")
    b = run_awgn_sweep(ct22, [1.0, 5.0], 400, seed=6)
    monkeypatch.delenv("SYMLDPC_THREADS")
    assert default_threads() == 1
    assert a == b


def test_awgn_counts_independent_of_batch_and_threads(ct22):
    base = run_awgn_sweep(ct22, [1.0, 5.0], 500, seed=4, batch_size=37)
    rerun = run_awgn_sweep(ct22, [1.0, 5.0], 500, seed=4, batch_size=500)
    threaded = run_awgn_sweep(ct22, [1.0, 5.0], 500, seed=4, threads=3)
    assert base == rerun == threaded
    assert base[0].word_errors > 0


def test_threads_share_one_decoder_on_batches_wider_than_the_lane_pool(ct22):
    from symldpc.decode import LANES

    trials = 2 * LANES + 37
    one = run_awgn_sweep(ct22, [1.0, 2.0, 3.0], trials, seed=10, threads=1)
    two = run_awgn_sweep(ct22, [1.0, 2.0, 3.0], trials, seed=10, threads=2)
    assert one == two
    assert one[0].word_errors > 0


def test_awgn_seed_changes_counts(ct22):
    a = run_awgn_sweep(ct22, [2.0], 500, seed=1)[0]
    b = run_awgn_sweep(ct22, [2.0], 500, seed=2)[0]
    assert (a.word_errors, a.bit_errors) != (b.word_errors, b.bit_errors)


def test_awgn_invalid_parameters(ct22):
    with pytest.raises(BadParametersError):
        run_awgn_sweep(ct22, [1.0], 0, seed=1)


@pytest.mark.parametrize("ebno", [float("nan"), float("inf"), float("-inf")])
def test_awgn_rejects_non_finite_ebno(ct22, ebno):
    with pytest.raises(BadParametersError, match="Eb/N0 must be finite"):
        run_awgn_sweep(ct22, [1.0, ebno], 20, seed=1)


@pytest.mark.parametrize("batch_size", [0, -1])
@pytest.mark.parametrize("sweep", [run_awgn_sweep, run_bec_sweep])
def test_batch_size_below_one_is_rejected(ct22, sweep, batch_size):
    # a batch of 0 trials would never finish the cell
    with pytest.raises(BadParametersError, match="batch_size"):
        sweep(ct22, [0.1], 10, 1, batch_size=batch_size)


@pytest.mark.parametrize(
    "name, value",
    [
        ("trials", 2.5),
        ("trials", True),
        ("trials", "10"),
        ("seed", 1.0),
        ("seed", False),
        ("batch_size", 2.5),
        ("batch_size", np.float64(4.0)),
    ],
)
@pytest.mark.parametrize("sweep", [run_awgn_sweep, run_bec_sweep])
def test_sweep_integers_must_be_integers(ct22, sweep, name, value):
    kwargs = {"trials": 10, "seed": 1, "batch_size": 4, name: value}
    with pytest.raises(BadParametersError, match=f"{name} must be an integer"):
        sweep(ct22, [0.1], **kwargs)


@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 5, -(1 << 70)])
@pytest.mark.parametrize("sweep", [run_awgn_sweep, run_bec_sweep])
def test_seed_outside_64_bits_is_refused(ct22, sweep, seed):
    # Philox keys on 64 bits, so -1 would draw the noise of 2^64 - 1, and
    # 2^64 + 5 that of 5, while the CSV records different seeds
    with pytest.raises(BadParametersError, match="seed"):
        sweep(ct22, [0.4], 10, seed)


@pytest.mark.parametrize("sweep", [run_awgn_sweep, run_bec_sweep])
def test_seed_range_ends_are_accepted(ct22, sweep):
    for seed in (0, (1 << 64) - 1):
        (result,) = sweep(ct22, [0.4], 10, seed)
        assert result.seed == seed


@pytest.mark.parametrize("ebno", [4000.0, 3083.0, -3235.0, -3240.0])
def test_awgn_refuses_eb_n0_without_a_usable_noise_scale(ct22, ebno, monkeypatch):
    # 3083 dB overflows 10^(Eb/N0 / 10), -3235 dB overflows sigma^2 (so every
    # LLR would be 0) and -3240 dB makes sigma infinite
    with pytest.raises(BadParametersError, match="Eb/N0"):
        AwgnChannel(ebno_db=ebno, rate=ct22.rate).sigma
    # every point is checked before any cell runs
    monkeypatch.setattr(sim, "_sweep", lambda *args: pytest.fail("a sweep cell ran"))
    with pytest.raises(BadParametersError, match=f"Eb/N0 of {ebno} dB"):
        run_awgn_sweep(ct22, [1.0, ebno], 20, seed=1)


def test_extreme_but_usable_eb_n0_keeps_its_noise(ct22):
    assert AwgnChannel(ebno_db=3000.0, rate=ct22.rate).sigma > 0
    (low,) = run_awgn_sweep(ct22, [-3000.0], 50, seed=1)
    assert low.word_errors == 50


@pytest.mark.parametrize("max_iters", [1.5, True, 0])
def test_awgn_max_iters_must_be_a_positive_integer(ct22, max_iters):
    with pytest.raises(BadParametersError, match="max_iters must be"):
        run_awgn_sweep(ct22, [1.0], 10, 1, max_iters=max_iters)


@pytest.mark.parametrize("sweep", [run_awgn_sweep, run_bec_sweep])
def test_numpy_integers_are_stored_as_plain_ints(ct22, sweep):
    kwargs = {"trials": np.int64(50), "seed": np.uint32(7), "batch_size": np.int32(16)}
    if sweep is run_awgn_sweep:
        kwargs["max_iters"] = np.int16(20)
    [got] = sweep(ct22, [0.3], **kwargs)
    [want] = sweep(ct22, [0.3], trials=50, seed=7, batch_size=16)
    assert got == want
    assert type(got.trials) is int and type(got.seed) is int


def test_wer_bounds_and_fields(ct22):
    res = run_awgn_sweep(ct22, [0.0], 300, seed=8)[0]
    assert 0.0 <= res.wer <= 1.0
    assert res.bit_errors <= res.trials * ct22.length
    assert res.word_errors <= res.trials
    assert res.channel == "awgn" and res.code_id == "CT(2,2)"


def test_bec_zero_probability_is_error_free(ct22):
    res = run_bec_sweep(ct22, [0.0], 200, seed=5)[0]
    assert res.wer == 0.0 and res.ber == 0.0


def test_bec_near_one_probability_always_fails(ct22):
    res = run_bec_sweep(ct22, [1.0 - 1e-9], 100, seed=5)[0]
    assert res.wer == 1.0


def test_bec_reproducible(ct22):
    a = run_bec_sweep(ct22, [0.3], 2000, seed=12)
    b = run_bec_sweep(ct22, [0.3], 2000, seed=12, batch_size=123)
    assert a == b
    assert a[0].word_errors > 0


def test_bec_rejects_probability_one(ct22):
    with pytest.raises(BadParametersError):
        run_bec_sweep(ct22, [1.0], 10, seed=1)


def test_endpoint_wer_monotone(ct22):
    res = run_awgn_sweep(ct22, [0.0, 4.0, 8.0], 2000, seed=17)
    assert res[0].wer >= res[-1].wer
    assert res[0].wer > res[-1].wer  # strict at these endpoints


def test_csv_output_shape_and_determinism(ct22):
    import csv

    res = run_bec_sweep(ct22, [0.1, 0.2], 500, seed=2)
    buf1, buf2 = io.StringIO(), io.StringIO()
    results_to_csv(res, buf1)
    results_to_csv(run_bec_sweep(ct22, [0.1, 0.2], 500, seed=2), buf2)
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().splitlines()
    assert lines[0] == "code_id,channel,param,trials,word_errors,bit_errors,wer,ber,seed"
    assert len(lines) == 3
    parsed = list(csv.reader(io.StringIO(buf1.getvalue())))
    assert parsed[1][0] == "CT(2,2)"
    assert parsed[1][1] == "bec"
    assert float(parsed[1][2]) == 0.1


# (word_errors, bit_errors) at seed 2026, 2000 trials, threads=1.  A change to
# the noise stream or to the decoder's decisions shows up here; re-bless only
# with an explanation of why the counts moved.  A change of rounding alone
# need not: reordering the column sum leaves these counts as they are.  The
# pinned near-tie totals in test_decode.py catch it.
GOLDEN_COUNTS = {
    ("CT(2,2)", "awgn", 1.0): (281, 1246),
    ("CT(2,2)", "awgn", 4.0): (33, 138),
    ("CT(2,2)", "bec", 0.3): (106, 509),
    ("C(2,4)", "awgn", 1.0): (310, 5926),
    ("C(2,4)", "awgn", 4.0): (5, 105),
    ("C(2,4)", "bec", 0.3): (0, 0),
}


@pytest.mark.parametrize("code_name", ["ct22", "c24"])
def test_golden_counts(code_name, request):
    code = request.getfixturevalue(code_name)
    results = run_awgn_sweep(code, [1.0, 4.0], 2000, seed=2026, threads=1)
    results += run_bec_sweep(code, [0.3], 2000, seed=2026, threads=1)
    for r in results:
        key = (r.code_id, r.channel, r.param)
        assert (r.word_errors, r.bit_errors) == GOLDEN_COUNTS[key]
        assert r.trials == 2000 and r.wer == r.word_errors / 2000
        assert r.ber == r.bit_errors / (2000 * code.length)


def test_bec_counts_independent_of_threads_and_batch_on_a_fresh_matrix():
    # the peeler caches its row masks and column lists on h at first use;
    # threads=2 runs first, so both cells may build that cache at once
    from symldpc import FAMILY_SYMMETRIC, make_code

    code = make_code(FAMILY_SYMMETRIC, 2, 4)
    assert "peel" not in vars(code.h).get("_derived", {})
    two = run_bec_sweep(code, [0.3, 0.45], 2000, seed=2026, threads=2)
    one = run_bec_sweep(code, [0.3, 0.45], 2000, seed=2026, threads=1)
    rebatched = run_bec_sweep(code, [0.3, 0.45], 2000, seed=2026, threads=1, batch_size=123)
    assert two == one == rebatched
    assert (one[0].word_errors, one[0].bit_errors) == GOLDEN_COUNTS[("C(2,4)", "bec", 0.3)]
    assert one[1].word_errors > 0


def test_odd_length_counts(c23):
    # 27 bits take 28 Philox words per trial, which Box-Muller uses as 14 pairs
    results = run_awgn_sweep(c23, [1.0, 3.0], 1000, seed=2026, threads=1, batch_size=300)
    results += run_bec_sweep(c23, [0.3], 1000, seed=2026, threads=1)
    assert [(r.word_errors, r.bit_errors) for r in results] == [(163, 2188), (62, 842), (1, 12)]
