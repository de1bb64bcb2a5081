import copy
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symldpc import (
    AwgnChannel,
    SumProductDecoder,
    bp_decode_awgn,
    null_space_basis,
    peel_decode_bec,
    run_awgn_sweep,
)
from symldpc import decode
from symldpc.codes import ctranspose_witness
from symldpc.decode import DEFAULT_MAX_ITERS, ERASED, LLR_CLIP
from symldpc.exceptions import (
    BadParametersError,
    InconsistentError,
    LengthMismatchError,
)
from symldpc.incidence import SparseBitMatrix

from conftest import supports


def _codewords(code):
    return list(null_space_basis(code.h))


def test_awgn_channel_sigma():
    ch = AwgnChannel(ebno_db=0.0, rate=0.5)
    assert ch.sigma == pytest.approx(1.0)
    ch2 = AwgnChannel(ebno_db=3.0, rate=5 / 12)
    assert ch2.sigma**2 == pytest.approx(1 / (2 * (5 / 12) * 10**0.3))


def test_noiseless_all_zero_converges_first_iteration(ct22):
    out = bp_decode_awgn(ct22, np.full(12, 1e9))
    assert out.status == "converged"
    assert out.iterations == 1
    assert out.word.sum() == 0
    assert out.syndrome_ok


def test_noiseless_nonzero_codeword_is_fixed_point(ct22):
    cw = _codewords(ct22)[0]
    llr = np.where(cw == 1, -LLR_CLIP, LLR_CLIP)
    out = bp_decode_awgn(ct22, llr)
    assert out.status == "converged"
    assert np.array_equal(out.word, cw)
    assert out.syndrome_ok


def test_converged_implies_syndrome_ok(ct22):
    rng = np.random.default_rng(0)
    for _ in range(50):
        llr = rng.normal(scale=2.0, size=12)
        out = bp_decode_awgn(ct22, llr)
        if out.status == "converged":
            assert out.syndrome_ok


def reference_syndrome_ok(h, word) -> bool:
    """True when the word satisfies every check of h, from the dense matrix.

    The decoders report the parity they computed while decoding; this
    recomputes it from scratch as the oracle.
    """
    return not np.any(h.toarray().astype(np.int64) @ np.asarray(word, dtype=np.int64) % 2)


@pytest.mark.parametrize("max_iters", [1, 2, 3])
def test_bp_syndrome_ok_matches_reference(c22, ct22, max_iters):
    rng = np.random.default_rng(max_iters)
    seen = set()
    for code in (c22, ct22):
        # channel LLRs 2y/sigma^2 at sigma = 1: many words fail within 3 iterations
        for llr in 2.0 * (1.0 + rng.standard_normal((60, code.length))):
            out = bp_decode_awgn(code, llr, max_iters=max_iters)
            assert out.syndrome_ok == reference_syndrome_ok(code.h, out.word)
            assert out.syndrome_ok == (out.status == "converged")
            seen.add(out.syndrome_ok)
    assert seen == {True, False}


def test_sign_flip_symmetry(ct22):
    # flipping llr signs along a codeword maps the decode by that codeword
    cw = _codewords(ct22)[2]
    rng = np.random.default_rng(42)
    for _ in range(25):
        llr = rng.normal(loc=1.0, scale=2.0, size=12)
        flipped = llr * np.where(cw == 1, -1.0, 1.0)
        a = bp_decode_awgn(ct22, llr)
        b = bp_decode_awgn(ct22, flipped)
        assert a.status == b.status
        assert a.iterations == b.iterations
        assert np.array_equal(b.word, a.word ^ cw)


def test_batch_matches_single_decodes(ct22):
    rng = np.random.default_rng(3)
    llrs = rng.normal(loc=2.0, scale=2.0, size=(40, 12))
    bits, conv, iters = SumProductDecoder(ct22.h).decode_batch(llrs)
    for t in range(40):
        out = bp_decode_awgn(ct22, llrs[t])
        assert np.array_equal(out.word, bits[t])
        assert (out.status == "converged") == conv[t]
        assert out.iterations == iters[t]


class ReferenceDecoder:
    """The CSR + reduceat sum-product decoder, kept as the oracle.

    Edges are stored check-major with a permutation to variable-major
    order; per-node sums and products are `reduceat` over the CSR starts,
    and columns of weight zero are compacted out of the variable sums.
    """

    def __init__(self, h):
        rows = [r for r in h.supports() if r]
        self.ncols = h.ncols
        var_cm = np.array([j for r in rows for j in r], dtype=np.int64)
        self.var_cm = var_cm
        self.n_edges = len(var_cm)
        self.check_degrees = np.array([len(r) for r in rows], dtype=np.int64)
        self.check_starts = np.concatenate(
            ([0], np.cumsum(self.check_degrees)[:-1])
        ).astype(np.int64)
        check_cm = np.repeat(np.arange(len(rows), dtype=np.int64), self.check_degrees)
        order = np.lexsort((check_cm, var_cm))
        self.to_vm = order
        self.from_vm = np.argsort(order, kind="stable")
        self.var_vm = var_cm[order]
        var_degrees = np.bincount(var_cm, minlength=h.ncols).astype(np.int64)
        self.checked_vars = np.flatnonzero(var_degrees > 0)
        self.nz_deg = var_degrees[self.checked_vars]
        self.var_starts = np.concatenate(([0], np.cumsum(self.nz_deg)[:-1])).astype(np.int64)

    def check_update(self, v2c):
        """Check-major c2v messages from check-major v2c messages."""
        t = np.tanh(0.5 * v2c)
        zero = t == 0.0
        t_nz = np.where(zero, 1.0, t)
        prod_nz = np.multiply.reduceat(t_nz, self.check_starts, axis=0)
        zcnt = np.add.reduceat(zero.astype(np.int32), self.check_starts, axis=0)
        prod_e = np.repeat(prod_nz, self.check_degrees, axis=0)
        zcnt_e = np.repeat(zcnt, self.check_degrees, axis=0)
        loo = np.where(
            zcnt_e == 0,
            prod_e / t_nz,
            np.where((zcnt_e == 1) & zero, prod_e, 0.0),
        )
        tanh_cap = np.tanh(0.5 * LLR_CLIP)
        np.clip(loo, -tanh_cap, tanh_cap, out=loo)
        return 2.0 * np.arctanh(loo)

    def decode_batch(self, llrs, max_iters=DEFAULT_MAX_ITERS):
        batch = llrs.shape[0]
        llrs = np.clip(llrs, -LLR_CLIP, LLR_CLIP)
        bits_out = np.zeros((batch, self.ncols), dtype=np.uint8)
        iters_out = np.full(batch, max_iters, dtype=np.int32)
        converged = np.zeros(batch, dtype=bool)
        if self.n_edges == 0:
            bits_out[:] = llrs < 0.0
            iters_out[:] = 1
            converged[:] = True
            return bits_out, converged, iters_out

        active = np.arange(batch)
        llr_t = np.ascontiguousarray(llrs.T)
        v2c = llr_t[self.var_cm]
        for it in range(1, max_iters + 1):
            c2v_vm = self.check_update(v2c)[self.to_vm]
            sums = np.add.reduceat(c2v_vm, self.var_starts, axis=0)
            post = llr_t.copy()
            post[self.checked_vars] += sums
            bits = (post < 0.0).astype(np.uint8)
            par = np.add.reduceat(
                bits[self.var_cm].astype(np.int32), self.check_starts, axis=0
            )
            ok = ~np.any(par & 1, axis=0)

            newly = np.flatnonzero(ok)
            if newly.size:
                orig = active[newly]
                bits_out[orig] = bits[:, newly].T
                iters_out[orig] = it
                converged[orig] = True
            if newly.size == ok.size:
                return bits_out, converged, iters_out
            if it == max_iters:
                rest = np.flatnonzero(~ok)
                bits_out[active[rest]] = bits[:, rest].T
                return bits_out, converged, iters_out

            keep = np.flatnonzero(~ok)
            if newly.size:
                active = active[keep]
                llr_t = llr_t[:, keep]
                c2v_vm = c2v_vm[:, keep]
                sums = sums[:, keep]
            sums_e = np.repeat(sums, self.nz_deg, axis=0)
            v2c_vm = llr_t[self.var_vm] + sums_e - c2v_vm
            np.clip(v2c_vm, -LLR_CLIP, LLR_CLIP, out=v2c_vm)
            v2c = v2c_vm[self.from_vm]
        raise AssertionError("unreachable")


def _assert_same_decodes(h, llrs, max_iters, split=None):
    ref = ReferenceDecoder(h).decode_batch(llrs, max_iters)
    dec = SumProductDecoder(h)
    if split is None:
        got = dec.decode_batch(llrs, max_iters)
    else:
        parts = [dec.decode_batch(part, max_iters) for part in (llrs[:split], llrs[split:])]
        got = tuple(np.concatenate(arrays) for arrays in zip(*parts))
    for want, have in zip(ref, got):
        assert want.dtype == have.dtype
        assert np.array_equal(want, have)


_LLR = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -LLR_CLIP, LLR_CLIP, -1e9, 1e9]),
    st.floats(-40.0, 40.0, allow_nan=False),
)


@st.composite
def _decode_cases(draw):
    # at most 8 rows: up to column weight 8 both decoders sum in the same order
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 10))
    rows = [
        sorted(draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)))
        for _ in range(nrows)
    ]
    batch = draw(st.integers(1, 12))
    llrs = draw(st.lists(_LLR, min_size=batch * ncols, max_size=batch * ncols))
    return (
        SparseBitMatrix.from_rows(nrows, ncols, rows),
        np.array(llrs, dtype=np.float64).reshape(batch, ncols),
        draw(st.integers(1, 5)),
        draw(st.none() | st.integers(0, batch)),
    )


@given(_decode_cases())
@settings(max_examples=300, deadline=None)
@example(
    (
        # a zero-weight row, an unchecked column, degrees 1 and 2, zero LLRs
        SparseBitMatrix.from_rows(3, 4, [(0, 1), (), (1, 2)]),
        np.array([[0.0, -1.0, 0.5, 2.0], [0.0, 0.0, -0.3, 0.0]]),
        5,
        1,
    )
)
def test_decode_batch_matches_reference(case):
    _assert_same_decodes(*case)


# With a pool of 1 to 3 lanes, the hypothesis batches (up to 12 words, some
# split in two) and the geometry-code words refill lanes on every iteration,
# words finish on and across the max_iters boundary, and the pool shrinks
# word by word at the end of each call.
@pytest.mark.parametrize("lanes", [1, 2, 3])
@given(case=_decode_cases())
@settings(max_examples=100, deadline=None)
def test_narrow_lane_pools_match_reference(lanes, case):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decode, "LANES", lanes)
        _assert_same_decodes(*case)


def _assert_same_decodes_on_noise_and_near_ties(h):
    rng = np.random.default_rng(11)
    llrs = 2.0 + 1.5 * rng.standard_normal((300, h.ncols))
    _assert_same_decodes(h, 4.0 * llrs / 1.5**2, DEFAULT_MAX_ITERS, split=123)

    llrs = _near_tie_llrs(h, rng.standard_normal((300, h.ncols)), rng)
    _assert_same_decodes(h, llrs, 1)


@pytest.mark.parametrize("code_name", ["c22", "ct22", "c24", "ct24"])
def test_decode_batch_matches_reference_on_geometry_codes(code_name, request):
    _assert_same_decodes_on_noise_and_near_ties(request.getfixturevalue(code_name).h)


@pytest.mark.parametrize("lanes", [1, 2, 3])
@pytest.mark.parametrize("code_name", ["c22", "ct22", "c24", "ct24"])
def test_narrow_lane_pools_match_reference_on_geometry_codes(
    code_name, lanes, request, monkeypatch
):
    monkeypatch.setattr(decode, "LANES", lanes)
    _assert_same_decodes_on_noise_and_near_ties(request.getfixturevalue(code_name).h)


def test_decode_batch_keeps_no_state_on_the_decoder(c24):
    # a sweep's cell threads share one decoder, so every buffer lives in the call
    dec = SumProductDecoder(c24.h)
    before = copy.deepcopy(vars(dec))
    llrs = np.random.default_rng(4).standard_normal((decode.LANES + 9, c24.length))
    dec.decode_batch(llrs, max_iters=3)
    after = vars(dec)
    assert after.keys() == before.keys()
    for k, v in before.items():
        assert type(after[k]) is type(v) and np.array_equal(after[k], v)


def _alternating_batch(code, words, max_iters, rng):
    """Near-noiseless words, which converge at iteration 1, alternating with
    noisy ones that the oracle runs to max_iters without converging."""
    noisy = 1.5 * rng.standard_normal((4 * words, code.length))
    _, converged, _ = ReferenceDecoder(code.h).decode_batch(noisy, max_iters)
    llrs = np.full((words, code.length), 2.0 * LLR_CLIP)
    llrs[1::2] = noisy[~converged][: words // 2]
    return llrs


# Half of the words finish at iteration 1 and the rest only at max_iters, so
# a pool narrower than the batch refills and moves lanes on every iteration,
# and a pool as wide as the batch packs its scattered live lanes down before
# it narrows.  The byte budget is lifted so that LANES or the batch sets the
# width.
@pytest.mark.parametrize("lanes", [2, 5, 1024])
def test_lane_packing_matches_reference(c24, lanes, monkeypatch):
    monkeypatch.setattr(decode, "LANES", lanes)
    monkeypatch.setattr(decode, "POOL_BYTES", 1 << 30)
    max_iters = 6
    llrs = _alternating_batch(c24, 301, max_iters, np.random.default_rng(2026))
    assert SumProductDecoder(c24.h)._pool_width(len(llrs)) == min(lanes, len(llrs))
    _assert_same_decodes(c24.h, llrs, max_iters)
    _, converged, iters = SumProductDecoder(c24.h).decode_batch(llrs, max_iters)
    assert converged[0::2].all() and (iters[0::2] == 1).all()
    assert not converged[1::2].any() and (iters[1::2] == max_iters).all()


def test_pool_width_is_the_tightest_of_budget_lanes_and_batch(c24, ct22, monkeypatch):
    # one lane of an edge-sized float64 buffer, with its sentinel row
    dec = SumProductDecoder(c24.h)
    assert dec.check_side.shape == (80, 4)
    budget = decode.POOL_BYTES // (8 * 321)
    assert 1 < budget < decode.LANES  # C(2,4) is bound by the byte budget
    assert dec._pool_width(8192) == budget
    assert dec._pool_width(budget - 1) == budget - 1
    # CT(2,2), with 24 edges, is bound by LANES
    dec = SumProductDecoder(ct22.h)
    assert dec.check_side.size == 24
    assert decode.POOL_BYTES // (8 * 25) > decode.LANES
    assert dec._pool_width(8192) == decode.LANES
    assert dec._pool_width(7) == 7
    # a graph without edges has no edge-sized buffer to bound
    dec = SumProductDecoder(SparseBitMatrix.from_rows(2, 3, [(), ()]))
    assert dec.check_side.size == 0
    assert dec._pool_width(8192) == decode.LANES
    assert dec._pool_width(0) == 0
    # five lanes of C(2,4)'s 320 slots and sentinel row need 5 * 8 * 321 bytes
    monkeypatch.setattr(decode, "POOL_BYTES", 5 * 8 * 321 - 1)
    assert SumProductDecoder(c24.h)._pool_width(8192) == 4
    # a budget below one lane still gets one
    monkeypatch.setattr(decode, "POOL_BYTES", 1)
    assert SumProductDecoder(c24.h)._pool_width(8192) == 1


# budgets of 1, 7 and 204 lanes on C(2,4) and CT(2,4) (320 edges each), and
# one that leaves a pool as wide as the batch
@pytest.mark.parametrize("pool_bytes", [1, 7 * 8 * 321, 512 * 1024, 1 << 30])
@pytest.mark.parametrize("code_name", ["c24", "ct24"])
def test_outputs_do_not_depend_on_the_pool_budget(code_name, pool_bytes, request, monkeypatch):
    code = request.getfixturevalue(code_name)
    monkeypatch.setattr(decode, "POOL_BYTES", pool_bytes)
    max_iters = 6
    llrs = _alternating_batch(code, 301, max_iters, np.random.default_rng(7))
    _assert_same_decodes(code.h, llrs, max_iters)


# C(2,4) at three batch sizes and in the waterfall, and CT(2,8), whose 576-bit
# words fit 14 lanes and 113 noise rows per POOL_BYTES
@pytest.mark.parametrize(
    "family,q,batch,ebno",
    [
        ("symmetric", 4, 2048, 7.0),
        ("symmetric", 4, 8192, 7.0),
        ("symmetric", 4, 16384, 7.0),
        ("symmetric", 4, 8192, 1.0),
        ("symmetric_transpose", 8, 8192, 7.0),
    ],
)
def test_one_sweep_batch_peaks_at_its_bits_plus_a_few_pools(family, q, batch, ebno):
    # past the batch x n bytes of decoded bits, a sweep holds the decoder's
    # pool (a few edge-sized buffers of POOL_BYTES) and one noise chunk of
    # about POOL_BYTES with its conversion, whatever the batch or the length
    import tracemalloc

    from symldpc import make_code

    code = make_code(family, 2, q)
    run_awgn_sweep(code, [7.0], 16, seed=1, threads=1)  # code dimension, imports
    tracemalloc.start()
    try:
        run_awgn_sweep(code, [ebno], batch, seed=2026, threads=1, batch_size=batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - batch * code.length < 8 * decode.POOL_BYTES


def test_decode_batch_reads_a_row_source_front_to_back_once(ct22, monkeypatch):
    # 7 lanes take 40 words in many blocks; the source has no __array__, so
    # the words reach the decoder only through its row slices
    monkeypatch.setattr(decode, "LANES", 7)
    llrs = 2.0 + 1.5 * np.random.default_rng(9).standard_normal((40, ct22.length))
    asked = []

    class Rows:
        shape, dtype = llrs.shape, llrs.dtype

        def __getitem__(self, rows):
            asked.append((rows.start, rows.stop, rows.step))
            return llrs[rows]

    dec = SumProductDecoder(ct22.h)
    for got, want in zip(dec.decode_batch(Rows(), 5), dec.decode_batch(llrs, 5)):
        assert np.array_equal(got, want)
    assert len(asked) > 1 and asked[0][0] == 0 and asked[-1][1] == len(llrs)
    assert [lo for lo, _, _ in asked[1:]] == [hi for _, hi, _ in asked[:-1]]
    assert {step for _, _, step in asked} == {None}
    # a NaN is refused when the block holding it is loaded
    llrs[33, 2] = np.nan
    asked.clear()
    with pytest.raises(BadParametersError, match="NaN"):
        dec.decode_batch(Rows(), 5)
    assert asked[-1][0] <= 33 < asked[-1][1]


@pytest.mark.parametrize(
    "layout",
    [
        lambda a: np.rint(8.0 * a).astype(np.int64),
        lambda a: a.astype(np.float32),
        np.asfortranarray,
        lambda a: np.repeat(a, 2, axis=0)[::2],
        lambda a: np.repeat(a, 2, axis=1)[:, ::2],
        lambda a: a.tolist(),
        lambda a: np.lib.stride_tricks.as_strided(a, writeable=False),
    ],
    ids=["int", "float32", "fortran", "row-strided", "column-strided", "list", "read-only"],
)
def test_decode_batch_reads_any_real_layout_like_its_float64_copy(ct22, layout):
    llrs = 2.0 + 1.5 * np.random.default_rng(9).standard_normal((40, ct22.length))
    given = layout(llrs)
    before = np.array(given, copy=True)
    dec = SumProductDecoder(ct22.h)
    got = dec.decode_batch(given, max_iters=5)
    want = dec.decode_batch(np.ascontiguousarray(given, dtype=np.float64), max_iters=5)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert np.array_equal(np.asarray(given), before)


@pytest.mark.parametrize(
    "make, dtype",
    [
        (lambda a: a + 0.5j, "complex128"),
        (lambda a: a.astype(object), "object"),
        (lambda a: a.astype(str), "<U"),
        (lambda a: a.astype(bytes), "|S"),
    ],
    ids=["complex", "object", "str", "bytes"],
)
def test_decode_batch_refuses_llrs_that_are_not_real_numbers(ct22, make, dtype):
    llrs = make(np.full((2, ct22.length), 3.0))
    refusal = re.escape(f"llr array must hold real numbers, got dtype {dtype}")
    with pytest.raises(BadParametersError, match=refusal):
        SumProductDecoder(ct22.h).decode_batch(llrs)
    with pytest.raises(BadParametersError, match=refusal):
        bp_decode_awgn(ct22, llrs[0])


def _near_tie_llrs(h, llrs, rng):
    """Set each word's LLR at one random column to minus the oracle's sum of
    first-iteration messages into that column.

    Those messages depend on the column's own LLR only through the
    leave-one-out division, so the posterior lands within a few ulps of 0
    and a single rounding change in the check update or the column sum
    flips the bit about half the time.
    """
    ref = ReferenceDecoder(h)
    c2v_vm = ref.check_update(llrs.T[ref.var_cm])[ref.to_vm]
    sums = np.add.reduceat(c2v_vm, ref.var_starts, axis=0)  # every column is checked
    words, cols = np.arange(len(llrs)), rng.integers(h.ncols, size=len(llrs))
    llrs[words, cols] = -sums[cols, words]
    return llrs


# (words with a 1 bit, 1 bits) after one BP iteration on 300 near-tie words
# drawn around LLR 6 (sd 2) at seed 2026.  On the q = 4 codes every 1 bit is
# a near-tie bit that rounding sent negative.  Reordering the column sum
# moves C(2,2), C(2,4) and CT(2,4) (CT(2,2) has column weight 2); reversing
# the check product moves C(2,4), CT(2,2) and CT(2,4) (C(2,2) has row
# weight 2).  The golden counts in test_sim.py miss the column-sum reorder.
NEAR_TIE_TOTALS = {
    "C(2,2)": (226, 462),
    "CT(2,2)": (108, 123),
    "C(2,4)": (106, 106),
    "CT(2,4)": (104, 104),
}


@pytest.mark.parametrize("code_name", ["c22", "ct22", "c24", "ct24"])
def test_near_tie_totals_pin_decoder_rounding(code_name, request):
    code = request.getfixturevalue(code_name)
    rng = np.random.default_rng(2026)
    llrs = _near_tie_llrs(code.h, 6.0 + 2.0 * rng.standard_normal((300, code.length)), rng)
    bits, _, _ = SumProductDecoder(code.h).decode_batch(llrs, max_iters=1)
    assert (int(bits.any(axis=1).sum()), int(bits.sum())) == NEAR_TIE_TOTALS[code.code_id]


def test_underflowing_check_product_matches_reference(ct22):
    # three bits of one check at LLRs near 1e-200: no tanh is 0, but their
    # product underflows to 0, so the check update takes its zero-count branch
    h = ct22.h
    row = h.supports()[0]
    assert len(row) >= 3
    llrs = np.full((3, h.ncols), 3.0)
    llrs[:, row[:3]] = [[1e-200, 2e-200, 3e-200], [-1e-200, 1e-200, 5e-201], [-1e-200, 1e-200, -1.0]]
    t = np.tanh(0.5 * llrs[:, row])
    assert (t != 0.0).all() and (np.prod(t, axis=1) == 0.0).all()
    _assert_same_decodes(h, llrs, 5)


def test_decoder_input_validation(ct22):
    with pytest.raises(LengthMismatchError):
        bp_decode_awgn(ct22, np.zeros(11))
    with pytest.raises(BadParametersError):
        bp_decode_awgn(ct22, np.zeros(12), max_iters=0)


@pytest.mark.parametrize("max_iters", [1.5, True, "2", np.float64(3.0)])
def test_max_iters_must_be_an_integer(ct22, max_iters):
    with pytest.raises(BadParametersError, match="max_iters must be an integer >= 1"):
        SumProductDecoder(ct22.h).decode_batch(np.ones((1, 12)), max_iters)
    with pytest.raises(BadParametersError, match="max_iters must be an integer >= 1"):
        bp_decode_awgn(ct22, np.ones(12), max_iters=max_iters)


def test_nan_llrs_are_refused_and_infinite_ones_clipped(ct22):
    with pytest.raises(BadParametersError, match="NaN"):
        bp_decode_awgn(ct22, np.full(12, np.nan))
    llrs = np.full((3, 12), 4.0)
    llrs[1, 5] = np.nan
    with pytest.raises(BadParametersError, match="NaN"):
        SumProductDecoder(ct22.h).decode_batch(llrs)
    signs = np.where(np.arange(12) % 4 == 0, -1.0, 1.0)
    infinite = SumProductDecoder(ct22.h).decode_batch((signs * np.inf)[None, :])
    clipped = SumProductDecoder(ct22.h).decode_batch((signs * LLR_CLIP)[None, :])
    for got, want in zip(infinite, clipped):
        assert np.array_equal(got, want)


def test_paired_seed_word_errors_drop_with_snr(ct22):
    low = run_awgn_sweep(ct22, [2.0], 1000, seed=99)[0]
    high = run_awgn_sweep(ct22, [8.0], 1000, seed=99)[0]
    assert high.word_errors < low.word_errors


def test_peel_no_erasures(ct22):
    cw = _codewords(ct22)[0]
    out = peel_decode_bec(ct22, cw)
    assert out.status == "converged"
    assert np.array_equal(out.word, cw)
    assert out.syndrome_ok


def test_peel_stalls_on_codeword_support(ct22):
    witness = sorted(ctranspose_witness(2, 2))
    received = np.zeros(12, dtype=int)
    received[witness] = ERASED
    out = peel_decode_bec(ct22, received)
    assert out.status == "stalled"


def test_peel_recovers_below_stopping_distance(ct22):
    from itertools import combinations

    for size in (1, 2, 3):
        for cols in combinations(range(12), size):
            received = np.zeros(12, dtype=int)
            received[list(cols)] = ERASED
            out = peel_decode_bec(ct22, received)
            assert out.status == "converged"
            assert out.word.sum() == 0


def test_peeling_stalls_exactly_on_stopping_supersets(c22):
    # second small instance: 8 positions, exhaustive up to size 4
    from itertools import combinations

    from symldpc import is_stopping_set

    for size in range(1, 5):
        for cols in combinations(range(8), size):
            received = np.zeros(8, dtype=int)
            received[list(cols)] = ERASED
            stalled = peel_decode_bec(c22, received).status == "stalled"
            contains = any(
                is_stopping_set(c22.h, sub)
                for k in range(1, size + 1)
                for sub in combinations(cols, k)
            )
            assert stalled == contains


def _erased_codeword(basis, coeffs, erase):
    cw = np.bitwise_xor.reduce(basis[np.array(coeffs, dtype=bool)], axis=0).astype(np.int64)
    return np.where(np.array(erase, dtype=bool), ERASED, cw)


@st.composite
def _peel_cases(draw, codes):
    code = draw(st.sampled_from(codes))
    basis = null_space_basis(code.h)
    coeffs = draw(st.lists(st.booleans(), min_size=len(basis), max_size=len(basis)))
    erase = draw(st.lists(st.booleans(), min_size=code.length, max_size=code.length))
    return code, _erased_codeword(basis, coeffs, erase)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_peel_syndrome_ok_matches_reference(c22, ct22, c23, data):
    # erased bits come back as 0, so a stall may or may not satisfy the checks
    code, received = data.draw(_peel_cases((c22, ct22, c23)))
    out = peel_decode_bec(code, received)
    assert out.syndrome_ok == reference_syndrome_ok(code.h, out.word)
    if out.status == "converged":
        assert out.syndrome_ok


def test_peel_stalls_with_both_syndrome_outcomes(c22, ct22, c23):
    rng = np.random.default_rng(7)
    stalled = set()
    for code in (c22, ct22, c23):
        basis = null_space_basis(code.h)
        for _ in range(100):
            received = _erased_codeword(
                basis, rng.random(len(basis)) < 0.5, rng.random(code.length) < 0.5
            )
            out = peel_decode_bec(code, received)
            assert out.syndrome_ok == reference_syndrome_ok(code.h, out.word)
            if out.status == "stalled":
                stalled.add(out.syndrome_ok)
    assert stalled == {True, False}


def reference_peel(code, received):
    """The list-based peeler that the bitmask one replaced, kept as its oracle."""
    rows, cols = supports(code.h)
    received = np.asarray(received).tolist()
    if len(received) != code.length:
        raise LengthMismatchError(
            f"received word must have length {code.length}, got {len(received)}"
        )
    # compared by value, so 1.0 passes while 0.9 or -1.5 is refused, not truncated
    if any(b not in (0, 1, ERASED) for b in received):
        raise BadParametersError("received symbols must be 0, 1 or ERASED")

    word = [0 if b == ERASED else int(b) for b in received]
    erased = [b == ERASED for b in received]
    erased_count = []
    parity = []
    for row in rows:
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
        j = next(jj for jj in rows[i] if erased[jj])
        value = parity[i]
        word[j] = value
        erased[j] = False
        steps += 1
        for ii in cols[j]:
            erased_count[ii] -= 1
            if value:
                parity[ii] ^= 1
            if erased_count[ii] == 1:
                queue.append(ii)
            elif erased_count[ii] == 0 and parity[ii] != 0:
                raise InconsistentError("a fully known parity check fails")

    # parity[i] is the parity of row i's known bits, and erased bits are output
    # as 0, so it is also row i's syndrome bit on the returned word
    return decode.DecodeOutcome(
        status=decode.STATUS_STALLED if any(erased) else decode.STATUS_CONVERGED,
        word=np.array(word, dtype=np.uint8),
        iterations=steps,
        syndrome_ok=not any(parity),
    )


def _peel_both(code, received):
    """Both peelers' (status, word, dtype, iterations, syndrome_ok), or the
    InconsistentError class where they raise it."""
    outcomes = []
    for peel in (peel_decode_bec, reference_peel):
        try:
            out = peel(code, received)
        except InconsistentError as exc:
            outcomes.append(type(exc))
        else:
            outcomes.append(
                (out.status, out.word.tolist(), out.word.dtype, out.iterations, out.syndrome_ok)
            )
    return outcomes


def _oracle_case(code, basis, rng, rate, flip):
    """A random codeword with each bit erased at `rate`, and with `flip`, one
    known bit inverted so that a check can fail up front or mid-peel."""
    received = _erased_codeword(basis, rng.random(len(basis)) < 0.5, rng.random(code.length) < rate)
    known = np.flatnonzero(received != ERASED)
    if flip and known.size:
        received[rng.choice(known)] ^= 1
    return received


ORACLE_CODES = ["c22", "ct22", "c23", "ct24", "c32"]


@given(
    code_name=st.sampled_from(ORACLE_CODES),
    seed=st.integers(0, 2**32 - 1),
    rate=st.floats(0.0, 1.0),
    flip=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_peel_matches_reference_peel(request, code_name, seed, rate, flip):
    code = request.getfixturevalue(code_name)
    rng = np.random.default_rng(seed)
    received = _oracle_case(code, null_space_basis(code.h), rng, rate, flip)
    new, old = _peel_both(code, received)
    assert new == old


def test_peel_oracle_cases_reach_both_contradictions(request):
    # a contradiction found before any bit is resolved, and one found after
    kinds = set()
    rng = np.random.default_rng(11)
    for code_name in ORACLE_CODES:
        code = request.getfixturevalue(code_name)
        basis = null_space_basis(code.h)
        for _ in range(150):
            received = _oracle_case(code, basis, rng, rng.random(), True)
            new, old = _peel_both(code, received)
            assert new == old
            if new is InconsistentError:
                word = np.where(received == ERASED, 0, received)
                known_odd = [
                    all(received[j] != ERASED for j in row) and sum(word[j] for j in row) % 2
                    for row in code.h.supports()
                ]
                kinds.add("up front" if any(known_odd) else "mid-peel")
    assert kinds == {"up front", "mid-peel"}


def test_peel_inconsistent_word_raises(ct22):
    received = np.zeros(12, dtype=int)
    received[0] = 1  # weight-1 word cannot satisfy the checks
    with pytest.raises(InconsistentError):
        peel_decode_bec(ct22, received)


def test_peel_detects_contradiction_after_resolution(ct22):
    # erase one bit of a codeword, then corrupt another known bit
    cw = _codewords(ct22)[0].astype(int)
    received = cw.copy()
    support = np.flatnonzero(cw)
    received[support[0]] = ERASED
    received[support[1]] ^= 1
    with pytest.raises(InconsistentError):
        peel_decode_bec(ct22, received)


def test_peel_input_validation(ct22):
    with pytest.raises(LengthMismatchError):
        peel_decode_bec(ct22, [0] * 11)
    with pytest.raises(BadParametersError):
        peel_decode_bec(ct22, [0] * 11 + [7])


@pytest.mark.parametrize(
    "make, refusal",
    [
        (lambda cw: 0, LengthMismatchError),
        (lambda cw: cw[:, None], BadParametersError),
        (lambda cw: cw[None, :], LengthMismatchError),
        (lambda cw: cw.astype(str), BadParametersError),
        (lambda cw: [None] * len(cw), BadParametersError),
        (lambda cw: np.r_[cw[:-1], np.nan], BadParametersError),
        (lambda cw: cw.astype(bool), None),
        (lambda cw: np.array([ERASED, *cw[1:].tolist()], dtype=object), None),
    ],
    ids=["scalar", "column", "row", "strings", "none", "nan", "bools", "object-ints"],
)
def test_peel_refusals_keep_their_class(ct22, make, refusal):
    # built from a codeword, so an accepted input decodes without contradiction
    received = make(_codewords(ct22)[0])
    if refusal is None:
        new, old = _peel_both(ct22, received)
        assert new == old and new[0] == "converged"
    else:
        with pytest.raises(refusal):
            peel_decode_bec(ct22, received)


def test_peel_refuses_non_integral_symbols(ct22):
    # symbols are compared by value, never truncated toward 0
    for received in ([0.9] * 12, [-1.5] + [0] * 11, [0] * 11 + [0.5]):
        with pytest.raises(BadParametersError):
            peel_decode_bec(ct22, received)
    # integral floats are the symbols they equal
    cw = _codewords(ct22)[0]
    received = cw.astype(np.float64)
    received[0] = float(ERASED)
    out = peel_decode_bec(ct22, received)
    assert out.status == "converged"
    assert np.array_equal(out.word, cw)


def test_decode_batch_agrees_with_reference_above_weight_8():
    # C(2,8) has column weight 9, where the reference's numpy segment sum
    # switches to 8-way pairwise summation; the decoder sums in column order,
    # so posteriors may differ in the last ulp but decisions on noise agree
    from symldpc import FAMILY_SYMMETRIC, make_code

    code = make_code(FAMILY_SYMMETRIC, 2, 8)
    rng = np.random.default_rng(5)
    llrs = 2.0 * (1.0 + 0.9 * rng.standard_normal((200, code.length))) / 0.9**2
    _assert_same_decodes(code.h, llrs, DEFAULT_MAX_ITERS, split=77)
