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
from symldpc.codes import ctranspose_witness
from symldpc.decode import DEFAULT_MAX_ITERS, ERASED, LLR_CLIP
from symldpc.exceptions import (
    BadParametersError,
    InconsistentError,
    LengthMismatchError,
)
from symldpc.incidence import SparseBitMatrix


def _codewords(code):
    return [
        np.array([(v >> j) & 1 for j in range(code.length)], dtype=np.uint8)
        for v in null_space_basis(code.h)
    ]


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
        rows = [r for r in h.row_support if r]
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


@pytest.mark.parametrize("code_name", ["c22", "ct22", "c24", "ct24"])
def test_decode_batch_matches_reference_on_geometry_codes(code_name, request):
    code = request.getfixturevalue(code_name)
    rng = np.random.default_rng(11)
    llrs = 2.0 + 1.5 * rng.standard_normal((300, code.length))
    _assert_same_decodes(code.h, 4.0 * llrs / 1.5**2, DEFAULT_MAX_ITERS, split=123)

    # Near-ties: set word w's LLR at one column to minus the oracle's sum of
    # first-iteration messages into that column.  Those messages depend on
    # the column's own LLR only through the leave-one-out division, so the
    # posterior lands within a few ulps of 0 and a single rounding change in
    # the check update or the column sum flips the bit about half the time.
    ref = ReferenceDecoder(code.h)
    llrs = rng.standard_normal((300, code.length))
    c2v_vm = ref.check_update(llrs.T[ref.var_cm])[ref.to_vm]
    sums = np.add.reduceat(c2v_vm, ref.var_starts, axis=0)  # every column is checked
    words, cols = np.arange(300), rng.integers(code.length, size=300)
    llrs[words, cols] = -sums[cols, words]
    _assert_same_decodes(code.h, llrs, 1)


def test_decoder_input_validation(ct22):
    with pytest.raises(LengthMismatchError):
        bp_decode_awgn(ct22, np.zeros(11))
    with pytest.raises(BadParametersError):
        bp_decode_awgn(ct22, np.zeros(12), max_iters=0)


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


def test_decode_batch_agrees_with_reference_above_weight_8():
    # C(2,8) has column weight 9, where the reference's numpy segment sum
    # switches to 8-way pairwise summation; the decoder sums in column order,
    # so posteriors may differ in the last ulp but decisions on noise agree
    from symldpc import FAMILY_SYMMETRIC, make_code

    code = make_code(FAMILY_SYMMETRIC, 2, 8)
    rng = np.random.default_rng(5)
    llrs = 2.0 * (1.0 + 0.9 * rng.standard_normal((200, code.length))) / 0.9**2
    _assert_same_decodes(code.h, llrs, DEFAULT_MAX_ITERS, split=77)
