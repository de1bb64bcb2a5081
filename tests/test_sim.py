import io

import numpy as np
import pytest

from symldpc import results_to_csv, run_awgn_sweep, run_bec_sweep
from symldpc.exceptions import BadParametersError
from symldpc.sim import _uniforms, _words_per_trial


def test_uniform_stream_is_counter_addressable():
    # reading at an offset must equal the tail of a longer read
    whole = _uniforms(seed=7, cell=3, start_word=0, nwords=64)
    tail = _uniforms(seed=7, cell=3, start_word=16, nwords=48)
    assert np.array_equal(whole[16:], tail)
    other_cell = _uniforms(seed=7, cell=4, start_word=0, nwords=64)
    assert not np.array_equal(whole, other_cell)
    assert np.all((whole > 0.0) & (whole < 1.0))


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


def test_awgn_seed_changes_counts(ct22):
    a = run_awgn_sweep(ct22, [2.0], 500, seed=1)[0]
    b = run_awgn_sweep(ct22, [2.0], 500, seed=2)[0]
    assert (a.word_errors, a.bit_errors) != (b.word_errors, b.bit_errors)


def test_awgn_invalid_parameters(ct22):
    with pytest.raises(BadParametersError):
        run_awgn_sweep(ct22, [1.0], 0, seed=1)


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


# (word_errors, bit_errors) at seed 2026, 2000 trials, threads=1.  Any change
# to the decoder numerics or the noise stream shows up here; re-bless only
# with an explanation of why the counts moved.
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
