import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symldpc import build_h, rank_gf2, sym_space
from symldpc.cli import main, read_alist, write_alist
from symldpc.exceptions import BadParametersError
from symldpc.incidence import SparseBitMatrix


def test_alist_round_trip_built_instance(tmp_path):
    h = build_h(sym_space(2, 3))
    path = tmp_path / "h23.alist"
    write_alist(h, path)
    assert read_alist(path) == h


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_alist_round_trip_random(tmp_path_factory, data):
    nrows = data.draw(st.integers(1, 8))
    ncols = data.draw(st.integers(1, 10))
    rows = [
        tuple(
            sorted(
                data.draw(
                    st.sets(st.integers(0, ncols - 1), min_size=0, max_size=ncols)
                )
            )
        )
        for _ in range(nrows)
    ]
    h = SparseBitMatrix.from_rows(nrows, ncols, rows)
    path = tmp_path_factory.mktemp("alist") / "m.alist"
    write_alist(h, path)
    assert read_alist(path) == h


def test_alist_format_layout(tmp_path):
    h = SparseBitMatrix.from_rows(2, 3, [(0, 2), (1,)])
    path = tmp_path / "m.alist"
    write_alist(h, path)
    text = path.read_text()
    assert text == "3 2\n1 2\n1 1 1\n2 1\n1\n2\n1\n1 3\n2 0\n"


def test_alist_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.alist"
    path.write_text("3 2\n2 1\n1 1 1\n2 1\n1 x\n2 0\n1 0\n1 3\n2 0\n")
    with pytest.raises(BadParametersError, match=":5"):
        read_alist(path)


def test_alist_rejects_row_weight_disagreeing_with_row_line(tmp_path):
    # row 0 lists one column, but line 4 declares weight 7 (line 2 agrees)
    path = tmp_path / "bad.alist"
    path.write_text("2 1\n1 7\n1 0\n7\n1\n0\n1\n")
    with pytest.raises(BadParametersError, match=r"bad\.alist:7: row 0 lists 1 columns"):
        read_alist(path)


@pytest.mark.parametrize("line2", ["1 2", "2 1", "1", "1 1 1"])
def test_alist_rejects_max_weights_disagreeing_with_weights(tmp_path, line2):
    # the matrix [[1, 0], [1, 1]] has max column weight 2 and max row weight 2
    path = tmp_path / "bad.alist"
    path.write_text(f"2 2\n{line2}\n2 1\n1 2\n1 2\n2 0\n1 0\n1 2\n")
    with pytest.raises(BadParametersError, match=r"bad\.alist:2:"):
        read_alist(path)
    path.write_text("2 2\n2 2\n2 1\n1 2\n1 2\n2 0\n1 0\n1 2\n")
    assert read_alist(path) == SparseBitMatrix.from_rows(2, 2, [(0,), (0, 1)])


def test_analyze_rejects_repeated_row_index(tmp_path, capsys):
    path = tmp_path / "dup.alist"
    path.write_text("2 1\n2 2\n2 1\n2\n1 1\n1 0\n1 2\n")
    rc = main(["analyze", "--infile", str(path), "--checks", "rank"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "dup.alist:5" in err


def test_build_writes_alist_and_metadata(tmp_path):
    out = tmp_path / "h22.alist"
    rc = main(
        ["build", "--n", "2", "--q", "2", "--family", "symmetric", "--out", str(out)]
    )
    assert rc == 0
    h = read_alist(out)
    assert (h.nrows, h.ncols) == (12, 8)
    meta = json.loads((tmp_path / "h22.alist.meta.json").read_text())
    assert meta == {
        "family": "symmetric",
        "n": 2,
        "q": 2,
        "rows": 12,
        "cols": 8,
        "rho": 2,
        "gamma": 3,
        "girth": 8,
    }


def test_build_transpose_dimensions(tmp_path):
    out = tmp_path / "ht24.alist"
    rc = main(
        ["build", "--n", "2", "--q", "4", "--family", "symmetric_transpose", "--out", str(out)]
    )
    assert rc == 0
    h = read_alist(out)
    assert (h.nrows, h.ncols) == (64, 80)


def test_build_rejects_non_prime_power(tmp_path, capsys):
    rc = main(
        ["build", "--n", "2", "--q", "6", "--family", "symmetric", "--out", str(tmp_path / "x")]
    )
    assert rc == 1
    assert "prime power" in capsys.readouterr().err


def test_analyze_full_report(tmp_path, capsys):
    out = tmp_path / "h22.alist"
    main(["build", "--n", "2", "--q", "2", "--family", "symmetric", "--out", str(out)])
    capsys.readouterr()
    rc = main(["analyze", "--infile", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    report = json.loads(captured)
    assert report["girth"]["value"] == 8
    assert report["diameter"]["value"] == 6
    assert report["rank"]["value"] == 7
    assert report["mindist"]["value"] == 8
    assert report["mindist"]["exactness"] == "exact"
    assert report["stopdist"]["value"] == 8
    assert report["structure"]["status"] == "pass"
    assert report["witnesses"]["status"] == "pass"


def test_analyze_transpose_mindist(tmp_path, capsys):
    out = tmp_path / "ht23.alist"
    main(["build", "--n", "2", "--q", "3", "--family", "symmetric_transpose", "--out", str(out)])
    capsys.readouterr()
    rc = main(["analyze", "--infile", str(out), "--checks", "mindist,stopdist,witnesses"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["mindist"]["value"] == 6
    assert report["stopdist"]["value"] == 6
    assert report["witnesses"]["columns_sum_zero"] is True


def test_analyze_four_cycle_alist(tmp_path, capsys):
    h = SparseBitMatrix.from_rows(2, 2, [(0, 1), (0, 1)])
    path = tmp_path / "cycle.alist"
    write_alist(h, path)
    rc = main(
        ["analyze", "--infile", str(path), "--checks", "girth,structure", "--n", "2", "--q", "2"]
    )
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["girth"]["value"] == 4
    assert report["structure"]["status"] == "fail"


def test_simulate_with_baseline(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = [
        "simulate",
        "--family", "symmetric_transpose", "--n", "2", "--q", "2",
        "--channel", "awgn", "--ebno", "0,4", "--trials", "300", "--seed", "3",
        "--baseline", "gallager:12,2,3",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--threads", "2"]) == 0
    text1 = out1.read_text()
    assert text1 == out2.read_text()
    lines = text1.splitlines()
    assert len(lines) == 5  # header + 2 codes x 2 sweep points, interleaved
    import csv
    import io

    rows = list(csv.reader(io.StringIO(text1)))
    assert rows[1][0] == "CT(2,2)"  # main code row first at each sweep point
    assert rows[2][0].startswith("G(12,2,3")


def test_simulate_trials_required(tmp_path, capsys):
    rc = main(
        ["simulate", "--family", "symmetric", "--n", "2", "--q", "2",
         "--ebno", "0", "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 1
    assert "trials" in capsys.readouterr().err


def test_simulate_bec_channel(tmp_path):
    out = tmp_path / "bec.csv"
    rc = main(
        ["simulate", "--family", "symmetric_transpose", "--n", "2", "--q", "2",
         "--channel", "bec", "--probs", "0.0,0.2", "--trials", "200",
         "--seed", "2", "--out", str(out)]
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3


def test_dry_run_echoes_config(capsys):
    rc = main(
        ["simulate", "--family", "symmetric", "--n", "2", "--q", "4",
         "--ebno", "0:7:1", "--trials", "50000", "--out", "r.csv", "--dry-run"]
    )
    assert rc == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["subcommand"] == "simulate"
    assert cfg["n"] == 2 and cfg["q"] == 4
    assert cfg["ebno"] == "0:7:1"
    assert cfg["trials"] == 50000


def test_export_normalizes_and_exports_gallager(tmp_path):
    src = tmp_path / "src.alist"
    main(["build", "--n", "2", "--q", "2", "--family", "symmetric", "--out", str(src)])
    dst = tmp_path / "dst.alist"
    assert main(["export", "--infile", str(src), "--out", str(dst)]) == 0
    assert read_alist(dst) == read_alist(src)
    gal = tmp_path / "g.alist"
    assert main(["export", "--baseline", "gallager:12,2,3", "--seed", "4", "--out", str(gal)]) == 0
    h = read_alist(gal)
    assert (h.nrows, h.ncols) == (8, 12)
    dense = tmp_path / "g.txt"
    assert main(["export", "--infile", str(gal), "--format", "dense", "--out", str(dense)]) == 0
    assert len(dense.read_text().splitlines()) == 8


def test_ebno_range_parsing(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(
        ["simulate", "--family", "symmetric_transpose", "--n", "2", "--q", "2",
         "--channel", "awgn", "--ebno", "0:6:3", "--trials", "100",
         "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 4  # header + 0,3,6 dB


def test_exit_zero_iff_checks_pass(tmp_path, capsys):
    out = tmp_path / "h.alist"
    main(["build", "--n", "2", "--q", "2", "--family", "symmetric", "--out", str(out)])
    capsys.readouterr()
    assert main(["analyze", "--infile", str(out), "--checks", "structure"]) == 0
    # stripping the metadata forces the structure check to error out
    (tmp_path / "h.alist.meta.json").unlink()
    assert main(["analyze", "--infile", str(out), "--checks", "structure"]) == 1
