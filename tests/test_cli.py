import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symldpc import build_h, codes, decode, field_of_size, gf2, incidence, rank_gf2, sim, sym_space
from symldpc.cli import main, read_alist, write_alist
from symldpc.exceptions import BadParametersError
from symldpc.incidence import SparseBitMatrix
from symldpc.symspace import SymSpace

from conftest import per_entry_lists


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
    assert path.read_text() == _alist_from_supports(h)


def _alist_from_supports(h: SparseBitMatrix) -> str:
    """The alist text written from the column and row supports, the writer's former form."""
    blocks = (h.transpose().supports(), h.supports())
    widths = [max((len(s) for s in block), default=0) for block in blocks]
    lines = [f"{h.ncols} {h.nrows}", " ".join(map(str, widths))]
    lines += (" ".join(str(len(s)) for s in block) for block in blocks)
    for block, width in zip(blocks, widths):
        lines += (" ".join([str(i + 1) for i in s] + ["0"] * (width - len(s))) for s in block)
    return "\n".join(lines) + "\n"


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


# C(2,2) as written: line 1 "8 12", line 2 "3 2", lines 5-12 the column
# lists (line 5 "1 2 3"), lines 13-24 the row lists (line 13 "1 2")
@pytest.mark.parametrize(
    "lineno,text",
    [
        pytest.param(6, "1 x 5", id="not-an-integer"),
        pytest.param(1, "8", id="header-one-count"),
        pytest.param(1, "8 -12", id="header-negative-count"),
        pytest.param(2, "3 3", id="max-weights"),
        pytest.param(3, "3 3 3 3 3 3 3", id="column-weights"),
        pytest.param(4, "2 2 2 2 2 2 2 2 2 2 2 2 2", id="row-weights"),
        pytest.param(5, "1 1 3", id="column-repeats-a-row"),
        pytest.param(5, "1 2 13", id="column-row-out-of-range"),
        pytest.param(5, "1 2 4", id="column-disagrees-with-rows"),
        pytest.param(13, "1 0", id="row-wrong-count"),
        pytest.param(13, "1 1", id="row-repeats-a-column"),
        pytest.param(13, "1 9", id="row-column-out-of-range"),
        pytest.param(25, "7 7 7", id="data-after-the-last-list"),
    ],
)
def test_analyze_names_the_corrupted_alist_line(tmp_path, capsys, lineno, text):
    path = tmp_path / "c22.alist"
    write_alist(codes.make_code("symmetric", 2, 2).h, path)
    lines = path.read_text().splitlines() + [""]
    lines[lineno - 1] = text
    path.write_text("\n".join(lines) + "\n")
    assert main(["analyze", "--infile", str(path), "--checks", "rank"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{path}:{lineno}:" in err


@pytest.mark.parametrize("lineno", [5, 13])
def test_analyze_names_an_alist_index_past_64_bits(tmp_path, capsys, lineno):
    path = tmp_path / "c22.alist"
    write_alist(codes.make_code("symmetric", 2, 2).h, path)
    lines = path.read_text().splitlines()
    lines[lineno - 1] = lines[lineno - 1].replace("1", str(1 << 70), 1)
    path.write_text("\n".join(lines) + "\n")
    assert main(["analyze", "--infile", str(path), "--checks", "rank"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{lineno}:") and err.count("\n") == 1


def test_alist_allows_blank_lines_after_the_last_list(tmp_path):
    h = SparseBitMatrix.from_rows(2, 3, [(0, 2), (1,)])
    path = tmp_path / "m.alist"
    path.write_text("3 2\n1 2\n1 1 1\n2 1\n1\n2\n1\n3 1\n2\n\n  \n")
    assert read_alist(path) == h


def test_analyze_searches_a_cycle_deeper_than_the_recursion_limit(tmp_path, capsys):
    # the only stopping set of a 1200-check cycle is all 1200 columns
    path = tmp_path / "cycle.alist"
    rows = [sorted({i, (i + 1) % 1200}) for i in range(1200)]
    write_alist(SparseBitMatrix.from_rows(1200, 1200, rows), path)
    assert main(["analyze", "--infile", str(path), "--checks", "stopdist"]) == 0
    entry = json.loads(capsys.readouterr().out)["stopdist"]
    assert (entry["value"], entry["exactness"]) == (1200, "exact")


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


@pytest.mark.parametrize("family", ["symmetric", "symmetric_transpose"])
def test_build_leaves_no_tuple_view_on_h(tmp_path, monkeypatch, family):
    built = []
    make = codes.make_code
    monkeypatch.setattr(codes, "make_code", lambda *args: built.append(make(*args)) or built[-1])
    out = tmp_path / "h.alist"
    assert main(["build", "--n", "2", "--q", "3", "--family", family, "--out", str(out)]) == 0
    h = built[0].h
    assert out.read_text() == _alist_from_supports(h) and per_entry_lists(h) == []


def test_build_transpose_dimensions(tmp_path):
    out = tmp_path / "ht24.alist"
    rc = main(
        ["build", "--n", "2", "--q", "4", "--family", "symmetric_transpose", "--out", str(out)]
    )
    assert rc == 0
    h = read_alist(out)
    assert (h.nrows, h.ncols) == (64, 80)


def test_build_refuses_unknown_format_before_building(tmp_path, capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("make_code ran before the format check")

    monkeypatch.setattr(codes, "make_code", no_build)
    out = tmp_path / "h22.txt"
    rc = main(
        ["build", "--n", "2", "--q", "2", "--family", "symmetric",
         "--format", "dense", "--out", str(out)]
    )
    assert rc == 1
    assert "unknown build format 'dense'" in capsys.readouterr().err
    assert not out.exists()


def test_build_refused_girth_leaves_no_alist(tmp_path, capsys, monkeypatch):
    # C(2,2) has 20 vertices: a BFS cap below that refuses the sidecar's girth,
    # and build writes nothing rather than an alist without its sidecar
    monkeypatch.setattr(incidence, "VERTEX_CAP", 19)
    out = tmp_path / "h22.alist"
    rc = main(["build", "--n", "2", "--q", "2", "--family", "symmetric", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "vertices exceeds BFS cap 19" in captured.err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("budget", ["0", "-3"])
@pytest.mark.parametrize("checks", [None, "mindist", "stopdist"])
def test_analyze_rejects_budget_below_one(tmp_path, capsys, budget, checks):
    out = tmp_path / "h22.alist"
    main(["build", "--n", "2", "--q", "2", "--family", "symmetric", "--out", str(out)])
    capsys.readouterr()
    args = ["analyze", "--infile", str(out), f"--budget={budget}"]
    rc = main(args + (["--checks", checks] if checks else []))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: --budget must be >= 1, got {budget}")


def test_analyze_distances_without_columns(tmp_path, capsys):
    path = tmp_path / "zero.alist"
    path.write_text("0 0\n0 0\n\n\n")
    rc = main(["analyze", "--infile", str(path), "--checks", "rank,mindist,stopdist"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert (report["rank"]["value"], report["rank"]["dimension"]) == (0, 0)
    for check in ("mindist", "stopdist"):
        assert (report[check]["value"], report[check]["exactness"]) == (1, "exact")


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


def test_analyze_runs_one_tanner_bfs(tmp_path, capsys, monkeypatch):
    out = tmp_path / "h23.alist"
    main(["build", "--n", "2", "--q", "3", "--family", "symmetric", "--out", str(out)])
    capsys.readouterr()
    calls = []
    bfs = incidence._rooted_bfs
    monkeypatch.setattr(incidence, "_rooted_bfs", lambda h, roots: calls.append(h) or bfs(h, roots))
    rc = main(["analyze", "--infile", str(out), "--checks", "girth,diameter"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert (report["girth"]["value"], report["diameter"]["value"]) == (8, 6)
    assert len(calls) == 1


def test_build_and_analyze_make_no_line_objects(tmp_path, capsys, monkeypatch):
    # a fresh space, so no Line list cached by an earlier test can hide a call
    fresh = functools.lru_cache(maxsize=None)(lambda n, q: SymSpace(n, field_of_size(q)))
    monkeypatch.setattr(codes, "sym_space", fresh)

    def no_line(*args, **kwargs):
        raise AssertionError("a Line object was built")

    monkeypatch.setattr(SymSpace, "_line", no_line)
    out = tmp_path / "c33.alist"
    assert codes.make_code("symmetric", 3, 3).h.nrows == 3159
    assert main(["build", "--n", "3", "--q", "3", "--family", "symmetric", "--out", str(out)]) == 0
    capsys.readouterr()
    checks = "structure,girth,diameter,rank,witnesses"
    assert main(["analyze", "--infile", str(out), "--checks", checks]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["witnesses"]["independent_rows"] == 3**3 * (3**3 - 2**3)
    assert (report["rank"]["dimension"], report["rank"]["method"]) == (0, "character_count")
    with pytest.raises(AssertionError, match="a Line object"):
        fresh(3, 3).lines()


@pytest.mark.parametrize(
    "family, flags",
    [
        ("symmetric", []),
        ("symmetric_transpose", []),
        # the roots come from H alone, whatever n and q say
        ("symmetric", ["--n", "3"]),
        ("symmetric", ["--q", "2"]),
    ],
)
def test_analyze_reports_the_bfs_roots(tmp_path, capsys, family, flags):
    out = tmp_path / "h23.alist"
    main(["build", "--n", "2", "--q", "3", "--family", family, "--out", str(out)])
    capsys.readouterr()
    rc = main(["analyze", "--infile", str(out), "--checks", "girth,diameter", *flags])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    # 4 line orbits (one per direction) and the points
    assert report == {
        "girth": {"status": "ok", "value": 8, "roots": 5},
        "diameter": {"status": "ok", "value": 6, "roots": 5},
    }


def test_analyze_roots_every_vertex_of_a_gallager_code(tmp_path, capsys):
    # 12 x 8, the shape of H(2,2): the translations are tried and fail
    h = codes.gallager_random(8, 3, 2, seed=4).h
    path = tmp_path / "g.alist"
    write_alist(h, path)
    rc = main(["analyze", "--infile", str(path), "--checks", "girth,diameter"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["girth"]["roots"] == report["diameter"]["roots"] == 20
    assert report["girth"]["value"] == incidence.girth(h)


@pytest.mark.parametrize("family", ["symmetric", "symmetric_transpose"])
def test_analyze_checks_the_translations_once(tmp_path, capsys, monkeypatch, family):
    # structure takes H lines by points, girth and diameter take H as it is;
    # both orientations share one check
    out = tmp_path / "h23.alist"
    main(["build", "--n", "2", "--q", "3", "--family", family, "--out", str(out)])
    capsys.readouterr()
    calls = []
    orbits = incidence._line_point_orbits
    monkeypatch.setattr(incidence, "_line_point_orbits", lambda *a: calls.append(a) or orbits(*a))
    rc = main(["analyze", "--infile", str(out), "--checks", "structure,girth,diameter"])
    assert rc == 0 and json.loads(capsys.readouterr().out)["girth"]["roots"] == 5
    assert len(calls) == 1


def test_rank_and_mindist_share_one_elimination(tmp_path, capsys, monkeypatch):
    out = tmp_path / "h25.alist"
    main(["build", "--n", "2", "--q", "5", "--family", "symmetric", "--out", str(out)])
    capsys.readouterr()
    calls = []
    echelon = gf2._echelon
    monkeypatch.setattr(gf2, "_echelon", lambda h: calls.append(h) or echelon(h))
    rc = main(["analyze", "--infile", str(out), "--checks", "rank,mindist"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["rank"]["value"] + report["rank"]["dimension"] == 125
    assert len(calls) == 1


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


@pytest.mark.parametrize("ebno", ["nan", "inf", "-inf", "0,nan"])
def test_simulate_rejects_non_finite_ebno(tmp_path, capsys, ebno):
    out = tmp_path / "x.csv"
    rc = main(
        ["simulate", "--family", "symmetric", "--n", "2", "--q", "2",
         f"--ebno={ebno}", "--trials", "20", "--out", str(out)]
    )
    assert rc == 1
    assert "Eb/N0 must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--ebno=4000"],
        ["--ebno=-3240"],
        ["--ebno=1", "--seed=-1"],
        ["--channel=bec", "--probs=0.3", f"--seed={1 << 64}"],
    ],
)
def test_simulate_refuses_an_unusable_eb_n0_or_seed_in_one_line(tmp_path, capsys, flags):
    out = tmp_path / "x.csv"
    rc = main(
        ["simulate", "--family", "symmetric", "--n", "2", "--q", "2",
         *flags, "--trials", "20", "--out", str(out)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("seed" if "seed" in flags[-1] else "Eb/N0") in err
    assert not out.exists()


@pytest.mark.parametrize(
    "sweep", [["--ebno", "1:0:1"], ["--ebno", ","], ["--channel", "bec", "--probs", ""]]
)
def test_simulate_rejects_empty_sweep(tmp_path, capsys, sweep):
    out = tmp_path / "x.csv"
    rc = main(
        ["simulate", "--family", "symmetric", "--n", "2", "--q", "2",
         "--trials", "20", "--out", str(out)] + sweep
    )
    assert rc == 1
    assert "has no points" in capsys.readouterr().err
    assert not out.exists()


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


def test_dry_run_prints_only_the_subcommands_flags(capsys):
    rc = main(
        ["build", "--n", "2", "--q", "3", "--family", "symmetric", "--out", "h.alist", "--dry-run"]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {
        "subcommand": "build",
        "n": 2,
        "q": 3,
        "family": "symmetric",
        "out": "h.alist",
        "fmt": "alist",
        "dry_run": True,
    }


def test_max_iters_default_is_the_library_default(capsys, monkeypatch):
    argv = ["simulate", "--ebno", "0", "--out", "r.csv", "--dry-run"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["max_iters"] == decode.DEFAULT_MAX_ITERS
    # the parser keeps no copy of its own: it follows the library constant
    monkeypatch.setattr(decode, "DEFAULT_MAX_ITERS", 17)
    monkeypatch.setattr(sim, "DEFAULT_MAX_ITERS", 17)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["max_iters"] == 17


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
    c22 = tmp_path / "c22.txt"
    assert main(["export", "--infile", str(src), "--format", "dense", "--out", str(c22)]) == 0
    for alist, text in ((gal, dense), (src, c22)):
        want = "".join("".join(map(str, row)) + "\n" for row in read_alist(alist).toarray())
        assert text.read_text() == want


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


def test_analyze_certifies_ct28_distances(tmp_path, capsys):
    # the support search refuses CT(2,8) at this budget; the witness meets the girth bound
    out = tmp_path / "ct28.alist"
    main(["build", "--n", "2", "--q", "8", "--family", "symmetric_transpose", "--out", str(out)])
    capsys.readouterr()
    rc = main(["analyze", "--infile", str(out), "--checks", "mindist,stopdist", "--budget", "16"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    for check in ("mindist", "stopdist"):
        entry = report[check]
        assert (entry["value"], entry["exactness"], entry["method"]) == (
            16, "exact", "witness_plus_bound"
        )


@pytest.mark.parametrize(
    "family,q,meta_q,checks",
    [
        ("symmetric_transpose", 3, 4, "mindist"),
        ("symmetric_transpose", 3, 4, "stopdist"),
        ("symmetric_transpose", 3, 4, "witnesses"),
        ("symmetric_transpose", 4, 3, "mindist,stopdist"),
        ("symmetric", 2, 3, "witnesses"),
    ],
)
def test_analyze_refuses_a_sidecar_that_does_not_fit_the_matrix(
    tmp_path, capsys, family, q, meta_q, checks
):
    out = tmp_path / "h.alist"
    main(["build", "--n", "2", "--q", str(q), "--family", family, "--out", str(out)])
    meta_file = tmp_path / "h.alist.meta.json"
    meta_file.write_text(json.dumps({**json.loads(meta_file.read_text()), "q": meta_q}))
    capsys.readouterr()
    rc = main(["analyze", "--infile", str(out), "--checks", checks])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "sidecar,message",
    [
        ("{not json", "not JSON"),
        ("[2, 2]", "expected a JSON object"),
        ('{"family": "symmetric", "n": "2", "q": 2}', "n must be an integer >= 1, got '2'"),
        ('{"family": "symmetric", "n": 2, "q": 1}', "q must be an integer >= 2, got 1"),
        ('{"family": "symmetric", "n": true, "q": 2}', "n must be an integer >= 1, got True"),
        ('{"family": 5, "n": 2, "q": 2}', "family must be a string, got 5"),
    ],
)
def test_analyze_rejects_a_malformed_sidecar(tmp_path, capsys, sidecar, message):
    out = tmp_path / "h.alist"
    main(["build", "--n", "2", "--q", "2", "--family", "symmetric", "--out", str(out)])
    (tmp_path / "h.alist.meta.json").write_text(sidecar)
    capsys.readouterr()
    rc = main(["analyze", "--infile", str(out), "--checks", "structure"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def test_analyze_rejects_field_size_below_two(tmp_path, capsys):
    out = tmp_path / "h.alist"
    main(["build", "--n", "2", "--q", "2", "--family", "symmetric", "--out", str(out)])
    capsys.readouterr()
    rc = main(["analyze", "--infile", str(out), "--q", "1", "--checks", "structure"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: q must be an integer >= 2, got 1")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--infile", "{tmp}/missing.alist"],
        ["simulate", "--infile", "{tmp}/missing.alist", "--ebno", "1", "--trials", "5",
         "--out", "{tmp}/r.csv"],
        ["export", "--infile", "{tmp}/missing.alist", "--out", "{tmp}/e.alist"],
        ["build", "--n", "2", "--q", "2", "--family", "symmetric", "--out", "{tmp}/no/h.alist"],
        ["simulate", "--family", "symmetric", "--n", "2", "--q", "2", "--ebno", "1",
         "--trials", "5", "--out", "{tmp}/no/r.csv"],
    ],
)
def test_missing_files_end_in_an_error_line(tmp_path, capsys, argv):
    rc = main([a.format(tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and "No such file or directory" in captured.err


@pytest.mark.parametrize("sweep", [["--ebno", "1"], ["--channel", "bec", "--probs", "0.1"]])
def test_simulate_refuses_a_missing_out_directory_before_sweeping(
    tmp_path, capsys, monkeypatch, sweep
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran before --out was checked")

    monkeypatch.setattr(sim, "run_awgn_sweep", no_sweep)
    monkeypatch.setattr(sim, "run_bec_sweep", no_sweep)
    rc = main(
        ["simulate", "--family", "symmetric", "--n", "2", "--q", "2", "--trials", "5",
         "--out", str(tmp_path / "no" / "r.csv")] + sweep
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and "No such file or directory" in captured.err


@pytest.mark.parametrize("ebno", ["abc", "0:x:1", "1,two"])
def test_simulate_rejects_a_sweep_that_is_not_numbers(tmp_path, capsys, ebno):
    out = tmp_path / "x.csv"
    rc = main(
        ["simulate", "--family", "symmetric", "--n", "2", "--q", "2",
         "--ebno", ebno, "--trials", "20", "--out", str(out)]
    )
    assert rc == 1
    assert "is not a number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "family,q,checks,built",
    [
        ("symmetric_transpose", "4", None, 1),
        ("symmetric", "2", None, 1),
        ("symmetric_transpose", "4", "structure", 0),
        ("symmetric_transpose", "4", "girth,rank", 0),
    ],
)
def test_analyze_builds_the_witness_at_most_once(
    tmp_path, capsys, monkeypatch, family, q, checks, built
):
    out = tmp_path / "code.alist"
    assert main(["build", "--n", "2", "--q", q, "--family", family, "--out", str(out)]) == 0
    capsys.readouterr()
    calls = []
    for name in ("ctranspose_witness", "c2q_witness"):
        real = getattr(codes, name)
        monkeypatch.setattr(codes, name, lambda *a, real=real: calls.append(a) or real(*a))
    argv = ["analyze", "--infile", str(out)]
    assert main(argv + (["--checks", checks] if checks else [])) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == built
    if checks is None:
        assert report["witnesses"]["columns_sum_zero"] is True
        assert report["mindist"]["exactness"] == report["stopdist"]["exactness"] == "exact"
