import ast
import importlib
import json
import re
from collections import Counter
from pathlib import Path

import pytest

import symldpc

SRC = Path(__file__).resolve().parents[1] / "src" / "symldpc"


def test_library_has_no_assert_statements():
    # python -O strips asserts, so every check in the library must raise a typed error
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements in src: " + ", ".join(found)


def _names_used(tree) -> Counter:
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name] += 1
    return used


def test_every_private_helper_is_used():
    # a private function or class that nothing else in src/ names was left
    # behind when its last caller went
    trees = {
        path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.rglob("*.py"))
    }
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    unused = [
        f"{path.relative_to(SRC.parent)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and used[node.name] == _names_used(node)[node.name]
    ]
    assert not unused, "private helpers nothing else in src uses: " + ", ".join(unused)


def test_each_cache_key_has_one_call_site():
    # SparseBitMatrix._derived is H's one per-instance store: two readers
    # sharing a key would each read the other's value as its own
    sites = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_cached":
                where = f"{path.relative_to(SRC.parent)}:{node.lineno}"
                key = node.args[0]
                assert isinstance(key, ast.Constant) and isinstance(key.value, str), where
                sites.setdefault(key.value, []).append(where)
    assert sites
    shared = {key: where for key, where in sites.items() if len(where) > 1}
    assert not shared, f"cache keys with more than one call site: {shared}"


def test_philox_is_constructed_at_one_call_site():
    # the noise-stream layout (key, block offset, word budget per trial) is
    # written once: every draw, whole batch or chunk, goes through that site
    sites = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "Philox"
    ]
    assert len(sites) == 1, f"np.random.Philox is constructed at {sites}"


def test_package_all_lists_exactly_its_imports():
    # a name dropped from the imports but not from __all__ (or the reverse)
    # breaks `from symldpc import *` or hides a public name
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    [exported] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    ]
    assert len(set(exported)) == len(exported), "__all__ lists a name twice"
    assert sorted(exported) == sorted(imported)
    missing = [name for name in exported if not hasattr(symldpc, name)]
    assert not missing, "names in __all__ that do not resolve: " + ", ".join(missing)


def _module_constants() -> dict:
    """NAME -> value of every upper-case name a src module assigns at top level."""
    constants = {}
    for path in sorted(SRC.glob("*.py")):
        name = "symldpc" if path.stem == "__init__" else f"symldpc.{path.stem}"
        module = importlib.import_module(name)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    assert target.id not in constants, f"{target.id} is assigned in two modules"
                    constants[target.id] = getattr(module, target.id)
    return constants


def test_readme_quotes_constants_at_their_values():
    # a constant the README quotes as `NAME` (value) must still have that value,
    # so retuning one cannot leave the README behind
    readme = (SRC.parents[1] / "README.md").read_text()
    quoted = re.findall(r"`([A-Z][A-Z0-9_]*)`\s+\(([^)]*)\)", readme)
    required = {"LANES", "POOL_BYTES", "ERASED"}
    required |= {"EDGE_CAP", "VERTEX_CAP", "BFS_POINT_CAP", "ROOT_BLOCK", "PACK_BYTE_CAP"}
    assert required <= {name for name, _ in quoted}
    constants = _module_constants()
    for name, value in quoted:
        number = re.fullmatch(r"(-?\d+)( KiB)?", value)
        assert number, f"README quotes {name} as {value!r}, not as a number"
        assert name in constants, f"README quotes {name}, which no module defines"
        scale = 1024 if number[2] else 1
        assert constants[name] == int(number[1]) * scale, f"README quotes {name} ({value})"


def test_analyze_report_is_byte_identical_across_runs(tmp_path, capsys):
    # a benchmark pass compares the reports of separate runs, so the report
    # must hold no timing or other per-run value
    from symldpc.cli import main

    for family in ("symmetric", "symmetric_transpose"):
        alist = tmp_path / f"{family}.alist"
        assert main(["build", "--n", "2", "--q", "3", "--family", family, "--out", str(alist)]) == 0
        capsys.readouterr()
        outputs = []
        for _ in range(2):
            assert main(["analyze", "--infile", str(alist)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert '"roots": 5' in outputs[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--family", "symmetric", "--n", "2", "--q", "2"],
        ["build", "--family", "symmetric_transpose", "--n", "2", "--q", "3"],
        ["build", "--family", "symmetric", "--n", "3", "--q", "2"],
        ["export", "--baseline", "gallager:64,3,4", "--seed", "7"],
    ],
)
def test_alist_writer_reproduces_the_file_it_reads(tmp_path, capsys, argv):
    # the alist format is fixed: what the writer makes, read back and
    # written again, must come out byte for byte the same
    from symldpc.cli import main, read_alist, write_alist

    written, rewritten = tmp_path / "h.alist", tmp_path / "again.alist"
    assert main(argv + ["--out", str(written)]) == 0
    write_alist(read_alist(written), rewritten)
    assert rewritten.read_bytes() == written.read_bytes()


# code id -> (build flags, extra analyze flags); the expected reports are
# committed in analyze_golden.json
ANALYZE_GOLDEN_CASES = {
    "C(2,2)": (["--family", "symmetric", "--n", "2", "--q", "2"], []),
    "CT(2,2)": (["--family", "symmetric_transpose", "--n", "2", "--q", "2"], []),
    "C(2,3)": (["--family", "symmetric", "--n", "2", "--q", "3"], []),
    "CT(2,3)": (["--family", "symmetric_transpose", "--n", "2", "--q", "3"], []),
    "C(2,4) distances, budget 16": (
        ["--family", "symmetric", "--n", "2", "--q", "4"],
        ["--checks", "mindist,stopdist", "--budget", "16"],
    ),
    "CT(2,8) distances": (
        ["--family", "symmetric_transpose", "--n", "2", "--q", "8"],
        ["--checks", "mindist,stopdist"],
    ),
}
ANALYZE_GOLDEN = Path(__file__).with_name("analyze_golden.json")


@pytest.mark.parametrize("case", sorted(ANALYZE_GOLDEN_CASES))
def test_analyze_prints_the_golden_report(tmp_path, capsys, case):
    # the report format and every value in it are fixed: a change to how the
    # distances are certified must not move a byte
    from symldpc.cli import main

    build_flags, analyze_flags = ANALYZE_GOLDEN_CASES[case]
    alist = tmp_path / "h.alist"
    assert main(["build", *build_flags, "--out", str(alist)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--infile", str(alist), *analyze_flags]) == 0
    assert capsys.readouterr().out == json.loads(ANALYZE_GOLDEN.read_text())[case]
