"""Generator determinism and independence from the program under test."""

import ast
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import generate  # noqa: E402


def _tree(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_same_seed_gives_identical_files(tmp_path, workload):
    first = generate.generate(workload, 7, tmp_path / "a")
    second = generate.generate(workload, 7, tmp_path / "b")
    assert first == second
    files = _tree(tmp_path / "a")
    assert files and files == _tree(tmp_path / "b")


@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_different_seeds_give_different_inputs(tmp_path, workload):
    generate.generate(workload, 1, tmp_path / "a")
    generate.generate(workload, 2, tmp_path / "b")
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert a.keys() == b.keys()
    assert any(a[k] != b[k] for k in a if k.startswith("inputs/net") or
               k.startswith("inputs/chain") or k.startswith("inputs/tan"))


@pytest.mark.parametrize("name", ["generate.py", "oracle.py"])
def test_inputs_and_checks_do_not_import_the_program(name):
    tree = ast.parse((BENCH / name).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert not any(m.split(".")[0] == "agv_path_kit" for m in imported)


def test_constructions_hit_every_verdict_and_mode():
    import random
    rng = random.Random(3)
    doc, verdicts = generate.make_network(rng, "n", 200, 4)
    assert set(verdicts.values()) == {generate.SMOOTH, generate.REST,
                                      generate.DISCONTINUOUS}
    modes = {s["mode"]["type"] for s in doc["segments"]}
    assert modes == {"tangential", "crab", "exponential_delayed",
                     "exponential_anticipated"}
    # Forks: some segment ends feed more than one junction.
    lefts = [a for a, _ in doc["adjacency"]]
    assert len(set(lefts)) < len(lefts)


def test_jet_round_trip():
    pts = [(0.0, 0.0), (1.0, 0.2), (2.1, 0.1), (2.9, 0.7), (4.0, 1.0), (5.2, 1.1), (6.0, 2.0)]
    d1, d2, d3 = generate.end_jet(pts)
    rebuilt = generate.set_end_jet([(0.0, 0.0)] * 3 + pts[3:4] + [(9.0, 9.0)] * 2 + pts[-1:],
                                   d1, d2, d3)
    flat = [c for p in rebuilt[3:] for c in p]
    assert flat == pytest.approx([c for p in pts[3:] for c in p], abs=1e-12)
