"""Source hygiene checks that need only the standard library."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import roadgame

SOURCES = sorted(Path(roadgame.__file__).parent.glob("*.py"))


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names inside quoted annotations such as ``card: "JobCard"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    """Names the source imports and never reads, ``from __future__`` aside."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _annotation_names(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_finder_sees_names_and_quoted_annotations():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from typing import TYPE_CHECKING, Mapping\nif TYPE_CHECKING:\n"
              "    from x import Card\ndef f(card: \"Card\") -> Mapping:\n    return np\n")
    assert unused_imports(source) == ["line 2: os"]


# __init__ imports only to re-export
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_network_memo_is_named_only_in_network_py():
    # every other module reaches the memo through network.memoised and network.preload
    def names(path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return ({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
                | {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})
    assert [path.name for path in SOURCES if "_cache" in names(path)] == ["network.py"]


def test_no_source_imports_scipy():
    # the matrix game is solved exactly in game.py; scipy is a test-only oracle
    def imported(path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return ({alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
                | {node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module})
    assert [path.name for path in SOURCES
            if any(name.split(".")[0] == "scipy" for name in imported(path))] == []


def test_one_function_runs_the_shortest_path_search():
    # paths, trace synthesis and the block search's fallback all read
    # network._dijkstra instead of keeping a heap loop of their own
    def searches(path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                attrs = {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
                if {"heappop", "links"} <= attrs:
                    yield f"{path.stem}.{fn.name}"
    assert [name for path in SOURCES for name in searches(path)] == ["network._dijkstra"]


def test_every_betweenness_path_reads_one_dag_source():
    # the certified sums and the exact fallback both read
    # network._shortest_dags; neither runs a heap search of its own
    tree = ast.parse((Path(roadgame.__file__).parent / "analysis.py").read_text(encoding="utf-8"))
    names = ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
             | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
             | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names})
    assert "_dijkstra" not in names
    assert "_shortest_dags" in names


def test_only_shortest_path_checks_a_weight_map():
    # internal searches take weights already in edge-index order; the one
    # public entry that takes a mapping validates it
    def uses(tree):
        return sum(getattr(node, "id", getattr(node, "attr", None)) == "_check_weights"
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    entry = next(fn for fn in ast.walk(trees["network.py"])
                 if isinstance(fn, ast.FunctionDef) and fn.name == "shortest_path")
    assert uses(entry) == 1
    assert sum(uses(tree) for tree in trees.values()) == 1


def test_no_source_calls_the_id_keyed_analysis_functions():
    # rankings and routes read the analyses in index order; these functions
    # build id-keyed results for callers outside the package
    boundary = {"centrality", "partition_cutset", "inverse_centrality_scores"}

    def called(path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Name, ast.Attribute))}
    assert [(path.name, sorted(called(path) & boundary)) for path in SOURCES
            if called(path) & boundary] == []


def test_stages_pass_indices_not_ids():
    # analyses, attack plans and route legs hold indices into net.node_ids
    # and net.edge_ids: nothing outside network.py maps an edge id to its
    # index, analysis.py maps no node id, and routing maps a card's nodes once
    def reads(path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                       and node.attr in ("node_index", "edge_index"))
    counts = {path.name: reads(path) for path in SOURCES}
    assert [name for name, count in counts.items() if count["edge_index"]] == ["network.py"]
    assert counts["analysis.py"]["node_index"] == 0
    assert counts["routing.py"]["node_index"] == 1
