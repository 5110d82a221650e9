"""Documentation and example correctness tests.

Documentation that doesn't run is worse than none: these tests execute
the README quickstart verbatim, import-check every example script,
resolve every module path the docs cite, and verify the tutorial's exact
paper-example values.
"""

import ast
import importlib
import importlib.util
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        # The exact code block from README.md "Quickstart".
        from repro import CODL, CODQuery, generate_queries, load_dataset

        data = load_dataset("cora", seed=7)
        pipeline = CODL(data.graph, theta=10, seed=11)
        query = generate_queries(data.graph, count=1, k=5, rng=3)[0]
        result = pipeline.discover(query)
        if result.found:
            assert len(sorted(result.members)) == result.size

    def test_readme_mentions_all_examples(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for script in sorted((REPO_ROOT / "examples").glob("*.py")):
            assert script.name in readme, f"{script.name} missing from README"

    def test_docs_exist(self):
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                    "docs/ALGORITHMS.md", "docs/API.md", "docs/TUTORIAL.md"):
            assert (REPO_ROOT / doc).exists(), doc


#: Docs whose backticked ``repro.*`` paths must name real code.
CITING_DOCS = (
    "README.md", "DESIGN.md", "PAPER.md", "docs/API.md", "docs/ALGORITHMS.md",
)


def cited_module_paths() -> list[str]:
    paths: set[str] = set()
    for doc in CITING_DOCS:
        text = (REPO_ROOT / doc).read_text()
        paths.update(re.findall(r"`(repro(?:\.[A-Za-z_]\w*)+)`", text))
    return sorted(paths)


def resolves(path: str) -> bool:
    """Whether ``path`` imports as a module or is an attribute chain of one."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


class TestDocsCiteRealCode:
    def test_every_cited_module_path_resolves(self):
        paths = cited_module_paths()
        assert paths, "no repro.* paths found; has the doc format changed?"
        stale = [path for path in paths if not resolves(path)]
        assert not stale, f"docs cite paths that do not resolve: {stale}"


class TestExamplesWellFormed:
    @pytest.mark.parametrize(
        "script",
        sorted(p.name for p in (REPO_ROOT / "examples").glob("*.py")),
    )
    def test_example_parses_and_imports(self, script):
        path = REPO_ROOT / "examples" / script
        tree = ast.parse(path.read_text())
        # Every example has a module docstring and a main() guard.
        assert ast.get_docstring(tree), f"{script} lacks a docstring"
        assert any(
            isinstance(node, ast.FunctionDef) and node.name == "main"
            for node in tree.body
        ), f"{script} lacks a main()"
        # Importing must not execute the workload (the __main__ guard).
        spec = importlib.util.spec_from_file_location(
            f"example_{script[:-3]}", path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main)


class TestTutorialValues:
    def test_paper_example_values(self):
        # The tutorial promises these exact numbers (Examples 2, 5, 6).
        from repro import AttributedGraph, CommunityHierarchy
        from repro.core import reclustering_scores

        DB, ML = 0, 1
        edges = [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
            (4, 5), (6, 7), (8, 9),
            (3, 7), (0, 6),
            (2, 4), (3, 5),
            (6, 8), (7, 9), (5, 9),
        ]
        attrs = [[ML], [ML], [DB], [DB], [DB], [DB], [ML], [DB], [ML], [ML]]
        g = AttributedGraph(10, edges, attributes=attrs)
        C0, C1, C2, C5, C3, C4, C6 = 10, 11, 12, 13, 14, 15, 16
        parent = [C0, C0, C0, C0, C1, C1, C2, C2, C5, C5,
                  C3, C4, C3, C6, C4, C6, -1]
        T = CommunityHierarchy.from_parents(10, parent)

        assert T.lca(0, 6) == C3
        assert T.path_communities(0) == [C0, C3, C4, C6]
        scores = reclustering_scores(g, T, 0, DB)
        assert scores[1] == pytest.approx(1 / 2)
        assert scores[2] == pytest.approx(7 / 8)
