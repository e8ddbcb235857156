"""The `python -m repro.bench` CLI and repository-wide quality gates."""

import importlib
import pkgutil

import pytest

import repro
from repro.bench.__main__ import EXPERIMENTS, main


class TestBenchCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_single_experiment(self, capsys):
        assert main(["fig-5.6"]) == 0
        out = capsys.readouterr().out
        assert "Fig 5.6" in out
        assert "Fig 6.2" not in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig-9.9"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err

    def test_every_registered_experiment_runs(self, capsys):
        # Skip the slow measured sweep (covered by its benchmark); run
        # the cheap ones end-to-end through the CLI.
        for name in ("fig-1.1", "fig-5.5", "fig-5.6", "fig-6.4"):
            assert main([name]) == 0
        assert capsys.readouterr().out.count("==") >= 8


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


class TestDocumentationGates:
    def test_every_module_has_a_docstring(self):
        undocumented = []
        for name in _walk_modules():
            mod = importlib.import_module(name)
            if not (mod.__doc__ or "").strip():
                undocumented.append(name)
        assert not undocumented, f"missing module docstrings: {undocumented}"

    def test_every_public_class_and_function_documented(self):
        import inspect

        missing = []
        for name in _walk_modules():
            mod = importlib.import_module(name)
            for attr_name, attr in vars(mod).items():
                if attr_name.startswith("_"):
                    continue
                if getattr(attr, "__module__", None) != name:
                    continue  # re-export; documented at home
                if inspect.isclass(attr) or inspect.isfunction(attr):
                    if not (inspect.getdoc(attr) or "").strip():
                        missing.append(f"{name}.{attr_name}")
        assert not missing, f"missing docstrings: {missing}"

    def test_markdown_deliverables_exist(self):
        from pathlib import Path

        root = Path(repro.__file__).resolve().parents[2]
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER_MAP.md"):
            path = root / doc
            assert path.exists(), f"{doc} missing"
            assert path.stat().st_size > 1000, f"{doc} looks empty"


class TestPackaging:
    def test_every_third_party_import_is_declared(self):
        import ast
        import re
        import sys
        from pathlib import Path

        root = Path(repro.__file__).resolve().parents[2]
        block = re.search(
            r"^dependencies\s*=\s*\[(.*?)\]",
            (root / "pyproject.toml").read_text(),
            re.S | re.M,
        ).group(1)
        # A requirement's distribution name runs up to its first specifier.
        declared = {
            name.lower() for name in re.findall(r"[\"']([\w.-]+)", block)
        }
        imported = {}
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    if top != "repro" and top not in sys.stdlib_module_names:
                        imported.setdefault(top, path.name)
        undeclared = {m: p for m, p in imported.items() if m not in declared}
        assert not undeclared, f"imported but not in pyproject.toml: {undeclared}"
