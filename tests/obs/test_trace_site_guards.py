"""Every library trace site costs one branch when tracing is off.

An AST scan of ``src/repro`` outside ``repro.obs``: each ``.span(`` or
``.instant(`` call must sit in the true branch of an ``enabled`` test —
``if tracer.enabled:`` / ``if tracing:`` (a name bound from an
``.enabled`` read), or the ``(tracer.span(...) if tracer.enabled else
NULL_SPAN)`` idiom — so a disabled tracer is never called and no keyword
arguments are built.  The per-site counted tests (``test_tracing_off_sites``
and friends) show the guards work at run time; this scan keeps a new,
unguarded site from slipping in.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
TRACE_METHODS = {"span", "instant"}


def _polarity(test: ast.AST, aliases: "set[str]") -> int:
    """1 if ``test`` being true means tracing is on, -1 if its being
    false does, else 0.  Recognised: ``x.enabled``, an alias of one,
    ``not`` of either, and an ``and`` with one of them as an operand."""
    if isinstance(test, ast.Attribute) and test.attr == "enabled":
        return 1
    if isinstance(test, ast.Name) and test.id in aliases:
        return 1
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return -_polarity(test.operand, aliases)
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return int(any(_polarity(v, aliases) == 1 for v in test.values))
    return 0


def _enabled_aliases(tree: ast.AST) -> "set[str]":
    """Names bound from an ``.enabled`` read (``tracing = T.enabled``)."""
    aliases: "set[str]" = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "enabled"
        ):
            aliases.update(
                t.id for t in node.targets if isinstance(t, ast.Name)
            )
    return aliases


def _unguarded_sites(path: Path, root: Path = SRC) -> "tuple[int, list[str]]":
    """(trace calls in ``path``, the ones not under an enabled test, as
    ``file:line`` relative to ``root``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = _enabled_aliases(tree)
    found = 0
    unguarded: "list[str]" = []

    def visit(node: ast.AST, guarded: bool) -> None:
        nonlocal found
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in TRACE_METHODS
        ):
            found += 1
            if not guarded:
                unguarded.append(f"{path.relative_to(root)}:{node.lineno}")
        polarity = (
            _polarity(node.test, aliases)
            if isinstance(node, (ast.If, ast.IfExp))
            else 0
        )
        if polarity:
            visit(node.test, guarded)
            body = node.body if isinstance(node.body, list) else [node.body]
            orelse = node.orelse if isinstance(node.orelse, list) else [node.orelse]
            for child in body:
                visit(child, guarded or polarity == 1)
            for child in orelse:
                visit(child, guarded or polarity == -1)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    visit(tree, False)
    return found, unguarded


def test_every_trace_site_is_behind_an_enabled_test():
    found = 0
    unguarded: "list[str]" = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[0] == "obs":
            continue
        n, bad = _unguarded_sites(path)
        found += n
        unguarded += bad
    assert found >= 40, f"the scan found only {found} trace sites"
    assert unguarded == []


def test_the_scan_flags_an_unguarded_site(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def f(tracer, NULL_SPAN):\n"
        "    tracing = tracer.enabled\n"
        "    if tracing:\n"
        "        tracer.instant('ok')\n"
        "    else:\n"
        "        tracer.instant('bad-else')\n"
        "    with (tracer.span('ok') if tracer.enabled else NULL_SPAN):\n"
        "        pass\n"
        "    tracer.span('bad')\n"
        "    if not tracer.enabled:\n"
        "        tracer.instant('bad-negated')\n"
        "    else:\n"
        "        tracer.instant('ok')\n"
        "    if tracing and tracer is not None:\n"
        "        tracer.instant('ok')\n"
    )
    found, unguarded = _unguarded_sites(source, tmp_path)
    assert found == 7
    assert unguarded == ["mod.py:6", "mod.py:9", "mod.py:11"]
