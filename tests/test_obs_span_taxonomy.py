"""Span-taxonomy drift: every span name the package emits is a row of
DESIGN.md's span table, and every row names a span the package emits.

Emitted names are read statically from the source: the first argument of
each ``span(...)``/``begin(...)`` call, resolved through a local variable
or a conditional expression when it is not a literal.  Arguments that are
plain parameters (the tracer's own plumbing) name no span of their own.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Set

import repro

SOURCE = Path(repro.__file__).parent
DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"


def _literals(node: ast.AST) -> List[str]:
    """String constants an expression can evaluate to."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        return _literals(node.body) + _literals(node.orelse)
    return []


class _SpanCalls(ast.NodeVisitor):
    """Collects the span names of ``span``/``begin`` calls in one module,
    resolving a name argument through the enclosing function's
    assignments."""

    def __init__(self) -> None:
        self.names: Set[str] = set()
        self._locals: List[Dict[str, List[ast.AST]]] = [{}]

    def visit_FunctionDef(self, node: ast.AST) -> None:
        assigned: Dict[str, List[ast.AST]] = {}
        for inner in ast.walk(node):
            if isinstance(inner, ast.Assign):
                for target in inner.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(inner.value)
        self._locals.append(assigned)
        self.generic_visit(node)
        self._locals.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        called = (
            func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name)
            else None
        )
        if called in ("span", "begin") and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Name):
                for value in self._locals[-1].get(arg.id, []):
                    self.names.update(_literals(value))
            else:
                self.names.update(_literals(arg))
        self.generic_visit(node)


def emitted_span_names() -> Set[str]:
    calls = _SpanCalls()
    for path in sorted(SOURCE.rglob("*.py")):
        calls.visit(ast.parse(path.read_text(), filename=str(path)))
    return calls.names


def documented_span_names() -> Set[str]:
    """Backticked names in the first column of DESIGN.md's span table."""
    text = DESIGN.read_text()
    table = text[text.index("| span | where | notes |"):]
    names: Set[str] = set()
    for row in table.splitlines()[2:]:
        if not row.startswith("|"):
            break
        first_cell = row.split("|")[1]
        names.update(re.findall(r"`([^`]+)`", first_cell))
    return names


def test_the_scan_sees_known_emitters() -> None:
    # A literal, a name bound to a conditional, and a tracer.begin call:
    # a scan that missed any of these shapes would pass vacuously.
    emitted = emitted_span_names()
    assert {"serve.plan", "tune.cascade", "tune.decide"} <= emitted
    assert {"serve.request", "serve.queue"} <= emitted


def test_every_emitted_span_is_documented() -> None:
    missing = emitted_span_names() - documented_span_names()
    assert not missing, f"spans missing from DESIGN.md's table: {missing}"


def test_every_documented_span_is_emitted() -> None:
    stale = documented_span_names() - emitted_span_names()
    assert not stale, f"DESIGN.md documents spans nothing emits: {stale}"
