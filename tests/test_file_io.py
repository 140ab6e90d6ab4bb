"""File I/O lives at the package's edges: expconfig reads every input, cli writes every output."""

import ast
from pathlib import Path

import fransonsim

PACKAGE = Path(fransonsim.__file__).parent


class _OpenCalls(ast.NodeVisitor):
    """(module, innermost enclosing function) of each call of ``open`` or ``x.open``."""

    def __init__(self, module):
        self.module, self.scope, self.calls = module, [None], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if getattr(node.func, "id", getattr(node.func, "attr", None)) == "open":
            self.calls.append((self.module, self.scope[-1]))
        self.generic_visit(node)


def test_open_only_in_the_reader_and_the_writer():
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _OpenCalls(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        calls += visitor.calls
    assert sorted(calls) == [("cli", "_write_csv"), ("expconfig", "_read_file")]
