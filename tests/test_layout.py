"""Source layout: every module-level definition is reached from the package,
and every function parameter is read by its body."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rklab"


def test_every_definition_has_a_source_caller():
    # a reference from tests does not count: code only tests reach is dead
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append(f"{path.name}:{node.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [d for d in defined if d.split(":")[1] not in used]
    assert not unused, "defined but never referenced: " + ", ".join(unused)


def test_every_parameter_is_read():
    # a parameter the body never reads is an inert knob on its callers
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.stem}.{node.name}({p})" for p in params
                       if p not in read]
    assert not unread, "parameters never read: " + ", ".join(unread)
