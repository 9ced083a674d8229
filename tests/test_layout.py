"""Source layout: every module-level definition is reached from the package."""

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
