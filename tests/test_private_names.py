"""Every private function, class or method of the package has a caller: its
name appears somewhere in the package's source besides its own ``def`` or
``class`` line."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "guttstar"


def test_every_private_name_is_used():
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            uses = sum(len(word.findall(other)) for other in sources.values())
            uses -= len(word.findall(text.splitlines()[node.lineno - 1]))
            if not uses:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
