"""Each module of the package uses every name it imports, so an import that a
change leaves behind fails here instead of lingering."""

import ast
from pathlib import Path

import refsig


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(Path(refsig.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                getattr(node, "module", None) != "__future__"
            ):
                unused += [
                    f"{path.name}:{node.lineno} {name}"
                    for alias in node.names
                    if (name := alias.asname or alias.name.split(".")[0]) not in used
                ]
    assert unused == []
