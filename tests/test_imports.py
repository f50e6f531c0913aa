"""Each module of the package uses every name it imports, so an import that a
change leaves behind fails here instead of lingering; and the package loads
nothing outside the standard library but numpy."""

import ast
import os
import subprocess
import sys
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


# Site start-up may load third-party modules (a .pth file's hooks) before the
# package is imported, so only the modules its import adds are checked.
_NEW_MODULES = """
import sys
before = set(sys.modules)
import refsig, refsig.cli, refsig.__main__
print(*sorted({name.partition(".")[0] for name in sys.modules.keys() - before}))
"""


def test_the_package_loads_only_the_standard_library_and_numpy():
    path = [str(Path(refsig.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    loaded = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert {"numpy", "refsig"} <= set(loaded)
    assert set(loaded) - sys.stdlib_module_names - {"numpy", "refsig"} == set()
