"""No module imports a name that it never uses.

Every module of the package except ``__init__`` (whose imports are the public
API) and every test module is parsed with ``ast``.  Each name an import binds
must be read somewhere else in the module, as a name or as the root of an
attribute chain.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    [p for p in (ROOT / "src" / "gleason_lab").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
)

# (module path relative to the repository, name) imported on purpose, unused
EXEMPT = {
    # perfbench/test_checks.py asserts that the benchmark's tracer rebinds this
    # name; it goes when the benchmark is unpinned (ROADMAP item 1)
    ("src/gleason_lab/gleason.py", "inner"),
}


def _unused_imports(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every name that an import in the module binds and
    nothing else in the module reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    module = str(path.relative_to(ROOT))
    unused = [f"{name} (line {line})" for name, line in _unused_imports(path)
              if (module, name) not in EXEMPT]
    assert unused == [], f"{module} imports names it never uses: {', '.join(unused)}"
