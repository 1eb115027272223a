"""No module imports a name that it never uses, the package has one
vector type, and it calls no numpy function newer than its numpy floor.

Every module of the package except ``__init__`` (whose imports are the public
API) and every test module is parsed with ``ast``.  Each name an import binds
must be read somewhere else in the module, as a name or as the root of an
attribute chain.

A vector is an n x 1 ``Matrix``.  No module of the package, ``__init__``
included, may import, read or bind the name ``Vector``; the retired class's
own definition in ``linalg`` is a class statement, not a name, and stays until
the benchmark stops binding its methods (ROADMAP item 1).

``pyproject.toml`` declares ``numpy>=1.24``, so no module of the package may
read ``matvec``, ``vecmat`` or ``vecdot`` (numpy 2.0 and 2.2) as an attribute
or import them; a stack's matrix-vector product is ``A @ x[..., None]``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "gleason_lab").glob("*.py"))
MODULES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"]
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


def _vector_uses(path: Path) -> list[int]:
    """Lines where the module imports ``Vector``, or reads or binds it as a
    name or an attribute."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Name) and node.id == "Vector"
            or isinstance(node, ast.Attribute) and node.attr == "Vector"
            or isinstance(node, (ast.Import, ast.ImportFrom))
            and any(alias.name.split(".")[-1] == "Vector" for alias in node.names)
        ):
            lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_uses_a_second_vector_type(path):
    module = str(path.relative_to(ROOT))
    lines = _vector_uses(path)
    assert lines == [], f"{module} uses Vector on lines {lines}; a vector is an n x 1 Matrix"


# numpy functions newer than the declared floor, numpy>=1.24
_TOO_NEW = {"matvec", "vecmat", "vecdot"}


def _too_new_uses(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every read or import of a numpy function newer than the floor."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in _TOO_NEW:
            uses.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            uses += [(alias.name, node.lineno) for alias in node.names if alias.name in _TOO_NEW]
    return sorted(uses)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_calls_numpy_beyond_its_floor(path):
    module = str(path.relative_to(ROOT))
    uses = _too_new_uses(path)
    assert uses == [], f"{module} uses numpy functions newer than numpy 1.24: {uses}"
