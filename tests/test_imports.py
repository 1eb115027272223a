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

Eigenbases have one path, the stacked ``spectral._eig_stack``: neither
``suite`` nor ``gleason._witnesses`` reads a name of the one-matrix object path
(``eig_hermitian``, ``Observable``, ``pvm_of``, ``apply_function``,
``outcome_measure``), and no module defines or imports ``_serve``, the retired
switch between the two.
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


def _names(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every name that the tree reads or binds as a name or an
    attribute, imports, or defines as a function or class."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            names.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(alias.name.split(".")[-1], node.lineno) for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
    return names


# the one-matrix eigen path, which the stacked runners and witnesses do not take
_ONE_MATRIX_EIGEN = {"eig_hermitian", "Observable", "pvm_of", "apply_function", "outcome_measure"}


def _parse(name: str) -> ast.Module:
    path = ROOT / "src" / "gleason_lab" / name
    return ast.parse(path.read_text(), filename=str(path))


def test_the_suite_takes_no_one_matrix_eigen_path():
    uses = sorted((name, line) for name, line in _names(_parse("suite.py")) if name in _ONE_MATRIX_EIGEN)
    assert uses == [], f"suite.py reads the one-matrix eigen path: {uses}"


def test_the_separation_witnesses_take_no_one_matrix_eigen_path():
    (witnesses,) = [node for node in _parse("gleason.py").body
                    if isinstance(node, ast.FunctionDef) and node.name == "_witnesses"]
    uses = sorted((name, line) for name, line in _names(witnesses) if name in _ONE_MATRIX_EIGEN)
    assert uses == [], f"gleason._witnesses reads the one-matrix eigen path: {uses}"


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_serves_a_matrix_by_a_second_eigen_path(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(line for name, line in _names(tree) if name == "_serve")
    assert lines == [], f"{path.relative_to(ROOT)} defines, imports or reads _serve on lines {lines}"
