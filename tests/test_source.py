import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "auggen"


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so the package must not rely on them as checks
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert paths, PACKAGE_DIR
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert not found, found


def _called_name(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def test_grammar_checked_only_in_chorale():
    # `Chorale` checks the grammar when it is built, so a check anywhere else repeats it
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert any(path.name == "chorale.py" for path in paths), PACKAGE_DIR
    found = []
    for path in paths:
        if path.name == "chorale.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _called_name(node) == "validate")
    assert not found, found
