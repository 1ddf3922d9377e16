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


def test_extractors_run_in_one_function_per_module():
    # `grading._pass_events` runs the REGISTRY extractors for grading and fitting; `features.feature_events`
    # runs one for the event view; a call anywhere else would be a second dispatch
    allowed = {("grading.py", "_pass_events"), ("features.py", "feature_events")}
    found, callers = [], set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if _called_name(node) == "extractor":
                    caller = (path.name, getattr(top, "name", "<module>"))
                    callers.add(caller)
                    if caller not in allowed:
                        found.append(f"{path.name}:{node.lineno}")
    assert not found, found
    assert callers == allowed, callers


def test_sampler_makes_no_numpy_call():
    # a numpy call per draw or per CDF miss costs more than the Python arithmetic it would replace
    tree = ast.parse((PACKAGE_DIR / "model.py").read_text(encoding="utf-8"))
    model = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "MarkovModel")
    methods = {node.name: node for node in model.body if isinstance(node, ast.FunctionDef)}
    found = []
    for name in ("sample", "_cdf_start"):
        for node in ast.walk(methods[name]):
            func = node.func if isinstance(node, ast.Call) else None
            while isinstance(func, ast.Attribute):
                func = func.value
            if isinstance(func, ast.Name) and func.id == "np":
                found.append(f"{name}:{node.lineno}")
    assert not found, found
