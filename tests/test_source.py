import ast
import re
from pathlib import Path

import auggen

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "auggen"


def test_package_exports_resolve():
    # a name in __all__ that the package does not define makes `from auggen import *` raise
    missing = [name for name in auggen.__all__ if not hasattr(auggen, name)]
    assert not missing, missing
    exec("from auggen import *", {})
    # these stay in their modules; the package does not export them
    removed = {"GenerativeModel", "realize", "wasserstein1", "LoopConfig"}
    assert not removed & set(auggen.__all__) and not any(hasattr(auggen, name) for name in removed)


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


def test_json_decoded_only_in_chorale_and_corpus():
    # `parse_chorale` decodes a corpus record and `load_json` a JSON file, and each names the file and line of an
    # error in one line; a decode anywhere else would be another reader with errors of its own
    callers: dict[str, list[int]] = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("json.load", "json.loads"):
                callers.setdefault(path.name, []).append(node.lineno)
    assert sorted(callers) == ["chorale.py", "corpus.py"], callers


def _calls_by_function(tree: ast.Module):
    """Each call of ``tree`` with the dotted name of the function or method it is made in ("" at module level)."""
    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}".lstrip("."))
            else:
                if isinstance(child, ast.Call):
                    yield scope, child
                yield from visit(child, scope)

    return visit(tree, "")


def _opens_for_writing(call: ast.Call) -> bool:
    if _called_name(call) in ("write_text", "write_bytes"):
        return True
    if _called_name(call) != "open":
        return False
    at = 1 if isinstance(call.func, ast.Name) else 0  # open(path, mode) or Path(path).open(mode)
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[at : at + 1]
    return any(isinstance(m, ast.Constant) and isinstance(m.value, str) and set(m.value) & set("wxa+") for m in modes)


def test_files_written_only_through_corpus_writers():
    # corpus.save_lines opens every file a run writes and csv_fields is the one CSV dialect; only cli._replacing
    # writes otherwise, grade's files through temporaries
    writers, csv_writers = set(), set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for scope, call in _calls_by_function(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if _opens_for_writing(call):
                writers.add(f"{path.name}:{scope}")
            if ast.unparse(call.func) == "csv.writer":
                csv_writers.add(f"{path.name}:{scope}")
    assert writers == {"corpus.py:save_lines", "cli.py:_replacing"}, writers
    assert csv_writers == {"corpus.py:csv_fields"}, csv_writers


def test_token_code_is_declared_only_in_chorale():
    # chorale maps a token to its one integer code and back; a token map anywhere else is a second code
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "chorale.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict) and any(
                getattr(key, "id", getattr(key, "attr", None)) in {"HOLD", "REST"} for key in node.keys if key
            ):
                found.append(f"{path.name}:{node.lineno}: dict keyed by a token")
            if _called_name(node) == "fromiter" and node.args and re.search(r"tok|voices", ast.unparse(node.args[0])):
                found.append(f"{path.name}:{node.lineno}: np.fromiter over tokens")
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


def _loops(node: ast.AST) -> list[ast.AST]:
    return [n for n in ast.walk(node) if isinstance(n, (ast.For, ast.While, ast.comprehension))]


def _stored_names(node: ast.AST) -> set[str]:
    """Names that ``node`` assigns, or assigns into by a subscript, slice or attribute."""
    stored = set()
    for target in ast.walk(node):
        if isinstance(target, (ast.Subscript, ast.Attribute, ast.Name)) and isinstance(target.ctx, ast.Store):
            while isinstance(target, (ast.Subscript, ast.Attribute)):
                target = target.value
            if isinstance(target, ast.Name):
                stored.add(target.id)
    return stored


def test_sampler_steps_the_batch_in_lockstep():
    # a wavefront: at tick s voice v draws timestep s - v, and each tick is one numpy step over the (voice, chorale)
    # lanes, so the tick loop holds no Python loop (not even over the four voices) and calls no model method; the
    # sampling table is built before it
    tree = ast.parse((PACKAGE_DIR / "model.py").read_text(encoding="utf-8"))
    model = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "MarkovModel")
    methods = {node.name: node for node in model.body if isinstance(node, ast.FunctionDef)}
    sampler = methods["sample_many"]
    ticks = [loop for loop in ast.walk(sampler) if isinstance(loop, ast.For) and "drawn" in _stored_names(loop)]
    assert len(ticks) == 1, [loop.lineno for loop in ticks]
    tick = ticks[0]
    inner = [loop.lineno for loop in _loops(tick) if loop is not tick]
    assert not inner, inner
    assert not [loop.lineno for loop in _loops(sampler) if ast.unparse(loop.iter) == "range(4)"]
    called = [node.lineno for node in ast.walk(tick) if _called_name(node) in methods]
    assert not called, called
    builds = [node.lineno for node in ast.walk(sampler) if _called_name(node) == "_build_tables"]
    assert builds and max(builds) < tick.lineno, (builds, tick.lineno)
    # each voice's history (its last tokens, and whether HOLD is masked) and the digits of the voices above, which
    # move down one voice per tick, are written in the tick loop, each only from the tick's drawn digits
    registers = {"recent", "masked", "above"}
    assert registers <= _stored_names(tick), _stored_names(tick)
    for node in ast.walk(tick):
        if isinstance(node, (ast.Assign, ast.AugAssign)) and registers & _stored_names(node):
            loaded = {name.id for name in ast.walk(node.value) if isinstance(name, ast.Name)}
            assert "drawn" in loaded, (ast.unparse(node), node.lineno)
    # `sample` is a batch of one, not a second sampling path
    assert [_called_name(node) for node in ast.walk(methods["sample"]) if isinstance(node, ast.Call)] == ["sample_many"]


def test_no_module_imports_a_private_name():
    # an underscore name belongs to its module; another module that needs it should get a public name or function
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert paths, PACKAGE_DIR
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(alias.name.startswith("_") for alias in node.names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


RUN_SETTINGS = {"n_generate", "batches", "batch_size", "max_epochs", "patience", "min_improvement"}


def test_run_settings_are_declared_once():
    # every regime trains with the same settings, so one dataclass declares them; a second is a copy to keep in step
    declared: dict[str, list[str]] = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(ast.unparse(d).split("(")[0].endswith("dataclass") for d in node.decorator_list):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and ast.unparse(item.target) in RUN_SETTINGS:
                    declared.setdefault(ast.unparse(item.target), []).append(f"{path.name}:{node.name}")
    assert declared == {name: ["experiment.py:ExperimentConfig"] for name in RUN_SETTINGS}, declared
