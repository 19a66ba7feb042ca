"""Source-layout rules for the package, the names the benchmark relies on, and
the names its documentation cites."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

from kwslite.arch import ARCHITECTURES

MAX_COLUMNS = 110
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kwslite"


def test_no_source_line_exceeds_max_columns():
    long_lines = [
        f"{path.name}:{number} ({len(line)} columns)"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert not long_lines, f"lines over {MAX_COLUMNS} columns: {long_lines}"


def _run_at_import(node):
    """`node` and every node under it outside a function body."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _run_at_import(child)


def test_no_module_keeps_process_wide_state_behind_a_global_or_a_lock():
    # inference state belongs to the objects it serves (a loaded model keeps
    # its own plan), so no module rebinds a global or builds a lock at import
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{n.lineno} global" for n in ast.walk(tree) if isinstance(n, ast.Global)]
        found += [
            f"{path.name}:{node.lineno} {ast.unparse(node.func)}()"
            for node in _run_at_import(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("Lock", "RLock")
        ]
    assert not found, found


def _tracer():
    spec = importlib.util.spec_from_file_location("kwsbench_tracer", ROOT / "kwsbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_function_the_benchmark_traces_exists():
    # kwsbench's tracer wraps kwslite functions by name and skips a missing
    # one, so a renamed kernel would only show as untraced in a benchmark run
    tracer = _tracer()
    missing = []
    for module, attr, _ in tracer.TRACED:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert tracer.TRACED and not missing, f"traced but not in kwslite: {missing}"


# A backticked dotted name, optionally called: `arch.forward`, `Layer.stream`,
# `budget.streamed_multiplies(arch, n)`.
DOTTED = re.compile(r"`(\w+(?:\.\w+)+)(?:\([^`]*\))?`")
FILE_SUFFIXES = {"py", "md", "json", "toml", "yml", "kwsm", "wav", "txt"}


def _documents() -> dict[str, str]:
    """README.md and every docstring in the package, by where they stand."""
    texts = {"README.md": (ROOT / "README.md").read_text(encoding="utf-8")}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
                texts[f"{path.name}:{getattr(node, 'name', 'module')}"] = ast.get_docstring(node)
    return texts


def _is_metric(ref: str, spans: set[str]) -> bool:
    """A benchmark span (`tensor.conv`) or a metric under one or under an
    architecture (`rtf.dnn`, `tensor.dnn.dense1.self_s`)."""
    parts = ref.split(".")
    return any(".".join(parts[:k]) in spans for k in range(1, len(parts) + 1)) or any(
        part in ARCHITECTURES for part in parts
    )


def _resolves(owner, parts) -> bool:
    for part in parts:
        fields = getattr(owner, "__dataclass_fields__", {})
        if not hasattr(owner, part) and part not in fields:
            return False
        owner = getattr(owner, part, None)
    return True


def test_every_documented_kwslite_name_exists():
    # a retired name left in the prose reads as current API; references to
    # numpy, files and benchmark metrics are not kwslite's
    stems = [path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("__")]
    modules = {stem: importlib.import_module(f"kwslite.{stem}") for stem in stems}
    modules["kwslite"] = importlib.import_module("kwslite")
    classes = {
        name: obj
        for module in modules.values()
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__.startswith("kwslite")
    }
    spans = {span for _, _, span in _tracer().TRACED}
    checked, broken = 0, []
    for where, text in _documents().items():
        for ref in DOTTED.findall(text):
            first, *rest = ref.split(".")
            if rest[-1] in FILE_SUFFIXES or first not in {**modules, **classes}:
                continue
            owner = modules.get(first, classes.get(first))
            if first == "kwslite" and rest[0] in modules:
                owner, rest = modules[rest[0]], rest[1:]
            checked += 1
            if not _resolves(owner, rest) and not _is_metric(ref, spans):
                broken.append(f"{where}: `{ref}`")
    assert checked and not broken, f"documented names that do not exist: {broken}"
