"""Source-layout rules for the package, the names the benchmark relies on, and
the names its documentation cites."""

import ast
import collections
import importlib
import inspect
import re
from pathlib import Path

import numpy as np

import kwslite.tensor
from kwslite import Conv, LabeledExample, forward, forward_frames, get_arch, init_weights, load_model, save_model
from kwslite.arch import ARCHITECTURES
from kwslite.budget import report
from kwslite.frontend import stack_context
from kwslite.tensor import MacCounter
from kwslite.train import loss_and_grads

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


def _exported(tree) -> set[str]:
    """The names a module lists in its `__all__`."""
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def test_every_imported_name_is_used_or_exported():
    # __init__.py only re-exports; any other module that imports a name it
    # never reads is carrying a leftover of code that has gone
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
    assert not unused, f"imported but never used: {unused}"


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


def _parameters(fn):
    args = fn.args
    return [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]


def test_only_frame_count_takes_the_feature_format():
    # the format is FrameConfig's constants, read where they are used; a
    # parameter for it would take a look-alike config the rest of the
    # frontend ignores (frame_count keeps one for the benchmark's call)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name != "frame_count":
                found += [
                    f"{path.name}:{node.lineno} {node.name}({arg.arg})"
                    for arg in _parameters(node)
                    if arg.annotation is not None and "FrameConfig" in ast.unparse(arg.annotation)
                ]
    assert not found, f"functions taking a FrameConfig: {found}"


def _imported_from(node):
    """The kwslite module an `ImportFrom` node reads, or None: `from kwslite.x
    import ...`, and in the package `from .x import ...` and `from . import x`."""
    if node.level:
        return "kwslite" + (f".{node.module}" if node.module else "")
    return node.module if (node.module or "").split(".")[0] == "kwslite" else None


def _kwslite_names(tree):
    """What each name a file binds to a kwslite module, function or class
    refers to: `import kwslite.x`, `from kwslite.x import y`, relative imports
    in the package, a name bound by `importlib.import_module("kwslite.train")`,
    and an alias of either (`forward = kwslite.arch.forward`)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "kwslite":
                    bound = alias.name if alias.asname else "kwslite"  # `import kwslite.cli` binds kwslite
                    importlib.import_module(alias.name)
                    names[alias.asname or bound] = importlib.import_module(bound)
        elif isinstance(node, ast.ImportFrom) and _imported_from(node):
            module = importlib.import_module(_imported_from(node))
            for alias in node.names:
                # as Python does: the module's attribute, else its submodule
                found = getattr(module, alias.name, None)
                names[alias.asname or alias.name] = found or importlib.import_module(f"{module.__name__}.{alias.name}")
    aliases = [node for node in ast.walk(tree) if isinstance(node, ast.Assign) and len(node.targets) == 1
               and isinstance(node.targets[0], ast.Name)]
    for node in aliases:
        value = node.value
        if (isinstance(value, ast.Call) and ast.unparse(value.func) == "importlib.import_module"
                and isinstance(value.args[0], ast.Constant) and value.args[0].value.startswith("kwslite")):
            names[node.targets[0].id] = importlib.import_module(value.args[0].value)
    for node in aliases:
        target = _kwslite_object(node.value, names)
        if callable(target):
            names[node.targets[0].id] = target
    return names


def _bench_calls():
    """(where, callee, call) for every call in kwsbench/*.py whose callee
    resolves to a kwslite function or class (see _kwslite_names)."""
    for path in sorted((ROOT / "kwsbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _kwslite_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                target = _kwslite_object(node.func, names)
                if callable(target):
                    yield f"{path.name}:{node.lineno}", target, node


def _kwslite_object(node, names):
    """What a name or attribute chain over `names` refers to, if kwslite's."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in names:
        return None
    owner = names[node.id]
    for part in reversed(parts):
        owner = getattr(owner, part, None)
    module = getattr(owner, "__module__", None) or getattr(owner, "__name__", "")
    return owner if module.split(".")[0] == "kwslite" else None


def test_every_benchmark_call_into_kwslite_binds():
    # the benchmark calls kwslite by positional and keyword arguments; a
    # changed signature would otherwise surface only in a benchmark run
    checked, broken = 0, []
    for where, target, call in _bench_calls():
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
            continue
        checked += 1
        try:
            inspect.signature(target).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            broken.append(f"{where} {ast.unparse(call)}: {exc}")
    assert checked >= 40 and not broken, (checked, broken)


# Public functions that no module, demo or benchmark file uses, and why they stay.
WITHOUT_CALLER = {
    "grad_check": "the backprop oracle: tests hold training's gradients to it",
    "read_feature_dump": "the reader of the format `kwslite featurize` writes",
    "write_wav": "the writer of the one WAV format read_wav accepts, for making test and user inputs",
}


def test_every_public_function_has_a_caller_outside_the_tests():
    # a function in a module's __all__ stays API only while something other
    # than the tests uses it: its own or another module of the package (not
    # __init__, which re-exports every one), a demo, or the benchmark, whose
    # tracer wraps functions by name
    used = {id(getattr(importlib.import_module(module), attr)) for module, attr, _ in _traced()
            if "." not in attr}
    files = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    for path in files + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "kwsbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _kwslite_names(tree)
        used |= {id(target) for target in names.values()}  # imported
        if path.parent == PACKAGE:
            names = {**vars(importlib.import_module(f"kwslite.{path.stem}")), **names}  # its own globals
        used |= {id(_kwslite_object(node, names)) for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    unused = {}
    for path in files:
        module = importlib.import_module(f"kwslite.{path.stem}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            function = callable(obj) and not isinstance(obj, type) and obj.__module__ == module.__name__
            if function and id(obj) not in used:
                unused[name] = f"{path.stem}.{name}"
    orphans = [where for name, where in unused.items() if name not in WITHOUT_CALLER]
    assert not orphans, f"public functions that only the tests use: {orphans}"
    assert set(WITHOUT_CALLER) <= set(unused), "an allowed name is gone or has a caller now"


def _traced():
    """kwsbench/tracer.py's TRACED, (module, attribute, span name) triples,
    read off its source."""
    tree = ast.parse((ROOT / "kwsbench" / "tracer.py").read_text(encoding="utf-8"))
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "TRACED" for target in node.targets)]
    return ast.literal_eval(value)


def test_every_function_the_benchmark_traces_exists():
    # kwsbench's tracer wraps kwslite functions by name and skips a missing
    # one, so a renamed kernel would only show as untraced in a benchmark run
    traced = _traced()
    missing = []
    for module, attr, _ in traced:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert traced and not missing, f"traced but not in kwslite: {missing}"


def test_production_paths_run_the_conv_the_benchmark_traces(tmp_path, monkeypatch):
    # the benchmark's tensor.conv spans wrap these two kernels by name: every
    # optimized path must run the production conv, the naive path the oracle
    convs = ("conv2d_optimized", "conv2d_valid")
    assert {("kwslite.tensor", name, "tensor.conv") for name in convs} <= set(_traced())
    calls = collections.Counter()
    for name in convs:
        def counted(*args, kernel=getattr(kwslite.tensor, name), name=name, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(kwslite.tensor, name, counted)
    arch = get_arch("cnn-trad", 4)
    weights = init_weights(arch, 0, init_scale=0.2)
    save_model(tmp_path / "model.kwsm", arch, weights, ["a", "b", "c", "d"])
    loaded = load_model(tmp_path / "model.kwsm").weights
    frames = np.random.default_rng(3).standard_normal((arch.input_t + 4, arch.input_f)).astype(np.float32)
    windows = stack_context(frames, arch.context)
    forward(arch, loaded, windows[0])
    forward(arch, loaded, windows[1])  # primes the loaded model's kept stream

    def continued_hop():
        counter = MacCounter()
        forward(arch, loaded, windows[2], counter=counter)
        assert counter.count == report(arch).per_frame  # the stream was continued

    runs = {
        "forward_frames": lambda: forward_frames(arch, weights, frames),
        "forward": lambda: forward(arch, weights, windows[0]),
        "continued hop": continued_hop,
        "loss_and_grads": lambda: loss_and_grads(arch, weights, [LabeledExample(windows[0], 1)]),
        "naive forward": lambda: forward(arch, weights, windows[0], conv_path="naive"),
    }
    ran = {}
    for what, run in runs.items():
        calls.clear()
        run()
        ran[what] = dict(calls)
    conv_layers = sum(isinstance(layer, Conv) for layer in arch.layers)
    assert ran["naive forward"] == {"conv2d_valid": conv_layers}
    for what in list(runs)[:-1]:
        assert ran[what].keys() == {"conv2d_optimized"}, (what, ran[what])


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
    spans = {span for _, _, span in _traced()}
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
