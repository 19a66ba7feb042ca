"""Source-layout rules for the package, and the names the benchmark relies on."""

import importlib
import importlib.util
from pathlib import Path

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


def test_every_function_the_benchmark_traces_exists():
    # kwsbench's tracer wraps kwslite functions by name and skips a missing
    # one, so a renamed kernel would only show as untraced in a benchmark run
    spec = importlib.util.spec_from_file_location("kwsbench_tracer", ROOT / "kwsbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr, _ in tracer.TRACED:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert tracer.TRACED and not missing, f"traced but not in kwslite: {missing}"
