"""Source-layout rules for the package."""

from pathlib import Path

MAX_COLUMNS = 110
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kwslite"


def test_no_source_line_exceeds_max_columns():
    long_lines = [
        f"{path.name}:{number} ({len(line)} columns)"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert not long_lines, f"lines over {MAX_COLUMNS} columns: {long_lines}"
