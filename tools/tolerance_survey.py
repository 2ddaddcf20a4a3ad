"""Show which tier-1 test needs each tolerance: set it to 0, then to 1000x, and run the suite.

Usage (from anywhere; standard library only):

    python tools/tolerance_survey.py [NAME ...]

With no NAME it surveys every module-level constant of src/cyclonet/linalg.py.  It copies
src/, tests/, README.md and pyproject.toml into a temporary directory, checks that the copy
passes as it is, then edits the copy's linalg.py once per constant and setting and runs
`python -m pytest -x -q` there; the working tree is never written.  README's tolerance-table
check is deselected, as it fails whenever a value moves.  Each cell of the markdown table it
prints names the first test that fails, or reads "all pass".  A full survey is 2 runs per
constant plus one, each up to a full tier-1 run.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[1]
LINALG = pathlib.Path("src", "cyclonet", "linalg.py")
TABLE_CHECK = "tests/test_linalg.py::test_readme_tolerance_table_matches_linalg"
CONSTANT = re.compile(r"^([A-Z][A-Z_]*) = (\S+)", re.M)


def first_failure(copy: pathlib.Path) -> str:
    """Run tier-1 in the copy with -x; name the first failing test, or say that all pass."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--deselect", TABLE_CHECK],
        cwd=copy,
        capture_output=True,
        text=True,
    )
    if proc.returncode == 0:
        return "all pass"
    found = re.search(r"^(FAILED|ERROR) (.+?)(?: - .*)?$", proc.stdout, re.M)  # an id may hold spaces
    if found is None:
        return f"exit {proc.returncode}"
    return f"`{found.group(2)}`" + (" (error)" if found.group(1) == "ERROR" else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="constants to survey (default: all of them)")
    args = parser.parse_args(argv)
    source = (REPO / LINALG).read_text(encoding="utf-8")
    constants = dict(CONSTANT.findall(source))
    unknown = sorted(set(args.names) - set(constants))
    if unknown:
        parser.error(f"not a constant of {LINALG}: {', '.join(unknown)}")
    with tempfile.TemporaryDirectory(prefix="tolerance-survey-") as tmp:
        copy = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(REPO / part, copy / part, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        for part in ("README.md", "pyproject.toml"):
            shutil.copy2(REPO / part, copy / part)
        if (unchanged := first_failure(copy)) != "all pass":
            print(f"the unedited copy already fails: {unchanged}", file=sys.stderr)
            return 1
        print("| constant | set to 0 | ×1000 |")
        print("| -------- | -------- | ----- |")
        for name in args.names or constants:
            cells = []
            for value in ("0.0", f"({constants[name]}) * 1000"):
                edited = re.sub(rf"^{name} = \S+", f"{name} = {value}", source, count=1, flags=re.M)
                (copy / LINALG).write_text(edited, encoding="utf-8")
                cells.append(first_failure(copy))
            print(f"| `{name}` | {cells[0]} | {cells[1]} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
