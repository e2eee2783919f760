"""Which modules the package imports, read from its source and from a fresh interpreter."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mpptbench"


def imported_top_level_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.partition(".")[0])
    return names


def test_only_the_cell_solve_and_the_oracle_import_numpy():
    users = {
        path.stem for path in PACKAGE.glob("*.py") if "numpy" in imported_top_level_names(path)
    }
    assert users == {"pvmodel", "oracle"}


def test_the_cli_imports_no_process_pool():
    """compare forks with os.fork and pickle; a pool module would add to every call's start-up."""
    probe = (
        "import sys, mpptbench.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"
