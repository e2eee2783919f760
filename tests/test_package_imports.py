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


def test_only_the_cell_model_imports_numpy():
    users = {
        path.stem for path in PACKAGE.glob("*.py") if "numpy" in imported_top_level_names(path)
    }
    assert users == {"pvmodel"}


def numpy_uses(path: Path) -> set[tuple[str, str]]:
    """(enclosing function, what it uses) for each use of the numpy module in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            aliases.update(a.asname or a.name for a in node.names)
    uses = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id in aliases
            ):
                uses.add((scope, f"{child.value.id}.{child.attr}"))
            elif isinstance(child, ast.Name) and child.id in aliases:
                uses.add((scope, child.id))
            else:
                visit(child, scope)

    visit(tree, "<module>")
    return uses


def test_the_package_uses_numpy_only_for_the_solves_transcendentals():
    """Switching the solve to math, which can differ in the last bit, is then a three-call
    change.  No numpy grid or search in the oracle: its first linspace and argmin each
    raised a compare's peak memory."""
    uses = {(path.stem, *use) for path in PACKAGE.glob("*.py") for use in numpy_uses(path)}
    assert uses == {
        ("pvmodel", "_solve_current_scalar", "np.log1p"),
        ("pvmodel", "_solve_current_scalar", "np.expm1"),
        ("pvmodel", "_solve_current_scalar", "np.exp"),
    }


def modules_the_cli_loads(names: set[str]) -> list[str]:
    """Which of names `import mpptbench.cli` loads in a fresh interpreter."""
    probe = f"import sys, mpptbench.cli; print(sorted({names!r} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    return ast.literal_eval(done.stdout)


def test_the_cli_imports_no_process_pool():
    """compare forks with os.fork and pickle; a pool module would add to every call's start-up."""
    assert modules_the_cli_loads({"multiprocessing", "concurrent.futures"}) == []


def test_the_cli_imports_no_argument_parser_module():
    """cli parses argv from its own option table.  After numpy and yaml, importing argparse
    and the gettext it imports raised a process's peak resident set by 424-428 KiB and took
    3.6 ms, and building the parser 188 KiB more (Python 3.11.7, 2-core x86-64 host)."""
    assert modules_the_cli_loads({"argparse", "getopt", "gettext", "optparse"}) == []


def test_the_cli_imports_no_dataclasses():
    """The package's records are NamedTuples and plain classes, so the import generates no
    dataclass methods.  After numpy and yaml, `import mpptbench.cli` with 11 dataclasses took
    28.9 ms and raised a process's peak resident set by 1,928 KiB; with none, 20.7 ms and
    1,800 KiB (medians of 20 interpreters each, Python 3.11.7, 2-core x86-64 host)."""
    assert modules_the_cli_loads({"dataclasses"}) == []
