"""Line census: which executable lines of src/mpptbench the suite and the CLI run.

    python tools/line_census.py

It copies the repository into a temporary directory and puts a
sitecustomize.py on the copy's src/, so every interpreter started with
that PYTHONPATH, the suite's own subprocesses and forked `compare`
children included, records each `call` and `line` event in the package's
files. A normal exit writes the record at interpreter exit; a forked child
writes it before os._exit. In the copy it runs:

  - tier-1: python -m pytest -q --continue-on-collection-errors;
  - python -m mpptbench.cli run, compare, oracle and
    oracle --g 800 --temp 40 on each shipped config and on the bench
    table1, steady and cloud inputs that bench/workloads.py generates at
    seed 0.

An executable line is the line number of any code object's co_lines in
src/mpptbench. The census prints executed/executable lines per module and
each line that never ran. It exits 1 if a line never ran or a command
failed, else 0. It writes only to temporary directories.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SITECUSTOMIZE = """\
import atexit
import os
import sys
import threading
import time

_PACKAGE = {package!r}
_RECORDS = {records!r}
_hits = set()
_in_package = {{}}


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    inside = _in_package.get(name)
    if inside is None:
        inside = _in_package[name] = name.startswith(_PACKAGE)
    if not inside:
        return None
    _hits.add((name, frame.f_lineno))
    return _local


def _write():
    path = os.path.join(_RECORDS, "%d-%d.hits" % (os.getpid(), time.time_ns()))
    with open(path, "x") as fh:
        fh.writelines("%s\\t%d\\n" % hit for hit in _hits)


def _write_then_exit(status, _exit=os._exit):
    _write()
    _exit(status)


os._exit = _write_then_exit
atexit.register(_write)
threading.settrace(_global)
sys.settrace(_global)
"""

_COMMANDS = (("run",), ("compare",), ("oracle",), ("oracle", "--g", "800", "--temp", "40"))


def executable_lines(package: Path) -> dict[Path, set[int]]:
    """Each module's line numbers of every code object's co_lines."""
    found = {}
    for path in sorted(package.rglob("*.py")):
        lines = set()
        codes = [compile(path.read_text(), str(path), "exec")]
        while codes:
            code = codes.pop()
            lines.update(line for _, _, line in code.co_lines() if line is not None)
            codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        found[path] = lines
    return found


def _bench_inputs(copy: Path, directory: Path) -> list[Path]:
    """The bench table1, steady and cloud scenarios at seed 0, generated into directory."""
    sys.path.insert(0, str(copy / "bench"))
    import workloads

    return [workloads.generate(name, 0, directory / name).config for name in workloads.WORKLOADS]


def _run(argv: list[str], cwd: Path, env: dict[str, str], log: Path) -> bool:
    with open(log, "wb") as fh:
        code = subprocess.run(argv, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT).returncode
    if code != 0:
        print(f"FAILED (exit {code}): {' '.join(argv)}")
        print(log.read_text(errors="replace")[-4000:])
    return code == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="line-census-") as tmp:
        tmp = Path(tmp).resolve()
        copy = tmp / "repo"
        shutil.copytree(
            ROOT,
            copy,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out", "out"
            ),
        )
        package = copy / "src" / "mpptbench"
        records = tmp / "records"
        records.mkdir()
        (copy / "src" / "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(package=str(package) + os.sep, records=str(records))
        )
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}

        ok = _run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
            copy, env, tmp / "tier1.log",
        )
        configs = sorted((copy / "configs").glob("*.yaml"))
        configs += _bench_inputs(copy, tmp / "inputs")
        for n, config in enumerate(configs):
            for k, command in enumerate(_COMMANDS):
                out = tmp / "out" / f"{n}-{k}"
                argv = [sys.executable, "-m", "mpptbench.cli", command[0], "--config", str(config),
                        "--out", str(out), *command[1:]]
                ok &= _run(argv, copy, env, tmp / "cli.log")

        hits = defaultdict(set)
        for record in records.iterdir():
            for row in record.read_text().splitlines():
                name, line = row.rsplit("\t", 1)
                hits[Path(name)].add(int(line))

        executed = executable = 0
        missing = []
        for path, lines in executable_lines(package).items():
            ran = lines & hits[path]
            executed += len(ran)
            executable += len(lines)
            print(f"{path.relative_to(copy)}: {len(ran)}/{len(lines)}")
            missing += [f"{path.relative_to(copy)}:{line}" for line in sorted(lines - ran)]
        for where in missing:
            print(f"never ran: {where}")
        print(f"executed {executed} of {executable} executable lines")
        return 0 if ok and not missing else 1


if __name__ == "__main__":
    sys.exit(main())
