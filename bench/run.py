"""Benchmark of `mpptbench compare` on one generated workload.

    python3 bench/run.py --workload table1 --seed 0 --seconds 35 --trace 0

Each pass runs in a fresh interpreter, so no oracle cache or import
carries over between passes: a CLI user pays both on every call.  After
one untimed warm-up pass, passes repeat until --seconds have elapsed
(at least MIN_PASSES of each kind).

--trace 0 reports the end-to-end metrics: pass_s (mean time of one CLI
call; README.md says why neither the fastest nor the median), setup_s
(median interpreter start plus `import mpptbench.cli`) and peak_rss_mb
(median peak resident set of a pass process).  Both times are scaled to
a fixed host speed: after each timed pass, probe interpreters that only
import numpy and PyYAML run for half that pass's time, and the run's
times are multiplied by PROBE_REFERENCE_S over the mean probe.  --trace
1 alternates untraced
passes with traced ones (traced_pass.py) and reports the per-layer
metrics of the median traced pass.

Every pass is checked: exit code, the output fingerprint (against
reference.json when the generated inputs match the ones recorded there,
else against the run's first good pass) and the physical invariants in
outputs.py.  A failed pass counts in `failed` and does not stop the run.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  The full record (machine, versions, inputs, raw
time of every pass) is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import outputs
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 0
MIN_PASSES = 3
# setup_s is the median of at least this many fresh interpreters per run;
# set-up-only probes top up runs whose passes are too long to give as many.
SETUP_SAMPLES = 15
# No pass runs past this point of a run, so a run ends well within 180 s.
RUN_LIMIT_S = 150.0

# The shared host runs at two speeds about 1.6x apart, and the share of
# time it is slow drifts over minutes, which a run cannot average out.
# A fixed probe run between the passes slows down with the host, so each
# untraced run scales its times by PROBE_REFERENCE_S over its mean probe:
# they read as if a probe took PROBE_REFERENCE_S, about its time on the
# 2-core host the benchmark was calibrated on.  README.md has the data.
PROBE_SHARE = 0.5  # probe time after a timed pass, as a share of the pass
PROBE_MIN_UNITS = 1
PROBE_REFERENCE_S = 0.27

# Per-layer metrics that are exact counts and must repeat bit for bit.
COUNT_UNITS = ("count", "1", "B")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, unusable pass output)."""


def _run_child(args: list[str], cwd: Path, timeout: float) -> subprocess.CompletedProcess:
    """Run a script of this directory against the checkout's own sources."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout
    )


def _probe_unit(cwd: Path) -> float:
    """Wall seconds of a fresh interpreter that imports the program's
    dependencies (numpy, PyYAML) and nothing of the program, so no change
    to the program can move it.  Like a pass, it starts a process cold."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, yaml"], cwd=cwd, check=True, timeout=60)
    return time.perf_counter() - t0


def _probe(budget_s: float, cwd: Path) -> list[float]:
    """Probe units until budget_s has passed (at least PROBE_MIN_UNITS)."""
    units: list[float] = []
    started = time.perf_counter()
    while len(units) < PROBE_MIN_UNITS or time.perf_counter() - started < budget_s:
        units.append(_probe_unit(cwd))
    return units


def _last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


class PassRunner:
    """Runs and checks passes of one workload; keeps every pass's record."""

    def __init__(self, workload: workloads.Workload, work: Path, expected: dict | None):
        self.workload = workload
        self.work = work
        self.expected = expected
        self.passes: list[dict] = []
        self._violations: dict[str, list[str]] = {}
        self._layer_counts: dict | None = None

    def run(self, kind: str, timeout: float, warmup: bool = False) -> dict:
        n = len(self.passes)
        out = self.work / f"pass-{n}"
        config = str(self.workload.config)
        if kind == "setup":
            args = [str(BENCH / "cli_pass.py"), repr(time.monotonic())]
        elif kind == "cli":
            args = [str(BENCH / "cli_pass.py"), repr(time.monotonic()),
                    "compare", "--quiet", "--config", config, "--out", str(out)]
        else:
            args = [str(BENCH / "traced_pass.py"), config, str(out),
                    str(self.work / f"pass-{n}-spans.json")]
        record = {"n": n, "kind": kind, "warmup": warmup, "problems": []}
        try:
            proc = _run_child(args, self.work, timeout)
        except subprocess.TimeoutExpired:
            record["problems"].append(f"timed out after {timeout:.0f} s")
        else:
            result = _last_json(proc.stdout)
            if proc.returncode != 0 or result is None or result.get("rc", 0) != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
                record["problems"].append(f"exit code {proc.returncode}: {tail[0]}")
            if result is not None:
                record.update({"layers": result} if kind == "traced" else result)
            if not record["problems"] and kind != "setup":
                record["problems"] += self._check(out)
            if kind == "traced" and result is not None:
                record["problems"] += self._check_counts(result)
        shutil.rmtree(out, ignore_errors=True)
        record["ok"] = not record["problems"]
        self.passes.append(record)
        return record

    def _check_counts(self, metrics: dict) -> list[str]:
        counts = {k: m for k, m in metrics.items() if m["unit"] in COUNT_UNITS}
        if self._layer_counts is None:
            self._layer_counts = counts
        return [f"{k} differs between traced passes"
                for k in counts if counts[k] != self._layer_counts.get(k)]

    def _check(self, out: Path) -> list[str]:
        try:
            fp = outputs.fingerprint(out)
        except (OSError, StopIteration, ValueError) as exc:
            return [f"outputs unreadable: {exc}"]
        problems = []
        if self.expected is None:
            self.expected = fp
        elif fp != self.expected:
            problems.append("output fingerprint differs from the expected one")
        key = json.dumps(fp, sort_keys=True)
        if key not in self._violations:
            self._violations[key] = outputs.invariant_violations(out, self.workload.name)[:10]
        return problems + self._violations[key]


def _spread(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "min": min(values),
        "mean": statistics.fmean(values),
        "q1": quartiles[0],
        "median": statistics.median(values),
        "q3": quartiles[2],
        "max": max(values),
        "n": len(values),
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _machine() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "pyyaml": version("PyYAML"),
        "git_commit": _git_commit(),
    }


def _reference_for(workload: workloads.Workload) -> dict | None:
    """The recorded fingerprint, if it was recorded for these exact inputs."""
    entry = json.loads(REFERENCE.read_text()).get(workload.name)
    if entry and entry["inputs_sha256"] == workload.inputs_sha256:
        return entry["fingerprint"]
    return None


def _host_scale(cli: list[dict]) -> float:
    """PROBE_REFERENCE_S over the run's mean probe unit."""
    return PROBE_REFERENCE_S / statistics.fmean(u for p in cli for u in p["probe_s"])


def _end_to_end(cli: list[dict], setups: list[float]) -> dict:
    scale = _host_scale(cli)
    return {
        "pass_s": {"value": scale * statistics.fmean(p["pass_s"] for p in cli), "unit": "s"},
        "setup_s": {"value": scale * statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(p["peak_rss_mb"] for p in cli), "unit": "MiB",
        },
    }


def _per_layer(runner: PassRunner, traced: list[dict], cli: list[dict]) -> dict:
    """Metrics of the median traced pass, so that its shares add up."""
    ranked = sorted(traced, key=lambda p: p["layers"]["trace.pass_s"]["value"])
    median = ranked[(len(ranked) - 1) // 2]
    metrics = dict(median["layers"])
    traced_mean = statistics.fmean(p["layers"]["trace.pass_s"]["value"] for p in traced)
    metrics["trace.overhead_ratio"] = {
        "value": traced_mean / statistics.fmean(p["pass_s"] for p in cli),
        "unit": "1",
    }
    spans = runner.work / f"pass-{median['n']}-spans.json"
    if spans.exists():
        shutil.copyfile(spans, RESULTS / f"{runner.workload.name}-seed{runner.workload.seed}-spans.json")
    return metrics


def _run_passes(runner: PassRunner, seconds: float, trace: bool, started: float) -> None:
    """Warm-up, then timed passes until `seconds` pass, then set-up probes.

    Without tracing, each good timed pass is followed by host-speed probes.
    """

    def remaining() -> float:
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - started))

    def in_time() -> bool:
        return time.monotonic() - started < RUN_LIMIT_S

    runner.run("cli", remaining(), warmup=True)
    kinds = ["traced", "cli"] if trace else ["cli"]
    counts = dict.fromkeys(kinds, 0)
    deadline = time.monotonic() + seconds
    while in_time() and (time.monotonic() < deadline or min(counts.values()) < MIN_PASSES):
        kind = min(kinds, key=lambda k: counts[k])
        record = runner.run(kind, remaining())
        counts[kind] += 1
        if not trace and record["ok"]:
            record["probe_s"] = _probe(PROBE_SHARE * record["pass_s"], runner.work)
    if not trace:
        for _ in range(SETUP_SAMPLES - counts["cli"]):
            if in_time():
                runner.run("setup", remaining())


def run_benchmark(
    name: str, seed: int, seconds: float, trace: bool, duration_s: float | None = None
) -> tuple[dict, dict]:
    """Run one workload; return (result line, full record)."""
    if not (SRC / "mpptbench" / "cli.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    started = time.monotonic()
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RESULTS))
    try:
        workload = workloads.generate(name, seed, work / "inputs", duration_s)
        runner = PassRunner(workload, work, _reference_for(workload))
        checked_against_reference = runner.expected is not None
        _run_passes(runner, seconds, trace, started)
        good = [p for p in runner.passes if p["ok"] and not p["warmup"]]
        cli = [p for p in good if p["kind"] == "cli"]
        traced = [p for p in good if p["kind"] == "traced"]
        if not cli or (trace and not traced):
            problems = [q for p in runner.passes for q in p["problems"]]
            raise BenchError("no pass succeeded: " + "; ".join(problems[:5]))
        setups = [p["setup_s"] for p in good if "setup_s" in p]
        metrics = _per_layer(runner, traced, cli) if trace else _end_to_end(cli, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not p["ok"] for p in runner.passes)
    attempted = len(runner.passes)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": _machine(),
        "inputs_sha256": workload.inputs_sha256,
        "steps_per_controller": workload.steps,
        "checked_against_reference": checked_against_reference,
        "fingerprint": runner.expected,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "pass_s": _spread([p["pass_s"] for p in cli]),
        "setup_s": _spread(setups),
        "probe_unit_s": None if trace else _spread([u for p in cli for u in p["probe_s"]]),
        "host_scale": None if trace else _host_scale(cli),
        "peak_rss_mb": _spread([p["peak_rss_mb"] for p in cli]),
        "metrics": metrics,
        "passes": runner.passes,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(
        f"{args.workload} seed {args.seed}: {record['attempted']} passes, "
        f"{record['failed']} failed, fail_ratio {record['fail_ratio']:.6g} "
        f"(reference check: {'yes' if record['checked_against_reference'] else 'no'})"
    )
    if not args.trace:
        print(
            f"  host scale {record['host_scale']:.6g}: raw mean pass {record['pass_s']['mean']:.6g} s, "
            f"raw median set-up {record['setup_s']['median']:.6g} s"
        )
    for problem in sorted({q for p in record["passes"] for q in p["problems"]}):
        print(f"  failure: {problem}")
    for metric, m in result["metrics"].items():
        print(f"  {metric}: {m['value']:.6g} {m['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
