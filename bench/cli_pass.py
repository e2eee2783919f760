"""One untraced `mpptbench compare` pass in a fresh interpreter.

Usage: python cli_pass.py START_MONOTONIC [compare --config ... --out ...]

START_MONOTONIC is the parent's time.monotonic() just before it started
this interpreter (CLOCK_MONOTONIC is system-wide on Linux), so setup_s
covers interpreter start-up plus `import mpptbench.cli`, the cost every
CLI call pays.  Without CLI arguments only set-up is measured.  Prints
one JSON line: setup_s and, after a pass, pass_s, the CLI exit code and
the peak resident set.
"""

import sys
import time


def main(argv: list[str]) -> None:
    import mpptbench.cli

    result = {"setup_s": time.monotonic() - float(argv[0])}
    if len(argv) > 1:
        t0 = time.perf_counter()
        rc = mpptbench.cli.main(argv[1:])
        result["pass_s"] = time.perf_counter() - t0

        import resource  # kept out of the set-up timing

        result["rc"] = rc
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import json

    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
