"""Runs one bargspec CLI invocation in a fresh interpreter and times its
parts: `import bargspec.cli` and `cli.main(argv)` separately.  The exit code
is main's, or 1 for an uncaught exception as with `python -m bargspec.cli`.

The last stderr line is `@perfbench {json}` with import_s, main_s, rc and the
peak RSS; with PERFBENCH_TRACE=1 it also carries the spans recorded around
the public functions of the bargspec modules.  With no arguments the runner
only imports (the set-up probe of the cli workload).

    python3 perfbench/cli_runner.py spectrum --symbol 'p^2+q^2' --hbar 0.1
"""

import json
import os
import resource
import sys
import time
import traceback

t_start = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bargspec.cli as cli  # noqa: E402

t_import = time.perf_counter()


def main() -> int:
    argv = sys.argv[1:]
    report = {"import_s": t_import - t_start}
    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer()
        tracer.job = 0
        tracer.install()
    rc = 0
    t0 = time.perf_counter()
    if argv:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    report["main_s"] = time.perf_counter() - t0
    report["rc"] = rc
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["spans"] = tracer.spans
    sys.stdout.flush()
    sys.stderr.write("\n@perfbench " + json.dumps(report) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
