"""bargspec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pseudospectrum --seed 1 --seconds 18 --trace 0

Run from anywhere inside a checkout that holds `src/bargspec`; nothing is
built.  With --trace 0 the last stdout line is a JSON object whose metrics
are the end-to-end metrics of BENCHMARK.json, measured with tracing off; with
--trace 1 they are the per-layer metrics of a traced run, plus the tracing
overhead against an untraced run of the same length made just before it.
The lines above it give each metric with its context, the environment and
the failures.  Method: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUNNER = HERE / "cli_runner.py"
WORKLOADS = ("pseudospectrum", "symbol-calculus", "spectra", "cli")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _remaining(t_start: float) -> float:
    left = DEADLINE_S - (time.monotonic() - t_start)
    if left <= 0:
        raise BenchError("time budget exhausted")
    return left


def run_worker(args: list[str], t_start: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from spawn to READY, RESULT or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait(timeout=_remaining(t_start))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    err = proc.stderr.read()
    proc.stderr.close()
    proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err[-2000:]}")
    return ready, result


def cli_setup_sample(t_start: float) -> float:
    """Interpreter start-up plus `import bargspec.cli`, in a fresh process."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUNNER)], cwd=ROOT, capture_output=True,
        timeout=_remaining(t_start),
    )
    if proc.returncode != 0:
        raise BenchError(f"cli runner exited {proc.returncode}:\n{proc.stderr.decode()[-2000:]}")
    return time.perf_counter() - t0


def git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="one small pass per worker (self-test)")
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    if not (ROOT / "src" / "bargspec" / "__init__.py").is_file():
        print(f"perfbench: no bargspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    values: dict[str, float] = {}
    notes: list[str] = []
    try:
        if args.trace:
            half = max(args.seconds / 2, 1.0)
            _, plain = run_worker(common + ["--seconds", str(half), "--trace", "0"], t_start)
            _, res = run_worker(common + ["--seconds", str(half), "--trace", "1"], t_start)
            values.update(res["layers"])
            values["trace.overhead_s"] = res["wall_s"] - plain["wall_s"]
            notes.append(
                f"tracing overhead: traced wall_s {res['wall_s']:.4f} s - untraced wall_s "
                f"{plain['wall_s']:.4f} s = {values['trace.overhead_s']:+.4f} s per pass "
                f"({res['spans']} spans, written to {res['spans_file']})"
            )
        else:
            samples = []
            if args.workload == "cli":
                samples = [cli_setup_sample(t_start) for _ in range(SETUP_SAMPLES)]
                _, res = run_worker(common + ["--seconds", str(args.seconds), "--trace", "0"], t_start)
            else:
                for _ in range(SETUP_SAMPLES - 1):
                    ready, _ = run_worker(common + ["--setup-only"], t_start)
                    samples.append(ready)
                ready, res = run_worker(common + ["--seconds", str(args.seconds), "--trace", "0"], t_start)
                samples.append(ready)
            for key in ("wall_s", "latency_p50_s", "latency_tail_s", "peak_rss_mb"):
                values[key] = res[key]
            values["setup_s"] = statistics.median(samples)
            notes.append(
                f"wall_s: sum of the slots' best over {res['passes']} passes (planned {res['passes_planned']}; "
                f"{res['loop_s']:.1f} s with checks) {[round(x, 4) for x in res['pass_s']]}"
            )
            notes.append(
                f"latency_tail_s: p{res['latency_tail_percentile']:.1f}, "
                f"{res['latency_tail_beyond']} of {res['attempted']} jobs beyond it"
            )
            notes.append(f"setup_s: median of {[round(x, 4) for x in samples]}")
            notes.append("median latency by family: " + ", ".join(
                f"{f} {m:.4f} s (n={n})" for f, (m, n) in sorted(res["family_p50_s"].items())
            ))
            notes.append(
                "without best-of-passes: median pass {median_pass_s:.4f} s, median job {latency_p50_s:.4f} s, "
                "tail job {latency_tail_s:.4f} s".format(**res["raw"])
            )
            if "grid_points_per_s" in res:
                notes.append(f"grid_points_per_s {res['grid_points_per_s']:.2f} 1/s (sigma_min points per second of resolvent_grid)")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env = dict(res["env"], git_commit=git_commit(), seed=args.seed, workload=args.workload)
    fail_ratio = res["failed"] / res["attempted"]
    correct = res["unknown_failures"] == 0
    report = {
        "env": env,
        "fail_ratio": fail_ratio,
        "known_defects": res["known_defects"],
        "failures": res["failures"],
        "notes": notes,
        "metrics": metrics,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for note in notes:
        print(note)
    print(
        f"fail_ratio {fail_ratio!r} ({res['failed']} failed of {res['attempted']} attempted; "
        f"known defects {res['known_defects']}; other failures {res['unknown_failures']})"
    )
    for f in res["failures"][:5]:
        print(f"  failed {f['family']}: {f['detail'][:160]}" + (f" [{f['known_defect']}]" if f["known_defect"] else ""))
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
