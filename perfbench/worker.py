"""One measuring process of the benchmark: imports bargspec, runs one
untimed warm-up job per family, prints READY, then runs a fixed number of
whole passes of the workload's job stream (about --seconds long) as a closed
loop with one client.  Prints one RESULT line of JSON.

Run by perfbench/run.py; by hand:

    python3 perfbench/worker.py --workload spectra --seed 1 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
# a run stops early, after MIN_PASSES, once it has taken this many times --seconds
OVERRUN = 2.0


def n_passes(wl, seconds: float) -> int:
    """Passes of a run: a fixed number for a given --seconds, so that every
    run has the same job mix whatever the speed of the machine.  PASS_S is
    the workload's nominal pass time (perfbench/README.md)."""
    return max(MIN_PASSES, round(seconds / wl.PASS_S))


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency with ten jobs beyond it: (value, percentile, jobs beyond).
    With ten jobs or fewer this is the slowest job."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def run_job(wl, job):
    """Timed call; returns (latency, output, exception)."""
    if hasattr(wl, "prepare"):
        wl.prepare(job)
    t0 = time.perf_counter()
    try:
        out, err = wl.run(job), None
    except Exception as exc:  # a failed job is counted, the stream goes on
        out, err = None, exc
    return time.perf_counter() - t0, out, err


def judge(wl, job, out, err) -> tuple[bool, str, str | None]:
    """(ok, detail, known defect or None) for one job, outside timing."""
    if err is not None:
        name = type(err).__name__
        if job.expect == name:
            return True, f"raised {name} (documented outcome)", None
        known = job.known_defect[0] if job.known_defect and job.known_defect[1] == name else None
        return False, f"raised {name}: {err}", known
    if job.expect is not None:
        return False, f"returned instead of raising {job.expect}", None
    try:
        return wl.check(job, out)
    except Exception as exc:
        return False, f"check raised {exc!r}: {traceback.format_exc(limit=2)}", None


def environment() -> dict:
    import os
    import platform

    import scipy

    blas = {}
    cfg = getattr(np.__config__, "CONFIG", None)
    if cfg:
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "BSL_THREADS": os.environ.get("BSL_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def grid_probe() -> dict:
    """Fixed 30x30 n = 256 criterion-10 grid, serial and with 2 workers."""
    from bargspec import bargmann, spectral

    m = bargmann.assemble_toeplitz(workloads._rotated_oscillator(0.9 * np.pi / 2).to_symbol(), 0.05, 256)
    out = {}
    for w in (1, 2):
        t0 = time.perf_counter()
        spectral.resolvent_grid(m, workloads.WINDOW, (30, 30), workers=w)
        out[f"w{w}"] = 900 / (time.perf_counter() - t0)
    return out


def layer_metrics(spans: list[tuple], n_passes: int, cli_reports: list[dict], probe: dict | None) -> dict:
    s = tracing.summarise(spans)
    by = s["by_name"]

    def calls(name):
        return by[name]["calls"] / n_passes if name in by else 0.0

    def self_s(name):
        return by[name]["self_s"] / n_passes if name in by else 0.0

    def extra(name, key):
        return by[name]["extra"].get(key, 0.0) if name in by else 0.0

    def per_call_ms(route):
        xs = s["route_self"].get(route, [])
        return 1e3 * sum(xs) / len(xs) if xs else 0.0

    useful, computed = extra("symbols.table_product", "useful"), extra("symbols.table_product", "computed")
    dense_bytes = sum(
        extra(n, "bytes") for n in ("bargmann.assemble_toeplitz", "bargmann.monomial_matrix", "bargmann.toeplitz_radial")
    )
    m = {
        "bargmann.assemble_toeplitz.calls": calls("bargmann.assemble_toeplitz"),
        "bargmann.assemble_toeplitz.self_s": self_s("bargmann.assemble_toeplitz"),
        "bargmann.dense_bytes": dense_bytes / n_passes,
        "quadratic.reduce_quadratic.calls": calls("quadratic.reduce_quadratic"),
        "quadratic.reduce_quadratic.self_s": self_s("quadratic.reduce_quadratic"),
        "quadratic.find_delta.self_s": self_s("quadratic.find_delta"),
        "symbols.table_product.calls": calls("symbols.table_product"),
        "symbols.table_product.self_s": self_s("symbols.table_product"),
        "symbols.table_product.useful_ratio": useful / computed if computed else 0.0,
        "symbols.sharp_product.self_s": self_s("symbols.sharp_product"),
        "symbols.moser_normal_form.self_s": self_s("symbols.moser_normal_form"),
        "symbols.birkhoff_normal_form.self_s": self_s("symbols.birkhoff_normal_form"),
        "symbols.quantum_normal_form.self_s": self_s("symbols.quantum_normal_form"),
        "contours.gaussian_expansion.self_s": self_s("contours.gaussian_expansion"),
        "contours.affine_contour_is_good.self_s": self_s("contours.affine_contour_is_good"),
        "spectral.sigma_min.calls": calls("spectral.sigma_min"),
        "spectral.sigma_min.self_s": self_s("spectral.sigma_min"),
        "spectral.sigma_min.ms_per_call.svd": per_call_ms("svd"),
        "spectral.sigma_min.ms_per_call.lu": per_call_ms("lu"),
        "spectral.resolvent_grid.pool_efficiency": (
            s["pool_busy_s"] / s["pool_capacity_s"] if s["pool_capacity_s"] else 0.0
        ),
        "spectral.resolvent_grid.points_per_s.w1": probe["w1"] if probe else 0.0,
        "spectral.resolvent_grid.points_per_s.w2": probe["w2"] if probe else 0.0,
        "spectral.eigen_spectrum.calls": calls("spectral.eigen_spectrum"),
        "spectral.eigen_spectrum.self_s": self_s("spectral.eigen_spectrum"),
        "spectral.eigen_spectrum.doublings": extra("spectral.eigen_spectrum", "doublings") / n_passes,
        "spectral.multiwell_compare.self_s": self_s("spectral.multiwell_compare"),
        "spectral.scan_isolating_c.self_s": self_s("spectral.scan_isolating_c"),
    }
    for key in ("import_s", "main_s", "interp_s"):
        xs = [r[key] for r in cli_reports if key in r]
        m[f"cli.{key}"] = statistics.median(xs) if xs else 0.0
    for mod, counts in s["errors"].items():
        for kind in ("expected", "unexpected"):
            m[f"{mod}.errors.{kind}"] = counts[kind] / n_passes
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="one small pass (self-test)")
    ap.add_argument("--setup-only", action="store_true", help="stop after READY")
    args = ap.parse_args(argv)

    is_cli = args.workload == "cli"
    wl = workloads.make(args.workload, trace=bool(args.trace))
    warm_rng = np.random.default_rng([args.seed, 1])
    for job in wl.warmup(warm_rng):
        _, out, err = run_job(wl, job)
        judge(wl, job, out, err)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace and not is_cli:
        tracer = tracing.Tracer()
        tracer.install()
    rng = np.random.default_rng([args.seed, 0])
    passes, latencies, grid_points, grid_s = [], [], 0, 0.0
    by_family: dict[str, list[float]] = {}
    slots: dict[int, list[float]] = {}
    attempted, failed, unknown_failures = 0, 0, 0
    failures: list[dict] = []
    known: dict[str, int] = {}
    cli_reports: list[dict] = []
    child_spans: list[tuple] = []
    planned = 1 if args.tiny else n_passes(wl, args.seconds)
    loop_t0 = time.perf_counter()
    deadline = loop_t0 + OVERRUN * args.seconds
    job_id = 0
    while len(passes) < planned:
        pass_s = 0.0
        for job in wl.pass_jobs(rng, args.tiny):
            if tracer:
                tracer.job = job_id
            dt, out, err = run_job(wl, job)
            if tracer:
                tracer.paused = True
            ok, detail, defect = judge(wl, job, out, err)
            if tracer:
                tracer.paused = False
            pass_s += dt
            latencies.append(dt)
            slots.setdefault(job.extra["slot"], []).append(dt)
            by_family.setdefault(job.family, []).append(dt)
            attempted += 1
            if not ok:
                failed += 1
                if defect:
                    known[defect] = known.get(defect, 0) + 1
                else:
                    unknown_failures += 1
                if len(failures) < 20:
                    failures.append({"family": job.family, "detail": detail[:300], "known_defect": defect})
            if "grid_s" in job.extra:
                grid_points += wl.points(job)
                grid_s += job.extra["grid_s"]
            if is_cli and out is not None:
                report = out[2]
                if "import_s" in report:
                    report["interp_s"] = dt - report["import_s"] - report["main_s"]
                cli_reports.append(report)
                base = (job_id + 1) * 10**9
                for sp in report.get("spans", ()):
                    sid, name, t0, t1, parent, _, thread, status, extra = sp
                    child_spans.append(
                        (base + sid, name, t0, t1, base + parent if parent else 0, job_id, thread, status, extra)
                    )
            job_id += 1
        passes.append(pass_s)
        if len(passes) >= MIN_PASSES and time.perf_counter() > deadline:
            break

    loop_s = time.perf_counter() - loop_t0
    if is_cli:
        shutil.rmtree(workloads.OUT / "cli-run", ignore_errors=True)
        peak_kb = max((r.get("maxrss_kb", 0) for r in cli_reports), default=0)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # A job's latency is the best its slot reached over the run's passes, so
    # that the host's slow phases, which last seconds to minutes, weigh less.
    best = {k: min(v) for k, v in slots.items()}
    best_jobs = [best[k] for k, v in slots.items() for _ in v]
    tail, pct, beyond = tail_latency(best_jobs)
    result = {
        "passes": len(passes),
        "passes_planned": planned,
        "loop_s": loop_s,
        "pass_s": passes,
        "wall_s": sum(best.values()),
        "latency_p50_s": statistics.median(best_jobs),
        "latency_tail_s": tail,
        "latency_tail_percentile": pct,
        "latency_tail_beyond": beyond,
        "raw": {
            "median_pass_s": statistics.median(passes),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_latency(latencies)[0],
        },
        "family_p50_s": {f: [statistics.median(xs), len(xs)] for f, xs in by_family.items()},
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "unknown_failures": unknown_failures,
        "known_defects": known,
        "failures": failures,
        "env": environment(),
    }
    if grid_s:
        result["grid_points_per_s"] = grid_points / grid_s
    if args.trace:
        spans = child_spans if is_cli else tracer.spans
        if tracer:
            tracer.paused = True
        probe = grid_probe() if args.workload == "pseudospectrum" and not args.tiny else None
        result["layers"] = layer_metrics(spans, len(passes), cli_reports, probe)
        workloads.OUT.mkdir(parents=True, exist_ok=True)
        path = workloads.OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracing.write_spans(spans, path)
        result["spans_file"] = str(path.relative_to(workloads.ROOT))
        result["spans"] = len(spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
