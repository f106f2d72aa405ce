"""Span recording around the public functions of the bargspec modules.

`Tracer.install()` replaces every public module-level function of the traced
modules, in every `bargspec.*` namespace that binds it, by a wrapper that
records one span per call.  Nothing under `src/` is edited: the wrappers live
only in the traced process.  Spans stay in memory until `write_spans()`.

A span is (id, name, start, end, parent, job, thread, status, extra):
- parent is the innermost open span on the calling thread; on a thread with
  no open span (a grid-pool worker) it is the innermost open span of the
  client thread, so sigma_min calls on pool threads are children of the
  resolvent_grid call that spawned them;
- status is "ok", "expected" (an error type bargspec defines or a
  ValueError) or "unexpected" (anything else);
- extra holds counts read from arguments and return values (bytes of an
  assembled matrix, useful/computed products of a convolution, the
  sigma_min route, doublings of an eigensolve, grid size and workers).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

MODULES = ("bargmann", "quadratic", "symbols", "contours", "spectral", "cli")


def _module_of(name: str) -> str:
    return name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# counts taken at the call boundary


@functools.lru_cache(maxsize=None)
def _useful_products(na: int, nb: int, degree: int) -> int:
    """Products a[i, j] b[k, l] of an na x na and an nb x nb table whose
    output degree i + j + k + l is at most `degree`."""

    def histogram(n):  # entries (i, j) with i + j = s, s = 0..2n-2
        return [min(s, 2 * n - 2 - s) + 1 for s in range(2 * n - 1)]

    return sum(
        ca * cb
        for s, ca in enumerate(histogram(na))
        for t, cb in enumerate(histogram(nb))
        if s + t <= degree
    )


def _table_product_extra(args, kwargs, out, exc):
    a, b = args[0], args[1]
    degree = args[2] if len(args) > 2 else kwargs.get("degree")
    if degree is None:
        degree = max(a.degree, b.degree)
    na, nb = a.t.shape[0], b.t.shape[0]
    return {"useful": _useful_products(na, nb, degree), "computed": na * na * nb * nb}


def _matrix_bytes_extra(args, kwargs, out, exc):
    entries = getattr(out, "entries", None)
    return {"bytes": int(entries.nbytes)} if entries is not None else None


def _sigma_min_extra(args, kwargs, out, exc):
    mat = args[0]
    cutoff = args[2] if len(args) > 2 else kwargs.get("dense_cutoff", 512)
    return {"route": "svd" if mat.shape[0] <= cutoff else "lu"}


def _eigen_spectrum_extra(args, kwargs, out, exc):
    m = args[0]
    result = out if exc is None else getattr(exc, "result", None)
    if result is None or m.symbol is None:
        return None
    return {"doublings": int(round(math.log2(result.n_max_used / m.dim)))}


def _resolvent_grid_extra(args, kwargs, out, exc):
    from bargspec import spectral

    workers = args[3] if len(args) > 3 else kwargs.get("workers")
    return {"workers": spectral._worker_count() if workers is None else workers}


EXTRAS = {
    "symbols.table_product": _table_product_extra,
    "bargmann.assemble_toeplitz": _matrix_bytes_extra,
    "bargmann.monomial_matrix": _matrix_bytes_extra,
    "bargmann.toeplitz_radial": _matrix_bytes_extra,
    "spectral.sigma_min": _sigma_min_extra,
    "spectral.eigen_spectrum": _eigen_spectrum_extra,
    "spectral.resolvent_grid": _resolvent_grid_extra,
}


def _is_expected(exc: BaseException) -> bool:
    return isinstance(exc, ValueError) or type(exc).__module__.startswith("bargspec")


# ---------------------------------------------------------------------------


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.job = -1
        self.paused = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        extra_fn = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._client_stack[-1] if self._client_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            out, err, status = None, None, "ok"
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                err = exc
                status = "expected" if _is_expected(exc) else "unexpected"
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = extra_fn(args, kwargs, out, err) if extra_fn else None
                if err is not None:
                    extra = dict(extra or {}, error=type(err).__name__, exc_id=id(err))
                self.spans.append(
                    (sid, name, t0, t1, parent, self.job, threading.get_ident(), status, extra)
                )

        return wrapper

    def install(self) -> None:
        """Wrap every public function defined in the traced modules, in every
        loaded bargspec namespace that binds it."""
        originals = {}
        for short in MODULES:
            mod = importlib.import_module(f"bargspec.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                originals[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "bargspec" or modname.startswith("bargspec.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])


def write_spans(spans: list[tuple], path) -> None:
    with gzip.open(path, "wt") as fh:
        fh.write("id\tname\tstart\tend\tparent\tjob\tthread\tstatus\n")
        for s in spans:
            fh.write("\t".join(str(x) for x in s[:8]) + "\n")


# ---------------------------------------------------------------------------
# aggregation


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals, clipped to
    the span.  Children on pool threads overlap each other; the union counts
    each covered instant once."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, _, t0, t1, parent, *_ in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _, t0, t1, *_ in spans:
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if b > t0 and a < t1]
        out[sid] = (t1 - t0) - _union_length(kids)
    return out


def summarise(spans: list[tuple]) -> dict:
    """Per-function calls, self time and extras, and per-module errors (one
    per exception object leaving the module, whichever depth raised it).
    Span lists of several processes may be concatenated once the caller has
    made their ids distinct."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "extra": defaultdict(float)}
    )
    route_self: dict[str, list[float]] = defaultdict(list)
    errors: dict[str, dict[str, set]] = {m: {"expected": set(), "unexpected": set()} for m in MODULES}
    grid_child_s: dict[int, float] = defaultdict(float)
    names = {s[0]: s[1] for s in spans}
    for sid, name, t0, t1, parent, job, thread, status, extra in spans:
        rec = by_name[name]
        rec["calls"] += 1
        rec["self_s"] += selfs[sid]
        if extra:
            for k, v in extra.items():
                if isinstance(v, (int, float)) and k != "exc_id":
                    rec["extra"][k] += v
            if name == "spectral.sigma_min":
                route_self[extra["route"]].append(selfs[sid])
            if "exc_id" in extra:
                errors[_module_of(name)][status].add((job, extra["exc_id"]))
        if name == "spectral.sigma_min" and names.get(parent) == "spectral.resolvent_grid":
            grid_child_s[parent] += t1 - t0
    grid_capacity = sum(
        s[-1]["workers"] * (s[3] - s[2]) for s in spans if s[1] == "spectral.resolvent_grid" and s[-1]
    )
    return {
        "by_name": by_name,
        "route_self": route_self,
        "errors": {m: {k: len(v) for k, v in d.items()} for m, d in errors.items()},
        "pool_busy_s": sum(grid_child_s.values()),
        "pool_capacity_s": grid_capacity,
    }
