"""Self-test of the benchmark: runs each workload at a tiny size, untraced and
traced, and asserts that every metric named in BENCHMARK.json is emitted
with its unit as a finite number, and that the result line is well formed.

    python3 perfbench/selftest.py            # all four workloads, ~2 minutes
    python3 perfbench/selftest.py spectra    # one workload
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pseudospectrum", "symbol-calculus", "spectra", "cli")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int, spec: dict) -> None:
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] is True, f"{workload}: unexpected failures"
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, (
        set(result["metrics"]) ^ {m["name"] for m in wanted}
    )
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m["name"], got)
        if not trace:
            assert got["value"] > 0, (m["name"], got)
    print(f"ok {workload} trace={trace}: {len(wanted)} metrics, "
          f"{result['failed']} failed of {result['attempted']}", flush=True)


def check_bare_directory_fails() -> None:
    """Without the sources the benchmark exits non-zero and prints no result."""
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "spectra", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170,
        )
    assert proc.returncode != 0, proc.returncode
    assert '"correct"' not in proc.stdout, proc.stdout
    print("ok bare directory: exit", proc.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sys.argv[1:] or WORKLOADS
    (HERE / "out").mkdir(exist_ok=True)
    check_bare_directory_fails()
    for w in names:
        for trace in (0, 1):
            check(w, trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
