"""Fast self-test of the benchmark at tiny sizes.

Runs every workload of BENCHMARK.json once untraced and once traced with
``--tiny`` and checks the result line: ``correct`` is true, nothing failed,
and every end-to-end metric (untraced) or per-layer metric (traced) is
present with its unit and a finite value.  It then copies only
BENCHMARK.json and the benchmark's directories into ``.bench_out/isolated``
and checks that the command exits non-zero there without printing a result.

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Metrics the record reports by name and unit without a bound.
RECORD_ONLY = {
    "trials_per_s": "1/s",
    "latency_p50_ms": "ms",
    "recon_mse_over_bound": "ratio",
    "failed_frac": "ratio",
}


def run(cmd, cwd, timeout=170):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny",
    ]
    proc = run(cmd, ROOT)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]} {lines[-2:]}"]
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: {result['attempted']} attempted, {result['failed']} failed")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{where}: metrics differ: {sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {entry}, expected a finite number in {unit}")
    reported = record.get("reported", {})
    for name, unit in RECORD_ONLY.items():
        entry = reported.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: record's {name} = {entry}, expected a finite number in {unit}")
    for key in ("nproc", "cpu_model", "caches", "python", "numpy", "scipy", "git_describe", "seed"):
        if key not in record.get("machine", {}):
            problems.append(f"{where}: machine block lacks {key}")
    return problems


def check_isolated(bench: dict) -> list[str]:
    """The command must fail, printing no result, without the library."""
    isolated = ROOT / ".bench_out" / "isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    isolated.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", isolated / "BENCHMARK.json")
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, isolated / path, ignore=shutil.ignore_patterns("__pycache__"))
    workload = bench["workloads"][0]["name"]
    cmd = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = run(cmd, isolated)
    shutil.rmtree(isolated, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"isolated run: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            found = check_run(bench, w["name"], trace)
            print(f"{w['name']} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_isolated(bench)
    print(f"run without the library fails: {'ok' if not found else 'FAILED'}")
    problems += found
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
