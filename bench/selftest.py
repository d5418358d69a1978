#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark, run from the root of the checkout.

    python3 bench/selftest.py

For every workload named in BENCHMARK.json it runs ``bench/run.py`` at tiny
size, untraced and traced, and checks that the last output line is the result
object: exactly the keys correct/attempted/failed/metrics, every output check
passed, and exactly the metrics BENCHMARK.json names for that mode (end-to-end
untraced, per-layer traced), each a finite number in its declared unit.

It then copies only BENCHMARK.json and the benchmark directories into
``bench/out/bare`` and checks that the benchmark exits non-zero there without
printing a result. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 170


def run(cwd: Path, spec: dict, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*spec["command"], "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    cmd += ["--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, spec, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{where}: checks failed: {proc.stdout.strip().splitlines()[-2][-400:]}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        missing, extra = sorted(set(declared) - set(metrics)), sorted(set(metrics) - set(declared))
        errors.append(f"{where}: missing {missing}, extra {extra}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} = {value!r}")
        if m.get("unit") != declared.get(name):
            errors.append(f"{where}: {name} unit {m.get('unit')!r}, declared {declared.get(name)!r}")
    return errors


def check_bare(spec: dict) -> list[str]:
    """Without the package source the benchmark must fail and print no result."""
    bare = ROOT / "bench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run(bare, spec, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            errs = check_result(spec, w["name"], trace)
            print(f"{w['name']} --trace {trace}: {'ok' if not errs else 'FAIL'}", flush=True)
            errors += errs
    errs = check_bare(spec)
    print(f"bare directory fails cleanly: {'ok' if not errs else 'FAIL'}")
    errors += errs
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
