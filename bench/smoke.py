"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

Runs every workload once at a tiny size, untraced and traced, through
run.py, and checks that the result line has the contract's keys, that
every metric BENCHMARK.json names is present with its unit, that the
spans of each traced operation nest under one root, and that their self
times sum to the traced total.  It also checks that run.py fails,
without printing a result, in a directory that holds only
BENCHMARK.json and bench/.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(root, workload, trace):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def _check_result(proc, wanted, trace) -> list:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.splitlines()
    result, meta = json.loads(lines[-1]), json.loads(lines[-2])["meta"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"operations failed: {meta['problems']}")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']} = {got}")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append("metrics beyond BENCHMARK.json's list")
    if trace:
        for op, c in enumerate(meta["span_checks"]):
            if c["roots"] != 1 or c["nesting_problems"]:
                problems.append(f"traced op {op}: {c['roots']} roots, {c['nesting_problems']}")
            if not math.isclose(c["self_sum_s"], c["total_s"], rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"traced op {op}: self times sum to {c['self_sum_s']}, "
                                f"total {c['total_s']}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            problems = _check_result(_run(ROOT, w["name"], trace), wanted, trace)
            status = "ok  " if not problems else "FAIL"
            print(f"{status} {w['name']} --trace {trace} {'; '.join(problems)}")
            failures += bool(problems)

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
        print(f"{'ok  ' if ok else 'FAIL'} bare directory exits {proc.returncode}")
        failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
