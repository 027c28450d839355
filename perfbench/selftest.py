"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

It checks three things and exits 0 when all hold (about a minute):

1. a wrong expected verdict or a wrong golden digest counts as a failed
   request, both in the request check and in a full run (``failed_frac > 0``);
2. ``run.py`` prints every metric that ``BENCHMARK.json`` names, with its
   unit, for ``--trace 0`` and ``--trace 1``;
3. two traced runs give identical counts (calls, products, rule firings).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from braidalg import cli, fusion  # noqa: E402

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(root: Path, workload: str, trace: int, seed: int = 0) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def check_wrong_answers_fail() -> None:
    for workload in workloads.WORKLOADS:
        request = workloads.warmup(workload)
        code, text = workloads.execute(request, cli.run, fusion.check_fusion_ring)
        right = {request.label: workloads.digest(text)}
        assert workloads.failures(request, code, text, right) == []
        wrong_verdict = dataclasses.replace(request, expect="Unverified")
        assert workloads.failures(wrong_verdict, code, text, right)
        assert workloads.failures(request, code, text, {request.label: "0" * 64})

    # the same through a whole run, on a copy whose golden digests are wrong
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(HERE, copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
        golden_file = copy / "perfbench" / "golden.json"
        golden = json.loads(golden_file.read_text(encoding="utf-8"))
        first = next(iter(golden["fusion-audit"]))
        golden["fusion-audit"][first] = "0" * 64
        golden_file.write_text(json.dumps(golden), encoding="utf-8")
        result, text = run_bench(copy, "fusion-audit", 0)
    assert not result["correct"] and result["failed"] > 0, result
    assert "failed_frac 0 " not in text and "failed_frac" in text, text
    print(f"ok: a wrong digest fails {result['failed']} of {result['attempted']} requests")


def check_metrics_and_units(trace: int, workload: str) -> dict:
    result, text = run_bench(ROOT, workload, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0, result
    assert list(result["metrics"]) == [m["name"] for m in wanted], result["metrics"].keys()
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in text.splitlines()), m
    print(f"ok: --trace {trace} prints all {len(wanted)} metrics with their units")
    return result["metrics"]


def is_count(metric: dict) -> bool:
    return metric["unit"] in ("count", "bytes") or metric["name"].endswith("_ratio")


def main() -> int:
    check_wrong_answers_fail()
    check_metrics_and_units(0, "trace-grid")
    first = check_metrics_and_units(1, "trace-grid")
    second, _ = run_bench(ROOT, "trace-grid", 1)
    counts = [m["name"] for m in SPEC["per_layer"] if is_count(m)]
    differ = [n for n in counts if first[n]["value"] != second["metrics"][n]["value"]]
    assert not differ, differ
    assert first["simplify.residual_terms"]["value"] == 0
    assert first["simplify.fire_contract"]["value"] > 0
    print(f"ok: two traced runs agree on all {len(counts)} counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
