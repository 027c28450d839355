"""Every seed-0 benchmark request gives its recorded answer, byte for byte.

The requests are those of ``perfbench/workloads.py`` and the stdout digests
those of ``perfbench/golden.json``; both are read here, and nothing is
written under ``perfbench/``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from braidalg import cli, fusion

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their class's module up
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()

# requests per seed-0 pass; a smaller pass would check less than the benchmark does
_REQUESTS = {"replay-grid": 180, "kms-expand": 6, "trace-grid": 90, "fusion-audit": 8}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_zero_request_matches_its_golden_digest(workload):
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))[workload]
    requests = workloads.build(workload, workloads.DEFAULT_SEED)
    assert len(requests) == _REQUESTS[workload]
    wrong = []
    for request in requests:
        code, text = workloads.execute(request, cli.run, fusion.check_fusion_ring)
        if why := workloads.failures(request, code, text, golden):
            wrong.append((request.label, why))
    assert wrong == []
