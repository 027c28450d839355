"""Every seed-0 benchmark request gives its recorded answer, byte for byte.

The requests are those of ``perfbench/workloads.py`` and the stdout digests
those of ``perfbench/golden.json``; both are read here, and nothing is
written under ``perfbench/``.
"""

import hashlib
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


@pytest.mark.parametrize("seed", [1, 2])
def test_verdicts_do_not_depend_on_the_contraction_order(monkeypatch, seed):
    """The engine is not confluent, so the canonical firing order could decide a verdict.
    Both of its keys, the first pass's word order and the candidate order, become a
    seeded stable hash of each word's text; every formal seed-0 replay-grid and
    kms-expand request must still be Verified."""
    from braidalg import simplify
    from braidalg.algebra import lword_str

    def key(word):
        return hashlib.sha256(f"{seed}:{lword_str(word)}".encode()).digest()

    traced = workloads._cli("verify", "--prop", "fundamental", "--n", "3", "--d=0,1,2", "--trace")
    canonical = workloads.execute(traced, cli.run, fusion.check_fusion_ring)
    monkeypatch.setattr(simplify, "_order_key", key)
    monkeypatch.setattr(simplify, "word_key", key)
    assert workloads.execute(traced, cli.run, fusion.check_fusion_ring) != canonical  # the new order is in force
    requests = [r for r in workloads.build("replay-grid", workloads.DEFAULT_SEED) if "root:8" not in r.argv]
    requests += workloads.build("kms-expand", workloads.DEFAULT_SEED)
    assert len(requests) == 96
    wrong = []
    for request in requests:
        code, text = workloads.execute(request, cli.run, fusion.check_fusion_ring)
        if why := workloads.failures(request, code, text, None):
            wrong.append((request.label, why))
    assert wrong == []


def test_shifting_the_degrees_changes_no_untraced_line():
    """d and d + c*1 give isomorphic presentations, so for n = 1..3, F in {I, diag} and
    every grid proposition, the untraced stdout at d = (0, ..., n-1) shifted by c in
    {1, -2} must equal that at d, apart from the ``prop:`` header line."""

    def run(prop, n, F, shift):
        d = ",".join(str(i + shift) for i in range(n))
        code, text = workloads.execute(workloads._cli("verify", "--prop", prop, "--n", str(n), f"--d={d}", "--F", F),
                                       cli.run, fusion.check_fusion_ring)
        header, *lines = text.splitlines()
        assert header.startswith(f"prop: {prop}  n={n}  d=({d})")
        return code, lines

    runs = 0
    for n in (1, 2, 3):
        for F in ("I", "diag:" + ",".join(str(i + 1) for i in range(n))):
            for prop in workloads.GRID_PROPS:
                code, lines = run(prop, n, F, 0)
                assert code == 0 and len(lines) > 1
                for shift in (1, -2):
                    assert run(prop, n, F, shift) == (code, lines), (prop, n, F, shift)
                runs += 3
    assert runs == 90
