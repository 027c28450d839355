"""The braidalg benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload replay-grid --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports braidalg from
``src/`` and from nowhere else.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.  The last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``; the
lines above it are the same numbers for a reader, with sample counts and
``failed_frac``.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import REFERENCE_S, reference_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is measured on this many fresh processes, each between two runs of
# the reference loop and scaled like the request times
SETUP_PROBES = 6
# every process this script starts must end within this many seconds
TIMEOUT_S = 170


def _start_worker(args, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Run one worker process; return its set-up time and the rest of its stdout."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    launched = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("benchmark worker did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark worker exited with code {proc.returncode}")
    ready, _, rest = out.partition("\n")
    tag, _, stamp = ready.partition(" ")
    if tag != "READY":
        raise RuntimeError(f"benchmark worker did not report set-up: {ready!r}")
    return float(stamp) - launched, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "braidalg" / "__init__.py").is_file():
        print(f"error: no braidalg source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            before = reference_seconds()
            setup = _start_worker(args, True, deadline)[0]
            setups.append(setup * REFERENCE_S / ((before + reference_seconds()) / 2))
        _, out = _start_worker(args, False, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    notes = result.pop("notes")
    metrics = result["metrics"]
    if setups:
        metrics["setup_s"] = statistics.median(setups)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: the run did not measure {', '.join(missing)}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {notes['passes']} x {notes['requests_per_pass']} requests  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"failed_frac {result['failed'] / result['attempted']:.6g}")
    print(f"  times in reference seconds: measured times x {notes['host_scale']:.4g} (median host-speed scale)")
    detail = {
        "wall_s": "median per-pass time",
        "verdict_ms_p50": f"median of {notes['samples']} requests",
        "verdict_ms_tail": f"p{notes['tail_percentile']} of {notes['samples']} requests",
        "setup_s": f"median of {len(setups)} fresh processes",
    }
    for m in wanted:
        name = m["name"]
        print(f"  {name:28s} {metrics[name]:>14.6g} {m['unit']:6s} {detail.get(name, '')}")
    if "spans_file" in notes:
        print(f"  spans of the first traced pass: {notes['spans_file']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
