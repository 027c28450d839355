"""One benchmark process: set up, report ready, run timed passes, print a JSON result.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 [--setup-only]

``run.py`` starts this process and reads its output; the metric definitions
are in ``README.md``.  Set-up is the import of braidalg, building the
requests from the seed and one small warm-up request; the worker then
prints ``READY <unix time>``.  The timed section is a closed loop with one
client: the requests of a pass are sent one after another, each only after
the previous verdict returned, and passes repeat until the next one would
end after ``--seconds``.  With ``--trace 1`` every second pass is traced and
the untraced passes in between give the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Host speed on a shared machine drifts by tens of percent, within seconds and
# over minutes, on every vCPU alike.  So a short fixed pure-Python reference
# loop (exact rationals, tuple-keyed dicts, a keyed sort: the kinds of work
# braidalg does, but no braidalg code) runs before a pass and again after each
# request once REFERENCE_EVERY_S of request time has gathered since the last
# one.  Each request's time is scaled by REFERENCE_S over the mean of the two
# reference times around it: times are seconds on a host on which the
# reference loop takes REFERENCE_S.
REFERENCE_S = 0.02
REFERENCE_EVERY_S = 0.1


def reference_seconds() -> float:
    """Time one run of the reference loop.

    The cyclic garbage collector is off while it runs, so that the objects
    braidalg keeps alive do not change the reference time.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(6000):
            key = (i % 37, i % 29)
            acc += Fraction(i % 7 + 1, i % 11 + 1)
            table[key] = table.get(key, 0) + acc.numerator % 1000
        sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
        return time.perf_counter() - start
    finally:
        gc.enable()


def timed_pass(requests, send, tracer) -> tuple[list, list[float], list[float]]:
    """Send every request once; return outputs, measured and scaled times."""
    outputs, times, scaled = [], [], []
    last_reference, pending = reference_seconds(), 0.0
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request_id = i
        start = time.perf_counter()
        outputs.append(send(request))
        times.append(time.perf_counter() - start)
        pending += times[-1]
        if pending >= REFERENCE_EVERY_S or i == len(requests) - 1:
            reference = reference_seconds()
            scale = REFERENCE_S / ((last_reference + reference) / 2)
            scaled.extend(t * scale for t in times[len(scaled):])
            last_reference, pending = reference, 0.0
    return outputs, times, scaled


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten of ``samples`` beyond it.

    It is computed from the samples a run always collects, so that it is the
    same in every run of a workload.
    """
    return math.floor(100 * (1 - 10 / samples))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import braidalg
    from braidalg import cli, fusion

    import tracer as tracing
    import workloads

    def send(request):
        return workloads.execute(request, cli.run, fusion.check_fusion_ring)

    requests = workloads.build(args.workload, args.seed)
    golden = None
    if args.seed == workloads.DEFAULT_SEED:
        golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))[args.workload]
    warm = workloads.warmup(args.workload)
    why = workloads.failures(warm, *send(warm), None)
    if why:
        print(f"error: warm-up request {warm.label!r} failed: {'; '.join(why)}", file=sys.stderr)
        return 1
    print(f"READY {time.time()!r}", flush=True)
    if args.setup_only:
        return 0

    min_passes = workloads.MIN_PASSES[args.workload]
    tracer = tracing.Tracer(braidalg) if args.trace else None
    first_digests: list[str] | None = None
    attempted = failed = 0
    errors: list[str] = []
    walls = {False: [], True: []}
    samples: list[float] = []
    scales: list[float] = []
    layer_runs: list[dict] = []
    spans: list = []

    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and (len(walls[False]) + len(walls[True])) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        pass_start = time.perf_counter()
        try:
            outputs, times, scaled = timed_pass(requests, send, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        pass_seconds = time.perf_counter() - pass_start
        wall = sum(scaled)
        scales.append(wall / sum(times))
        walls[traced].append(wall)
        if traced:
            out_bytes = sum(len(text.encode("utf-8")) for (_, text), r in zip(outputs, requests) if r.argv)
            layer = tracer.metrics([text for _, text in outputs], out_bytes)
            layer_runs.append({k: v * scales[-1] if k.endswith("_s") else v for k, v in layer.items()})
            if not spans:
                spans = list(tracer.spans)
        else:
            samples.extend(t * 1000 for t in scaled)

        digests = [workloads.digest(text) for _, text in outputs]
        for k, (request, (code, text)) in enumerate(zip(requests, outputs)):
            why = workloads.failures(request, code, text, golden)
            if first_digests is not None and digests[k] != first_digests[k]:
                why.append("stdout differs from this request's first pass")
            attempted += 1
            if why:
                failed += 1
                errors.append(f"{request.label}: {'; '.join(why)}")
        first_digests = first_digests or digests

        passes = len(walls[False]) + len(walls[True])
        if passes >= min_passes and time.perf_counter() - loop_start + pass_seconds > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced = walls[False]
    q = tail_percentile(len(requests) * min_passes)
    notes = {
        "passes": len(untraced) + len(walls[True]),
        "requests_per_pass": len(requests),
        "samples": len(samples),
        "tail_percentile": q,
        "host_scale": statistics.median(scales),
    }
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(untraced),
            "verdict_ms_p50": statistics.median(samples),
            "verdict_ms_tail": statistics.quantiles(samples, n=100, method="inclusive")[q - 1],
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        metrics = {}
        for name in layer_runs[0]:
            values = [run[name] for run in layer_runs]
            if isinstance(values[0], int):
                if len(set(values)) != 1:
                    errors.append(f"traced count {name} differs between passes: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["tracing_overhead"] = statistics.median(walls[True]) / statistics.median(untraced)
        spans_file = ROOT / ".perfbench_out" / f"spans-{args.workload}.jsonl"
        spans_file.parent.mkdir(exist_ok=True)
        tracing.write_spans(spans, spans_file)
        notes["spans_file"] = str(spans_file.relative_to(ROOT))

    for line in errors[:20]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
