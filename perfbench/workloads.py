"""The benchmark's workloads: the requests each one sends, made from a seed.

A request is one call a verifier user makes and waits on: a ``braidalg``
command line run through ``cli.run``, or one ``fusion.check_fusion_ring``
audit.  Every request here has the known answer ``Verified``.

At ``DEFAULT_SEED`` the degree tuples are the acceptance-test tuples
(all zeros, ascending from 0, ascending from 1) in their canonical order, and
each request's stdout must match the digest recorded in ``golden.json``.
Any other seed draws each degree from -2..3 and shuffles the request order.
Degree tuples are passed as ``--d=<tuple>``, because the CLI reads
``--d -1,2`` as a flag.
"""

from __future__ import annotations

import hashlib
import io
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

GRID_PROPS = ("coproduct", "fundamental", "cuntz-action", "matricial", "quotient")

WORKLOADS = ("replay-grid", "kms-expand", "trace-grid", "fusion-audit")

# Passes a run always makes.  They give at least 20 requests, and on the grids
# they put the tail percentile (the highest with ten requests beyond it) in the
# middle of the costliest group, the n=3 coproduct suites (1 request in 15),
# rather than at its edge.
MIN_PASSES = {"replay-grid": 2, "kms-expand": 4, "trace-grid": 3, "fusion-audit": 3}


@dataclass(frozen=True)
class Request:
    """One call into braidalg: ``argv`` for ``cli.run``, or ``fusion=(n, max_len)``."""

    label: str
    argv: tuple[str, ...] = ()
    fusion: tuple[int, int] | None = None
    expect: str = "Verified"


def _cli(*argv: str) -> Request:
    return Request(" ".join(argv), tuple(argv))


def _audit(n: int, max_len: int) -> Request:
    return Request(f"check_fusion_ring({n}, {max_len})", fusion=(n, max_len))


def _degree_tuples(rng: random.Random, n: int, seeded: bool) -> list[str]:
    if not seeded:
        tuples = [[0] * n, list(range(n)), list(range(1, n + 1))]
    else:
        tuples = [[rng.randint(-2, 3) for _ in range(n)] for _ in range(3)]
    return [",".join(map(str, t)) for t in tuples]


def _grid(rng: random.Random, seeded: bool, zetas: tuple[str, ...], extra: tuple[str, ...]) -> list[Request]:
    """The acceptance criterion-1 grid: n in 1..3, 3 degree tuples, F in {I, diag}, 5 props."""
    degrees = {n: _degree_tuples(rng, n, seeded) for n in (1, 2, 3)}
    out = []
    for zeta in zetas:
        for n in (1, 2, 3):
            for d in degrees[n]:
                for F in ("I", "diag:" + ",".join(str(i + 1) for i in range(n))):
                    for prop in GRID_PROPS:
                        out.append(
                            _cli("verify", "--prop", prop, "--n", str(n), f"--d={d}",
                                 "--F", F, "--zeta", zeta, *extra)
                        )
    return out


def build(workload: str, seed: int) -> list[Request]:
    """The requests of one pass over ``workload``; the same seed gives the same list."""
    rng = random.Random(seed)
    seeded = seed != DEFAULT_SEED
    if workload == "replay-grid":
        requests = _grid(rng, seeded, ("formal", "root:8"), ())
    elif workload == "trace-grid":
        requests = _grid(rng, seeded, ("formal",), ("--trace",))
    elif workload == "kms-expand":
        requests = [
            _cli("verify", "--prop", "kms-preserve", "--n", str(n), f"--d={d}", "--len", str(length))
            for n, length in ((2, 3), (3, 2))
            for d in _degree_tuples(rng, n, seeded)
        ]
    elif workload == "fusion-audit":
        # the audit's cost does not depend on n, so the seed only picks which n
        ns = list(range(2, 10)) if not seeded else rng.sample(range(2, 13), 8)
        requests = [_audit(n, 3) for n in ns]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if seeded:
        rng.shuffle(requests)
    return requests


def warmup(workload: str) -> Request:
    """A small request on the workload's code path, run once before timing."""
    return {
        "replay-grid": _cli("verify", "--prop", "fundamental", "--n", "2", "--d=0,1",
                            "--F", "diag:1,2", "--zeta", "root:8"),
        "trace-grid": _cli("verify", "--prop", "coproduct", "--n", "2", "--d=0,1", "--trace"),
        "kms-expand": _cli("verify", "--prop", "kms-preserve", "--n", "2", "--d=0,1", "--len", "1"),
        "fusion-audit": _audit(2, 2),
    }[workload]


def execute(request: Request, cli_run, check_fusion_ring) -> tuple[int, str]:
    """Send one request; return its exit code and stdout text."""
    if request.fusion is not None:
        report = check_fusion_ring(*request.fusion)
        return (0 if report.verified else 2), report.render()
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(list(request.argv), out, err)
    return code, out.getvalue()


def verdict(text: str) -> str | None:
    """The verdict on the report's header line (the first unindented line after ``prop:``)."""
    for line in text.splitlines():
        if line and not line.startswith((" ", "prop:")):
            return line.rsplit(": ", 1)[-1]
    return None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def failures(request: Request, code: int, text: str, golden: dict[str, str] | None) -> list[str]:
    """Why this answer is wrong; empty when the exit code, verdict and digest all match."""
    why = []
    if code != (0 if request.expect == "Verified" else 2):
        why.append(f"exit code {code}")
    got = verdict(text)
    if got != request.expect:
        why.append(f"verdict {got!r}, expected {request.expect!r}")
    if golden is not None and golden.get(request.label) != digest(text):
        why.append("stdout digest differs from golden.json")
    return why
