"""Batch command-line front end.

Subcommands construct presentations, run the verification suites (``verify``
picks one from ``_SUITES`` by ``--prop``; only it takes ``--trace``), evaluate
the graph state, and compute fusion products.  All numeric output is exact
(rationals, radicals, phase-Laurent) unless a graph falls back to float
mode, which is flagged in the header line.  Exit code 0 means every
requested check passed; 2 means some check came back Unverified or
unsatisfied; 1 is an input error, any ValueError, printed after its class
name for an ``algebra.InputError``; 141, that the reader closed stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import sys
from itertools import accumulate

from .algebra import InputError, diag_matrix
from . import fusion as fusion_mod
from . import graphalg, uqf
from .scalars import FORMAL, Scalar, ZetaSpec, parse_scalar
from .simplify import EVENT_SINK, VerificationReport, render_step

__all__ = ["main", "run"]


def _parse_zeta(text: str) -> ZetaSpec:
    if text == "formal":
        return FORMAL
    if text.startswith("root:"):
        return ZetaSpec.root_of_unity(int(text.split(":", 1)[1]))
    raise ValueError(f"--zeta must be 'formal' or 'root:N', got {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _parse_matrix_text(text: str) -> list[list[Scalar]]:
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append([parse_scalar(tok) for tok in line.split()])
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix file must be square with one row per line")
    return rows


def _degrees(args) -> tuple[tuple[int, ...], int]:
    """--d and the size n, its length; --n, when given, must equal it."""
    d = _parse_int_list(args.d)
    if args.n not in (None, len(d)):
        raise ValueError("length of --d must equal --n")
    return d, len(d)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:  # a --graph or --F file that cannot be read is an input error
        raise ValueError(str(exc)) from exc


def _load_F(spec_text: str | None, n: int | None) -> list[list[Scalar]]:
    if spec_text is None or spec_text == "I":
        if n is None:
            raise ValueError("need --n to build an identity matrix")
        return diag_matrix([Scalar.from_fraction(1)] * n)
    if spec_text.startswith("diag:"):
        F = diag_matrix([parse_scalar(tok) for tok in spec_text[5:].split(",")])
    else:
        F = _parse_matrix_text(_read_file(spec_text))
    if n is not None and len(F) != n:
        raise ValueError(f"--F is {len(F)}x{len(F)}, expected {n}x{n}")
    return F


def _diag_entries(F: list[list[Scalar]]) -> list[Scalar]:
    n = len(F)
    for i in range(n):
        for j in range(n):
            if i != j and not F[i][j].is_zero():
                raise ValueError("this check needs a diagonal matrix")
    return [F[i][i] for i in range(n)]


_MAX_SIZE = 10**6  # the most path pairs or Perron products (kms), words (dims) or checks (kms-preserve) per request


def _refuse_above_bound(sizes, what: str, pairs: bool = False) -> None:
    """ValueError once the running total of sizes (its square, for pairs) passes _MAX_SIZE."""
    if any((total * total if pairs else total) > _MAX_SIZE for total in accumulate(sizes)):
        raise ValueError(f"more than 10^6 {what}")


class _StepText(list):
    """The ``--trace`` sink: ``append((check, events))`` renders that check's numbered
    step lines at once and keeps only their text, one string per check that fired."""

    steps = 0

    def append(self, item) -> None:
        check, events = item
        if events:
            first, self.steps = self.steps + 1, self.steps + len(events)
            super().append("".join([f"  step {k}: [{check}] {render_step(e)}\n" for k, e in enumerate(events, first)]))


def _emit_report(report: VerificationReport, out) -> int:
    """The report's verdict, check lines and residual, then the step text that the ``--trace`` sink kept."""
    out.write(report.render())
    out.writelines(EVENT_SINK.get() or ())
    return 0 if report.verified else 2


# -- subcommands -------------------------------------------------------------


def _cmd_admissible(args, out) -> int:
    d, n = _degrees(args) if args.d else (None, args.n)
    F = _load_F(args.F, n)
    d = d or tuple(range(len(F)))
    datum = uqf.solve_admissible(F, d)
    if datum is None:
        out.write("NoSolution\n")
        return 2
    out.write(f"d = ({','.join(map(str, datum.d))})\n")
    out.write(f"d' = ({','.join(map(str, datum.d_prime))})\n")
    out.write(f"d0 = {datum.d0}\n")
    return 0


def _cmd_presentation(args, out) -> int:
    d, n = _degrees(args)
    F = _load_F(args.F, n)
    pres = uqf.build_uqf(uqf.make_datum(F, d))
    out.write(pres.presentation.dump())
    return 0


def _cmd_bosonize(args, out) -> int:
    spec = _parse_zeta(args.zeta)
    d, n = _degrees(args)
    F = _load_F(args.F, n)
    boso = uqf.build_bosonization(uqf.make_datum(F, d))
    out.write(boso.presentation.dump())
    out.write("\n[coproduct]\n")
    for letter in boso.presentation.generators:
        out.write(f"Delta({letter}) = {boso.coproduct[letter]}\n")
    out.write("\n")
    report = uqf.derive_boso_coproduct(boso, spec)
    return _emit_report(report, out)


def _cmd_kms(args, out) -> int:
    if args.len < 0:
        raise ValueError("--len must be >= 0")
    g = graphalg.parse_graph(_read_file(args.graph))
    _refuse_above_bound([g.num_vertices**4], "products in the Perron check")  # one Faddeev-LeVerrier run
    _refuse_above_bound(g.path_counts(args.len), f"path pairs up to --len {args.len}", pairs=True)
    k = graphalg.check_dagger(g)
    out.write(f"graph: {g.num_vertices} vertices, {g.num_edges} edges\n")
    if k is None:
        out.write("dagger: NotSatisfied\n")
        return 2
    mode = "exact" if k.exact else "float"
    out.write(f"dagger: satisfied ({mode} mode)\n")
    out.write(f"rho = {k.rho}\n")
    weights = ", ".join(str(w) for w in k.vertex_weights)
    out.write(f"weights = ({weights})\n")
    out.writelines(graphalg.kms_table(g, k, args.len))
    return 0


def _kms_preserve(F, d, spec, length):
    _refuse_above_bound((len(d) ** k for k in range(length + 1)), f"checks up to --len {length}", pairs=True)
    return uqf.verify_kms_preservation(len(d), d, length, spec)


_SUITES = {
    "coproduct": lambda F, d, spec, _: uqf.verify_coproduct(uqf.build_uqf(uqf.make_datum(F, d)), spec),
    "fundamental": lambda F, d, spec, _: uqf.verify_fundamental_rep(uqf.make_datum(F, d), spec),
    "cuntz-action": lambda F, d, spec, _: uqf.cuntz_action(len(d), d, spec)[1],
    "kms-preserve": _kms_preserve,
    "matricial": lambda F, d, spec, _: uqf.derive_action_constraints(
        [(c * c.star()).as_fraction() for c in _diag_entries(F)], d, spec
    )[1],
    "quotient": lambda F, d, spec, _: uqf.verify_quotient_identities(_diag_entries(F), d, spec),
}


def _cmd_verify(args, out) -> int:
    spec = _parse_zeta(args.zeta)
    d, n = _degrees(args)
    F = _load_F(args.F, n)  # checked for every suite; cuntz-action and kms-preserve use F = I
    report = _SUITES[args.prop](F, d, spec, args.len)
    out.write(f"prop: {args.prop}  n={n}  d=({','.join(map(str, d))})  zeta={spec}\n")
    return _emit_report(report, out)


def _cmd_fusion(args, out) -> int:
    if args.n is not None and args.n < 1:
        raise ValueError("--n must be >= 1")
    left = fusion_mod.parse_irrep(args.left)
    right = fusion_mod.parse_irrep(args.right)
    result = fusion_mod.fuse(left, right)
    out.write(f"{result}\n")
    if args.n is None:
        return 0
    # the dims equation must hold, the same rule as check_fusion_ring's "dim" checks
    dims = [m * fusion_mod.dimension(r.w, args.n) for r, m in result.items()]
    total = fusion_mod.dimension(left.w, args.n) * fusion_mod.dimension(right.w, args.n)
    out.write(f"dims: {total} = {' + '.join(map(str, dims))}\n")
    return 0 if total == sum(dims) else 2


def _cmd_dims(args, out) -> int:
    if args.maxlen < 0:
        raise ValueError("--maxlen must be >= 0")
    _refuse_above_bound((2**k for k in range(args.maxlen + 1)), f"words up to --maxlen {args.maxlen}")
    for word in fusion_mod.all_words(args.maxlen):
        out.write(f"{word}\t{fusion_mod.dimension(word, args.n)}\n")
    return 0


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; parse_args keeps no state between requests."""
    parser = argparse.ArgumentParser(
        prog="braidalg",
        description="exact verification engine for phase-braided presentations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("admissible", help="solve the degree constraints for a matrix")
    p.add_argument("--F", help="matrix file, 'I', or 'diag:a,b,...'")
    p.add_argument("--d", help="comma-separated integer degrees")
    p.add_argument("--n", type=int, help="size (for --F I)")
    p.set_defaults(fn=_cmd_admissible)

    p = sub.add_parser("presentation", help="dump the braided unitary presentation")
    p.add_argument("--F", help="matrix file, 'I', or 'diag:a,b,...'")
    p.add_argument("--d", required=True)
    p.add_argument("--n", type=int)
    p.set_defaults(fn=_cmd_presentation)

    p = sub.add_parser("bosonize", help="dump the bosonization and re-derive its coproduct")
    p.add_argument("--F", help="matrix file, 'I', or 'diag:a,b,...'")
    p.add_argument("--d", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--zeta", default="formal")
    p.set_defaults(fn=_cmd_bosonize)

    p = sub.add_parser("kms", help="condition check, spectral data and state table")
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--len", type=int, default=1, help="table depth")
    p.set_defaults(fn=_cmd_kms)

    p = sub.add_parser("verify", help="run a proposition-level verification suite")
    p.add_argument("--prop", required=True, choices=list(_SUITES))
    p.add_argument("--n", type=int)
    p.add_argument("--d", required=True)
    p.add_argument("--F", help="matrix file, 'I', or 'diag:a,b,...' (default I)")
    p.add_argument("--len", type=int, default=3, help="path length bound for kms-preserve")
    p.add_argument("--zeta", default="formal", help="'formal' or 'root:N'")
    p.add_argument("--trace", action="store_true", help="print the rewriting trace")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("fusion", help="fuse two irreducibles")
    p.add_argument("--left", required=True, help="e.g. '(0; a)'")
    p.add_argument("--right", required=True)
    p.add_argument("--n", type=int, help="dimension parameter")
    p.set_defaults(fn=_cmd_fusion)

    p = sub.add_parser("dims", help="dimension table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True)
    p.set_defaults(fn=_cmd_dims)

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite `--d -1,2` as `--d=-1,2`; argparse takes a bare `-1,2` for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--d" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--d={arg}"
        else:
            out.append(arg)
    return out


def run(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        with contextlib.redirect_stderr(io.StringIO()) as usage, contextlib.redirect_stdout(out):
            args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        # argparse ends its complaint with "<prog>: error: <message>"
        err.write("error: " + usage.getvalue().rpartition(": error: ")[2])
        return 1
    sink = EVENT_SINK.set(_StepText() if getattr(args, "trace", False) else None)
    try:
        return args.fn(args, out)
    except ValueError as exc:
        kind = f"{type(exc).__name__}: " if isinstance(exc, InputError) else ""
        err.write(f"error: {kind}{exc}\n")
        return 1
    finally:
        EVENT_SINK.reset(sink)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader went away: end quietly, as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
