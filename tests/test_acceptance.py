"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance and runtime bound is pinned here; all symbolic checks are
exact (no tolerances), the only float tolerance is the 1e-12 residual of
float-mode spectral data.
"""

import io
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from braidalg.algebra import GradedPoly, Letter
from braidalg.cli import run
from braidalg.fusion import (
    FusionResult,
    Irrep,
    Word,
    all_words,
    dimension,
    fuse,
    fuse_results,
)
from braidalg.graphalg import (
    GraphData,
    check_dagger,
    cuntz_graph,
    cycle_graph,
    edge_letters,
    kms_eval,
    kms_state,
    vertex_matrix,
)
from braidalg.scalars import Scalar, ZetaSpec, zeta

GRID_N = (1, 2, 3)
GRID_PROPS = ("coproduct", "fundamental", "cuntz-action", "matricial", "quotient")


def _report(criterion: int, label: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {label}")
    assert ok, f"criterion {criterion} failed: {label}"


def _invoke(argv):
    out = io.StringIO()
    code = run(argv, out, io.StringIO())
    return code, out.getvalue()


def _grid_cases():
    for n in GRID_N:
        d_choices = {
            "0" * 1: ",".join("0" for _ in range(n)),
            "asc0": ",".join(str(i) for i in range(n)),
            "asc1": ",".join(str(i + 1) for i in range(n)),
        }
        f_choices = {
            "I": "I",
            "diag": "diag:" + ",".join(str(i + 1) for i in range(n)),
        }
        for d in d_choices.values():
            for F in f_choices.values():
                yield n, F, d


def test_criterion_1_theorem_replay_suite():
    start = time.monotonic()
    ok = True
    for n, F, d in _grid_cases():
        for prop in GRID_PROPS:
            code, out = _invoke(
                ["verify", "--prop", prop, "--n", str(n), "--d", d, "--F", F]
            )
            if code != 0:
                ok = False
                print(f"  unverified: prop={prop} n={n} F={F} d={d}\n{out}")
    elapsed = time.monotonic() - start
    _report(1, f"theorem replay over the (n, F, d) grid in {elapsed:.1f}s", ok and elapsed < 60)


def test_criterion_2_kms_preservation_depth_3():
    start = time.monotonic()
    code, out = _invoke(
        ["verify", "--prop", "kms-preserve", "--n", "2", "--d", "0,1", "--len", "3"]
    )
    elapsed = time.monotonic() - start
    _report(
        2,
        f"kms-preserve n=2 d=(0,1) len=3 exact in {elapsed:.1f}s",
        code == 0 and "Verified" in out and elapsed < 300,
    )


def test_criterion_3_kms_state_correctness():
    ok = True
    for n in (2, 3):
        g = cuntz_graph(n)
        k = check_dagger(g)
        # tau(S_a S*_b) = delta n^-|a| exactly, all paths of length <= 3
        for la in range(4):
            for lb in range(4):
                for alpha in g.paths(la):
                    for beta in g.paths(lb):
                        expect = (
                            Fraction(1, n ** la) if alpha == beta else Fraction(0)
                        )
                        ok = ok and kms_eval(g, k, alpha, beta) == expect
        # the sandwich identity on 100 random triples, exact
        tau = kms_state(g, k)
        S = edge_letters(g)
        rng = random.Random(1234 + n)
        for _ in range(100):
            length = rng.randint(1, 3)
            alpha = [rng.randrange(n) for _ in range(length)]
            beta = [rng.randrange(n) for _ in range(length)]
            x = tuple(
                S[rng.randrange(n)] if rng.random() < 0.5 else S[rng.randrange(n)].star()
                for _ in range(rng.randint(0, 4))
            )
            word = tuple(S[a] for a in alpha) + x + tuple(S[b].star() for b in reversed(beta))
            expect = (
                Scalar.from_fraction(Fraction(1, n ** length)) * tau(x)
                if alpha == beta
                else Scalar.from_fraction(0)
            )
            ok = ok and tau(word) == expect
        # normalization: sum over length-L paths of tau(S_a S*_a) = 1, L <= 3
        for L in range(4):
            ok = ok and sum(kms_eval(g, k, a, a) for a in g.paths(L)) == 1
    _report(3, "equilibrium state on the one-vertex graphs, exact equality", ok)


def test_criterion_4_dagger_condition():
    ok = True
    for n in (2, 3):
        k = check_dagger(cuntz_graph(n))
        ok = ok and k.exact and k.rho == n
    k = check_dagger(cycle_graph(2))
    ok = ok and k.exact and k.rho == 1 and k.vertex_weights == (Fraction(1, 2), Fraction(1, 2))
    # irrational Perron root: exact certification fails, float mode within 1e-12
    g = GraphData(2, ((0, 0), (0, 1), (1, 0)), (1, 1, 1))
    kf = check_dagger(g)
    D = vertex_matrix(g)
    residual = max(
        abs(sum(D[i][j] * kf.vertex_weights[j] for j in range(2)) - kf.rho * kf.vertex_weights[i])
        for i in range(2)
    )
    ok = ok and not kf.exact and residual < 1e-12
    _report(4, "spectral condition: exact on integer radii, float fallback < 1e-12", ok)


def test_criterion_5_fusion_ring():
    start = time.monotonic()
    ok = True
    words = list(all_words(4))
    irreps = [Irrep(0, w) for w in words]
    for n in (2, 3):
        for r in irreps:
            for s in irreps:
                rs = fuse(r, s)
                if rs.total_dimension(n) != dimension(r.w, n) * dimension(s.w, n):
                    ok = False
                if n == 2:
                    for t in irreps:
                        left = fuse_results(rs, FusionResult([t]))
                        right = fuse_results(FusionResult([r]), fuse(s, t))
                        if left != right:
                            ok = False
    ok = ok and fuse(Irrep(0, Word("a")), Irrep(0, Word("b"))) == FusionResult(
        [Irrep(0, Word("ab")), Irrep(0, Word(""))]
    )
    ok = ok and dimension(Word("ab"), 2) == 3
    elapsed = time.monotonic() - start
    _report(5, f"fusion ring exhaustive to length 4 in {elapsed:.1f}s", ok and elapsed < 30)


def _on_leg(leg, letter):
    return letter.on_leg(leg)


def _random_legged(rng, num_legs=3, max_terms=2, max_len=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(
            _on_leg(
                rng.randint(1, num_legs),
                Letter("x", (rng.randint(1, 3),), rng.randint(-2, 2)),
            )
            for _ in range(rng.randint(0, max_len))
        )
        terms[word] = zeta(rng.randint(-2, 2)) * rng.choice([1, 2, -1])
    return GradedPoly(terms, num_legs)


def test_criterion_6_structural_invariants():
    start = time.monotonic()
    rng = random.Random(2024)
    ok = True

    for _ in range(1000):  # braided associativity
        p, q, r = (_random_legged(rng, max_len=3) for _ in range(3))
        ok = ok and (p * q) * r == p * (q * r)

    for _ in range(1000):  # leg-sort confluence: explicit swap orders agree
        word = tuple(
            _on_leg(rng.randint(1, 3), Letter("x", (rng.randint(1, 3),), rng.randint(-2, 2)))
            for _ in range(rng.randint(0, 6))
        )
        bubble = list(word)
        e1 = 0
        changed = True
        while changed:
            changed = False
            for t in range(len(bubble) - 1):
                if bubble[t].leg > bubble[t + 1].leg:
                    e1 += bubble[t].degree * bubble[t + 1].degree
                    bubble[t], bubble[t + 1] = bubble[t + 1], bubble[t]
                    changed = True
        insert = list(word)
        e2 = 0
        for i in range(1, len(insert)):
            j = i
            while j > 0 and insert[j - 1].leg > insert[j].leg:
                e2 += insert[j - 1].degree * insert[j].degree
                insert[j - 1], insert[j] = insert[j], insert[j - 1]
                j -= 1
        ok = ok and bubble == insert and e1 == e2
        ok = ok and GradedPoly({word: zeta(0) * 1}, 3) == GradedPoly({tuple(bubble): zeta(e1)}, 3)

    for _ in range(1000):  # star involutivity
        p = _random_legged(rng)
        ok = ok and p.star().star() == p

    for _ in range(1000):  # degree additivity on homogeneous monomials
        p = _random_legged(rng, max_terms=1)
        q = _random_legged(rng, max_terms=1)
        prod = p * q
        if not prod.is_zero():
            ok = ok and prod.degree() == p.degree() + q.degree()

    for _ in range(1000):  # specialization is a ring homomorphism
        a = Scalar({(rng.randint(-4, 4), rng.choice([1, 2, 3])): Fraction(rng.randint(-5, 5))})
        b = Scalar({(rng.randint(-4, 4), rng.choice([1, 2, 3])): Fraction(rng.randint(-5, 5))})
        for N in (2, 3, 4, 6, 8):
            spec = ZetaSpec.root_of_unity(N)
            lhs = (a * b).specialize(spec)
            rhs = (a.specialize(spec) * b.specialize(spec)).specialize(spec)
            ok = ok and lhs == rhs
            ok = ok and (a + b).specialize(spec) == a.specialize(spec) + b.specialize(spec)

    elapsed = time.monotonic() - start
    _report(6, f"structural invariants, 1000 instances each, in {elapsed:.1f}s", ok and elapsed < 30)


def test_criterion_7_specialization_soundness():
    ok = True
    for n, F, d in _grid_cases():
        for prop in GRID_PROPS:
            for N in (3, 4, 8):
                code, out = _invoke(
                    [
                        "verify", "--prop", prop, "--n", str(n), "--d", d,
                        "--F", F, "--zeta", f"root:{N}",
                    ]
                )
                if code != 0:
                    ok = False
                    print(f"  regression: prop={prop} n={n} F={F} d={d} N={N}")
    _report(7, "formal verdicts re-verify at roots of unity N in {3,4,8}", ok)


def test_criterion_8_determinism():
    argvs = [
        ["verify", "--prop", "coproduct", "--n", "2", "--d", "0,1", "--trace"],
        ["verify", "--prop", "cuntz-action", "--n", "3", "--d", "1,2,3", "--trace"],
        ["verify", "--prop", "kms-preserve", "--n", "2", "--d", "0,1", "--len", "2", "--trace"],
        ["presentation", "--F", "diag:1,2", "--n", "2", "--d", "0,1"],
        ["bosonize", "--F", "I", "--n", "2", "--d", "0,1"],
        ["dims", "--n", "2", "--maxlen", "4"],
    ]
    ok = all(_invoke(argv) == _invoke(argv) for argv in argvs)
    # across processes (fresh hash seeds), byte-identical stdout
    cmd = [
        sys.executable, "-m", "braidalg.cli",
        "verify", "--prop", "coproduct", "--n", "2", "--d", "0,1", "--trace",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = ok and first.stdout == second.stdout and first.returncode == second.returncode == 0
    _report(8, "byte-identical reports and traces across runs", ok)
