"""Negative controls: the suites must fail when a phase, a degree, the state or a contraction of the engine is broken.

Each break is installed with ``monkeypatch`` only.  The gate runs the five grid
propositions and kms-preserve (``--len 2``) at n = 2, F in {I, diag:1,2} and
d in {(0,1), (0,0)}; each test pins which checks turn ``Unverified`` and which
requests stop with an error.  At d = (0,0) every phase is 1 and d' = d, so no
phase or degree break shows there.
"""

import dataclasses
import io
import itertools
from heapq import heappush

import pytest

from braidalg import algebra, braided, cli, simplify, uqf
from braidalg.algebra import GradedPoly, Letter, diag_matrix
from braidalg.scalars import ONE, zeta
from braidalg.simplify import verify_identity

PROPS = ("coproduct", "fundamental", "cuntz-action", "matricial", "quotient", "kms-preserve")


def unverified_checks():
    """(prop, F, d) -> the names of its Unverified checks, or its error line, for every gate request that has one."""
    out = {}
    for F in ("I", "diag:1,2"):
        for d in ("0,1", "0,0"):
            for prop in PROPS:
                buf, err = io.StringIO(), io.StringIO()
                argv = ["verify", "--prop", prop, "--n", "2", f"--d={d}", "--F", F, "--zeta", "formal", "--len", "2"]
                code = cli.run(argv, buf, err)
                bad = [l.strip().rsplit(":", 1)[0] for l in buf.getvalue().splitlines() if l.startswith("  ") and l.endswith(": Unverified")]
                if code == 1:
                    out[prop, F, d] = err.getvalue().strip()
                elif bad:
                    out[prop, F, d] = bad
    return out


def _unitary(tag):
    return [f"{tag} unitary: {side}({i},{j})" for i in (1, 2) for j in (1, 2) for side in ("col", "row")]


def _kms(rule):
    """kms-preserve's check names at n = 2, --len 2, in suite order, for the path pairs that ``rule`` holds for."""
    paths = [a for k in range(3) for a in itertools.product((1, 2), repeat=k)]
    return [f"alpha={list(a)} beta={list(b)}" for a in paths for b in paths if rule(a, b)]


def _invert_the_braiding(monkeypatch):
    """The product kernel's phase z^e becomes z^-e; the star and the dressing keep theirs."""
    kernel = algebra._multiply_into

    def inverted(terms, left, right):
        monkeypatch.setattr(algebra, "zeta", lambda e: zeta(-e))
        try:
            return kernel(terms, left, right)
        finally:
            monkeypatch.setattr(algebra, "zeta", zeta)

    monkeypatch.setattr(algebra, "_multiply_into", inverted)
    monkeypatch.setattr(braided, "_multiply_into", inverted)


def _drop_the_dressing(monkeypatch):
    """conjugate_matrix without its phase z^(d_i (d_j - d_i)): the plain entrywise star."""
    monkeypatch.setattr(uqf, "conjugate_matrix", lambda u, d: [[e.star() for e in row] for row in u])


def _swap_d_and_d_prime(monkeypatch):
    """The admissibility datum carries d' where d belongs, and d where d' belongs."""
    solve = uqf.solve_admissible

    def swapped(F, d):
        datum = solve(F, d)
        return datum and dataclasses.replace(datum, d=datum.d_prime, d_prime=datum.d)

    monkeypatch.setattr(uqf, "solve_admissible", swapped)


def _normalize_the_state_off_by_one(monkeypatch):
    """The Cuntz state gives n^-(|g|-1) on S_g S*_g for |g| >= 1, where it gives n^-|g|; tau(1) = 1 stays.

    Its values are n^-|g| on S_g S*_g and 0 elsewhere, so the break scales
    every value but 0 and 1 by n.  Unlike the doubled state of
    ``tests/test_uqf.py``, it leaves the state unital.
    """
    kms_state = uqf.kms_state

    def off_by_one(g, k):
        tau, n = kms_state(g, k), g.num_edges
        return lambda word: value * n if (value := tau(word)) and not value.is_one() else value

    monkeypatch.setattr(uqf, "kms_state", off_by_one)


def _combine_across_legs(monkeypatch):
    """``simplify._index`` with the leg dropped from the bucket key, so members found on different legs form one group."""

    def index(word, coeff, pair_index, buckets, heap, seq):
        for t in range(len(word) - 1):
            a, b = word[t], word[t + 1]
            entries = pair_index.get((a.symbol, b.symbol)) if a.leg == b.leg else None
            for fi, mi, inv, size in entries or ():
                prefix, suffix = word[:t], word[t + 2 :]
                key = (prefix, suffix, fi, 0)  # the unbroken key ends with a.leg
                found = buckets.setdefault(key, {})
                found[mi] = (word, coeff, coeff if inv is None else coeff * inv)
                if len(found) == size:
                    order = (-size, fi, simplify._order_key(prefix), simplify._order_key(suffix), 0)
                    heappush(heap, (order, next(seq), key))

    monkeypatch.setattr(simplify, "_index", index)


# Blind spots, by design: quotient and matricial form no product across legs, so
# they cannot see the braiding; matricial never conjugates, so it cannot see the
# dressing.  `U unitary` does turn Unverified under the inverted braiding: the
# star keeps the true phase, so U* is no longer U's adjoint in the broken product.
# kms-preserve ignores F; it sees the braiding only on paths of length 2.
BRAIDING = {
    "coproduct": _unitary("U") + _unitary("U'"),
    "fundamental": ["t unitary: col(1,1)", "t unitary: col(1,2)", "t unitary: row(1,2)", "t unitary: row(2,2)"],
    "cuntz-action": ["S'*S'(1,1)", "S'*S'(1,2)", "sum S'S'* = 1"],
    "kms-preserve": _kms(lambda a, b: len(a) == len(b) == 2 and a[0] != b[0]),
}
DRESSING = {
    "coproduct": ["U' split(1,1)", "U' split(2,2)"] + _unitary("U'"),
    "fundamental": ["t-bar(2,1)"],
    "cuntz-action": ["star formula j=1"],
    "quotient": ["(a)(1,2)", "(a)(2,1)"],
    "kms-preserve": _kms(lambda a, b: a != b and len(a) == len(b)),
}
# Blind spots, by design: coproduct and fundamental read d only from the datum,
# so they check the presentation at d' (which is -d at d0 = 0 with a diagonal F),
# as valid as the one at d, and stay Verified.  Matricial and quotient never
# build a datum.  Cuntz-action dresses
# with the request's d, which no longer matches its letters' degrees, so it stops
# with DegreeMismatch before any check; kms-preserve grades its isometries by
# the request's d and turns every equal-length off-diagonal check Unverified.
SWAP = {
    "cuntz-action": "error: DegreeMismatch: entry (1,2) has degree -1, expected 1",
    "kms-preserve": _kms(lambda a, b: a != b and len(a) == len(b)),
}
# Blind spots, by design: only kms-preserve applies the state (matricial's
# state is its own, normalized inside the suite).  No phase enters, so the
# break shows at d = (0,0) as well.
STATE = {"kms-preserve": _kms(lambda a, b: a == b and a)}


def test_the_unbroken_grid_verifies():
    assert unverified_checks() == {}


@pytest.mark.parametrize("brk, expected", [(_invert_the_braiding, BRAIDING), (_drop_the_dressing, DRESSING)], ids=["braiding", "dressing"])
def test_a_broken_phase_turns_the_suites_that_use_it_unverified(monkeypatch, brk, expected):
    brk(monkeypatch)
    assert unverified_checks() == {(prop, F, "0,1"): names for F in ("I", "diag:1,2") for prop, names in expected.items()}


def test_swapped_degree_tuples_stop_cuntz_action_and_fail_kms_preserve(monkeypatch):
    _swap_d_and_d_prime(monkeypatch)
    assert unverified_checks() == {(prop, F, "0,1"): names for F in ("I", "diag:1,2") for prop, names in SWAP.items()}


def test_a_state_normalized_off_by_one_turns_the_diagonal_kms_checks_unverified(monkeypatch):
    _normalize_the_state_off_by_one(monkeypatch)
    assert unverified_checks() == {(prop, F, d): names for F in ("I", "diag:1,2") for d in ("0,1", "0,0") for prop, names in STATE.items()}


def _u(i, j, leg):
    return GradedPoly.from_letter(Letter("u", (i, j), 0, leg=leg), 2)


def test_a_contraction_across_legs_verifies_a_false_identity(monkeypatch):
    # Blind spot: no gate check holds a complete family whose members lie on
    # different legs (coproduct at d = (0,1), F = I completes 88 groups, none
    # across legs), so the whole gate stays Verified under the break.  The control is a
    # false identity: u*[1,1] u[1,1] on leg 1 plus u*[2,1] u[2,1] on leg 2 is not
    # 1, but it holds one member of the column family u.col[1,1] on each leg.
    rels = uqf.build_uqf(uqf.make_datum(diag_matrix([ONE, ONE]), (0, 0))).presentation.rules
    one_leg = _u(1, 1, 1).star() * _u(1, 1, 1) + _u(2, 1, 1).star() * _u(2, 1, 1)
    across = _u(1, 1, 1).star() * _u(1, 1, 1) + _u(2, 1, 2).star() * _u(2, 1, 2)
    one = GradedPoly.one(2)
    assert (verify_identity(one_leg, one, rels).verdict, verify_identity(across, one, rels).verdict) == ("Verified", "Unverified")
    _combine_across_legs(monkeypatch)
    assert unverified_checks() == {}
    assert (verify_identity(one_leg, one, rels).verdict, verify_identity(across, one, rels).verdict) == ("Verified", "Verified")
