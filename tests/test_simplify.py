"""The reduction engine: local rewrites, complete contractions, verification."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from braidalg.algebra import GradedPoly, LegMismatch, Letter, _collect, lword_str, word_key
from braidalg.braided import embed
from braidalg.scalars import FORMAL, ONE, ZERO, Scalar, ZetaSpec, sqrt, zeta
from braidalg.simplify import (
    EVENT_SINK,
    CuntzFamilyRel,
    PairFamily,
    PhaseCommutationRel,
    RelationSet,
    UnitaryMatrixRel,
    VerificationReport,
    _index,
    _pop_ready,
    _rewrite,
    reduce_poly,
    render_step,
    verify_identity,
)
from braidalg.uqf import build_bosonization, build_uqf, make_datum


def S(i, deg=1):
    return Letter("S", (i,), deg)


def u(i, j, d):
    return Letter("u", (i, j), d[j - 1] - d[i - 1])


def word_poly(*letters, coeff=ONE):
    return GradedPoly({tuple(letters): coeff})


def cuntz_rels(n, d=None):
    d = d or (1,) * n
    return RelationSet([CuntzFamilyRel(tuple(S(i + 1, d[i]) for i in range(n)))])


def unitary_rels(d):
    n = len(d)
    mat = tuple(tuple(GradedPoly.from_letter(u(i + 1, j + 1, d)) for j in range(n)) for i in range(n))
    return RelationSet([UnitaryMatrixRel("u", mat)])


# -- cuntz reduction ---------------------------------------------------------------


def test_cuntz_star_same_index():
    assert reduce_poly(word_poly(S(1).star(), S(1)), cuntz_rels(2))[0] == GradedPoly.one()


def test_cuntz_star_different_index():
    assert reduce_poly(word_poly(S(1).star(), S(2)), cuntz_rels(2))[0].is_zero()


def test_cuntz_inner_contraction():
    # S1 S*2 S2 S*3: one inner contraction leaves S1 S*3
    p = word_poly(S(1), S(2).star(), S(2), S(3).star())
    got = reduce_poly(p, cuntz_rels(3))[0]
    assert got == word_poly(S(1), S(3).star())


def test_cuntz_reduction_redex_order_independent():
    # apply the relation at each redex order by hand on S*1 S1 S*2 S2
    p = word_poly(S(1).star(), S(1), S(2).star(), S(2))
    # left redex first: (S*1 S1) -> 1, then S*2 S2 -> 1
    # right redex first: S*2 S2 -> 1, then S*1 S1 -> 1; both give 1
    assert reduce_poly(p, cuntz_rels(2))[0] == GradedPoly.one()


def _random_reduce(word, rng, n):
    """Reference reducer applying S*_i S_j -> delta at a random redex each step."""
    coeff = 1
    word = list(word)
    while True:
        redexes = [
            t
            for t in range(len(word) - 1)
            if word[t].starred and not word[t + 1].starred
        ]
        if not redexes:
            return tuple(word), coeff
        t = rng.choice(redexes)
        if word[t].index != word[t + 1].index:
            return None, 0
        del word[t : t + 2]


@given(st.integers(0, 500))
@settings(max_examples=80)
def test_cuntz_confluence_random_orders(seed):
    rng = random.Random(seed)
    n = 3
    fam = [S(i + 1) for i in range(n)]
    word = tuple(
        rng.choice(fam) if rng.random() < 0.5 else rng.choice(fam).star()
        for _ in range(rng.randint(0, 10))
    )
    engine = reduce_poly(GradedPoly({word: ONE}), cuntz_rels(n))[0]
    ref_word, ref_coeff = _random_reduce(word, rng, n)
    if ref_coeff == 0:
        assert engine.is_zero()
    else:
        assert engine == GradedPoly({ref_word: ONE})


def test_a_swap_exposes_a_redex_one_place_to_its_left():
    # x unitary, x*y = z y*x: y moves right past x and x*; each swap at t makes
    # a pair at t - 1 that fires next, and the leftmost redex always fires first
    x, y = Letter("x", (), 1), Letter("y", (), 1)
    unitary = UnitaryMatrixRel("x", ((GradedPoly.from_letter(x),),))
    rels = RelationSet([unitary, PhaseCommutationRel(((x, y, zeta(1)),))])
    trace = []
    assert _rewrite((x.star(), y, x, x, x.star()), ONE, rels.pair_rules, trace) == ((y,), zeta(-1))
    assert [render_step(e) for e in trace] == [
        "rule swap yx->(z^-1)*xy at j1(x**y*x*x*x*)",
        "rule local x*x->(1) at j1(x**x*y*x*x*)",
        "rule swap yx->(z^-1)*xy at j1(y*x*x*)",
        "rule swap yx*->(z)*x*y at j1(x*y*x*)",
        "rule local xx*->(1) at j1(x*x**y)",
    ]


@pytest.mark.parametrize("order", [1, -1], ids=["unitary-first", "commutation-first"])
def test_a_local_rule_wins_a_pair_shared_with_a_commutation(order):
    # x commuting with x* compiles swaps on (x, x*) and (x*, x), the pairs of x's local rules
    x = Letter("x", (), 1)
    unitary = UnitaryMatrixRel("x", ((GradedPoly.from_letter(x),),))
    commutation = PhaseCommutationRel(((x.star(), x, zeta(1)),))
    rels = RelationSet([unitary, commutation][::order])
    for word in ((x, x.star()), (x.star(), x)):
        assert rels.pair_rules[word[0].symbol, word[1].symbol] == (ONE, False)
        reduced, trace = reduce_poly(word_poly(*word), rels)
        assert reduced == GradedPoly.one()
        assert [render_step(e) for e in trace] == [f"rule local {word[0]}{word[1]}->(1) at {lword_str(word)}"]


def test_a_letter_of_another_degree_finds_no_rule():
    # the tables key by the whole leg-1 letter, degree included; a request gives each generator one degree
    rels, heavy = cuntz_rels(2), S(1, deg=2)
    for word in ((heavy.star(), S(1)), (S(1).star(), heavy), (heavy.star(), heavy)):
        got, trace = reduce_poly(word_poly(*word), rels)
        assert (got, trace) == (word_poly(*word), [])
    assert reduce_poly(word_poly(S(1), S(1).star()) + word_poly(S(2), S(2).star()), rels)[0] == GradedPoly.one()
    residual = word_poly(heavy, heavy.star()) + word_poly(S(2), S(2).star())
    assert reduce_poly(residual, rels) == (residual, [])


# -- complete contractions ------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unitary_column_sum_contracts_to_one(n):
    d = tuple(range(n))
    rels = unitary_rels(d)
    p = GradedPoly.zero()
    for k in range(n):
        p = p + word_poly(u(k + 1, 1, d).star(), u(k + 1, 1, d))
    assert reduce_poly(p, rels)[0] == GradedPoly.one()


@pytest.mark.parametrize("n", [2, 3])
def test_unitary_column_sum_off_diagonal_contracts_to_zero(n):
    d = tuple(range(n))
    rels = unitary_rels(d)
    p = GradedPoly.zero()
    for k in range(n):
        p = p + word_poly(u(k + 1, 1, d).star(), u(k + 1, 2, d))
    assert reduce_poly(p, rels)[0].is_zero()


def test_cuntz_full_sum_inside_a_product():
    # a (S1 S*1 + S2 S*2) b -> a b for the 2-element family
    a, b = Letter("a", (), 0), Letter("b", (), 0)
    rels = cuntz_rels(2)
    p = word_poly(a, S(1), S(1).star(), b) + word_poly(a, S(2), S(2).star(), b)
    assert reduce_poly(p, rels)[0] == word_poly(a, b)


def test_contraction_needs_proportional_coefficients():
    d = (0, 1)
    rels = unitary_rels(d)
    # mismatched coefficients must NOT contract
    p = word_poly(u(1, 1, d).star(), u(1, 1, d)) + word_poly(
        u(2, 1, d).star(), u(2, 1, d), coeff=zeta(1)
    )
    assert reduce_poly(p, rels)[0] == p


def test_contraction_with_common_unit_coefficient():
    d = (0, 1)
    rels = unitary_rels(d)
    c = zeta(3) * 5
    p = GradedPoly.zero()
    for k in range(2):
        p = p + word_poly(u(k + 1, 1, d).star(), u(k + 1, 1, d), coeff=c)
    assert reduce_poly(p, rels)[0] == GradedPoly({(): c})


def test_numeric_spot_check_of_collapses_at_unbraided_specialization():
    """Contractions preserve the value under any assignment of the declared
    matrix to a concrete unitary with commuting entries at the trivial phase."""
    rng = np.random.default_rng(7)
    n = 3
    d = (0, 0, 0)  # all phases trivial
    rels = unitary_rels(d)
    # random unitary via QR
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q_mat, _ = np.linalg.qr(a)

    def value(poly):
        total = 0j
        for word, coeff in poly.items():
            x = complex(coeff.as_fraction())
            for letter in word:
                entry = q_mat[letter.index[0] - 1, letter.index[1] - 1]
                x *= np.conj(entry) if letter.starred else entry
            total += x
        return total

    for trial in range(20):
        i, j = rng.integers(1, n + 1), rng.integers(1, n + 1)
        p = GradedPoly.zero()
        for k in range(n):
            p = p + word_poly(u(k + 1, int(i), d).star(), u(k + 1, int(j), d))
        before = value(p)
        after = value(reduce_poly(p, rels)[0])
        assert abs(before - after) < 1e-9


def test_degree_preserved_by_reduction():
    d = (0, 1)
    rels = unitary_rels(d)
    p = GradedPoly.zero()
    for k in range(2):
        p = p + word_poly(u(k + 1, 1, d).star(), u(k + 1, 2, d), u(1, 2, d))
    deg = p.degree()
    reduced, _ = reduce_poly(p, rels)
    assert reduced.is_zero() or reduced.degree() == deg


# -- the verification engine ---------------------------------------------------------


def verify_with_events(*args):
    """verify_identity's report and the events it hands to a set EVENT_SINK."""
    sink = []
    token = EVENT_SINK.set(sink)
    try:
        report = verify_identity(*args)
    finally:
        EVENT_SINK.reset(token)
    [(_, events)] = sink
    return report, events


def test_syntactic_equality_verifies_with_empty_trace():
    d = (0, 1)
    p = word_poly(u(1, 2, d))
    report, events = verify_with_events(p, p, RelationSet())
    assert report.verified
    assert events == []
    # the report invariant: Verified iff the residual vanishes
    assert report.residual.is_zero()


def test_unrelated_generators_unverified_with_residual():
    d = (0, 1)
    lhs = word_poly(u(1, 2, d))
    rhs = word_poly(u(2, 1, d))
    report = verify_identity(lhs, rhs, unitary_rels(d))
    assert not report.verified
    assert report.residual == lhs - rhs


def test_coproduct_unitarity_instance():
    # sum_k U*_ki U_kj = delta_ij for U_ij = sum_k j1(u_ik) j2(u_kj), n=2, d=(0,1)
    d = (0, 1)
    n = 2
    rels = unitary_rels(d)

    def U(i, j):
        total = GradedPoly.zero(2)
        for k in range(1, n + 1):
            total = total + embed(1, word_poly(u(i, k, d)), 2) * embed(
                2, word_poly(u(k, j, d)), 2
            )
        return total

    for i in (1, 2):
        for j in (1, 2):
            lhs = GradedPoly.zero(2)
            for k in (1, 2):
                lhs = lhs + U(k, i).star() * U(k, j)
            rhs = GradedPoly.one(2) if i == j else GradedPoly.zero(2)
            report = verify_identity(lhs, rhs, rels, name=f"col({i},{j})")
            assert report.verified, report.render()


def test_wrong_phase_sum_is_not_contracted():
    # sum_k u_k1 u*_k2 without the phase dressing is NOT a relation when the
    # degrees differ; the engine must not confuse it with the dressed family
    d = (0, 1)
    base = unitary_rels(d)
    ubar_mat = tuple(
        tuple(
            GradedPoly.from_letter(u(i + 1, j + 1, d).star()) * zeta(d[i] * (d[j] - d[i]))
            for j in range(2)
        )
        for i in range(2)
    )
    rels = RelationSet([base.relations[0], UnitaryMatrixRel("ubar", ubar_mat)])
    plain = GradedPoly.zero()
    dressed = GradedPoly.zero()
    for k in range(2):
        plain = plain + word_poly(u(k + 1, 1, d), u(k + 1, 2, d).star())
        dressed = dressed + word_poly(
            u(k + 1, 1, d), u(k + 1, 2, d).star(), coeff=zeta(d[k] * (d[1] - d[0]))
        )
    assert not verify_identity(plain, GradedPoly.zero(), rels).verified
    assert verify_identity(dressed, GradedPoly.zero(), rels).verified


def test_trace_steps_name_declared_relations():
    d = (0, 1)
    rels = unitary_rels(d)
    p = GradedPoly.zero()
    for k in range(2):
        p = p + word_poly(u(k + 1, 1, d).star(), u(k + 1, 1, d))
    report, events = verify_with_events(p, GradedPoly.one(), rels)
    assert report.verified
    assert any(e[0] == "contract" for e in events), "a contraction step should be recorded"
    names = [fam.name for fam in rels.families] + ["local", "swap"]
    for line in map(render_step, events):
        assert any(name in line for name in names)


def test_reduction_is_deterministic():
    d = (0, 1)
    rels = unitary_rels(d)

    def run():
        p = GradedPoly.zero()
        for k in range(2):
            for l in range(2):
                p = p + word_poly(
                    u(k + 1, 1, d).star(), u(k + 1, 1, d), u(l + 1, 2, d).star(), u(l + 1, 2, d)
                )
        _, trace = reduce_poly(p, rels)
        return trace

    assert run() == run()


@given(st.integers(0, 300))
@settings(max_examples=60, deadline=None)
def test_reduction_is_idempotent(seed):
    rng = random.Random(seed)
    d = (0, 1, 2)
    rels = unitary_rels(d)
    letters = [u(i + 1, j + 1, d) for i in range(3) for j in range(3)]
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = tuple(
            rng.choice(letters).star() if rng.random() < 0.5 else rng.choice(letters)
            for _ in range(rng.randint(0, 5))
        )
        terms[word] = zeta(rng.randint(-2, 2)) * rng.choice([1, 2, -1])
    p = GradedPoly(terms)
    once, _ = reduce_poly(p, rels)
    twice, _ = reduce_poly(once, rels)
    assert once == twice


def test_verify_under_root_of_unity_specialization():
    # z^4 * w = w is false formally but true at the fourth root of unity
    x = Letter("x", (), 0)
    lhs = word_poly(x, coeff=zeta(4))
    rhs = word_poly(x)
    assert not verify_identity(lhs, rhs, RelationSet()).verified
    assert verify_identity(lhs, rhs, RelationSet(), ZetaSpec.root_of_unity(4)).verified


def test_verify_specializes_a_multi_term_coefficient():
    # 1 + z + z^2 is the third cyclotomic polynomial: zero at root:3 and at no other order
    x = Letter("x", (), 0)
    lhs = word_poly(x, coeff=1 + zeta(1) + zeta(2))
    zero = GradedPoly.zero()
    assert verify_identity(lhs, zero, RelationSet()).verdict == "Unverified"
    assert verify_identity(lhs, zero, RelationSet(), ZetaSpec.root_of_unity(3)).verdict == "Verified"
    assert verify_identity(lhs, zero, RelationSet(), ZetaSpec.root_of_unity(4)).verdict == "Unverified"


def test_unitary_letter_rules():
    z = Letter("z", (), 1)
    rels = RelationSet([UnitaryMatrixRel("z", ((GradedPoly.from_letter(z),),))])
    p = word_poly(z, z.star(), z, z.star())
    reduced, _ = reduce_poly(p, rels)
    assert reduced == GradedPoly.one()
    q = word_poly(z.star(), z)
    assert reduce_poly(q, rels)[0] == GradedPoly.one()


@pytest.mark.parametrize("legs", [(1,), (2,), (2, 2)], ids=str)
def test_equal_sides_verify_without_a_reduction(monkeypatch, legs):
    """Equal sides never reach reduce_poly: Verified, the zero on their legs, and
    (name, []) in a set sink; unequal sides still reduce, other legs still raise."""
    import braidalg.simplify as simplify_mod

    calls = []
    monkeypatch.setattr(simplify_mod, "reduce_poly", lambda p, rels: calls.append(p) or reduce_poly(p, rels))
    d = (0, 1)
    p = GradedPoly({(u(1, 2, d).on_leg(sum(legs)), u(2, 1, d)): zeta(1), (): ONE}, legs)
    rels = unitary_rels(d)
    sink = []
    token = EVENT_SINK.set(sink)
    try:
        report = verify_identity(p, p * 1, rels, FORMAL, "same")
        assert not calls
        assert report.verified and report.residual == GradedPoly.zero(legs) and report.residual.legs == legs
        assert sink == [("same", [])]
        assert not verify_identity(p, p + p, rels, FORMAL, "other").verified and len(calls) == 1
        with pytest.raises(LegMismatch):
            verify_identity(GradedPoly.one(legs), GradedPoly.one((3,)), rels)
    finally:
        EVENT_SINK.reset(token)
    assert [name for name, _ in sink] == ["same", "other"]


def test_report_merge_and_render():
    good = VerificationReport("a", "Verified")
    bad = VerificationReport("b", "Unverified", GradedPoly.one())
    merged = VerificationReport.merge("suite", [good, bad])
    assert merged.verdict == "Unverified"
    text = merged.render()
    assert "suite: Unverified" in text
    assert "a: Verified" in text


# -- complete groups lie on one leg --------------------------------------------------


def test_contraction_group_must_lie_on_one_leg():
    # j1(u*[1,1] u[1,1]) + j2(u*[2,1] u[2,1]) matches u.col[1,1] member by
    # member, but on two legs; it is not 1 in the braided square
    pres = build_uqf(make_datum([[1, 0], [0, 1]], (0, 0)))
    (u11, _), (u21, _) = pres.letters
    lhs = embed(1, word_poly(u11.star(), u11), 2) + embed(2, word_poly(u21.star(), u21), 2)
    report, events = verify_with_events(lhs, GradedPoly.one(2), pres.presentation.rules)
    assert report.verdict == "Unverified"
    assert report.residual == lhs - GradedPoly.one(2)
    assert events == []


# -- the incremental engine against a full-rescan oracle ----------------------------


def _rescan_line(event):
    """The oracle's own text of a ``_rewrite`` event (kind, word before, t, coefficient)."""
    kind, word, t, c = event
    a, b = word[t], word[t + 1]
    if kind == "swap":
        return f"rule swap {a}{b}->({c})*{b}{a} at {lword_str(word)}"
    return f"rule local {a}{b}->({c}) at {lword_str(word)}"


def rescan_ready(terms, rels):
    """Every complete proportional (prefix, suffix, family, leg) bucket of ``terms``,
    rebuilt from scratch with each coefficient divided by its member's, in
    canonical order: a list of (key, {member: (word, ratio)})."""
    buckets = {}
    for word, coeff in terms.items():
        for t in range(len(word) - 1):
            a, b = word[t], word[t + 1]
            for fi, fam in enumerate(rels.families):
                for mi, (x, y, c) in enumerate(fam.members):
                    if a.leg == b.leg and (a.symbol, b.symbol) == (x.symbol, y.symbol):
                        key = (word[:t], word[t + 2 :], fi, a.leg)
                        buckets.setdefault(key, {})[mi] = (word, coeff / c)
    ready = sorted(
        (-len(rels.families[key[2]].members), key[2], word_key(key[0]), word_key(key[1]), key[3], key)
        for key, found in buckets.items()
        if len(found) == len(rels.families[key[2]].members)
        and len({ratio for _, ratio in found.values()}) == 1
    )
    return [(entry[-1], buckets[entry[-1]]) for entry in ready]


def rescan_reduce(p, rels):
    """Reference engine: after a full local pass, rebuild every (prefix, suffix,
    family, leg) bucket, dividing each coefficient by its member's, and fire
    the first complete proportional group in canonical order.  Returns the
    residual and the trace as text, formatted here independently of
    ``render_step``."""
    trace = []
    terms = p._terms
    while True:
        events = []
        rewritten = (
            _rewrite(w, terms[w], rels.pair_rules, events)
            for w in sorted(terms, key=word_key)
        )
        terms = _collect(rewritten)
        trace += map(_rescan_line, events)
        ready = rescan_ready(terms, rels)
        if not ready:
            return GradedPoly._make(terms, p.legs), trace
        (prefix, suffix, fi, leg), found = ready[0]
        fam = rels.families[fi]
        terms = dict(terms)
        for word, _ in found.values():
            del terms[word]
        trace.append(f"rule contract {fam.name} at {lword_str(prefix)}|...|{lword_str(suffix)} -> ({fam.rhs})")
        add = found[0][1] * fam.rhs
        if not add.is_zero():
            new = terms.get(prefix + suffix, ZERO) + add
            if new.is_zero():
                del terms[prefix + suffix]
            else:
                terms[prefix + suffix] = new


def test_contraction_rewrites_its_junction():
    # S*[1] (u*[1,1] u[1,1] + u*[2,1] u[2,1]) S[2]: the contraction leaves the
    # local redex S*[1] S[2] at its junction, which must still fire
    d = (0, 1)
    rels = RelationSet(cuntz_rels(2).relations + unitary_rels(d).relations)
    p = GradedPoly.zero()
    for k in (1, 2):
        p = p + word_poly(S(1).star(), u(k, 1, d).star(), u(k, 1, d), S(2))
    got, trace = reduce_poly(p, rels)
    assert got.is_zero()
    assert [render_step(e).split()[1] for e in trace] == ["contract", "local"]
    assert (got, [render_step(e) for e in trace]) == rescan_reduce(p, rels)


def test_contraction_that_cancels_a_member_of_another_group():
    # u[1,1] (sum_k u*[k,1] u[k,1]) u*[1,1] collapses onto u[1,1] u*[1,1],
    # cancelling the first member of the row sum; that sum is then incomplete
    d = (0, 1, 2)
    rels = unitary_rels(d)
    row = GradedPoly.zero()
    for k in (1, 2, 3):
        row = row + word_poly(u(1, k, d), u(1, k, d).star())
    p = -row
    for k in (1, 2, 3):
        p = p + word_poly(u(1, 1, d), u(k, 1, d).star(), u(k, 1, d), u(1, 1, d).star())
    got, trace = reduce_poly(p, rels)
    assert got == word_poly(u(1, 1, d), u(1, 1, d).star()) - row
    assert len(trace) == 1 and "u.col[1,1]" in render_step(trace[0])
    assert (got, [render_step(e) for e in trace]) == rescan_reduce(p, rels)


# relation set and number of legs of each differential case.  "cuntz" adds a
# unitary matrix to the Cuntz family, as the action on the Cuntz algebra does,
# so that a contraction can leave a local redex S*[i] S[j] at its junction;
# "diag" is the datum F = diag(1,2), d = (0,1), whose u' family has non-unit
# member coefficients.
_CASES = {
    "unitary": (unitary_rels((0, 1, 2)), 1),
    "cuntz": (RelationSet(cuntz_rels(2).relations + unitary_rels((0, 1)).relations), 1),
    "diag": (build_uqf(make_datum([[1, 0], [0, 2]], (0, 1))).presentation.rules, 2),
}
_COEFFS = (ONE, ONE, -ONE, zeta(1), zeta(-2) * 3, sqrt(2), Scalar.from_fraction(Fraction(1, 2)))


def _random_factor(rng, families, alphabet, legs):
    """A complete family on one leg, sometimes broken, or a single letter."""
    leg = rng.randint(1, legs)
    if rng.random() < 0.3:
        return GradedPoly({(rng.choice(alphabet).on_leg(leg),): rng.choice(_COEFFS)}, legs)
    coeff = rng.choice(_COEFFS)
    group = {(a.on_leg(leg), b.on_leg(leg)): c * coeff for a, b, c in rng.choice(families).members}
    if rng.random() < 0.2:  # break the group: drop a member or bend its coefficient
        word = rng.choice(sorted(group, key=word_key))
        group[word] = ZERO if rng.random() < 0.5 else group[word] * zeta(1)
    return GradedPoly(group, legs)


@pytest.mark.parametrize("case", sorted(_CASES))
@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_incremental_reduction_matches_rescan_oracle(case, seed):
    rng = random.Random(seed)
    rels, legs = _CASES[case]
    # two families per example, so that products nest groups inside groups
    families = rng.sample(rels.families, 2)
    alphabet = sorted({l for a, b, _ in families[0].members + families[1].members for l in (a, b)}, key=str)
    p = GradedPoly.zero(legs)
    for _ in range(rng.randint(1, 3)):
        chunk = GradedPoly.one(legs)
        for _ in range(rng.randint(1, 3)):
            chunk = chunk * _random_factor(rng, families, alphabet, legs)
        p = p + chunk
    got, got_trace = reduce_poly(p, rels)
    want, want_trace = rescan_reduce(p, rels)
    assert got == want
    assert [render_step(e) for e in got_trace] == want_trace


def test_unitary_and_diag_cases_have_no_pair_rules():
    # so the oracle comparison above also covers the skipped local pass
    assert not _CASES["unitary"][0].pair_rules and not _CASES["diag"][0].pair_rules
    assert _CASES["cuntz"][0].pair_rules


@pytest.mark.parametrize("case", sorted(_CASES))
def test_zero_reduces_to_zero_with_an_empty_trace(case):
    rels, legs = _CASES[case]
    zero = GradedPoly.zero(legs)
    got, trace = reduce_poly(zero, rels)
    assert got.is_zero() and got.legs == zero.legs and trace == []


def _lazy_index(rels):
    """An empty lazy index: its buckets, its heap, and the function that enters one term."""
    buckets, heap, seq = {}, [], itertools.count()
    return buckets, heap, lambda word, coeff: _index(word, coeff, rels.pair_index, buckets, heap, seq)


def _pops(heap, buckets, terms):
    """Every (key, ratio, members) the index yields, in order, firing none of them."""
    out = []
    while (ready := _pop_ready(heap, buckets, terms)) is not None:
        key, found = ready
        out.append((key, found[0][2], {mi: word for mi, (word, _, _) in found.items()}))
    return out


@pytest.mark.parametrize("case", sorted(_CASES))
@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_lazy_index_after_departures_and_returns_pops_as_a_fresh_index(case, seed):
    rng = random.Random(seed)
    rels, legs = _CASES[case]
    alphabet = sorted(
        {l.on_leg(leg) for fam in rels.families for a, b, _ in fam.members for l in (a, b) for leg in range(1, legs + 1)},
        key=lambda l: l.sort_key,
    )
    terms = {}
    for _ in range(rng.randint(1, 4)):  # family groups around a shared prefix and suffix, some incomplete
        fam, leg, coeff = rng.choice(rels.families), rng.randint(1, legs), rng.choice(_COEFFS)
        prefix = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 2)))
        suffix = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 2)))
        for a, b, c in fam.members:
            if rng.random() < 0.8:
                terms[prefix + (a.on_leg(leg), b.on_leg(leg)) + suffix] = c * coeff
    for _ in range(rng.randint(0, 4)):
        terms[tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 5)))] = rng.choice(_COEFFS)
    buckets, heap, index = _lazy_index(rels)
    for word, coeff in terms.items():
        index(word, coeff)
    first, words = dict(terms), sorted(terms, key=word_key)
    for _ in range(rng.randint(0, 2 * len(words))):
        if rng.random() < 0.15:  # pop a candidate and drop its members, as a firing does
            if (ready := _pop_ready(heap, buckets, terms)) is not None:
                for word, _, _ in ready[1].values():
                    del terms[word]
        elif (word := rng.choice(words)) in terms:
            del terms[word]
        else:  # back with its first coefficient, one proportional to it, or another
            terms[word] = coeff = first[word] * rng.choice((ONE, ONE, -ONE, zeta(1)))
            index(word, coeff)
    fresh_buckets, fresh_heap, fresh_index = _lazy_index(rels)
    for word, coeff in terms.items():
        fresh_index(word, coeff)
    got = _pops(heap, buckets, terms)
    assert got == _pops(fresh_heap, fresh_buckets, terms)
    assert got == [(key, found[0][1], {mi: word for mi, (word, _) in found.items()}) for key, found in rescan_ready(terms, rels)]


def test_a_bucket_refilled_with_a_non_proportional_member_does_not_fire():
    # u.col[1,1] completes, loses u*[2,1] u[2,1], and gets it back at twice its
    # coefficient: the bucket is full and every member is live, but it is not a
    # multiple of the family, so neither of its two pushes may fire
    rels = unitary_rels((0, 1))
    fam = rels.families[0]
    buckets, heap, index = _lazy_index(rels)
    terms = {(a, b): c for a, b, c in fam.members}
    for word, coeff in terms.items():
        index(word, coeff)
    a, b, c = fam.members[1]
    del terms[a, b]
    terms[a, b] = c * 2
    index((a, b), c * 2)
    assert len(heap) == 2
    assert _pop_ready(heap, buckets, terms) is None
    assert reduce_poly(GradedPoly(terms), rels) == (GradedPoly(terms), [])


def test_a_stale_push_does_not_fire_a_fired_bucket_refilled_in_part():
    # u.col[1,1] is pushed twice (a member is indexed again while the bucket is
    # full) and fires once; when one member comes back, the other push finds a
    # new bucket with one of two members, which is live and proportional
    rels = unitary_rels((0, 1))
    fam = rels.families[0]
    buckets, heap, index = _lazy_index(rels)
    terms = {(a, b): c for a, b, c in fam.members}
    for word, coeff in [*terms.items(), *terms.items()][:3]:
        index(word, coeff)
    assert len(heap) == 2
    _, found = _pop_ready(heap, buckets, terms)
    for word, _, _ in found.values():
        del terms[word]
    a, b, c = fam.members[0]
    terms[a, b] = c
    index((a, b), c)
    assert len(heap) == 1
    assert _pop_ready(heap, buckets, terms) is None


def _rule_fired(rels, a, b):
    """The rule ``_rewrite`` fires first on the word a b, as (coefficient, swap), or None."""
    trace = []
    _rewrite((a, b), ONE, rels.pair_rules, trace)
    return (trace[0][3], trace[0][0] == "swap") if trace else None


def _entries_filed(rels, a, b):
    """The (family, member, leg) of every bucket entry ``_index`` files the word a b under."""
    buckets = {}
    _index((a, b), ONE, rels.pair_index, buckets, [], itertools.count())
    return sorted((fi, mi, leg) for (_, _, fi, leg), found in buckets.items() for mi in found)


@pytest.mark.parametrize("leg", [1, 2, 3, 4, 7])
def test_a_same_leg_pair_finds_its_leg1_pairs_rules_and_a_cross_leg_pair_none(leg):
    """A bosonization's tables, read through ``_rewrite`` and ``_index``: a pair of letters on one
    leg, one that requests use (1-4) or not (7), finds the pair rule and the family entries of the
    same pair on leg 1, and a pair across legs finds neither."""
    pres = build_bosonization(make_datum([[1, 0], [0, 2]], (0, 1))).presentation
    rels, letters = pres.rules, [x for g in pres.generators for x in (g, g.star())]
    assert all(l.leg == 1 for l in letters)
    other = 2 if leg == 1 else 1
    for a, b in itertools.product(letters, repeat=2):
        a_leg, b_leg = a.on_leg(leg), b.on_leg(leg)
        assert _rule_fired(rels, a_leg, b_leg) == rels.pair_rules.get((a, b))
        assert _entries_filed(rels, a_leg, b_leg) == sorted((fi, mi, leg) for fi, mi, _, _ in rels.pair_index.get((a, b), ()))
        for x, y in ((a_leg, b.on_leg(other)), (a.on_leg(other), b_leg)):
            assert _rule_fired(rels, x, y) is None and _entries_filed(rels, x, y) == []
    pairs = list(itertools.product(letters, repeat=2))
    assert {rels.pair_rules[p][1] for p in pairs if p in rels.pair_rules} == {False, True}
    assert sum(len(rels.pair_index.get(p, ())) for p in pairs) == sum(len(fam.members) for fam in rels.families)


def _members_one_by_one(name, entries):
    """UnitaryMatrixRel's families from a matrix of (coefficient, letter), starring each member afresh."""
    n, families = len(entries), []
    for i in range(n):
        for j in range(n):
            rhs = ONE if i == j else ZERO
            col = tuple((entries[k][i][1].star(), entries[k][j][1], entries[k][i][0].star() * entries[k][j][0]) for k in range(n))
            row = tuple((entries[i][k][1], entries[j][k][1].star(), entries[i][k][0] * entries[j][k][0].star()) for k in range(n))
            families += [PairFamily(f"{name}.col[{i + 1},{j + 1}]", col, rhs), PairFamily(f"{name}.row[{i + 1},{j + 1}]", row, rhs)]
    return families


monomial_coeffs = st.one_of(
    st.integers(-6, 6).map(zeta),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool).map(Scalar.from_fraction),
    st.tuples(st.integers(-3, 3).filter(bool), st.integers(-4, 4)).map(lambda t: t[0] * zeta(t[1])),
)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_unitary_matrix_families_star_each_entry_once_and_equal_the_member_wise_families(data):
    n = data.draw(st.integers(2, 4))
    d = data.draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
    entries = [
        [(data.draw(monomial_coeffs), Letter("v", (i + 1, j + 1), d[j] - d[i], data.draw(st.booleans()))) for j in range(n)]
        for i in range(n)
    ]
    matrix = tuple(tuple(GradedPoly({(l,): c}) for c, l in row) for row in entries)
    starred, star = [], Scalar.star
    Scalar.star = lambda c: starred.append(c) or star(c)  # restored below; hypothesis runs no fixture per example
    try:
        rels = RelationSet([UnitaryMatrixRel("v", matrix)])
    finally:
        Scalar.star = star
    assert len(starred) == n * n  # 2 n^3 when each member stars its entry
    assert rels.families == _members_one_by_one("v", entries)
    assert not rels.pair_rules


def test_the_candidate_order_reads_its_order_key_cache_at_call_time(monkeypatch):
    import braidalg.simplify as simplify_mod

    assert simplify_mod._order_key.cache_parameters()["maxsize"] is not None
    seen = []

    def key(word):
        seen.append(word)
        return word_key(word)

    monkeypatch.setattr(simplify_mod, "_order_key", key)
    p = word_poly(S(1), S(1).star()) + word_poly(S(2), S(2).star())
    assert reduce_poly(p, cuntz_rels(2))[0] == GradedPoly.one()
    assert seen == [(), ()]
