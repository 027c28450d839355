"""The reduction engine: local rewrites, complete contractions, verification."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from braidalg.algebra import CuntzFamilyRel, GradedPoly, Letter, UnitaryMatrixRel
from braidalg.braided import embed
from braidalg.scalars import FORMAL, ONE, Scalar, ZetaSpec, zeta
from braidalg.simplify import (
    RelationSet,
    VerificationReport,
    cuntz_reduce,
    reduce_poly,
    verify_identity,
)


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
    assert cuntz_reduce(word_poly(S(1).star(), S(1)), cuntz_rels(2)) == GradedPoly.one()


def test_cuntz_star_different_index():
    assert cuntz_reduce(word_poly(S(1).star(), S(2)), cuntz_rels(2)).is_zero()


def test_cuntz_inner_contraction():
    # S1 S*2 S2 S*3: one inner contraction leaves S1 S*3
    p = word_poly(S(1), S(2).star(), S(2), S(3).star())
    got = cuntz_reduce(p, cuntz_rels(3))
    assert got == word_poly(S(1), S(3).star())


def test_cuntz_reduction_redex_order_independent():
    # apply the relation at each redex order by hand on S*1 S1 S*2 S2
    p = word_poly(S(1).star(), S(1), S(2).star(), S(2))
    # left redex first: (S*1 S1) -> 1, then S*2 S2 -> 1
    # right redex first: S*2 S2 -> 1, then S*1 S1 -> 1; both give 1
    assert cuntz_reduce(p, cuntz_rels(2)) == GradedPoly.one()


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
    engine = cuntz_reduce(GradedPoly({word: ONE}), cuntz_rels(n))
    ref_word, ref_coeff = _random_reduce(word, rng, n)
    if ref_coeff == 0:
        assert engine.is_zero()
    else:
        assert engine == GradedPoly({ref_word: ONE})


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
    assert reduce_poly(p, rels)[0] == GradedPoly.from_scalar(c)


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


def test_syntactic_equality_verifies_with_empty_trace():
    d = (0, 1)
    p = word_poly(u(1, 2, d))
    report = verify_identity(p, p, RelationSet())
    assert report.verified
    assert report.trace == []
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
            assert report.verified, report.render(True)


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
    report = verify_identity(p, GradedPoly.one(), rels)
    assert report.verified
    assert report.trace, "a contraction step should be recorded"
    names = [fam.name for fam in rels.families] + ["local", "swap"]
    for line in report.trace:
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


def test_unitary_letter_rules():
    z = Letter("z", (), 1)
    rels = RelationSet([UnitaryMatrixRel("z", ((GradedPoly.from_letter(z),),))])
    p = word_poly(z, z.star(), z, z.star())
    reduced, _ = reduce_poly(p, rels)
    assert reduced == GradedPoly.one()
    q = word_poly(z.star(), z)
    assert reduce_poly(q, rels)[0] == GradedPoly.one()


def test_report_merge_and_render():
    good = VerificationReport("a", "Verified")
    bad = VerificationReport("b", "Unverified", GradedPoly.one())
    merged = VerificationReport.merge("suite", [good, bad])
    assert merged.verdict == "Unverified"
    text = merged.render()
    assert "suite: Unverified" in text
    assert "a: Verified" in text
