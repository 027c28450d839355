"""Leg-indexed words: commutation phases, sorting confluence, the flattening map."""

import random
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidalg.algebra import BadLeg, GradedPoly, LegMismatch, Letter
from braidalg.braided import BadShape, apply_state_pairs, embed, psi_flatten
from braidalg.graphalg import check_dagger, cuntz_graph, kms_state
from braidalg.scalars import ONE, Scalar, zeta

Z = Letter("z", (), 1)


def L(name, deg, *index):
    return Letter(name, tuple(index), deg)


def on_leg(leg, letter):
    return letter.on_leg(leg)


def one_term(num_legs, *pairs, coeff=ONE):
    word = tuple(letter.on_leg(leg) for leg, letter in pairs)
    return GradedPoly({word: coeff}, num_legs)


# -- reference sorters (independent oracles) -----------------------------------


def bubble_sort_phase(word):
    """Explicit adjacent-swap bubble sort; returns (sorted word, phase exponent)."""
    word = list(word)
    exponent = 0
    changed = True
    while changed:
        changed = False
        for t in range(len(word) - 1):
            if word[t].leg > word[t + 1].leg:
                exponent += word[t].degree * word[t + 1].degree
                word[t], word[t + 1] = word[t + 1], word[t]
                changed = True
    return tuple(word), exponent


def insertion_sort_phase(word):
    """Explicit adjacent-swap insertion sort; swap order differs from bubble sort."""
    word = list(word)
    exponent = 0
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1].leg > word[j].leg:
            exponent += word[j - 1].degree * word[j].degree
            word[j - 1], word[j] = word[j], word[j - 1]
            j -= 1
    return tuple(word), exponent


def random_legged_letters(rng, num_legs, length):
    out = []
    for _ in range(length):
        leg = rng.randint(1, num_legs)
        deg = rng.randint(-2, 2)
        out.append(Letter("x", (rng.randint(1, 3), abs(deg)), deg, leg=leg))
    return tuple(out)


# -- examples -------------------------------------------------------------------


def test_embed_tags_letters():
    d = (0, 1)
    letter = L("u", 1, 1, 2)
    p = embed(1, GradedPoly.from_letter(letter), 2)
    assert p == one_term(2, (1, letter))


def test_embed_is_multiplicative():
    s1, s2 = L("S", 1, 1), L("S", 1, 2)
    p = GradedPoly.from_letter(s1) * GradedPoly.from_letter(s2)
    assert embed(2, p, 3) == one_term(3, (2, s1), (2, s2))


def test_embed_unit():
    assert embed(1, GradedPoly.one(), 2) == GradedPoly.one(2)


def test_embed_bad_leg():
    with pytest.raises(BadLeg):
        embed(3, GradedPoly.one(), 2)


def test_embed_places_a_two_leg_polynomial_on_consecutive_legs():
    x, y = L("x", 1, 1), L("y", 2, 1)
    p = embed(1, GradedPoly.from_letter(x), 2) * embed(2, GradedPoly.from_letter(y), 2)
    expected = embed(2, GradedPoly.from_letter(x), 3) * embed(3, GradedPoly.from_letter(y), 3)
    assert embed(2, p, 3) == expected
    with pytest.raises(BadLeg):
        embed(3, p, 3)


def test_commutation_phase_instance():
    # second-leg letter of degree 3 moved past first-leg letter of degree 2
    x, y = L("x", 2), L("y", 3)
    out = one_term(2, (2, y)) * one_term(2, (1, x))
    assert out == one_term(2, (1, x), (2, y), coeff=zeta(6))


def test_degree_zero_letter_is_central_across_legs():
    x, y = L("x", 2), L("y", 0)
    out = one_term(2, (2, y)) * one_term(2, (1, x))
    assert out == one_term(2, (1, x), (2, y))


def test_single_adjacent_swap_example():
    # (j1(a) j2(b)) (j1(c) j2(d)) with deg b = deg c = 1 -> one swap, phase z
    a, b, c, d = L("a", 0), L("b", 1), L("c", 1), L("d", 0)
    left = one_term(2, (1, a), (2, b))
    right = one_term(2, (1, c), (2, d))
    got = left * right
    # brute-force oracle: sort the concatenation by explicit swaps
    word = tuple(letter.on_leg(leg) for leg, letter in [(1, a), (2, b), (1, c), (2, d)])
    sorted_word, exponent = bubble_sort_phase(word)
    assert exponent == 1
    assert got == GradedPoly({sorted_word: zeta(exponent)}, 2)
    assert got == one_term(2, (1, a), (1, c), (2, b), (2, d), coeff=zeta(1))


def test_leg_mismatch():
    with pytest.raises(LegMismatch):
        GradedPoly.one(2) * GradedPoly.one(3)


def test_degree_of_legged_examples():
    d = (0, 1)
    u12 = L("u", d[1] - d[0], 1, 2)
    u21 = L("u", d[0] - d[1], 2, 1)
    p = one_term(2, (1, u12)) * one_term(2, (2, u21))
    assert p.degree() == 0
    s1 = L("S", 1, 1)
    assert one_term(2, (1, s1)).degree() == 1
    mixed = one_term(2, (1, s1)) + one_term(2, (2, s1.star()))
    assert mixed.degree() is None


# -- properties -------------------------------------------------------------------


@given(st.integers(0, 400))
@settings(max_examples=60)
def test_sorting_is_swap_order_independent(seed):
    rng = random.Random(seed)
    word = random_legged_letters(rng, 3, rng.randint(0, 6))
    w1, e1 = bubble_sort_phase(word)
    w2, e2 = insertion_sort_phase(word)
    assert w1 == w2 and e1 == e2
    # and the implementation agrees with both
    p = GradedPoly({word: ONE}, 3)
    assert p == GradedPoly({w1: zeta(e1)}, 3)


@given(st.integers(0, 400))
@settings(max_examples=60)
def test_braided_mul_associative(seed):
    rng = random.Random(seed)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            terms[random_legged_letters(rng, 3, rng.randint(0, 3))] = zeta(rng.randint(-2, 2))
        return GradedPoly(terms, 3)

    p, q, r = rand_poly(), rand_poly(), rand_poly()
    assert (p * q) * r == p * (q * r)


@given(st.integers(0, 400))
@settings(max_examples=60)
def test_star_involutive_on_legged(seed):
    rng = random.Random(seed)
    word = random_legged_letters(rng, 3, rng.randint(0, 5))
    p = GradedPoly({word: zeta(rng.randint(-3, 3))}, 3)
    assert p.star().star() == p


def test_star_interacts_with_legs():
    # (j1(x) j2(y))* = z^(deg(y*) deg(x*)) j1(x*) j2(y*), by direct expansion
    for dx in (-2, -1, 0, 1, 2):
        for dy in (-2, -1, 0, 1, 2):
            x, y = L("x", dx), L("y", dy)
            lhs = one_term(2, (1, x), (2, y)).star()
            rhs = one_term(2, (1, x.star()), (2, y.star())) * zeta(
                x.star().degree * y.star().degree
            )
            assert lhs == rhs


@given(st.integers(0, 200))
@settings(max_examples=40)
def test_embed_is_degree_preserving_homomorphism(seed):
    rng = random.Random(seed)
    letters = [L("x", rng.randint(-2, 2), i) for i in range(3)]

    def rand_graded():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
            terms[word] = zeta(rng.randint(-2, 2))
        return GradedPoly(terms)

    p, q = rand_graded(), rand_graded()
    k = rng.randint(1, 3)
    assert embed(k, p * q, 3) == embed(k, p, 3) * embed(k, q, 3)
    assert embed(k, p, 3).degree() == p.degree()


# -- the flattening map ------------------------------------------------------------


def test_psi_z_goes_to_z_tensor_z():
    p = one_term(3, (1, Z))
    out = psi_flatten(p)
    expect = one_term(2, (1, Z)).tensor(one_term(2, (1, Z)))
    assert out == expect


def test_psi_second_leg_picks_up_z_power():
    d = (0, 1)
    u12 = L("u", d[1] - d[0], 1, 2)
    out = psi_flatten(one_term(3, (2, u12)))
    expect = one_term(2, (2, u12)).tensor(one_term(2, (1, Z)))
    assert out == expect
    # negative degree gives z-star letters
    u21 = L("u", d[0] - d[1], 2, 1)
    out = psi_flatten(one_term(3, (2, u21)))
    expect = one_term(2, (2, u21)).tensor(one_term(2, (1, Z.star())))
    assert out == expect


def test_psi_third_leg_goes_right():
    u23 = L("u", 0, 2, 3)
    out = psi_flatten(one_term(3, (3, u23)))
    expect = GradedPoly.one(2).tensor(one_term(2, (2, u23)))
    assert out == expect


def test_psi_rejects_foreign_letters_on_leg_one():
    with pytest.raises(BadShape):
        psi_flatten(one_term(3, (1, L("u", 1, 1, 2))))


def state_of_product(p, q, state):
    """The one pair of apply_state_pairs over a single left and a single right factor."""
    ((_, applied),) = apply_state_pairs({0: p}, {0: q}, state)
    return applied


def test_apply_state_on_leg_one():
    s1, s2 = L("S", 1, 1), L("S", 1, 2)
    x = L("x", 0, 7)

    def state(word):
        return 1 if word == (s1, s1.star()) else 0

    # a diagonal state: S_2 meets S*_1 on leg 1 and the pair drops
    p = one_term(2, (1, s1), (2, x)) + one_term(2, (1, s2), (2, x)) * 5
    out = state_of_product(p, one_term(2, (1, s1.star())), state)
    assert out == GradedPoly.from_letter(x)


def state_then_shift(p, state):
    """Reference: evaluate the state on each normal-form word's leg-1 letters, one word at a time."""
    terms = {}
    for w, c in p.items():
        value = state(tuple(l for l in w if l.leg == 1))
        rest = tuple(l.on_leg(l.leg - 1) for l in w if l.leg != 1)
        terms[rest] = terms.get(rest, 0) + c * value
    return GradedPoly(terms, p.legs[0] - 1)


def sparse_state(seed):
    """A word-to-scalar functional that is zero on most words and not diagonal.

    It is diagonal, as ``apply_state_pairs`` requires: on a word u s with u
    all unstarred and s all starred it is zero unless s is u reversed and starred.
    Every other word keeps its hashed, phased value.
    """

    def hashed(word):
        h = zlib.crc32(repr((seed, [(l.sort_key, l.degree) for l in word])).encode())
        if h % 4:
            return 0
        if h & 16:
            return Fraction(h % 5 - 2, 3)
        return zeta(h % 7 - 3) * (h % 3 + 1)

    def state(word):
        k = next((i for i, l in enumerate(word) if l.starred), len(word))
        u, s = word[:k], word[k:]
        if all(l.starred for l in s) and s != tuple(l.star() for l in reversed(u)):
            return 0
        return hashed(word)

    return state


def random_phased_poly(rng, num_legs, leg1_letters, other_letters):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = []
        for _ in range(rng.randint(0, 4)):
            leg = rng.randint(1, num_legs)
            letter = rng.choice(leg1_letters if leg == 1 else other_letters)
            word.append((letter.star() if rng.random() < 0.4 else letter).on_leg(leg))
        terms[tuple(word)] = zeta(rng.randint(-2, 2)) * rng.choice([1, 2, -3])
    return GradedPoly(terms, num_legs)


@given(st.integers(0, 400), st.sampled_from([2, 3]))
@settings(max_examples=80)
def test_state_applied_while_multiplying_matches_the_product(seed, num_legs):
    rng = random.Random(seed)
    letters = [L("x", -1, 1), L("x", 2, 2), L("y", 1), L("w", 0)]
    state = sparse_state(seed)
    p = random_phased_poly(rng, num_legs, letters[:2], letters)
    q = random_phased_poly(rng, num_legs, letters[:2], letters)
    fused = state_of_product(p, q, state)
    assert fused == state_of_product(p * q, GradedPoly.one(num_legs), state)
    assert fused == state_then_shift(p * q, state)


@given(st.integers(0, 400), st.sampled_from([2, 3]), st.sampled_from([2, 3]))
@settings(max_examples=80)
def test_kms_state_applied_while_multiplying_matches_the_product(seed, num_legs, n):
    # leg-1 words mix starred and unstarred letters, so the pair loop takes
    # both the every-prefix branch and the partner branch
    rng = random.Random(seed)
    g = cuntz_graph(n)
    state = kms_state(g, check_dagger(g))
    S = [L("S", 1, i) for i in range(1, n + 1)]
    others = S + [L("u", -1, 1, 2), L("u", 1, 2, 1)]
    p = random_phased_poly(rng, num_legs, S, others)
    q = random_phased_poly(rng, num_legs, S, others)
    fused = state_of_product(p, q, state)
    assert fused == state_of_product(p * q, GradedPoly.one(num_legs), state)
    assert fused == state_then_shift(p * q, state)
    # every pair of both families, in order, each grouped once
    lefts, rights = {"p": p, "q": q}, {"q": q, "p": p}
    assert list(apply_state_pairs(lefts, rights, state)) == [
        ((a, b), state_then_shift(x * y, state)) for a, x in lefts.items() for b, y in rights.items()
    ]


def test_state_with_a_right_factor_checks_legs():
    with pytest.raises(LegMismatch):
        apply_state_pairs({0: GradedPoly.one(2)}, {0: GradedPoly.one(3)}, lambda word: 1)
    with pytest.raises(BadShape):
        apply_state_pairs({0: GradedPoly.one(1)}, {0: GradedPoly.one(1)}, lambda word: 1)


def test_embed_rejects_a_polynomial_of_several_blocks():
    # x (x) y commutes without a phase; one braided block would braid it
    p = GradedPoly.from_letter(L("x", 1)).tensor(GradedPoly.from_letter(L("y", 1)))
    with pytest.raises(BadShape):
        embed(1, p, 3)
