"""Exact scalar arithmetic: examples, ring axioms, specialization soundness."""

import copy
import pickle
import re
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from braidalg.algebra import GradedPoly
from braidalg.scalars import (
    FORMAL,
    ONE,
    ZERO,
    Scalar,
    ZetaSpec,
    as_scalar,
    cyclotomic,
    parse_scalar,
    sqrt,
    zeta,
)
from braidalg import scalars as scalars_mod
from braidalg.scalars import _scalar_factor


def test_zeta_exponents_add():
    assert zeta(2) * zeta(3) == zeta(5)


def test_expand_and_collect():
    assert (zeta(1) + 1) * (zeta(-1) + 1) == zeta(1) + zeta(-1) + 2


def test_radical_renormalization():
    assert sqrt(2) * sqrt(6) == 2 * sqrt(3)
    assert sqrt(2) * sqrt(2) == Scalar.from_fraction(2)
    assert sqrt(8) == 2 * sqrt(2)


def test_sqrt_of_fraction():
    half = sqrt(Fraction(1, 2))
    assert half * half == Scalar.from_fraction(Fraction(1, 2))


def test_star_examples():
    assert zeta(3).star() == zeta(-3)
    real = Scalar.from_fraction(2) + sqrt(3)
    assert real.star() == real
    sym = zeta(1) + zeta(-1)
    assert sym.star() == sym


def test_specialize_examples():
    assert zeta(2).specialize(ZetaSpec.root_of_unity(4)) == Scalar.from_fraction(-1)
    assert (1 + zeta(1) + zeta(2)).specialize(ZetaSpec.root_of_unity(3)) == ZERO
    assert zeta(5).specialize(ZetaSpec.root_of_unity(4)) == zeta(1)


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(8) == (1, 0, 0, 0, 1)


def test_division_by_unit_terms():
    assert (zeta(3) + zeta(1)) / zeta(1) == zeta(2) + ONE
    assert ONE / sqrt(2) == sqrt(2) / 2
    six = Scalar.from_fraction(6)
    assert (six / (2 * sqrt(3))) * (2 * sqrt(3)) == six


@given(st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 6]), st.integers(-6, 6).filter(bool), st.integers(1, 6))
def test_inverse_of_a_unit_term(k, r, p, q):
    x = Scalar({(k, r): Fraction(p, q)})
    inv = x.inverse()
    assert inv * x == ONE
    # the same value and rendering as building 1/(c r) sqrt(r) z^-k through the constructor
    assert inv == Scalar({(-k, r): 1 / (Fraction(p, q) * r)})
    assert str(ONE / x) == str(inv)
    with pytest.raises(ValueError):
        ONE / (x + zeta(k + 1))


# c * sqrt(r) * z^k through the constructor, which square-frees r: 4, 9 and 25 are rational
terms = st.builds(
    lambda k, r, p, q: Scalar({(k, r): Fraction(p, q)}),
    st.integers(-5, 5),
    st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 25]),
    st.integers(-7, 7).filter(bool),
    st.integers(1, 7),
)


def expanded_product(a, b):
    """a * b term by term through the constructor, which square-frees sqrt(r1) sqrt(r2); no Scalar product runs."""
    total = ZERO
    for (k1, r1), c1 in a.items():
        for (k2, r2), c2 in b.items():
            total = total + Scalar({(k1 + k2, r1 * r2): Fraction(*c1) * Fraction(*c2)})
    return total


# two-term sums of phases, rationals and radicals
sums = st.builds(lambda a, b: a + b, terms, terms)


@given(st.one_of(terms, sums), st.one_of(terms, sums))
def test_term_times_term_matches_the_general_product(a, b):
    # a + t has two terms, so (a + t) * b runs the general loop; t never shares a's key
    t = zeta(99)
    assert a * b == (a + t) * b - t * b
    assert str(a * b) == str((a + t) * b - t * b)
    assert a * b == b * a
    # rational phase terms multiply by one lookup in the shared-product table
    assert a * b == expanded_product(a, b) and str(a * b) == str(expanded_product(a, b))


@given(terms)
def test_a_zero_operand_gives_zero(a):
    for product in (a * ZERO, ZERO * a, a * 0, 0 * a, (a - a) * a):
        assert product is ZERO


@given(terms, st.integers(-5, 5))
def test_a_unit_operand_gives_the_other_operand_itself(a, k):
    assert a * ONE is a and ONE * a is a
    assert zeta(k) * zeta(-k) is ONE
    assert (zeta(k) * 2) * (zeta(-k) / 2) is ONE
    assert ONE * 2 == 2
    assert isinstance(ONE * GradedPoly.one(), GradedPoly)
    with pytest.raises(TypeError):
        ONE * "x"


def test_cached_zeta_is_not_changed_by_arithmetic():
    assert zeta(2) is zeta(2)
    x = zeta(2)
    x *= zeta(3)
    x += 1
    assert (x, zeta(2) * zeta(3)) == (zeta(5) + 1, zeta(5))
    assert zeta(2) == Scalar({(2, 1): Fraction(1)})
    assert repr(zeta(2)) == "Scalar(z^2)"


@given(st.lists(st.one_of(terms, sums), min_size=1, max_size=6))
def test_arithmetic_never_changes_a_shared_term(values):
    shared = dict(scalars_mod._TERMS)
    t = zeta(3) * Fraction(-2, 5)
    assert t is zeta(3) * Fraction(-2, 5) is scalars_mod._TERMS[3, -2, 5]
    assert copy.copy(t) is t and copy.deepcopy(t) is t and pickle.loads(pickle.dumps(t)) is t
    for v in values:
        for x in (t, ONE, zeta(-1)):
            x = x * v
            x += v
            x -= zeta(1)
            x = -x.star()
            if x.is_single_term():
                x = x / x
    for (k, n, d), term in scalars_mod._TERMS.items():
        assert term._terms == {(k, 1): (n, d)}
    assert all(scalars_mod._TERMS[key] is term for key, term in shared.items())


def test_every_shared_term_renders_like_a_fresh_copy_of_itself():
    for k in (-3, -1, 0, 1, 4):
        for c in (1, -1, Fraction(2, 3), Fraction(-5, 7), 12):
            zeta(k) * c
    assert len(scalars_mod._TERMS) >= 25
    for (k, n, d), term in list(scalars_mod._TERMS.items()):
        fresh = Scalar({(k, 1): Fraction(n, d)})
        assert type(term) is scalars_mod._Term and type(fresh) is Scalar
        # the first call may set the kept text, the second reads it
        assert str(term) == str(term) == term._text == str(fresh)
        assert parse_scalar(str(term)) is term


def test_bounded_tables_stop_growing_and_results_stay_equal(monkeypatch):
    monkeypatch.setattr(scalars_mod, "_MAX_TERMS", len(scalars_mod._TERMS) + 3)
    monkeypatch.setattr(scalars_mod, "_MAX_PRODUCTS", len(scalars_mod._PRODUCTS) + 3)
    # exponents far from any that other tests use, so every term and product is new
    fresh = [zeta(10_000 + k) * Fraction(1, 7) for k in range(6)]
    for a in fresh:
        for b in fresh + [ONE, zeta(1)]:
            assert a * b == expanded_product(a, b) and b * a == a * b
    assert len(scalars_mod._TERMS) == scalars_mod._MAX_TERMS
    assert len(scalars_mod._PRODUCTS) == scalars_mod._MAX_PRODUCTS
    assert sum(type(a) is not Scalar for a in fresh) <= 3  # beyond the bound a term is a plain Scalar
    shared = list(scalars_mod._TERMS.values())
    a, b = next((a, b) for a in shared for b in shared if (id(a), id(b)) not in scalars_mod._PRODUCTS)
    assert a * b == expanded_product(a, b) and len(scalars_mod._PRODUCTS) == scalars_mod._MAX_PRODUCTS
    assert zeta(20_000) == Scalar({(20_000, 1): 1}) and zeta(20_000) is not zeta(20_000)


scalars = st.builds(
    lambda terms: Scalar({(k, r): Fraction(p, q) for (k, r, p, q) in terms}),
    st.lists(
        st.tuples(
            st.integers(-4, 4),
            st.sampled_from([1, 2, 3, 5, 6]),
            st.integers(-6, 6),
            st.integers(1, 6),
        ),
        max_size=4,
    ),
)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(scalars, scalars)
def test_star_is_involutive_ring_automorphism(a, b):
    assert a.star().star() == a
    assert (a * b).star() == a.star() * b.star()
    assert (a + b).star() == a.star() + b.star()


@given(scalars, scalars, st.sampled_from([2, 3, 4, 6, 8]))
def test_specialize_is_ring_homomorphism(a, b, n):
    spec = ZetaSpec.root_of_unity(n)
    assert (a * b).specialize(spec) == (a.specialize(spec) * b.specialize(spec)).specialize(spec)
    assert (a + b).specialize(spec) == a.specialize(spec) + b.specialize(spec)


@given(scalars, st.sampled_from([2, 3, 4, 6, 8]))
def test_formal_zero_specializes_to_zero(a, n):
    # soundness: p - p = 0 formally, and stays 0 under every specialization
    p = a - a
    assert p.is_zero()
    assert p.specialize(ZetaSpec.root_of_unity(n)).is_zero()


@given(scalars)
def test_render_parse_roundtrip(a):
    assert parse_scalar(str(a)) == a


# -- the integer-pair coefficients against a dict-of-Fraction model ---------------------

# sqrt(r1) * sqrt(r2) for square-free r1, r2 in {1, 2, 3, 6}, as (g, s) with g * sqrt(s),
# read off the prime sets: shared primes leave the root, the others stay under it
_PRIMES = {1: set(), 2: {2}, 3: {3}, 6: {2, 3}}
_RADICAL_PRODUCT = {
    (r1, r2): (prod(p1 & p2), prod(p1 ^ p2)) for r1, p1 in _PRIMES.items() for r2, p2 in _PRIMES.items()
}
# the cyclotomic polynomials, constant coefficient first, written out by hand
_PHI = {3: (1, 1, 1), 4: (1, 0, 1), 5: (1, 1, 1, 1, 1), 8: (1, 0, 0, 0, 1), 12: (1, 0, -1, 0, 1)}


def _model_sum(*pairs):
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, Fraction(0)) + c
    return {key: c for key, c in out.items() if c}


def _model_mul(a, b):
    return _model_sum(
        *(((k1 + k2, _RADICAL_PRODUCT[r1, r2][1]), c1 * c2 * _RADICAL_PRODUCT[r1, r2][0])
          for (k1, r1), c1 in a.items() for (k2, r2), c2 in b.items())
    )


def _model_specialize(a, n):
    """Reduce z^k to z^(k mod n), then divide each radical's polynomial by Phi_n."""
    phi, out = _PHI[n], {}
    for r in {r for _, r in a}:
        poly = [Fraction(0)] * n
        for (k, rr), c in a.items():
            if rr == r:
                poly[k % n] += c
        for top in range(n - 1, len(phi) - 2, -1):
            c, shift = poly[top], top - (len(phi) - 1)
            for j, pj in enumerate(phi):
                poly[shift + j] -= c * pj
        out.update({(k, r): c for k, c in enumerate(poly[: len(phi) - 1]) if c})
    return out


def _as_model(x):
    """The value of a Scalar as {(k, r): Fraction}, after checking how it is stored."""
    for (k, r), c in x._terms.items():
        assert type(k) is int and r in _PRIMES
        assert type(c) is tuple and len(c) == 2 and type(c[0]) is int and type(c[1]) is int
        assert c[0] != 0 and c[1] > 0 and gcd(*c) == 1
    return {key: Fraction(*c) for key, c in x._terms.items()}


model_terms = st.dictionaries(
    st.tuples(st.integers(-6, 6), st.sampled_from([1, 2, 3, 6])),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    max_size=4,
)


@given(model_terms, model_terms)
def test_pair_arithmetic_matches_a_fraction_model(a, b):
    x, y = Scalar(a), Scalar(b)
    a, b = _model_sum(*a.items()), _model_sum(*b.items())
    assert _as_model(x) == a and _as_model(y) == b
    assert _as_model(x + y) == _model_sum(*a.items(), *b.items())
    assert _as_model(x - y) == _model_sum(*a.items(), *((key, -c) for key, c in b.items()))
    assert _as_model(-x) == _model_sum(*((key, -c) for key, c in a.items()))
    assert _as_model(x * y) == _model_mul(a, b)
    assert _as_model(x.star()) == {(-k, r): c for (k, r), c in a.items()}
    for key, c in a.items():  # each term of x is a unit: 1/(c sqrt(r) z^k) = 1/(c r) sqrt(r) z^-k
        (k, r), term = key, Scalar({key: c})
        assert _as_model(term.inverse()) == {(-k, r): 1 / (c * r)}
        assert _as_model(y / term) == _model_mul(b, {(-k, r): 1 / (c * r)})
    for n in _PHI:
        assert _as_model(x.specialize(ZetaSpec.root_of_unity(n))) == _model_specialize(a, n)


def test_the_pair_operations_build_no_fraction(monkeypatch):
    x = Scalar({(1, 2): Fraction(-3, 4), (0, 1): Fraction(5, 6), (-2, 3): 2})
    y, unit = Scalar({(2, 6): Fraction(7, 10), (-1, 1): -1}), Scalar({(3, 2): Fraction(-2, 9)})
    built, new = [], Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
    results = [x + y, x - y, -x, x * y, y * x, unit.inverse(), x / unit, x.star(), x * 3, 2 + y]
    monkeypatch.undo()
    assert built == [] and results[3] == results[4]


@pytest.mark.parametrize("value", [0.5, 0.1, "1/2", 1j])
def test_scalars_take_exact_coefficients_only(value):
    with pytest.raises(TypeError):
        Scalar({(0, 1): value})
    with pytest.raises(TypeError):
        as_scalar(value)
    with pytest.raises(TypeError):
        sqrt(value)


@pytest.mark.parametrize("r", [0, -3])
def test_radical_keys_must_be_positive(r):
    with pytest.raises(ValueError, match="radical key must be positive"):
        Scalar({(0, r): 1})


def test_as_fraction_gives_a_fraction():
    for x, value in ((Scalar.from_fraction(2), 2), (ZERO, 0), (sqrt(3) * sqrt(3) / 4, Fraction(3, 4))):
        assert type(x.as_fraction()) is Fraction and x.as_fraction() == value
    with pytest.raises(ValueError):
        zeta(1).as_fraction()


def test_equal_values_from_each_boundary_are_equal_and_hash_equal():
    values = [Scalar({(0, 1): Fraction(4, 2)}), Scalar.from_fraction(2), ONE + ONE, as_scalar(2), Scalar({(0, 4): 1})]
    assert all(v == values[0] and hash(v) == hash(values[0]) for v in values)
    assert values[0] == 2 and values[0] == Fraction(2)
    assert hash(values[0]) == hash(2) == hash(Fraction(2))
    half = Scalar.from_fraction(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert hash(ZERO) == hash(0) and {ONE: "one"}.get(1) == "one"


def test_render_canonical_form():
    s = Scalar.from_fraction(Fraction(3, 2)) * zeta(-1) + sqrt(2) * zeta(4) / 3
    assert str(s) == "3/2*z^-1 + 1/3*sqrt(2)*z^4"
    assert parse_scalar("3/2*z^-1 + (1/3)*sqrt(2)*z^4") == s
    negative = Scalar({(-1, 2): Fraction(-3, 4)})
    assert str(negative) == "-3/4*sqrt(2)*z^-1" and parse_scalar(str(negative)) == negative


def test_empty_factor_is_rejected_by_every_grammar():
    for text in ("2*", "*2", "2**3", "z*", "z**2", "z^2*z*", "sqrt(2)*"):
        with pytest.raises(ValueError):
            parse_scalar(text)


def test_formal_spec_is_identity():
    s = zeta(5) + sqrt(2)
    assert s.specialize(FORMAL) == s


def test_functional_aliases():
    # the functional aliases are gone; the methods they wrapped give the same values
    a, b = zeta(3) + 1, zeta(2)
    assert (a * b).specialize(FORMAL) == a * b
    assert (a * b).specialize(ZetaSpec.root_of_unity(4)) == (
        a.specialize(ZetaSpec.root_of_unity(4)) * b.specialize(ZetaSpec.root_of_unity(4))
    ).specialize(ZetaSpec.root_of_unity(4))
    assert a.star() == zeta(-3) + 1
    assert zeta(2).specialize(ZetaSpec.root_of_unity(4)) == Scalar.from_fraction(-1)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0", ZERO),
        ("-1/2", Scalar.from_fraction(Fraction(-1, 2))),
        ("(3/4)*z^-2", Scalar.from_fraction(Fraction(3, 4)) * zeta(-2)),
    ],
)
def test_parse_scalar_reads_rationals_and_phases(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("text", ["sqrt(0)", "1/0"])
def test_parse_scalar_rejects_zero_radicands_and_denominators(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


@pytest.mark.parametrize("text", ["", " ", "-", " - ", "1 +  + 2", "- + 1", "1 -  - z"])
def test_parse_scalar_rejects_an_empty_term(text):
    with pytest.raises(ValueError, match="empty term"):
        parse_scalar(text)


def test_parse_scalar_bounds_the_radicand():
    # square-freeing trial-divides up to sqrt(r), so a large prime radicand would stall
    assert parse_scalar("sqrt(1000000000000)") == Scalar.from_fraction(10**6)
    for text in ("sqrt(1000000000001)", "sqrt(100000000000031)", "1 + 2*sqrt( 99999999999999999999 )"):
        with pytest.raises(ValueError):
            parse_scalar(text)


# -- the one-pass reader against the paren-depth reader it replaced -------------------


def paren_depth_parse_scalar(text):
    """Reference reader: split terms at ' + ' / ' - ' and factors at '*', both
    only outside parentheses, scanning character by character."""
    terms, depth, sign = [], 0, 1
    text = text.strip()
    start = i = 1 if text.startswith("-") else 0
    if start:
        sign = -1
    while i < len(text):
        ch = text[i]
        if ch in "()":
            depth += 1 if ch == "(" else -1
        elif depth == 0 and ch in "+-" and i > start and text[i - 1] == " " and text[i + 1 : i + 2] == " ":
            terms.append((sign, text[start:i].strip()))
            sign = 1 if ch == "+" else -1
            i += 1
            start = i + 1
        i += 1
    terms.append((sign, text[start:].strip()))
    total = ZERO
    for sign, body in terms:
        if not body:
            raise ValueError(f"empty term in {text!r}")
        factors, depth, start = [], 0, 0
        for i, ch in enumerate(body):
            if ch in "()":
                depth += 1 if ch == "(" else -1
            elif ch == "*" and depth == 0:
                factors.append(body[start:i].strip())
                start = i + 1
        factors.append(body[start:].strip())
        if not all(factors):
            raise ValueError(f"empty factor in {body!r}")
        term = ONE * sign
        for f in factors:
            term = term * _scalar_factor(f)
        total = total + term
    return total


def _read(reader, text):
    try:
        return reader(text)
    except ValueError:
        return ValueError


def _radicands_in_bound(text):
    return all(int(r) <= 10**12 for r in re.findall(r"sqrt\(\s*(\d+)", text))


@st.composite
def rendered_sums(draw):
    """Rendered scalars joined by spaced or unspaced signs, with spacing variants."""
    parts = [str(s) for s in draw(st.lists(scalars, min_size=1, max_size=3))]
    text = parts[0]
    for part in parts[1:]:
        text += draw(st.sampled_from([" + ", " - ", "+", "-", " +", "- ", "  +  ", " + - "])) + part
    if draw(st.booleans()):
        text = text.replace("*", draw(st.sampled_from([" * ", "* ", " *", "**"])))
    return draw(st.sampled_from(["", " ", "-", "- ", "-("])) + text + draw(st.sampled_from(["", " ", ")"]))


@given(st.one_of(st.text(alphabet="0123456789 /*+-sqrt()z^", max_size=30), rendered_sums()))
@settings(max_examples=400, deadline=None)
def test_one_pass_reader_matches_the_paren_depth_reader(text):
    assume(_radicands_in_bound(text))
    assert _read(parse_scalar, text) == _read(paren_depth_parse_scalar, text)
