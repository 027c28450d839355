"""Letters, graded polynomials, star, degrees, matrix conjugation."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidalg.algebra import (
    BadLeg,
    DegreeMismatch,
    GradedPoly,
    Letter,
    adjoint,
    conjugate_matrix,
    diag_matrix,
    mat_entries,
    mat_identity,
    mat_mul,
    SingularMatrix,
    scalar_mat_inverse,
)
from braidalg.scalars import ONE, ZERO, Scalar, sqrt, zeta


def u(i, j, d):
    return Letter("u", (i, j), d[j - 1] - d[i - 1])


def test_letter_star_negates_degree():
    l = Letter("u", (1, 2), 2)
    assert l.star().degree == -2
    assert l.star().starred
    assert l.star().star() == l


def test_letters_are_interned():
    l = Letter("u", (1, 2), 2)
    assert Letter("u", (1, 2), 2) is l
    assert Letter("u", [1, 2], 2) is l
    assert l.star().star() is l
    assert l.on_leg(2).on_leg(l.leg) is l
    assert pickle.loads(pickle.dumps(l)) is l
    assert copy.copy(l) is l and copy.deepcopy(l) is l
    assert Letter("u", (1, 2), 2, leg=2) is not l
    assert Letter("u", (1, 2), 2, leg=2) != l
    with pytest.raises(AttributeError):
        l.degree = 3


@pytest.mark.parametrize(
    "letter, symbol, sort_key, text, rep",
    [
        (Letter("u", (1, 2), 2), Letter("u", (1, 2), 2), (1, "u", (1, 2), False), "u[1,2]",
         "Letter(name='u', index=(1, 2), degree=2, starred=False, leg=1)"),
        (Letter("u", (1, 2), 2).star(), Letter("u", (1, 2), -2, True), (1, "u", (1, 2), True), "u*[1,2]",
         "Letter(name='u', index=(1, 2), degree=-2, starred=True, leg=1)"),
        (Letter("u", (1, 2), 2).on_leg(3), Letter("u", (1, 2), 2), (3, "u", (1, 2), False), "u[1,2]",
         "Letter(name='u', index=(1, 2), degree=2, starred=False, leg=3)"),
        (Letter("z", (), 1), Letter("z", (), 1), (1, "z", (), False), "z",
         "Letter(name='z', index=(), degree=1, starred=False, leg=1)"),
        (Letter("S", (1,), 1, True, 2), Letter("S", (1,), 1, True), (2, "S", (1,), True), "S*[1]",
         "Letter(name='S', index=(1,), degree=1, starred=True, leg=2)"),
    ],
)
def test_letter_symbol_sort_key_and_rendering(letter, symbol, sort_key, text, rep):
    assert (letter.symbol, letter.sort_key, str(letter), repr(letter)) == (symbol, sort_key, text, rep)
    # the symbol is the interned leg-1 letter, which keys the rules on every leg
    assert letter.symbol.symbol is letter.symbol and letter.symbol.leg == 1
    assert all(letter.on_leg(leg).symbol is letter.symbol for leg in (1, 2, 3, 4, 7))


def test_poly_star_single_letter():
    l = u(1, 2, (0, 1))
    p = GradedPoly.from_letter(l)
    assert p.star() == GradedPoly.from_letter(l.star())


def test_poly_star_antimultiplicative():
    d = (0, 1)
    a, b = u(1, 1, d), u(2, 2, d)
    prod = GradedPoly.from_letter(a) * GradedPoly.from_letter(b)
    assert prod.star() == GradedPoly.from_letter(b.star()) * GradedPoly.from_letter(a.star())


def test_poly_star_conjugates_coefficients():
    l = u(1, 2, (0, 1))
    p = GradedPoly.from_letter(l) * zeta(1)
    assert p.star() == GradedPoly.from_letter(l.star()) * zeta(-1)


def test_degree_of_examples():
    d = (1, 3)
    assert GradedPoly.from_letter(u(1, 2, d)).degree() == 2
    assert GradedPoly.from_letter(u(1, 2, d).star()).degree() == -2
    mixed = GradedPoly.from_letter(u(1, 2, d)) + GradedPoly.from_letter(u(2, 1, d))
    assert mixed.degree() is None


def test_degree_additive_on_products():
    d = (0, 2, 5)
    p = GradedPoly.from_letter(u(1, 2, d))
    q = GradedPoly.from_letter(u(2, 3, d))
    assert (p * q).degree() == p.degree() + q.degree()


def _u_matrix(d):
    n = len(d)
    return [[GradedPoly.from_letter(u(i + 1, j + 1, d)) for j in range(n)] for i in range(n)]


def test_conjugate_matrix_1x1():
    for k in (-2, 0, 3):
        m = _u_matrix((k,))
        conj = conjugate_matrix(m, [k])
        # exponent d1*(d1-d1) = 0: plain adjoint
        assert conj[0][0] == m[0][0].star()


def test_conjugate_matrix_2x2_phases():
    d = [0, 1]
    m = _u_matrix(d)
    conj = conjugate_matrix(m, d)
    # exponent matrix d_i (d_j - d_i) = [[0, 0], [-1, 0]]
    assert conj[0][0] == m[0][0].star()
    assert conj[0][1] == m[0][1].star()
    assert conj[1][0] == m[1][0].star() * zeta(-1)
    assert conj[1][1] == m[1][1].star()


def test_conjugate_matrix_zero_degrees_is_plain_adjoint():
    d = [0, 0, 0]
    m = _u_matrix(d)
    conj = conjugate_matrix(m, d)
    for i in range(3):
        for j in range(3):
            assert conj[i][j] == m[i][j].star()


def test_conjugate_matrix_twice_returns_original():
    # with d then -d, the composed phases cancel exactly (checked by expansion)
    d = [0, 1]
    m = _u_matrix(d)
    once = conjugate_matrix(m, d)
    twice = conjugate_matrix(once, [-x for x in d])
    for i in range(2):
        for j in range(2):
            assert twice[i][j] == m[i][j]


def test_conjugate_matrix_degree_mismatch():
    d = [0, 1]
    bad = _u_matrix(d)
    bad[0][1] = GradedPoly.from_letter(u(2, 1, tuple(d)))  # degree -1, expected +1
    with pytest.raises(DegreeMismatch):
        conjugate_matrix(bad, d)
    bad[0][1] = bad[0][1] + GradedPoly.from_letter(u(1, 2, tuple(d)))
    with pytest.raises(DegreeMismatch, match=r"entry \(1,2\) is not homogeneous, expected 1"):
        conjugate_matrix(bad, d)


def _two_leg_factors():
    """A 1x2 row of leg-1 isometries times a 2x2 matrix on leg 2, the shape of the Cuntz action."""
    row = [[GradedPoly.from_letter(Letter("S", (k,), 0), legs=2) for k in (1, 2)]]
    m = [[GradedPoly.from_letter(l.on_leg(2), legs=2) for l in (u(i, 1, (0, 1)), u(i, 2, (0, 1)))] for i in (1, 2)]
    return row, m


_F = Fraction
_L = u(1, 1, (2,))


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (_u_matrix((0, 1)), mat_identity(2), _u_matrix((0, 1))),
        (diag_matrix([ONE, zeta(1), sqrt(2)]), _u_matrix((0, 1, 3)), None),
        (*_two_leg_factors(), None),
        (
            [[_F(1, 2), _F(-3)], [_F(0), _F(5, 7)]],
            [[_F(2), _F(1, 3)], [_F(-1), _F(4)]],
            [[4, _F(-71, 6)], [_F(-5, 7), _F(20, 7)]],
        ),
        ([[GradedPoly.from_letter(_L)]], [[GradedPoly.from_letter(_L.star())]], [[GradedPoly({(_L, _L.star()): ONE})]]),
        (_u_matrix((0, 1)), mat_identity(3), AssertionError),
    ],
    ids=["identity", "scalar-diag-times-poly", "row-times-matrix-on-two-legs", "fractions", "1x1", "inner-mismatch"],
)
def test_mat_mul_is_mat_entry_at_every_entry(a, b, expected):
    """mat_mul(a, b)[i][j] == mat_entries(a, b)(i, j) on the shapes the package multiplies; a
    mismatched inner dimension fails in mat_mul."""
    if expected is AssertionError:
        with pytest.raises(AssertionError):
            mat_mul(a, b)
        return
    product = mat_mul(a, b)
    assert (len(product), len(product[0])) == (len(a), len(b[0]))
    assert all(mat_entries(a, b)(i, j) == product[i][j] for i in range(len(a)) for j in range(len(b[0])))
    assert expected is None or product == expected


def test_adjoint_is_the_star_transpose():
    d = (0, 1)
    m = _u_matrix(d)
    m[0][1] = m[0][1] * zeta(2)
    adj = adjoint(m)
    for i in range(2):
        for j in range(2):
            assert adj[i][j] == m[j][i].star()
    assert adjoint([[zeta(1), sqrt(2)]]) == [[zeta(-1)], [sqrt(2)]]


def test_diag_matrix_and_identity_on_legs():
    three = Scalar.from_fraction(3)
    assert diag_matrix([sqrt(2), three]) == [[sqrt(2), ZERO], [ZERO, three]]
    one = mat_identity(2, legs=2)
    assert one == [[GradedPoly.one(2), GradedPoly.zero(2)], [GradedPoly.zero(2), GradedPoly.one(2)]]
    p = GradedPoly.from_letter(u(1, 1, (0,)), legs=(2, 2))
    assert diag_matrix([p, p]) == [[p, GradedPoly.zero((2, 2))], [GradedPoly.zero((2, 2)), p]]


def test_scalar_mat_inverse_radical_entries():
    F = [[sqrt(2), Scalar.from_fraction(0)], [Scalar.from_fraction(0), Scalar.from_fraction(3)]]
    inv = scalar_mat_inverse(F)
    assert inv[0][0] == ONE / sqrt(2)
    assert inv[1][1] == Scalar.from_fraction(1) / 3


def test_scalar_mat_inverse_dense():
    F = [[ONE, ONE], [ZERO, ONE]]
    inv = scalar_mat_inverse(F)
    assert inv[0][1] == Scalar.from_fraction(-1)


letters = st.sampled_from(
    [Letter("u", (i, j), j - i) for i in (1, 2) for j in (1, 2)]
    + [Letter("S", (i,), 1) for i in (1, 2)]
)
words = st.lists(letters, max_size=4).map(tuple)
polys = st.lists(
    st.tuples(words, st.integers(-3, 3).filter(bool), st.integers(-2, 2)), max_size=3
).map(lambda ts: GradedPoly({w: Scalar({(k, 1): c}) for w, c, k in ts}))


@given(polys)
def test_star_involutive_on_random_polys(p):
    assert p.star().star() == p


@given(polys, polys)
def test_star_antimultiplicative_on_random_polys(p, q):
    assert (p * q).star() == q.star() * p.star()


@pytest.mark.parametrize(
    "F",
    [
        [[ONE, ONE], [ONE, ONE]],
        # the only nonzero entry of column 2 has two terms, so it is no unit
        [[ONE, ZERO], [ZERO, 1 + zeta(1)]],
    ],
)
def test_scalar_mat_inverse_names_the_first_column_without_a_unit_pivot(F):
    with pytest.raises(SingularMatrix, match="no invertible pivot in column 2"):
        scalar_mat_inverse(F)


def test_polynomials_take_polynomials_and_scalars_only():
    x = Letter("x", (), 1)
    p = GradedPoly.from_letter(x)
    for op in (lambda: p + 1, lambda: 1 + p, lambda: 1 - p, lambda: p - ONE, lambda: p * x, lambda: x * p):
        with pytest.raises(TypeError):
            op()
    assert (p == 1) is False and (GradedPoly.one() == ONE) is False
    for c in (2, Fraction(1, 2), zeta(1)):
        assert c * p == p * c == GradedPoly({(x,): c})


@pytest.mark.parametrize(
    "terms, legs",
    [(None, (0,)), (None, (2, 0)), ({(Letter("x", (), 1, leg=3),): 1}, 2), ({(Letter("x", (), 1, leg=0),): 1}, 1)],
    ids=["empty-block", "second-block-empty", "leg-above-range", "leg-zero"],
)
def test_graded_poly_rejects_bad_legs(terms, legs):
    with pytest.raises(BadLeg):
        GradedPoly(terms, legs)


# -- the product kernel ---------------------------------------------------------

KERNEL_LEGS = [(1,), (2,), (3,), (2, 2)]

# phases, rationals and radicals, one or two terms
kernel_coeffs = st.lists(
    st.builds(lambda n, k, r: Scalar({(k, r): n}), st.integers(-3, 3).filter(bool), st.integers(-2, 2), st.sampled_from([1, 2, 3])),
    min_size=1,
    max_size=2,
).map(sum)


def kernel_polys(legs):
    """Normal-form polynomials on ``legs``: the constructor leg-sorts random words of random-degree letters."""
    letter = st.builds(
        Letter, st.sampled_from("ab"), st.tuples(st.integers(1, 2)), st.integers(-2, 2), st.booleans(), st.integers(1, sum(legs))
    )
    terms = st.lists(st.tuples(st.lists(letter, max_size=4).map(tuple), kernel_coeffs), max_size=3)
    return terms.map(lambda ts: GradedPoly(dict(ts), legs))


@pytest.mark.parametrize("legs", KERNEL_LEGS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_is_the_sum_of_leg_sorted_term_products(legs, data):
    """p * q merges leg-sorted factors; the constructor, which leg-sorts each concatenation, is the reference."""
    p, q = data.draw(kernel_polys(legs)), data.draw(kernel_polys(legs))
    expected = GradedPoly.zero(legs)
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            expected = expected + GradedPoly({w1 + w2: c1 * c2}, legs)
    assert p * q == expected


@pytest.mark.parametrize("legs", [(1,), (2,), (2, 2)], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_difference_is_the_sum_with_the_negation(legs, data):
    """p - q collects -q into a copy of p in one pass: the same as p + (-q), and p itself is untouched."""
    p = data.draw(kernel_polys(legs))
    q = p if data.draw(st.booleans()) else data.draw(kernel_polys(legs))
    before = dict(p._terms)
    difference = p - q
    assert difference == p + (-q)
    assert all(difference._terms.values())
    assert p._terms == before
    if q is p:
        assert difference.is_zero() and difference.legs == legs


def _dense_entry(a, b, i, j):
    """Entry (i,j) of a b as a plain sum of products, zero factors included."""
    total = a[i][0] * b[0][j]
    for k in range(1, len(b)):
        total = total + a[i][k] * b[k][j]
    return total


def kernel_matrices(legs, n, zero):
    """n x n matrices of polynomials on ``legs``, about one entry in three ``zero``."""
    entry = st.one_of(st.just(zero), kernel_polys(legs))
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


@pytest.mark.parametrize("legs", KERNEL_LEGS, ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mat_entry_with_zero_factors_is_the_dense_sum(legs, data):
    """Zero factors (a zero Scalar off a diagonal, empty polynomials) are skipped, and the
    entry is the dense sum on the right legs, also when every factor is zero."""
    n = data.draw(st.integers(1, 3))
    zero = GradedPoly.zero(legs)
    diag = diag_matrix(data.draw(st.lists(st.one_of(st.just(ZERO), kernel_coeffs), min_size=n, max_size=n)))
    polys = data.draw(kernel_matrices(legs, n, zero))
    others = data.draw(kernel_matrices(legs, n, zero))
    zero_row = [[ZERO] * n] + diag[1:]
    for a, b in [(diag, polys), (polys, diag), (polys, others), (zero_row, polys)]:
        for i in range(n):
            for j in range(n):
                got = mat_entries(a, b)(i, j)
                assert got == _dense_entry(a, b, i, j)
                assert isinstance(got, GradedPoly) and got.legs == legs
    assert all(mat_entries(zero_row, polys)(0, j) == zero for j in range(n))
    # p q - p q: every term of the first product cancels in the second
    p, q = polys[0][0], others[0][0]
    assert mat_entries([[p, p]], [[q], [-q]])(0, 0) == zero


@pytest.mark.parametrize("legs", KERNEL_LEGS, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mat_entries_splits_each_factor_once_per_product(monkeypatch, legs, n):
    """An n x n by n x n product splits its 2 n^2 factors at the call and none per entry
    (one split per factor per entry, 2 n^3 in all, would repeat each n times)."""
    import braidalg.algebra as algebra_mod

    calls = []
    split_terms = algebra_mod._split_terms
    monkeypatch.setattr(algebra_mod, "_split_terms", lambda x, *args: calls.append(x) or split_terms(x, *args))
    a = [[GradedPoly({(Letter("a", (i, j), i - j, False, 1 + (i + j) % sum(legs)),): ONE}, legs) for j in range(n)] for i in range(n)]
    b = [[GradedPoly({(Letter("b", (i, j), j, True, sum(legs)),): zeta(i)}, legs) for j in range(n)] for i in range(n)]
    entry = mat_entries(a, b)
    assert len(calls) == 2 * n * n
    got = [[entry(i, j) for j in range(n)] for i in range(n)]
    assert len(calls) == 2 * n * n
    assert got == [[_dense_entry(a, b, i, j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "a, b",
    [
        ([[1, 0, -2], [0, 3, 0]], [[0, 4], [5, 0], [1, 1]]),
        ([[_F(1, 2), 0], [0, _F(-3, 4)]], [[0, 0], [_F(2, 3), 7]]),
    ],
    ids=["ints", "fractions"],
)
def test_mat_entry_on_plain_numbers_is_the_dense_sum(a, b):
    """graphalg's int and Fraction matrices keep the plain sum of products, and its type."""
    for i in range(len(a)):
        for j in range(len(b[0])):
            got, expected = mat_entries(a, b)(i, j), _dense_entry(a, b, i, j)
            assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("legs", [(2,), (3,), (2, 2)], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_star_reverses_split_segments_as_the_constructor_sorts(legs, data):
    """star builds each word from its per-leg segments; the constructor, which leg-sorts the reversed word, is the reference."""
    p, q = data.draw(kernel_polys(legs)), data.draw(kernel_polys(legs))
    oracle = GradedPoly({tuple(l.star() for l in reversed(w)): c.star() for w, c in p._terms.items()}, legs)
    assert p.star() == oracle
    assert p.star().star() == p
    assert (p * q).star() == q.star() * p.star()
