"""Letters, graded polynomials, star, degrees, matrix conjugation."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from braidalg.algebra import (
    DegreeMismatch,
    GradedPoly,
    Letter,
    adjoint,
    conjugate_matrix,
    diag_matrix,
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
        (Letter("u", (1, 2), 2), ("u", (1, 2), False), (1, "u", (1, 2), False), "u[1,2]",
         "Letter(name='u', index=(1, 2), degree=2, starred=False, leg=1)"),
        (Letter("u", (1, 2), 2).star(), ("u", (1, 2), True), (1, "u", (1, 2), True), "u*[1,2]",
         "Letter(name='u', index=(1, 2), degree=-2, starred=True, leg=1)"),
        (Letter("u", (1, 2), 2).on_leg(3), ("u", (1, 2), False), (3, "u", (1, 2), False), "u[1,2]",
         "Letter(name='u', index=(1, 2), degree=2, starred=False, leg=3)"),
        (Letter("z", (), 1), ("z", (), False), (1, "z", (), False), "z",
         "Letter(name='z', index=(), degree=1, starred=False, leg=1)"),
        (Letter("S", (1,), 1, True, 2), ("S", (1,), True), (2, "S", (1,), True), "S*[1]",
         "Letter(name='S', index=(1,), degree=1, starred=True, leg=2)"),
    ],
)
def test_letter_symbol_sort_key_and_rendering(letter, symbol, sort_key, text, rep):
    assert (letter.symbol, letter.sort_key, str(letter), repr(letter)) == (symbol, sort_key, text, rep)


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


def test_mat_mul_identity():
    d = (0, 1)
    m = _u_matrix(d)
    assert mat_mul(m, mat_identity(2))[0][1] == m[0][1]


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
