"""Presentations of the phase-braided free unitary algebra, its bosonization,
and the proposition-level verification suites.

Everything here works at the level of *-algebra presentations: a generator
matrix u with degrees d_j - d_i, the relations making u and F u-conj F^-1
unitary, the circle generator z of the bosonization, and the edge isometries
of a one-vertex graph.  Each ``verify_*`` operation replays a calculation as
a mechanical reduction and reports Verified or the surviving residual.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    GradedPoly,
    InputError,
    Letter,
    adjoint,
    conjugate_matrix,
    diag_matrix,
    mat_entries,
    mat_identity,
    mat_mul,
    scalar_mat_inverse,
)
from .braided import Z_LETTER, apply_state_pairs, embed, psi_flatten
from .graphalg import (
    GraphData,
    KmsData,
    check_dagger,
    cuntz_graph,
    edge_letters,
    kms_state,
    normalized_ftilde,
)
from .scalars import FORMAL, ONE, ZERO, Scalar, ZetaSpec, as_scalar, sqrt, zeta
from .simplify import (
    CuntzFamilyRel,
    PhaseCommutationRel,
    Presentation,
    RelationSet,
    UnitaryMatrixRel,
    VerificationReport,
    reduce_poly,
    verify_identity,
)

__all__ = [
    "AdmissibilityDatum",
    "UqfPresentation",
    "BosoPresentation",
    "NotAdmissible",
    "check_admissible",
    "solve_admissible",
    "make_datum",
    "build_uqf",
    "verify_quotient_identities",
    "verify_coproduct",
    "build_bosonization",
    "derive_boso_coproduct",
    "verify_fundamental_rep",
    "cuntz_action",
    "verify_kms_preservation",
    "derive_action_constraints",
    "graph_universal_presentation",
]


class NotAdmissible(InputError):
    """The matrix has no degree data compatible with its nonzero pattern."""


@dataclass(frozen=True)
class AdmissibilityDatum:
    F: tuple  # tuple of tuples of Scalar
    F_inv: tuple  # the inverse of F, computed once, by solve_admissible
    d: tuple[int, ...]
    d_prime: tuple[int, ...]
    d0: int


def _support(F, F_inv=None) -> tuple[tuple, tuple, list[tuple[int, int]]]:
    """F as scalars, F^-1 (inverted here unless given), and the pairs (i, j)
    where F_ij or (F^-1)_ji is nonzero."""
    F = tuple(tuple(map(as_scalar, row)) for row in F)
    F_inv = F_inv or tuple(map(tuple, scalar_mat_inverse(F)))
    n = len(F)
    pairs = [(i, j) for i in range(n) for j in range(n) if F[i][j] or F_inv[j][i]]
    return F, F_inv, pairs


def check_admissible(F, d, d_prime, d0: int) -> bool:
    """True iff F_ij = 0 = (F^-1)_ji whenever -d_j + d0 != d'_i."""
    return _vanishes(_support(F)[2], d, d_prime, d0)


def _vanishes(pairs, d, d_prime, d0: int) -> bool:
    return all(d_prime[i] == d0 - d[j] for i, j in pairs)


def solve_admissible(F, d):
    """Find d', d0 satisfying the vanishing constraints, or None.

    Every nonzero position (i,j) of F or (j,i) of F^-1 forces
    d'_i = d0 - d_j; the shift d0 is normalized to 0 when free.  There is
    a solution exactly when every row forces one degree.
    """
    if len(F) < 1 or len(F) != len(d):
        raise ValueError("need a nonempty square matrix and matching degrees")
    F, F_inv, pairs = _support(F)
    forced = [{d[j] for r, j in pairs if r == i} for i in range(len(F))]
    if any(len(s) != 1 for s in forced):
        return None
    d0 = 0
    d_prime = tuple(d0 - s.pop() for s in forced)
    return AdmissibilityDatum(F, F_inv, tuple(d), d_prime, d0)


def make_datum(F, d) -> AdmissibilityDatum:
    datum = solve_admissible(F, d)
    if datum is None:
        raise NotAdmissible(f"no degree data for this matrix with d={list(d)}")
    return datum


# -- generator alphabets ---------------------------------------------------------


def u_letters(d, name: str = "u") -> list[list[Letter]]:
    n = len(d)
    return [[Letter(name, (i + 1, j + 1), d[j] - d[i]) for j in range(n)] for i in range(n)]


def u_matrix(letters) -> list[list[GradedPoly]]:
    return [[GradedPoly.from_letter(l) for l in row] for row in letters]


_MAX_Z_POWER = 10**4  # z^power is spelled out letter by letter, and every reduction walks it


def z_word(power: int) -> tuple[Letter, ...]:
    if abs(power) > _MAX_Z_POWER:
        raise ValueError(f"circle power z^{power} above 10^4 in absolute value")
    return (Z_LETTER if power >= 0 else Z_LETTER.star(),) * abs(power)


def conjugated_unitary(F, F_inv, d, u) -> list[list[GradedPoly]]:
    """F u-conj F^-1, for a matrix u over any leg structure with degrees d."""
    return mat_mul(mat_mul(F, conjugate_matrix(u, list(d))), F_inv)


# -- the braided free unitary presentation ----------------------------------------


@dataclass
class UqfPresentation:
    datum: AdmissibilityDatum
    letters: list  # n x n Letter
    u: list  # n x n GradedPoly
    u_prime: list  # n x n GradedPoly
    presentation: Presentation


def build_uqf(datum: AdmissibilityDatum) -> UqfPresentation:
    """u_ij of degree d_j - d_i with u and u' = F u-conj F^-1 unitary, F^-1 read from the datum.

    Admissibility makes u' homogeneous: a nonzero F_ik u-conj_kl (F^-1)_lj
    forces d'_i = d0 - d_k and d'_j = d0 - d_l, and u-conj_kl has degree
    d_k - d_l = d'_j - d'_i.
    """
    if not _vanishes(_support(datum.F, datum.F_inv)[2], datum.d, datum.d_prime, datum.d0):
        raise NotAdmissible("datum fails the vanishing condition")
    letters = u_letters(datum.d)
    u = u_matrix(letters)
    u_prime = conjugated_unitary(datum.F, datum.F_inv, datum.d, u)
    pres = Presentation(
        generators=[l for row in letters for l in row],
        degree_tuples={"d": datum.d, "d'": datum.d_prime, "d0": datum.d0},
        relations=[UnitaryMatrixRel(name, tuple(map(tuple, m))) for name, m in (("u", u), ("u'", u_prime))],
    )
    return UqfPresentation(datum, letters, u, u_prime, pres)


# -- matrix identities --------------------------------------------------------------


def _map(f, M) -> list[list]:
    return [[f(x) for x in row] for row in M]


def _leg(k: int, M, num_legs: int) -> list[list[GradedPoly]]:
    """Every entry of M, on legs 1..m, moved to legs k..k+m-1 of num_legs: j_k(M) for m = 1."""
    return _map(lambda p: embed(k, p, num_legs), M)


def _coproduct(u) -> tuple[list, list]:
    """Delta(u) = j1(u) j2(u) as its factor pair: entry (i,j) is sum_k j1(u_ik) j2(u_kj)."""
    return _leg(1, u, 2), _leg(2, u, 2)


def _coassociativity(x, X, u, U) -> tuple[tuple, tuple]:
    """Both routes for X = j1(x) j2(u), in three legs, as factor pairs: (X x id) X
    = X_12 j3(u) and (id x Delta) X = j1(x) Delta(u)_23, where U = Delta(u)."""
    return (_leg(1, X, 3), _leg(3, u, 3)), (_leg(1, x, 3), _leg(2, U, 3))


def _linear_action(S, u) -> list[GradedPoly]:
    """The action on n isometries as a row A = j1(S) j2(u): S'_j = sum_i j1(S_i) j2(u_ij)."""
    return mat_mul(_leg(1, [[GradedPoly.from_letter(s) for s in S]], 2), _leg(2, u, 2))[0]


def _shape(side) -> tuple[int, int]:
    """Rows and columns of a matrix, or of the product of a factor pair (a, b)."""
    a, b = side if isinstance(side, tuple) else (side, side)
    if isinstance(side, tuple) and any(len(row) != len(b) for row in a):
        raise ValueError(f"factor pair of {len(a)}x{len(a[0])} and {len(b)}x{len(b[0])} matrices")
    return len(a), len(b[0])


def _entries(side):
    """``entry(i, j)`` of a side: a list of rows, or a factor pair, split once by ``mat_entries``."""
    return mat_entries(*side) if isinstance(side, tuple) else lambda i, j: side[i][j]


def _entrywise(rels, spec, *checks):
    """A lazy stream of reports, lhs = rhs entry by entry for each (name, lhs, rhs), in row-major order
    with the checks interleaved at each entry; ``name`` is formatted with the 1-based position ``i``, ``j``.
    A side is a list of rows or a factor pair ``(a, b)``, split at the call, whose entry of a b is formed when
    its check runs; equal entries verify with no reduction.  The shape guard runs at the call: a side not
    of the first side's shape, or mismatched factors, raises ValueError.
    """
    shape = _shape(checks[0][1])
    if any(_shape(side) != shape for _, *sides in checks for side in sides):
        raise ValueError(f"every side of every check must be {shape[0]}x{shape[1]}")
    checks = [(name, _entries(lhs), _entries(rhs)) for name, lhs, rhs in checks]
    return (
        verify_identity(lhs(i, j), rhs(i, j), rels, spec, name.format(i=i + 1, j=j + 1))
        for i in range(shape[0])
        for j in range(shape[1])
        for name, lhs, rhs in checks
    )


def _unitarity_checks(M, rels, spec, tag):
    """M* M = 1 (columns) and M M* = 1 (rows) as factor pairs, interleaved per entry, as a stream."""
    one, M_star = mat_identity(len(M), M[0][0].legs), adjoint(M)
    col, row = (tag + ": col({i},{j})", (M_star, M), one), (tag + ": row({i},{j})", (M, M_star), one)
    return _entrywise(rels, spec, col, row)


def verify_coproduct(pres: UqfPresentation, spec: ZetaSpec = FORMAL) -> VerificationReport:
    """The comultiplication lands in the braided square and respects both unitaries.

    Builds U = Delta(u) = j1(u) j2(u), checks U is unitary, that F U-conj F^-1
    equals Delta(u') and is unitary, that the two coassociativity routes
    agree in three legs, and the cancellation identity U j2(u)* = j1(u).
    """
    u, rels = pres.u, pres.presentation.rules
    U = mat_mul(*_coproduct(u))
    U_prime = conjugated_unitary(pres.datum.F, pres.datum.F_inv, pres.datum.d, U)
    return VerificationReport.merge("coproduct", itertools.chain(
        _unitarity_checks(U, rels, spec, "U unitary"),
        _entrywise(rels, spec, ("coassoc({i},{j})", *_coassociativity(u, U, u, U))),
        _entrywise(rels, spec, ("cancel({i},{j})", (U, adjoint(_leg(2, u, 2))), _leg(1, u, 2))),
        _entrywise(rels, spec, ("U' split({i},{j})", U_prime, _coproduct(pres.u_prime))),
        _unitarity_checks(U_prime, rels, spec, "U' unitary"),
    ))


# -- bosonization ------------------------------------------------------------------


@dataclass
class BosoPresentation:
    letters: list  # n x n Letter; the generators are Z_LETTER and these
    presentation: Presentation
    coproduct: dict  # generator -> polynomial on legs (2, 2): two (circle x algebra) factors


def build_bosonization(datum: AdmissibilityDatum) -> BosoPresentation:
    base = build_uqf(datum)
    generators = base.presentation.generators
    pres = Presentation(
        generators=[Z_LETTER] + generators,
        degree_tuples=base.presentation.degree_tuples,
        relations=[
            UnitaryMatrixRel("z", ((GradedPoly.from_letter(Z_LETTER),),)),
            # z u_ij = z^(d_i - d_j) u_ij z, and u_ij has degree d_j - d_i
            PhaseCommutationRel(tuple((Z_LETTER, l, zeta(-l.degree)) for l in generators)),
        ]
        + base.presentation.relations,
    )
    coproduct = {Z_LETTER: _closed_coproduct_z(1)}
    for i, row in enumerate(base.letters):
        for j, l in enumerate(row):
            coproduct[l] = _closed_coproduct_u(base.letters, datum.d, i, j)
    return BosoPresentation(base.letters, pres, coproduct)


def _two_leg(circle: tuple[Letter, ...], letter: Letter | None = None) -> GradedPoly:
    """The two-leg word j1(circle word)*j2(letter) of the bosonization picture."""
    return GradedPoly({circle + ((letter.on_leg(2),) if letter else ()): ONE}, 2)


def _closed_coproduct_z(power: int) -> GradedPoly:
    """Delta(z^power) = z^power (x) z^power."""
    zz = _two_leg(z_word(power))
    return zz.tensor(zz)


def _closed_coproduct_u(letters, d, i, j) -> GradedPoly:
    total = GradedPoly.zero((2, 2))
    for k in range(len(d)):
        left = _two_leg((), letters[i][k])
        right = _two_leg(z_word(d[k] - d[i]), letters[k][j])
        total = total + left.tensor(right)
    return total


def derive_boso_coproduct(boso: BosoPresentation, spec: ZetaSpec = FORMAL) -> VerificationReport:
    """Recompute the bosonized comultiplication through the flattening map.

    Applies (id x Delta) in the three-leg picture, flattens, and compares
    against the closed form on z and on every u_ij.
    """
    plain = RelationSet()
    three_z = GradedPoly.from_letter(Z_LETTER, legs=3)
    flattened = _map(psi_flatten, _leg(2, mat_mul(*_coproduct(u_matrix(boso.letters))), 3))
    return VerificationReport.merge("boso-coproduct", itertools.chain(
        _entrywise(plain, spec, ("Delta(z)", [[psi_flatten(three_z)]], [[boso.coproduct[Z_LETTER]]])),
        _entrywise(plain, spec, ("Delta(u[{i},{j}])", flattened, _map(boso.coproduct.get, boso.letters))),
    ))


def verify_fundamental_rep(datum: AdmissibilityDatum, spec: ZetaSpec = FORMAL) -> VerificationReport:
    """The matrix t_ij = j1(z^{d_i}) j2(u_ij) is a unitary representation.

    Checks both unitarity chains, the comultiplication table
    Delta(t_ij) = sum_k t_ik (x) t_kj, and the conjugate identity
    t-bar = diag(z^{-d_1},...,z^{-d_n}) u-conj.
    """
    boso = build_bosonization(datum)
    d, rels = datum.d, boso.presentation.rules
    t = [[_two_leg(z_word(d[i]), l) for l in row] for i, row in enumerate(boso.letters)]

    # Delta(t) = diag(Delta(z^{d_i})) Delta(u), compared with the matrix of
    # sum_k t_ik (x) t_kj after cancelling z z* on each leg
    one = GradedPoly.one(2)
    delta_u = _map(boso.coproduct.get, boso.letters)
    delta_t = mat_mul(diag_matrix([_closed_coproduct_z(di) for di in d]), delta_u)
    t_t = mat_mul(_map(lambda p: p.tensor(one), t), _map(one.tensor, t))
    lhs, rhs = (_map(lambda p: reduce_poly(p, rels)[0], m) for m in (delta_t, t_t))

    # t-bar = diag(z^{-d_i}) u-conj, entrywise in the two-leg picture
    ubar = conjugate_matrix(_leg(2, u_matrix(boso.letters), 2), list(d))
    t_bar = (diag_matrix([_two_leg(z_word(-di)) for di in d]), ubar)
    return VerificationReport.merge("fundamental-rep", itertools.chain(
        _unitarity_checks(t, rels, spec, "t unitary"),
        _entrywise(RelationSet(), spec, ("Delta(t[{i},{j}])", lhs, rhs)),
        _entrywise(rels, spec, ("t-bar({i},{j})", _map(GradedPoly.star, t), t_bar)),
    ))


# -- the action on the one-vertex graph algebra ------------------------------------


def _cuntz_setup(n: int, d):
    """The one-vertex graph with n loops of degrees d: its F = I presentation, the graph and its isometries."""
    base = build_uqf(make_datum(diag_matrix([ONE] * n), d))
    g = cuntz_graph(n, d)
    return base, g, edge_letters(g)


def cuntz_action(n: int, d, spec: ZetaSpec = FORMAL):
    """The linear action on n isometries: S'_j = sum_i j1(S_i) j2(u_ij).

    Verifies the isometry relations, the full sum, and the star formula
    S'*_j = sum_i j1(S*_i) j2(u-conj_ij).  Returns (action table, report).
    """
    base, _, S = _cuntz_setup(n, d)
    rels = RelationSet([CuntzFamilyRel(tuple(S))] + base.presentation.relations)
    action = _linear_action(S, base.u)
    A, S_row = [action], [[GradedPoly.from_letter(s) for s in S]]
    star_formula = (_leg(1, _map(GradedPoly.star, S_row), 2), _leg(2, conjugate_matrix(base.u, list(d)), 2))
    coassoc = _coassociativity(S_row, A, base.u, mat_mul(*_coproduct(base.u)))
    return action, VerificationReport.merge("cuntz-action", itertools.chain(
        _entrywise(rels, spec, ("S'*S'({i},{j})", (adjoint(A), A), mat_identity(n, 2))),
        _entrywise(rels, spec, ("sum S'S'* = 1", (A, adjoint(A)), mat_identity(1, 2))),
        _entrywise(rels, spec, ("star formula j={j}", _map(GradedPoly.star, A), star_formula)),
        _entrywise(rels, spec, ("action coassoc j={j}", *coassoc)),
    ))


def verify_kms_preservation(n: int, d, L: int, spec: ZetaSpec = FORMAL) -> VerificationReport:
    """(state x id) applied to the action of a span element returns its state value.

    Exhaustive over pairs of multi-indices up to length L, exact arithmetic:
    for every (alpha, beta) the leg-1 state of P(alpha) P(beta)* must reduce
    to tau(S_alpha S*_beta), where P(alpha) = eta_a1 ... eta_ak is the image
    of S_alpha.  Once per multi-index: P(alpha), built from its prefix, its
    star, their grouping by leg-1 prefix and the check-name label.  Once per
    row (one alpha against every beta): the state of each prefix pair the
    diagonal state can see, with the left rests it scales.  Once per pair:
    the product of the scaled rests with the right ones, and its reduction.
    The expected values, 1/n^k for each length k and zero, are shared by every
    check; the checks stream into the suite report, one check alive at a time.
    """
    base, g, S = _cuntz_setup(n, d)
    tau, rels = kms_state(g, check_dagger(g)), base.presentation.rules
    eta = _linear_action(S, base.u)

    indices = [a for k in range(L + 1) for a in itertools.product(range(n), repeat=k)]
    paths = {}
    for alpha in indices:
        paths[alpha] = paths[alpha[:-1]] * eta[alpha[-1]] if alpha else GradedPoly.one(2)
    starred = {beta: p.star() for beta, p in paths.items()}

    expected = [GradedPoly({(): Fraction(1, n**k)}) for k in range(L + 1)]
    zero = GradedPoly.zero()
    label = {alpha: str([a + 1 for a in alpha]) for alpha in indices}
    return VerificationReport.merge("kms-preservation", (
        verify_identity(applied, expected[len(alpha)] if alpha == beta else zero, rels, spec,
                        f"alpha={label[alpha]} beta={label[beta]}")
        for (alpha, beta), applied in apply_state_pairs(paths, starred, functools.cache(tau))
    ))


# -- abstract state-preservation constraints ----------------------------------------


def _displays(q, d, ftilde) -> tuple[list, list]:
    """Displays (1) and (2) as written, entry (i,j), over the generator letters q:

        (1)  sum_k z^{d_k (d_j - d_i)} q_ki q*_kj
        (2)  sum_k q*_ki ftilde_k q_kj
    """
    ks = range(len(d))

    def display(term):
        return [[GradedPoly(dict(term(i, j, k) for k in ks)) for j in ks] for i in ks]

    return (
        display(lambda i, j, k: ((q[k][i], q[k][j].star()), zeta(d[k] * (d[j] - d[i])))),
        display(lambda i, j, k: ((q[k][i].star(), q[k][j]), ftilde[k])),
    )


def derive_action_constraints(ftilde, d, spec: ZetaSpec = FORMAL):
    """Closed-form constraints forced on an abstract linear action by state
    preservation, derived symbolically and matched against their displays:

        (1)  sum_k z^{d_k (d_j - d_i)} q_ki q*_kj = delta_ij
        (2)  sum_k q*_ki ftilde_kk q_kj = ftilde_ij

    ftilde is the diagonal of the normalized sesquilinear matrix; an entry
    that is not positive raises ValueError.  Returns (relations, report) where
    relations maps (i,j) to the two (lhs, rhs) polynomial pairs.
    """
    d = tuple(d)
    n = len(d)
    ftilde = [Fraction(x) for x in ftilde]
    if any(f <= 0 for f in ftilde):
        raise ValueError("the action constraints need positive ftilde entries")
    q = u_letters(d, "q")
    eta = _linear_action(edge_letters(cuntz_graph(n, d)), u_matrix(q))

    def tau_pairs(word):
        # every eta term has one leg-1 letter, so a prefix pair has two; others fail the unpack
        a, b = word
        ia, ib = a.index[0] - 1, b.index[0] - 1
        if not a.starred and b.starred:
            return ONE if ia == ib else ZERO  # normalized: tau(S_k S*_l) = delta
        if a.starred and not b.starred:
            return Scalar.from_fraction(ftilde[ia]) if ia == ib else ZERO
        return ZERO

    def state_matrix(lefts, rights):
        """Entry (i,j): the leg-1 state of lefts[i] rights[j]; tau_pairs is zero on S_k S*_l, k != l."""
        applied = dict(apply_state_pairs(dict(enumerate(lefts)), dict(enumerate(rights)), tau_pairs))
        return [[applied[i, j] for j in range(n)] for i in range(n)]

    eta_star = [e.star() for e in eta]
    computed1 = state_matrix(eta, eta_star)  # eta_i eta*_j
    computed2 = state_matrix(eta_star, eta)  # eta*_i eta_j
    display1, display2 = _displays(q, d, ftilde)
    rhs1 = mat_identity(n)
    rhs2 = diag_matrix([GradedPoly({(): f}) for f in ftilde])
    relations = {
        (i + 1, j + 1): ((display1[i][j], rhs1[i][j]), (display2[i][j], rhs2[i][j]))
        for i in range(n)
        for j in range(n)
    }
    return relations, VerificationReport.merge("action-constraints", _entrywise(
        RelationSet(), spec, ("display1({i},{j})", computed1, display1), ("display2({i},{j})", computed2, display2)
    ))


# -- quotient identities and the graph presentation ----------------------------------


def verify_quotient_identities(F_diag, d, spec: ZetaSpec = FORMAL) -> VerificationReport:
    """The matrix manipulations tying the abstract constraints to the
    universal presentation, for a positive diagonal F with F*F = ftilde:

      (a) the phase-dressed conjugate satisfies q-conj* q-conj = display (1);
      (b) q* ftilde q = display (2);
      (c) (F*)^-1 (q* ftilde q) F^-1 = (F q F^-1)* (F q F^-1);
      (d) F^-1 (q'-conj) F = q-conj for q' = F q F^-1.

    All four are raw expansions over abstract generators; no algebra
    relations are used.  A non-real entry raises ValueError.
    """
    if any(f != f.star() for f in F_diag):
        raise ValueError("the quotient identities need a real diagonal F")
    d = tuple(d)
    F, F_inv, _ = _support(diag_matrix(F_diag))
    ftilde = [f * f for f in F_diag]  # diagonal, F real positive
    q = u_letters(d, "q")
    qm = u_matrix(q)
    qbar = conjugate_matrix(qm, list(d))
    q_prime = mat_mul(mat_mul(F, qm), F_inv)
    display1, display2 = _displays(q, d, ftilde)
    lhs_b = mat_mul(mat_mul(adjoint(qm), diag_matrix(ftilde)), qm)
    lhs_c = mat_mul(mat_mul(F_inv, lhs_b), F_inv)  # (F*)^-1 = F^-1: F is real diagonal
    lhs_d = mat_mul(mat_mul(F_inv, conjugate_matrix(q_prime, list(d))), F)
    empty = RelationSet()
    return VerificationReport.merge("quotient-identities", itertools.chain(
        _entrywise(empty, spec, ("(a)({i},{j})", (adjoint(qbar), qbar), display1)),
        _entrywise(empty, spec, ("(b)({i},{j})", lhs_b, display2)),
        _entrywise(empty, spec, ("(c)({i},{j})", lhs_c, (adjoint(q_prime), q_prime))),
        _entrywise(empty, spec, ("(d)({i},{j})", lhs_d, qbar)),
    ))


def graph_universal_presentation(g: GraphData, k: KmsData, spec: ZetaSpec = FORMAL):
    """The braided unitary presentation of F^-1, F = diag sqrt(ftilde), and t = F^-1 u F.

    With u = F t F^-1, the graph relations "F t F^-1 and t-conj unitary" are
    those of ``build_uqf``: F is real diagonal, so u' = F^-1 u-conj F = t-conj
    entry by entry.  The datum's F is F^-1 = diag(1 / sqrt(ftilde)), and its
    ``F_inv`` is F.  Returns (presentation, t, coproduct report).
    """
    datum = make_datum(diag_matrix([ONE / sqrt(w) for w in normalized_ftilde(g, k)]), g.gauge_degrees)
    pres = build_uqf(datum)
    t = mat_mul(mat_mul(datum.F, pres.u), datum.F_inv)
    return pres, t, verify_coproduct(pres, spec)
