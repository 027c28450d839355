"""Presentations of the phase-braided free unitary algebra, its bosonization,
and the proposition-level verification suites.

Everything here works at the level of *-algebra presentations: a generator
matrix u with degrees d_j - d_i, the relations making u and F u-conj F^-1
unitary, the circle generator z of the bosonization, and the edge isometries
of a one-vertex graph.  Each ``verify_*`` operation replays a calculation as
a mechanical reduction and reports Verified or the surviving residual.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    CuntzFamilyRel,
    GradedPoly,
    Letter,
    PhaseCommutationRel,
    Presentation,
    UnitaryMatrixRel,
    conjugate_matrix,
    mat_mul,
    scalar_mat_inverse,
)
from .braided import apply_state_leg1, embed, lift_legs, psi_flatten
from .graphalg import GraphData, KmsData, normalized_ftilde
from .scalars import FORMAL, ONE, ZERO, Scalar, ZetaSpec, rational, zeta
from .simplify import RelationSet, VerificationReport, cuntz_reduce, verify_identity

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


class NotAdmissible(Exception):
    """The matrix has no degree data compatible with its nonzero pattern."""


@dataclass(frozen=True)
class AdmissibilityDatum:
    F: tuple  # tuple of tuples of Scalar
    F_inv: tuple
    d: tuple[int, ...]
    d_prime: tuple[int, ...]
    d0: int

    @property
    def n(self) -> int:
        return len(self.d)


def _as_scalar_matrix(F) -> tuple:
    out = []
    for row in F:
        out.append(
            tuple(c if isinstance(c, Scalar) else Scalar.from_fraction(c) for c in row)
        )
    return tuple(out)


def check_admissible(F, d, d_prime, d0: int) -> bool:
    """True iff F_ij = 0 = (F^-1)_ji whenever -d_j + d0 != d'_i."""
    F = _as_scalar_matrix(F)
    F_inv = scalar_mat_inverse([list(r) for r in F])
    n = len(F)
    for i in range(n):
        for j in range(n):
            if -d[j] + d0 != d_prime[i]:
                if not F[i][j].is_zero() or not F_inv[j][i].is_zero():
                    return False
    return True


def solve_admissible(F, d):
    """Find d', d0 satisfying the vanishing constraints, or None.

    Every nonzero position (i,j) of F or (j,i) of F^-1 forces
    d'_i = d0 - d_j; the shift d0 is normalized to 0 when free.
    """
    if len(F) < 1 or len(F) != len(d):
        raise ValueError("need a nonempty square matrix and matching degrees")
    F = _as_scalar_matrix(F)
    F_inv = scalar_mat_inverse([list(r) for r in F])
    n = len(F)
    forced: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if not F[i][j].is_zero() or not F_inv[j][i].is_zero():
                forced[i].add(d[j])
    if any(len(s) > 1 for s in forced):
        return None
    if any(not s for s in forced):  # impossible for invertible F
        return None
    d0 = 0
    d_prime = tuple(d0 - s.pop() for s in forced)
    datum = AdmissibilityDatum(F, tuple(tuple(r) for r in F_inv), tuple(d), d_prime, d0)
    assert check_admissible(datum.F, datum.d, datum.d_prime, datum.d0)
    return datum


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


Z_LETTER = Letter("z", (), 1)


def z_word(power: int) -> tuple[Letter, ...]:
    if power >= 0:
        return (Z_LETTER,) * power
    return (Z_LETTER.star(),) * (-power)


def conjugated_unitary(datum: AdmissibilityDatum, letters) -> list[list[GradedPoly]]:
    """F u-conj F^-1 over the generator matrix."""
    ubar = conjugate_matrix(u_matrix(letters), list(datum.d))
    return mat_mul(mat_mul(datum.F, ubar), datum.F_inv)


# -- the braided free unitary presentation ----------------------------------------


@dataclass
class UqfPresentation:
    datum: AdmissibilityDatum
    letters: list  # n x n Letter
    u: list  # n x n GradedPoly
    u_prime: list  # n x n GradedPoly
    relations: RelationSet
    presentation: Presentation

    @property
    def n(self) -> int:
        return self.datum.n


def build_uqf(datum: AdmissibilityDatum, name: str = "u") -> UqfPresentation:
    if not check_admissible(datum.F, datum.d, datum.d_prime, datum.d0):
        raise NotAdmissible("datum fails the vanishing condition")
    letters = u_letters(datum.d, name)
    u = u_matrix(letters)
    u_prime = conjugated_unitary(datum, letters)
    # homogeneity: entry (i,j) of u' must have degree d'_j - d'_i
    for i in range(datum.n):
        for j in range(datum.n):
            deg = u_prime[i][j].degree()
            if not u_prime[i][j].is_zero() and deg != datum.d_prime[j] - datum.d_prime[i]:
                raise NotAdmissible(
                    f"conjugated entry ({i + 1},{j + 1}) has degree {deg}, "
                    f"expected {datum.d_prime[j] - datum.d_prime[i]}"
                )
    pres = Presentation(
        generators=[l for row in letters for l in row],
        degree_tuples={"d": datum.d, "d'": datum.d_prime, "d0": datum.d0},
        relations=[UnitaryMatrixRel(name, _rows(u)), UnitaryMatrixRel(f"{name}'", _rows(u_prime))],
    )
    return UqfPresentation(datum, letters, u, u_prime, RelationSet.from_relations(pres.relations), pres)


def _rows(matrix) -> tuple:
    return tuple(tuple(row) for row in matrix)


# -- two-leg helpers ----------------------------------------------------------------


def _lmat(n, builder) -> list[list[GradedPoly]]:
    return [[builder(i, j) for j in range(n)] for i in range(n)]


def _linear_action(S, letters) -> list[GradedPoly]:
    """The action on n isometries: S'_j = sum_i j1(S_i) j2(letters_ij), one per j."""
    n = len(S)
    return [
        GradedPoly({(S[i], letters[i][j].on_leg(2)): ONE for i in range(n)}, 2)
        for j in range(n)
    ]


def _unitarity_checks(M, rels, spec, tag) -> list[VerificationReport]:
    n = len(M)
    reports = []
    zero = GradedPoly.zero(M[0][0].legs)
    one = GradedPoly.one(M[0][0].legs)
    for i in range(n):
        for j in range(n):
            delta = one if i == j else zero
            col = sum((M[k][i].star() * M[k][j] for k in range(n)), zero)
            reports.append(verify_identity(col, delta, rels, spec, f"{tag}: col({i + 1},{j + 1})"))
            row = sum((M[i][k] * M[j][k].star() for k in range(n)), zero)
            reports.append(verify_identity(row, delta, rels, spec, f"{tag}: row({i + 1},{j + 1})"))
    return reports


def verify_coproduct(pres: UqfPresentation, spec: ZetaSpec = FORMAL) -> VerificationReport:
    """The comultiplication lands in the braided square and respects both unitaries.

    Builds U_ij = sum_k j1(u_ik) j2(u_kj), checks U is unitary, that
    F U-conj F^-1 equals sum_l j1(u'_il) j2(u'_lj) and is unitary, that the
    two coassociativity routes agree in three legs, and the cancellation
    identity sum_j U_ij j2(u*_kj) = j1(u_ik).
    """
    n = pres.n
    d = list(pres.datum.d)
    U = _lmat(
        n,
        lambda i, j: sum(
            (
                embed(1, pres.u[i][k], 2) * embed(2, pres.u[k][j], 2)
                for k in range(n)
            ),
            GradedPoly.zero(2),
        ),
    )
    reports = _unitarity_checks(U, pres.relations, spec, "U unitary")

    # coassociativity: (Delta x id) Delta and (id x Delta) Delta agree on u_ij
    for i in range(n):
        for j in range(n):
            left = GradedPoly.zero(3)
            right = GradedPoly.zero(3)
            for k in range(n):
                left = left + lift_legs(U[i][k], {1: 1, 2: 2}, 3) * embed(
                    3, pres.u[k][j], 3
                )
                right = right + embed(1, pres.u[i][k], 3) * lift_legs(
                    U[k][j], {1: 2, 2: 3}, 3
                )
            reports.append(
                verify_identity(left, right, pres.relations, spec, f"coassoc({i + 1},{j + 1})")
            )

    # cancellation: sum_j Delta(u_ij) j2(u*_kj) = j1(u_ik)
    for i in range(n):
        for k in range(n):
            lhs = sum(
                (U[i][j] * embed(2, pres.u[k][j].star(), 2) for j in range(n)),
                GradedPoly.zero(2),
            )
            rhs = embed(1, pres.u[i][k], 2)
            reports.append(
                verify_identity(lhs, rhs, pres.relations, spec, f"cancel({i + 1},{k + 1})")
            )

    U_prime = mat_mul(mat_mul(pres.datum.F, conjugate_matrix(U, d)), pres.datum.F_inv)
    U_prime_expected = _lmat(
        n,
        lambda i, j: sum(
            (
                embed(1, pres.u_prime[i][l], 2) * embed(2, pres.u_prime[l][j], 2)
                for l in range(n)
            ),
            GradedPoly.zero(2),
        ),
    )
    for i in range(n):
        for j in range(n):
            reports.append(
                verify_identity(
                    U_prime[i][j],
                    U_prime_expected[i][j],
                    pres.relations,
                    spec,
                    f"U' split({i + 1},{j + 1})",
                )
            )
    reports.extend(_unitarity_checks(U_prime, pres.relations, spec, "U' unitary"))
    return VerificationReport.merge("coproduct", reports)


# -- bosonization ------------------------------------------------------------------


@dataclass
class BosoPresentation:
    datum: AdmissibilityDatum
    z: Letter
    letters: list
    relations: RelationSet
    presentation: Presentation
    coproduct: dict  # generator -> polynomial on legs (2, 2): two (circle x algebra) factors


def build_bosonization(datum: AdmissibilityDatum, name: str = "u") -> BosoPresentation:
    base = build_uqf(datum, name)
    n = datum.n
    d = datum.d
    commutations = tuple(
        (Z_LETTER, base.letters[i][j], zeta(d[i] - d[j])) for i in range(n) for j in range(n)
    )
    pres = Presentation(
        generators=[Z_LETTER] + [l for row in base.letters for l in row],
        degree_tuples={"d": d, "d'": datum.d_prime, "d0": datum.d0},
        relations=[
            UnitaryMatrixRel("z", ((GradedPoly.from_letter(Z_LETTER),),)),
            PhaseCommutationRel(commutations),
        ]
        + base.presentation.relations,
    )
    coproduct = {Z_LETTER: _closed_coproduct_z()}
    for i in range(n):
        for j in range(n):
            coproduct[base.letters[i][j]] = _closed_coproduct_u(base.letters, d, i, j)
    rels = RelationSet.from_relations(pres.relations)
    return BosoPresentation(datum, Z_LETTER, base.letters, rels, pres, coproduct)


def _two_leg(circle: tuple[Letter, ...], letter: Letter | None = None) -> GradedPoly:
    """The two-leg word j1(circle word)*j2(letter) of the bosonization picture."""
    return GradedPoly.from_word(circle + ((letter.on_leg(2),) if letter else ()), legs=2)


def _closed_coproduct_z() -> GradedPoly:
    zz = _two_leg((Z_LETTER,))
    return zz.tensor(zz)


def _closed_coproduct_u(letters, d, i, j) -> GradedPoly:
    total = GradedPoly.zero((2, 2))
    for k in range(len(d)):
        left = _two_leg((), letters[i][k])
        right = _two_leg(z_word(d[k] - d[i]), letters[k][j])
        total = total + left.tensor(right)
    return total


def derive_boso_coproduct(datum: AdmissibilityDatum, spec: ZetaSpec = FORMAL) -> VerificationReport:
    """Recompute the bosonized comultiplication through the flattening map.

    Applies (id x Delta) in the three-leg picture, flattens, and compares
    against the closed form on z and on every u_ij.
    """
    boso = build_bosonization(datum)
    n = datum.n
    plain = RelationSet()
    three_z = GradedPoly.from_letter(Z_LETTER, legs=3)
    reports = [
        verify_identity(psi_flatten(three_z, Z_LETTER), boso.coproduct[Z_LETTER], plain, spec, "Delta(z)")
    ]
    for i in range(n):
        for j in range(n):
            expanded = GradedPoly(
                {(boso.letters[i][k].on_leg(2), boso.letters[k][j].on_leg(3)): ONE for k in range(n)},
                3,
            )
            reports.append(
                verify_identity(
                    psi_flatten(expanded, Z_LETTER),
                    boso.coproduct[boso.letters[i][j]],
                    plain,
                    spec,
                    f"Delta(u[{i + 1},{j + 1}])",
                )
            )
    return VerificationReport.merge("boso-coproduct", reports)


def verify_fundamental_rep(datum: AdmissibilityDatum, spec: ZetaSpec = FORMAL) -> VerificationReport:
    """The matrix t_ij = j1(z^{d_i}) j2(u_ij) is a unitary representation.

    Checks both unitarity chains, the comultiplication table
    Delta(t_ij) = sum_k t_ik (x) t_kj, and the conjugate identity
    t-bar = diag(z^{-d_1},...,z^{-d_n}) u-conj.
    """
    boso = build_bosonization(datum)
    n = datum.n
    d = datum.d
    t = _lmat(n, lambda i, j: _two_leg(z_word(d[i]), boso.letters[i][j]))
    reports = _unitarity_checks(t, boso.relations, spec, "t unitary")

    # Delta(t_ij) = (z (x) z)^{d_i} * Delta(u_ij), compared with sum_k t_ik (x) t_kj
    # after cancelling z z* on each leg
    plain = RelationSet()
    dz = boso.coproduct[Z_LETTER]
    z_star = _two_leg((Z_LETTER.star(),))
    dz_star = z_star.tensor(z_star)
    for i in range(n):
        for j in range(n):
            lhs = GradedPoly.one((2, 2))
            for _ in range(abs(d[i])):
                lhs = lhs * (dz if d[i] >= 0 else dz_star)
            lhs = lhs * boso.coproduct[boso.letters[i][j]]
            rhs = sum((t[i][k].tensor(t[k][j]) for k in range(1, n)), t[i][0].tensor(t[0][j]))
            reports.append(
                verify_identity(
                    cuntz_reduce(lhs, rels=boso.relations),
                    cuntz_reduce(rhs, rels=boso.relations),
                    plain,
                    spec,
                    f"Delta(t[{i + 1},{j + 1}])",
                )
            )

    # t-bar = diag(z^{-d_i}) * u-conj, entrywise in the two-leg picture
    for i in range(n):
        for j in range(n):
            lhs = t[i][j].star()
            rhs = _two_leg(z_word(-d[i]), boso.letters[i][j].star()) * zeta(d[i] * (d[j] - d[i]))
            reports.append(
                verify_identity(lhs, rhs, boso.relations, spec, f"t-bar({i + 1},{j + 1})")
            )
    return VerificationReport.merge("fundamental-rep", reports)


# -- the action on the one-vertex graph algebra ------------------------------------


def cuntz_letters(n: int, d) -> list[Letter]:
    return [Letter("S", (i + 1,), d[i]) for i in range(n)]


def cuntz_action(n: int, d, spec: ZetaSpec = FORMAL, letters=None):
    """The linear action on n isometries: S'_j = sum_i j1(S_i) j2(u_ij).

    Verifies the isometry relations, the full sum, and the star formula
    S'*_j = sum_i j1(S*_i) j2(u-conj_ij).  Returns (action table, report).
    """
    d = tuple(d)
    datum = make_datum([[1 if i == j else 0 for j in range(n)] for i in range(n)], d)
    base = build_uqf(datum)
    S = letters or cuntz_letters(n, d)
    rels = RelationSet.from_relations([CuntzFamilyRel(tuple(S))] + base.presentation.relations)
    action = _linear_action(S, base.letters)
    reports = []
    zero, one = GradedPoly.zero(2), GradedPoly.one(2)
    for i in range(n):
        for j in range(n):
            delta = one if i == j else zero
            reports.append(
                verify_identity(
                    action[i].star() * action[j], delta, rels, spec, f"S'*S'({i + 1},{j + 1})"
                )
            )
    total = sum((action[j] * action[j].star() for j in range(n)), zero)
    reports.append(verify_identity(total, one, rels, spec, "sum S'S'* = 1"))

    ubar = conjugate_matrix(u_matrix(base.letters), list(d))
    for j in range(n):
        expected = sum(
            (
                embed(1, GradedPoly.from_letter(S[i].star()), 2) * embed(2, ubar[i][j], 2)
                for i in range(n)
            ),
            zero,
        )
        reports.append(
            verify_identity(action[j].star(), expected, rels, spec, f"star formula j={j + 1}")
        )

    # coassociativity of the action: (action x id) and (id x Delta) routes agree
    U = _lmat(
        n,
        lambda i, j: sum(
            (embed(1, base.u[i][k], 2) * embed(2, base.u[k][j], 2) for k in range(n)),
            zero,
        ),
    )
    for j in range(n):
        left = GradedPoly.zero(3)
        right = GradedPoly.zero(3)
        for i in range(n):
            left = left + lift_legs(action[i], {1: 1, 2: 2}, 3) * embed(
                3, base.u[i][j], 3
            )
            right = right + embed(
                1, GradedPoly.from_letter(S[i]), 3
            ) * lift_legs(U[i][j], {1: 2, 2: 3}, 3)
        reports.append(verify_identity(left, right, rels, spec, f"action coassoc j={j + 1}"))
    return action, VerificationReport.merge("cuntz-action", reports)


def _cuntz_tau(n: int):
    """The equilibrium state on words in n isometries: delta(paths) n^-len."""
    from .graphalg import cuntz_graph, check_dagger, kms_state

    g = cuntz_graph(n)
    k = check_dagger(g)
    return kms_state(g, k)


def verify_kms_preservation(n: int, d, L: int, spec: ZetaSpec = FORMAL) -> VerificationReport:
    """(state x id) applied to the action of a span element returns its state value.

    Exhaustive over pairs of multi-indices up to length L, exact arithmetic.
    """
    d = tuple(d)
    datum = make_datum([[1 if i == j else 0 for j in range(n)] for i in range(n)], d)
    base = build_uqf(datum)
    S = cuntz_letters(n, d)
    rels = base.relations
    tau = _cuntz_tau(n)

    eta = _linear_action(S, base.letters)
    eta_star = [p.star() for p in eta]

    reports = []
    indices = []
    for length in range(L + 1):
        indices.extend(itertools.product(range(n), repeat=length))
    for alpha in indices:
        for beta in indices:
            image = GradedPoly.one(2)
            for a in alpha:
                image = image * eta[a]
            for b in reversed(beta):
                image = image * eta_star[b]
            applied = apply_state_leg1(image, tau)
            expected_value = (
                Fraction(1, n ** len(alpha)) if alpha == beta else Fraction(0)
            )
            expected = GradedPoly.from_scalar(expected_value)
            reports.append(
                verify_identity(
                    applied,
                    expected,
                    rels,
                    spec,
                    f"alpha={list(a + 1 for a in alpha)} beta={list(b + 1 for b in beta)}",
                )
            )
    return VerificationReport.merge("kms-preservation", reports)


# -- abstract state-preservation constraints ----------------------------------------


def derive_action_constraints(ftilde, d, spec: ZetaSpec = FORMAL):
    """Closed-form constraints forced on an abstract linear action by state
    preservation, derived symbolically and matched against their displays:

        (1)  sum_k z^{d_k (d_j - d_i)} q_ki q*_kj = delta_ij
        (2)  sum_k q*_ki ftilde_kk q_kj = ftilde_ij

    ftilde is the diagonal of the normalized sesquilinear matrix.  Returns
    (relations, report) where relations maps (i,j) to the two (lhs, rhs)
    polynomial pairs.
    """
    d = tuple(d)
    n = len(d)
    ftilde = [Fraction(x) for x in ftilde]
    q = u_letters(d, "q")
    S = cuntz_letters(n, d)

    eta = _linear_action(S, q)
    eta_star = [p.star() for p in eta]

    def tau_pairs(word):
        if len(word) == 0:
            return ONE
        if len(word) != 2:
            raise ValueError(f"expected a length-2 edge word, got {word}")
        a, b = word
        ia, ib = a.index[0] - 1, b.index[0] - 1
        if not a.starred and b.starred:
            return ONE if ia == ib else ZERO  # normalized: tau(S_k S*_l) = delta
        if a.starred and not b.starred:
            return Scalar.from_fraction(ftilde[ia]) if ia == ib else ZERO
        return ZERO

    relations = {}
    reports = []
    plain = RelationSet()
    for i in range(n):
        for j in range(n):
            computed1 = apply_state_leg1(eta[i] * eta_star[j], tau_pairs)
            display1 = GradedPoly.zero()
            for k in range(n):
                display1 = display1 + GradedPoly.from_word(
                    (q[k][i], q[k][j].star()), zeta(d[k] * (d[j] - d[i]))
                )
            reports.append(
                verify_identity(computed1, display1, plain, spec, f"display1({i + 1},{j + 1})")
            )

            computed2 = apply_state_leg1(eta_star[i] * eta[j], tau_pairs)
            display2 = GradedPoly.zero()
            for k in range(n):
                display2 = display2 + GradedPoly.from_word(
                    (q[k][i].star(), q[k][j]), rational(ftilde[k])
                )
            reports.append(
                verify_identity(computed2, display2, plain, spec, f"display2({i + 1},{j + 1})")
            )

            rhs1 = GradedPoly.from_scalar(ONE if i == j else ZERO)
            rhs2 = GradedPoly.from_scalar(rational(ftilde[i]) if i == j else ZERO)
            relations[(i + 1, j + 1)] = ((display1, rhs1), (display2, rhs2))
    return relations, VerificationReport.merge("action-constraints", reports)


# -- quotient identities and the graph presentation ----------------------------------


def verify_quotient_identities(F_diag, d, spec: ZetaSpec = FORMAL) -> VerificationReport:
    """The matrix manipulations tying the abstract constraints to the
    universal presentation, for a positive diagonal F with F*F = ftilde:

      (a) the phase-dressed conjugate satisfies
          sum_k (q-conj* q-conj)_ij = sum_k z^{d_k(d_j-d_i)} q_ki q*_kj;
      (b) (q* ftilde q)_ij = sum_k q*_ki ftilde_kk q_kj;
      (c) (F*)^-1 (q* ftilde q) F^-1 = (F q F^-1)* (F q F^-1);
      (d) F^-1 (q'-conj) F = q-conj for q' = F q F^-1.

    All four are raw expansions over abstract generators; no algebra
    relations are used.
    """
    d = tuple(d)
    n = len(d)
    F = [[(F_diag[i] if i == j else ZERO) for j in range(n)] for i in range(n)]
    F = _as_scalar_matrix(F)
    F_inv = scalar_mat_inverse([list(r) for r in F])
    ftilde = [F_diag[i] * F_diag[i] for i in range(n)]  # diagonal, F real positive

    q = u_letters(d, "q")
    qm = u_matrix(q)
    qbar = conjugate_matrix(qm, list(d))
    reports = []
    empty = RelationSet()

    # (a)
    qbar_star = [[qbar[j][i].star() for j in range(n)] for i in range(n)]
    lhs_a = mat_mul(qbar_star, qbar)
    for i in range(n):
        for j in range(n):
            rhs = GradedPoly.zero()
            for k in range(n):
                rhs = rhs + GradedPoly.from_word((q[k][i],), ONE) * GradedPoly.from_word(
                    (q[k][j].star(),), zeta(d[k] * (d[j] - d[i]))
                )
            reports.append(verify_identity(lhs_a[i][j], rhs, empty, spec, f"(a)({i + 1},{j + 1})"))

    # (b)
    q_star = [[qm[j][i].star() for j in range(n)] for i in range(n)]
    ft_mat = [[GradedPoly.from_scalar(ftilde[i]) if i == j else GradedPoly.zero() for j in range(n)] for i in range(n)]
    lhs_b = mat_mul(mat_mul(q_star, ft_mat), qm)
    for i in range(n):
        for j in range(n):
            rhs = GradedPoly.zero()
            for k in range(n):
                rhs = rhs + GradedPoly.from_word((q[k][i].star(), q[k][j]), ftilde[k])
            reports.append(verify_identity(lhs_b[i][j], rhs, empty, spec, f"(b)({i + 1},{j + 1})"))

    # (c)
    q_prime = mat_mul(mat_mul(F, qm), F_inv)
    qp_star = [[q_prime[j][i].star() for j in range(n)] for i in range(n)]
    rhs_c = mat_mul(qp_star, q_prime)
    fstar_inv = F_inv  # F real diagonal
    lhs_c = mat_mul(mat_mul(fstar_inv, lhs_b), F_inv)
    for i in range(n):
        for j in range(n):
            reports.append(
                verify_identity(lhs_c[i][j], rhs_c[i][j], empty, spec, f"(c)({i + 1},{j + 1})")
            )

    # (d)
    qp_bar = conjugate_matrix(q_prime, list(d))
    lhs_d = mat_mul(mat_mul(F_inv, qp_bar), F)
    for i in range(n):
        for j in range(n):
            reports.append(
                verify_identity(lhs_d[i][j], qbar[i][j], empty, spec, f"(d)({i + 1},{j + 1})")
            )
    return VerificationReport.merge("quotient-identities", reports)


def graph_universal_presentation(g: GraphData, k: KmsData, spec: ZetaSpec = FORMAL):
    """Generators t_ij with F t F^-1 and t-conj unitary, F = diag sqrt(ftilde).

    Returns (presentation, relation set, report); the report re-verifies the
    diagonal-F conjugation identity for the computed F.
    """
    diag = normalized_ftilde(g, k)
    F_diag = [Scalar.sqrt_of(w) for w in diag]
    n = g.num_edges
    d = tuple(g.gauge_degrees)
    t = u_letters(d, "t")
    tm = u_matrix(t)
    F = _as_scalar_matrix([[(F_diag[i] if i == j else ZERO) for j in range(n)] for i in range(n)])
    F_inv = scalar_mat_inverse([list(r) for r in F])
    FtF = mat_mul(mat_mul(F, tm), F_inv)
    tbar = conjugate_matrix(tm, list(d))
    pres = Presentation(
        generators=[l for row in t for l in row],
        degree_tuples={"d": d},
        relations=[UnitaryMatrixRel("FtF^-1", _rows(FtF)), UnitaryMatrixRel("t-conj", _rows(tbar))],
    )
    report = verify_quotient_identities(F_diag, d, spec)
    return pres, RelationSet.from_relations(pres.relations), report
