"""Admissibility, presentations, bosonization, and the proposition suites."""

import dataclasses
import gc
import itertools
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from braidalg import braided, simplify, uqf
from braidalg.algebra import (
    GradedPoly,
    Letter,
    adjoint,
    conjugate_matrix,
    diag_matrix,
    mat_identity,
    mat_mul,
    scalar_mat_inverse,
)
from braidalg.braided import Z_LETTER
from braidalg.graphalg import GraphData, check_dagger, cuntz_graph, cycle_graph, kms_state, normalized_ftilde
from braidalg.scalars import FORMAL, ONE, Scalar, ZetaSpec, sqrt, zeta
from braidalg.simplify import (
    EVENT_SINK,
    CuntzFamilyRel,
    PhaseCommutationRel,
    Presentation,
    RelationSet,
    UnitaryMatrixRel,
    reduce_poly,
)
from braidalg.uqf import (
    NotAdmissible,
    build_bosonization,
    build_uqf,
    check_admissible,
    cuntz_action,
    derive_action_constraints,
    derive_boso_coproduct,
    graph_universal_presentation,
    make_datum,
    solve_admissible,
    u_letters,
    u_matrix,
    verify_coproduct,
    verify_fundamental_rep,
    verify_kms_preservation,
    verify_quotient_identities,
)


def ident(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# -- admissibility -----------------------------------------------------------------


def test_check_admissible_identity():
    for n in (1, 2, 3):
        d = tuple(range(n))
        assert check_admissible(ident(n), d, tuple(-x for x in d), 0)


def test_check_admissible_diagonal():
    assert check_admissible([[1, 0], [0, 2]], (0, 1), (0, -1), 0)


def test_check_admissible_dense_fails():
    assert not check_admissible([[1, 1], [0, 1]], (0, 1), (0, -1), 0)


def test_solve_admissible_identity():
    datum = solve_admissible(ident(3), (1, 2, 3))
    assert datum.d_prime == (-1, -2, -3)
    assert datum.d0 == 0


def test_solve_admissible_antidiagonal():
    datum = solve_admissible([[0, 1], [1, 0]], (0, 1))
    assert datum.d_prime == (-1, 0)
    assert datum.d0 == 0


def test_solve_admissible_dense_no_solution():
    assert solve_admissible([[1, 1], [1, -1]], (0, 1)) is None


# -- the universal presentation ------------------------------------------------------


def test_build_uqf_1x1():
    datum = make_datum([[1]], (3,))
    pres = build_uqf(datum)
    # u-conj at n=1 is the bare adjoint: the two unitaries are u and u*
    uu = pres.u[0][0]
    assert pres.u_prime[0][0] == uu.star()


def test_build_uqf_conjugate_phases_n2():
    datum = make_datum(ident(2), (0, 1))
    pres = build_uqf(datum)
    u = pres.letters
    # second unitarity involves z^{d_i(d_j-d_i)} u*_ij, exponents [[0,0],[-1,0]]
    assert pres.u_prime[1][0] == GradedPoly.from_letter(u[1][0].star()) * zeta(-1)
    assert pres.u_prime[0][1] == GradedPoly.from_letter(u[0][1].star())


def test_build_uqf_zero_degrees_unbraided():
    datum = make_datum(ident(2), (0, 0))
    pres = build_uqf(datum)
    for i in range(2):
        for j in range(2):
            assert pres.u_prime[i][j] == GradedPoly.from_letter(pres.letters[i][j].star())


def test_uprime_degrees_match_dprime():
    for F, d in [(ident(2), (0, 1)), ([[1, 0], [0, 2]], (1, 2)), (ident(3), (0, 1, 1))]:
        datum = make_datum(F, d)
        pres = build_uqf(datum)
        for i in range(len(d)):
            for j in range(len(d)):
                assert pres.u_prime[i][j].degree() == datum.d_prime[j] - datum.d_prime[i]


def test_defining_relation_polynomials_are_homogeneous():
    # each unitarity sum sum_k u*_ki u_kj - delta is homogeneous (degree d_j - d_i)
    datum = make_datum([[1, 0], [0, 2]], (0, 1))
    pres = build_uqf(datum)
    for mat, degs in ((pres.u, datum.d), (pres.u_prime, datum.d_prime)):
        n = len(mat)
        for i in range(n):
            for j in range(n):
                rel = GradedPoly.zero()
                for k in range(n):
                    rel = rel + mat[k][i].star() * mat[k][j]
                rel = rel - GradedPoly({(): 1 if i == j else 0})
                assert rel.degree() is not None
                if not rel.is_zero():
                    assert rel.degree() == degs[j] - degs[i]


def test_presentation_dump_is_stable():
    pres = build_uqf(make_datum(ident(2), (0, 1)))
    dump1 = pres.presentation.dump()
    dump2 = build_uqf(make_datum(ident(2), (0, 1))).presentation.dump()
    assert dump1 == dump2
    assert "[generators]" in dump1 and "[relations]" in dump1


def test_presentation_dump_all_relation_tags():
    from braidalg.graphalg import edge_letters

    S = tuple(edge_letters(cuntz_graph(2, (0, 1))))
    u11 = Letter("u", (1, 1), 0)
    dump = Presentation(
        generators=list(S) + [u11],
        degree_tuples={"d": (0, 1), "d0": 0},
        relations=[
            UnitaryMatrixRel("u", ((GradedPoly.from_letter(u11),),)),
            CuntzFamilyRel(S),
            PhaseCommutationRel(((S[1], u11, zeta(-1)),)),
        ],
    ).dump()
    assert dump.splitlines()[-4:] == [
        "unitary u:",
        "  [ u[1,1] ]",
        "cuntz family (S[1], S[2]): S*[i]S[j] = delta, sum S[i]S*[i] = 1",
        "commutation S[2]*u[1,1] = (z^-1)*u[1,1]*S[2]",
    ]
    assert "d = (0,1)" in dump and "d0 = 0" in dump


def test_rules_compile_once_and_never_for_the_base_presentation(monkeypatch):
    compiled = []
    init = RelationSet.__init__

    def counting_init(self, relations=()):
        compiled.append([getattr(rel, "name", type(rel).__name__) for rel in relations])
        init(self, relations)

    monkeypatch.setattr(RelationSet, "__init__", counting_init)
    datum = make_datum(ident(2), (0, 1))
    p = build_uqf(datum).presentation
    assert p.rules is p.rules
    assert compiled == [["u", "u'"]]
    compiled.clear()
    build_bosonization(datum)
    assert compiled == []
    # the suites compile their own presentation's rules, never the base u-presentation's
    assert cuntz_action(2, (0, 1))[1].verified
    assert compiled == [["CuntzFamilyRel", "u", "u'"]]
    compiled.clear()
    assert verify_fundamental_rep(datum).verified
    assert [names for names in compiled if names] == [["z", "PhaseCommutationRel", "u", "u'"]]


def test_build_uqf_rejects_a_datum_that_breaks_the_vanishing_condition():
    datum = make_datum([[1, 0], [0, 2]], (0, 1))
    with pytest.raises(NotAdmissible):
        build_uqf(dataclasses.replace(datum, d_prime=(0, 0)))


# -- coproduct, fundamental representation, bosonization -------------------------------


@pytest.mark.parametrize(
    "F, d",
    [
        (ident(2), (0, 1)),
        ([[1, 0, 0], [0, 2, 0], [0, 0, 3]], (0, 0, 1)),
        (ident(2), (0, 0)),
    ],
)
def test_verify_coproduct(F, d):
    report = verify_coproduct(build_uqf(make_datum(F, d)))
    assert report.verified, report.render()


@pytest.mark.parametrize("F", [ident(4), diag_matrix([1, 2, 3, 4])], ids=["identity", "diag-1234"])
def test_coproduct_forms_no_read_once_product(monkeypatch, F):
    """mat_mul forms only U = Delta(u), F U-conj and U' = F U-conj F^-1, n^3 terms each;
    every product a check reads once is a factor pair, formed entry by entry."""
    terms = []

    def counting_mat_mul(a, b):
        product = mat_mul(a, b)
        terms.append(sum(len(p) for row in product for p in row))
        return product

    pres = build_uqf(make_datum(F, (0, 1, 2, 3)))
    monkeypatch.setattr(uqf, "mat_mul", counting_mat_mul)
    assert verify_coproduct(pres).verified
    assert terms and max(terms) <= 4**3, terms


def test_entrywise_refuses_sides_of_another_shape():
    """A side larger than the first is not checked short, and a factor pair must multiply."""
    two, three = mat_identity(2), mat_identity(3)
    with pytest.raises(ValueError, match="must be 2x2"):
        uqf._entrywise(RelationSet(), FORMAL, ("x", two, three))
    two_by_three = [[GradedPoly.one()] * 3] * 2
    with pytest.raises(ValueError, match="factor pair of 2x3 and 2x2"):
        uqf._entrywise(RelationSet(), FORMAL, ("x", (two_by_three, two), two))


@pytest.mark.parametrize(
    "suite",
    [
        lambda: verify_coproduct(build_uqf(make_datum([[1, 0], [0, 2]], (0, 1)))),
        lambda: verify_fundamental_rep(make_datum([[1, 0], [0, 2]], (0, 1))),
        lambda: cuntz_action(2, (0, 1))[1],
        lambda: verify_kms_preservation(2, (0, 1), 2),
        lambda: derive_action_constraints([1, 4], (0, 1))[1],
        lambda: verify_quotient_identities([ONE, Scalar.from_fraction(2)], (0, 1)),
        lambda: derive_boso_coproduct(build_bosonization(make_datum([[1, 0], [0, 2]], (0, 1)))),
    ],
    ids=["coproduct", "fundamental", "cuntz-action", "kms-preserve", "matricial", "quotient", "boso-coproduct"],
)
def test_a_suite_holds_one_leaf_report_at_a_time(monkeypatch, suite):
    """Each check's report, and the residual it carries, is gone before the next check runs."""
    made, alive = [], []

    def watched_verify(*args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in made))
        report = simplify.verify_identity(*args)
        made.append(weakref.ref(report))
        return report

    monkeypatch.setattr(uqf, "verify_identity", watched_verify)
    assert suite().verified
    assert len(alive) > 1 and max(alive) <= 1, alive


def test_bosonization_relations_match_expected_list():
    d = (0, 1)
    boso = build_bosonization(make_datum(ident(2), d))
    rels = boso.presentation.relations
    # z unitary, commutations, u unitary, u' unitary: exactly four relation groups
    assert len(rels) == 4
    assert isinstance(rels[0], UnitaryMatrixRel) and rels[0].name == "z"
    comm = rels[1]
    assert isinstance(comm, PhaseCommutationRel)
    expected = {}
    for i in range(2):
        for j in range(2):
            expected[(i + 1, j + 1)] = zeta(d[i] - d[j])
    got = {(a.index[0] if a.index else 0, b.index): None for a, b, _ in comm.pairs}
    for z, l, phase in comm.pairs:
        assert z.name == "z"
        assert phase == expected[l.index]
    # z u12 = z^-1 u12 z when d = (0,1)
    pair = next((a, b, p) for a, b, p in comm.pairs if b.index == (1, 2))
    assert pair[2] == zeta(-1)


def test_bosonization_zero_degrees_commute():
    boso = build_bosonization(make_datum(ident(2), (0, 0)))
    comm = boso.presentation.relations[1]
    assert all(phase == ONE for _, _, phase in comm.pairs)


def test_bosonization_1x1_z_commutes_with_u():
    boso = build_bosonization(make_datum([[1]], (1,)))
    comm = boso.presentation.relations[1]
    assert all(phase == ONE for _, _, phase in comm.pairs)


@pytest.mark.parametrize("F, d", [(ident(1), (2,)), (ident(2), (0, 1)), ([[1, 0], [0, 2]], (1, 2))])
def test_derive_boso_coproduct(F, d):
    report = derive_boso_coproduct(build_bosonization(make_datum(F, d)))
    assert report.verified, report.render()


def test_boso_coproduct_closed_form_n2():
    d = (0, 1)
    boso = build_bosonization(make_datum(ident(2), d))
    # Delta(u_12) = sum_k u_1k (x) z^{d_k - d_1} u_k2: the k=2 term carries one z
    # the two factors live on legs (1, 2) and (3, 4) of one word
    table = boso.coproduct[boso.letters[0][1]]
    assert table.legs == (2, 2)
    u, z = boso.letters, Z_LETTER
    words = {w for w, _ in table.items()}
    assert (u[0][0].on_leg(2), u[0][1].on_leg(4)) in words
    assert (u[0][1].on_leg(2), z.on_leg(3), u[1][1].on_leg(4)) in words


@pytest.mark.parametrize(
    "F, d",
    [
        (ident(2), (0, 1)),
        (ident(2), (0, 0)),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 2]], (0, 1, 1)),
    ],
)
def test_verify_fundamental_rep(F, d):
    report = verify_fundamental_rep(make_datum(F, d))
    assert report.verified, report.render()


def test_fundamental_rep_zero_degrees_t_equals_u():
    # with d = 0 there are no z factors: t is u and all checks are unbraided
    report = verify_fundamental_rep(make_datum(ident(2), (0, 0)))
    assert report.verified


def test_fundamental_rep_negative_degrees():
    # d_1 < 0 exercises the z-star powers in t and in the coproduct table
    report = verify_fundamental_rep(make_datum(ident(2), (-1, 1)))
    assert report.verified, report.render()


# -- the action on the one-vertex graph algebra ----------------------------------------


@pytest.mark.parametrize("n, d", [(2, (0, 1)), (2, (0, 0)), (3, (1, 2, 3))])
def test_cuntz_action(n, d):
    table, report = cuntz_action(n, d)
    assert report.verified, report.render()
    assert len(table) == n
    # S'_j is homogeneous of degree d_j
    for j in range(n):
        assert table[j].degree() == d[j]


def test_only_kms_preservation_builds_the_state(monkeypatch):
    """cuntz-action reads no state, so it builds none; kms-preserve builds one per request."""
    built = []
    monkeypatch.setattr(uqf, "check_dagger", lambda g: built.append(g) or check_dagger(g))
    monkeypatch.setattr(uqf, "kms_state", lambda g, k: built.append(k) or kms_state(g, k))
    assert cuntz_action(2, (0, 1))[1].verified and not built
    assert verify_kms_preservation(2, (0, 1), 1).verified and len(built) == 2


@pytest.mark.parametrize(
    "n, d, L",
    [(2, (0, 1), 1), (2, (0, 1), 2), (2, (1, 2), 2), (2, (0, 2), 2), (3, (0, 1, 2), 2)],
)
def test_verify_kms_preservation(n, d, L):
    report = verify_kms_preservation(n, d, L)
    assert report.verified, report.render()


def test_kms_preservation_mixed_lengths_vanish():
    # |alpha| = 1, |beta| = 2: both sides are zero; covered inside the suite
    report = verify_kms_preservation(2, (0, 1), 2)
    names = dict(report.checks)
    assert names["alpha=[1] beta=[1, 2]"] == "Verified"


@pytest.mark.parametrize("n, d, L", [(2, (0, 1), 2), (3, (0, 1, 2), 1)])
def test_kms_preservation_checks_every_pair_once(n, d, L):
    report = verify_kms_preservation(n, d, L)
    names = [name for name, _ in report.checks]
    paths = [list(w) for k in range(L + 1) for w in itertools.product(range(1, n + 1), repeat=k)]
    assert len(names) == sum(n**k for k in range(L + 1)) ** 2
    assert len(set(names)) == len(names)
    assert set(names) == {f"alpha={a} beta={b}" for a in paths for b in paths}


def test_kms_preservation_fails_with_a_wrong_partner(monkeypatch):
    # starred but not reversed: S_1 S_2 is paired with S*_1 S*_2, on which the state is zero
    monkeypatch.setattr(braided, "_partner", lambda head: tuple(l.star() for l in head))
    report = verify_kms_preservation(2, (0, 1), 2)
    assert not report.verified
    assert dict(report.checks)["alpha=[1, 2] beta=[1, 2]"] == "Unverified"


def test_kms_preservation_evaluates_the_state_only_on_its_diagonal(monkeypatch):
    seen = []

    def counted_kms_state(g, k):
        tau = kms_state(g, k)

        def evaluate(word):
            seen.append(word)
            return tau(word)

        return evaluate

    monkeypatch.setattr(uqf, "kms_state", counted_kms_state)
    assert verify_kms_preservation(2, (0, 1), 2).verified
    assert len(seen) == 1 + 2 + 4  # the state is cached: each S_g S*_g with |g| <= 2 once
    for word in seen:
        head = word[: len(word) // 2]
        assert all(l.name == "S" and not l.starred for l in head)
        assert word == head + tuple(l.star() for l in reversed(head))


def test_kms_preservation_finds_each_left_partner_once_per_call(monkeypatch):
    # the factors P(alpha) with |alpha| = k share their n^k left prefixes S_g: 1 + 2 + 4 calls,
    # not one per factor (1 + 2*2 + 4*4) and not one per pair
    calls = []
    partner = braided._partner

    def counted_partner(head):
        calls.append(head)
        return partner(head)

    monkeypatch.setattr(braided, "_partner", counted_partner)
    assert verify_kms_preservation(2, (0, 1), 2).verified
    assert len(calls) == len(set(calls)) == 1 + 2 + 4


def test_kms_preservation_compares_every_shared_expected_value(monkeypatch):
    # a doubled state breaks exactly the alpha = beta checks; the zero ones still hold
    def doubled_kms_state(g, k):
        tau = kms_state(g, k)
        return lambda word: tau(word) * 2

    monkeypatch.setattr(uqf, "kms_state", doubled_kms_state)
    checks = verify_kms_preservation(2, (0, 1), 2).checks
    assert len(checks) == 7 * 7
    for name, verdict in checks:
        alpha, _, beta = name.removeprefix("alpha=").partition(" beta=")
        assert verdict == ("Unverified" if alpha == beta else "Verified"), name


class _Events(list):
    """An event list that a weakref can watch."""


def test_an_untraced_suite_keeps_no_event_list(monkeypatch):
    watched = []

    def watched_reduce(p, rels):
        reduced, events = reduce_poly(p, rels)
        events = _Events(events)
        watched.append(weakref.ref(events))
        return reduced, events

    monkeypatch.setattr(simplify, "reduce_poly", watched_reduce)
    suites = [
        lambda: verify_kms_preservation(2, (0, 1), 2),
        lambda: verify_coproduct(build_uqf(make_datum([[1, 0], [0, 1]], (0, 1)))),
    ]
    reports = [suite() for suite in suites]
    gc.collect()
    assert all(r.verified for r in reports) and watched
    assert all(ref() is None for ref in watched)

    for suite in suites:  # a set sink holds one entry per check, in check order
        sink = []
        token = EVENT_SINK.set(sink)
        try:
            report = suite()
        finally:
            EVENT_SINK.reset(token)
        assert [name for name, _ in sink] == [name for name, _ in report.checks]


# -- abstract constraints and quotient identities ---------------------------------------


def test_derive_action_constraints_displays():
    relations, report = derive_action_constraints([Fraction(1), Fraction(2)], (0, 1))
    assert report.verified, report.render()
    (lhs1, rhs1), (lhs2, rhs2) = relations[(1, 2)]
    q = u_letters((0, 1), "q")
    # display (1): sum_k z^{d_k (d_j - d_i)} q_ki q*_kj, here (i,j) = (1,2)
    expect1 = GradedPoly({(q[0][0], q[0][1].star()): ONE, (q[1][0], q[1][1].star()): zeta(1)})
    assert lhs1 == expect1 and rhs1.is_zero()
    # display (2): sum_k q*_ki ftilde_kk q_kj
    expect2 = GradedPoly(
        {(q[0][0].star(), q[0][1]): ONE, (q[1][0].star(), q[1][1]): Scalar.from_fraction(2)}
    )
    assert lhs2 == expect2 and rhs2.is_zero()


def test_derive_action_constraints_fails_with_a_partner_naming_no_head(monkeypatch):
    # no right prefix is S*_k, so display (1) loses every S_k S*_k term
    monkeypatch.setattr(braided, "_partner", lambda head: None)
    _, report = derive_action_constraints([1, 2], (0, 1))
    assert not report.verified
    assert dict(report.checks)["display1(1,1)"] == "Unverified"


@pytest.mark.parametrize("ftilde", [[0, 1], [1, -2]])
def test_action_constraints_reject_a_non_positive_ftilde(ftilde):
    # a zero or negative entry is no sesquilinear weight; the displays would still match
    with pytest.raises(ValueError):
        derive_action_constraints(ftilde, (0, 1))


def test_action_constraints_at_identity_match_uconj_unitarity():
    # with the trivial sesquilinear matrix, display (1) is the u-conj column relation
    relations, report = derive_action_constraints([1, 1], (0, 1))
    assert report.verified
    d = (0, 1)
    q = u_letters(d, "q")
    qbar = conjugate_matrix([[GradedPoly.from_letter(l) for l in row] for row in q], list(d))
    for i in range(2):
        for j in range(2):
            (lhs1, _), _ = relations[(i + 1, j + 1)]
            expect = GradedPoly.zero()
            for k in range(2):
                expect = expect + qbar[k][i].star() * qbar[k][j]
            assert lhs1 == expect.star().star()  # plain equality; star here is a no-op
            assert lhs1 == expect


def test_action_constraints_zero_degrees():
    relations, report = derive_action_constraints([1, 1], (0, 0))
    assert report.verified
    (lhs1, _), _ = relations[(1, 1)]
    # no phases at d = 0
    for _, coeff in lhs1.items():
        assert coeff == ONE


@pytest.mark.parametrize(
    "diag, d",
    [([1, 1], (0, 1)), ([1, 2], (0, 1)), ([2, 3, 5], (1, 0, 2))],
)
def test_verify_quotient_identities(diag, d):
    report = verify_quotient_identities([Scalar.from_fraction(x) for x in diag], d)
    assert report.verified, report.render()


@pytest.mark.parametrize("diag", [[zeta(1), ONE], [ONE, ONE + zeta(1)]])
def test_quotient_identities_reject_a_non_real_F(diag):
    with pytest.raises(ValueError, match="real"):
        verify_quotient_identities(diag, (0, 1))


def test_quotient_identities_with_radical_entries():
    report = verify_quotient_identities([sqrt(2), sqrt(Fraction(1, 2))], (0, 1))
    assert report.verified


# -- the graph-level presentation --------------------------------------------------------


def _graph_cases():
    two_cycle = [cycle_graph(2, d) for d in [(0, 0), (0, 1)]]
    return two_cycle + [GraphData(2, ((0, 0), (0, 1), (0, 1), (1, 0)), (0, 1, 1, 0))]


def _unitarity_residuals(M, rels):
    """Every entry of M* M - 1 and M M* - 1, reduced under rels."""
    one = mat_identity(len(M))
    return [
        reduce_poly(P[i][j] - one[i][j], rels)[0]
        for P in (mat_mul(adjoint(M), M), mat_mul(M, adjoint(M)))
        for i in range(len(M))
        for j in range(len(M))
    ]


@pytest.mark.parametrize("g", _graph_cases(), ids=["two-cycle-00", "two-cycle-01", "unequal"])
def test_graph_relations_are_the_braided_unitary_relations_of_F_inverse(g):
    # F = diag sqrt(ftilde); the graph relations "F t F^-1 and t-conj unitary"
    # hold exactly when u = F t F^-1 and u' = F^-1 u-conj F are unitary
    d = list(g.gauge_degrees)
    F = diag_matrix([sqrt(w) for w in normalized_ftilde(g, check_dagger(g))])
    F_inv = scalar_mat_inverse(F)
    t_letters = u_matrix(u_letters(d, "t"))
    old = RelationSet(
        [
            UnitaryMatrixRel("FtF^-1", tuple(map(tuple, mat_mul(mat_mul(F, t_letters), F_inv)))),
            UnitaryMatrixRel("t-conj", tuple(map(tuple, conjugate_matrix(t_letters, d)))),
        ]
    )
    new = build_uqf(make_datum(F_inv, d))
    # the old relations, with t = F^-1 u F, reduce to zero under the new ones
    t = mat_mul(mat_mul(F_inv, new.u), F)
    for M in (mat_mul(mat_mul(F, t), F_inv), conjugate_matrix(t, d)):
        assert all(r.is_zero() for r in _unitarity_residuals(M, new.presentation.rules))
    # u and u' written in t are unitary under the old relations
    u = mat_mul(mat_mul(F, t_letters), F_inv)
    for M in (u, mat_mul(mat_mul(F_inv, conjugate_matrix(u, d)), F)):
        assert all(r.is_zero() for r in _unitarity_residuals(M, old))


def test_graph_universal_presentation_cuntz_matches_uqf():
    g = cuntz_graph(2, (0, 1))
    k = check_dagger(g)
    pres, t, report = graph_universal_presentation(g, k)
    assert report.verified
    # F = I: the relations are exactly those of the braided unitary presentation
    base = build_uqf(make_datum(ident(2), (0, 1)))
    got = {fam.name: fam for fam in pres.presentation.rules.families}
    expect = {fam.name: fam for fam in base.presentation.rules.families}
    assert len(got) == len(expect)
    for name, fam in expect.items():
        assert got[name].members == fam.members, name
    assert t == base.u


def test_graph_universal_presentation_two_cycle():
    for d in [(0, 0), (0, 1)]:
        g = cycle_graph(2, d)
        k = check_dagger(g)
        pres, t, report = graph_universal_presentation(g, k)
        assert report.verified, report.render()
        assert len(pres.presentation.generators) == 4


def test_graph_universal_presentation_zero_weight():
    from braidalg.graphalg import ZeroVertexWeight

    g = GraphData(2, ((0, 0), (0, 0), (1, 1)), (1, 1, 1))
    k = check_dagger(g)
    with pytest.raises(ZeroVertexWeight):
        graph_universal_presentation(g, k)


def test_verify_coproduct_antidiagonal_F():
    # a genuinely non-diagonal admissible matrix: the conjugated unitary
    # still has single-term entries, so the full suite runs
    datum = make_datum([[0, 1], [1, 0]], (0, 1))
    assert datum.d_prime == (-1, 0)
    report = verify_coproduct(build_uqf(datum))
    assert report.verified, report.render()


def test_verify_coproduct_negative_degrees():
    report = verify_coproduct(build_uqf(make_datum(ident(2), (-1, 2))))
    assert report.verified


def test_graph_presentation_unequal_weights():
    # vertex matrix [[1,2],[1,0]]: radius 2, weights (2/3, 1/3); the
    # normalizers involve sqrt(3) and sqrt(6), exercising the radical ring
    g = GraphData(2, ((0, 0), (0, 1), (0, 1), (1, 0)), (0, 1, 1, 0))
    k = check_dagger(g)
    assert k.exact and k.rho == 2
    assert k.vertex_weights == (Fraction(2, 3), Fraction(1, 3))
    pres, t, report = graph_universal_presentation(g, k)
    assert report.verified, report.render()
    assert len(pres.presentation.generators) == 16
    for suite in ("U unitary", "U' split"):
        assert any(name.startswith(suite) for name, _ in report.checks), suite


def test_boso_commutation_rules_reduce_conjugation():
    # z u_ij z* = z^{d_i - d_j} u_ij inside the crossed-product presentation
    from braidalg.simplify import reduce_poly, render_step
    from braidalg.uqf import Z_LETTER

    d = (0, 1)
    boso = build_bosonization(make_datum(ident(2), d))
    for i in range(2):
        for j in range(2):
            l = boso.letters[i][j]
            word = GradedPoly({(Z_LETTER, l, Z_LETTER.star()): ONE})
            reduced, trace = reduce_poly(word, boso.presentation.rules)
            assert reduced == GradedPoly({(l,): zeta(d[i] - d[j])}), (i, j, reduced)
            assert any("swap" in render_step(e) for e in trace)


# -- specialization regression ------------------------------------------------------------


@pytest.mark.parametrize("N", [3, 4, 8])
def test_suites_reverify_at_roots_of_unity(N):
    spec = ZetaSpec.root_of_unity(N)
    assert verify_coproduct(build_uqf(make_datum(ident(2), (0, 1))), spec).verified
    assert cuntz_action(2, (0, 1), spec)[1].verified
    assert verify_fundamental_rep(make_datum([[1, 0], [0, 2]], (0, 1)), spec).verified


@st.composite
def matrices_and_degrees(draw):
    """A matrix from one of five shapes, and degrees in -2..3."""
    kind = draw(st.sampled_from(["identity", "diagonal", "permutation", "antidiagonal", "dense"]))
    n = 2 if kind == "dense" else draw(st.integers(1, 3))
    if kind == "identity":
        F = ident(n)
    elif kind == "diagonal":
        entries = draw(st.lists(st.fractions(min_value=Fraction(1, 4), max_value=4), min_size=n, max_size=n))
        F = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    elif kind == "permutation":
        perm = draw(st.permutations(range(n)))
        F = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    elif kind == "antidiagonal":
        F = [[int(i + j == n - 1) for j in range(n)] for i in range(n)]
    else:
        F = draw(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=2, max_size=2))
        assume(F[0][0] * F[1][1] != F[0][1] * F[1][0])
    d = tuple(draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n)))
    return F, d


@given(matrices_and_degrees())
@settings(max_examples=60, deadline=None)
def test_solved_datum_is_admissible_and_builds(case):
    F, d = case
    datum = solve_admissible(F, d)
    if datum is not None:
        assert check_admissible(datum.F, datum.d, datum.d_prime, datum.d0)
        pres = build_uqf(datum)
        # u' = F u-bar F^-1 entry by entry, homogeneous of degree d'_j - d'_i
        F, F_inv, n = datum.F, scalar_mat_inverse(datum.F), len(datum.d)
        ubar = conjugate_matrix(pres.u, list(d))
        for i in range(n):
            for j in range(n):
                entry = pres.u_prime[i][j]
                expected = GradedPoly.zero()
                for k in range(n):
                    for l in range(n):
                        expected = expected + ubar[k][l] * (F[i][k] * F_inv[l][j])
                assert entry == expected
                assert entry.is_zero() or entry.degree() == datum.d_prime[j] - datum.d_prime[i]
