"""Graphs, spectral data, the equilibrium state and its properties."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from braidalg.algebra import Letter, word_degree
from braidalg.graphalg import (
    _char_poly,
    _poly_eval,
    _rref_kernel,
    GraphData,
    InvalidPath,
    KmsData,
    IrrationalData,
    ZeroVertexWeight,
    check_dagger,
    cuntz_graph,
    cycle_graph,
    edge_letters,
    kms_eval,
    kms_state,
    kms_table,
    normalized_ftilde,
    parse_graph,
    vertex_matrix,
)
from braidalg.scalars import Scalar


def test_no_sinks_enforced():
    with pytest.raises(ValueError):
        GraphData(2, ((0, 1),), (1,))  # vertex 1 has no outgoing edge
    with pytest.raises(ValueError):
        GraphData(1, (), ())  # empty edge set rejected


def test_vertex_matrix_cuntz():
    for n in (2, 3, 5):
        assert vertex_matrix(cuntz_graph(n)) == [[n]]


def test_vertex_matrix_two_cycle():
    assert vertex_matrix(cycle_graph(2)) == [[0, 1], [1, 0]]


def test_dagger_cuntz():
    for n in (2, 3):
        k = check_dagger(cuntz_graph(n))
        assert k.exact and k.rho == n
        assert k.vertex_weights == (Fraction(1),)


def test_dagger_two_cycle():
    # eigenpair of [[0,1],[1,0]] by direct solve: rho = 1, w = (1/2, 1/2)
    k = check_dagger(cycle_graph(2))
    assert k.exact and k.rho == 1
    assert k.vertex_weights == (Fraction(1, 2), Fraction(1, 2))
    D = vertex_matrix(cycle_graph(2))
    for i in range(2):
        assert sum(D[i][j] * k.vertex_weights[j] for j in range(2)) == k.rho * k.vertex_weights[i]


def test_dagger_two_loops_and_one_loop():
    # D = diag(2, 1): rho = 2, the only nonnegative eigenvector is (1, 0)
    g = GraphData(2, ((0, 0), (0, 0), (1, 1)), (1, 1, 1))
    k = check_dagger(g)
    assert k.exact and k.rho == 2
    assert k.vertex_weights == (Fraction(1), Fraction(0))


def test_float_fallback_irrational_radius():
    # D = [[1,1],[1,0]]: Perron root is the golden ratio
    g = GraphData(2, ((0, 0), (0, 1), (1, 0)), (1, 1, 1))
    k = check_dagger(g)
    assert not k.exact
    assert abs(k.rho - (1 + 5 ** 0.5) / 2) < 1e-12
    D = vertex_matrix(g)
    residual = max(
        abs(sum(D[i][j] * k.vertex_weights[j] for j in range(2)) - k.rho * k.vertex_weights[i])
        for i in range(2)
    )
    assert residual < 1e-12


def test_kms_eval_cuntz():
    g = cuntz_graph(2)
    k = check_dagger(g)
    assert kms_eval(g, k, (0,), (0,)) == Fraction(1, 2)
    assert kms_eval(g, k, (0, 1), (0, 0)) == 0
    assert kms_eval(g, k, (), ()) == 1


def test_kms_eval_two_cycle():
    g = cycle_graph(2)
    k = check_dagger(g)
    assert kms_eval(g, k, (0,), (0,)) == Fraction(1, 2)


def test_kms_eval_invalid_path():
    g = cycle_graph(2)
    k = check_dagger(g)
    with pytest.raises(InvalidPath):
        kms_eval(g, k, (0, 0), (0, 0))  # edge 0 does not compose with itself


def test_kms_eval_out_of_range_edge_is_invalid_path():
    g = cycle_graph(2)
    k = check_dagger(g)
    with pytest.raises(InvalidPath):
        kms_eval(g, k, (0, 5), (0, 5))  # edge 5 does not exist


def test_state_normalization_by_length():
    # sum over length-L paths of tau(S_a S*_a) = 1 for L <= 3
    for g in (cuntz_graph(2), cuntz_graph(3), cycle_graph(2)):
        k = check_dagger(g)
        for L in range(4):
            total = sum(kms_eval(g, k, a, a) for a in g.paths(L))
            assert total == 1, (g, L)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_kms_state_is_gauge_invariant(data):
    """A nonzero state value forces gauge degree 0, so the state is gauge invariant."""

    def degrees(n):
        # distinct degrees, so that a state mixing edges shows as a nonzero degree
        return tuple(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n, unique=True)))

    n = data.draw(st.integers(1, 3))
    g = cuntz_graph(n, degrees(n))
    S = edge_letters(g)
    word = tuple(data.draw(st.lists(st.sampled_from(S + [s.star() for s in S]), max_size=6)))
    if kms_state(g, check_dagger(g))(word):
        assert word_degree(word) == 0, word
    # on the 2-cycle the state takes spanning-form words S_alpha S*_beta only
    cycle = cycle_graph(2, degrees(2))
    S = edge_letters(cycle)
    alpha, beta = (data.draw(st.lists(st.sampled_from(S), max_size=4)) for _ in range(2))
    word = tuple(alpha) + tuple(s.star() for s in reversed(beta))
    if kms_state(cycle, check_dagger(cycle))(word):
        assert word_degree(word) == 0, word


def test_normalized_ftilde_cuntz_is_identity():
    for n in (2, 3):
        g = cuntz_graph(n)
        k = check_dagger(g)
        assert normalized_ftilde(g, k) == [Fraction(1)] * n


def test_normalized_ftilde_two_cycle():
    g = cycle_graph(2)
    k = check_dagger(g)
    diag = normalized_ftilde(g, k)
    assert diag == [Fraction(1, 2), Fraction(1, 2)]
    assert all(w > 0 for w in diag)


def test_normalized_ftilde_zero_weight_errors():
    g = GraphData(2, ((0, 0), (0, 0), (1, 1)), (1, 1, 1))
    k = check_dagger(g)
    with pytest.raises(ZeroVertexWeight):
        normalized_ftilde(g, k)


def test_float_mode_rejected_for_symbolic_work():
    g = GraphData(2, ((0, 0), (0, 1), (1, 0)), (1, 1, 1))
    k = check_dagger(g)
    with pytest.raises(IrrationalData):
        normalized_ftilde(g, k)
    with pytest.raises(IrrationalData):
        kms_state(g, k)


def test_kms_state_on_words():
    g = cuntz_graph(2)
    k = check_dagger(g)
    tau = kms_state(g, k)
    S = edge_letters(g)
    assert tau(()) == Scalar.from_fraction(1)
    assert tau((S[0], S[0].star())) == Scalar.from_fraction(Fraction(1, 2))
    assert tau((S[0], S[1].star())) == Scalar.from_fraction(0)
    assert tau((S[0].star(), S[0])) == Scalar.from_fraction(1)
    # inner contraction: S1 S*2 S2 S*1 -> S1 S*1
    word = (S[0], S[1].star(), S[1], S[0].star())
    assert tau(word) == Scalar.from_fraction(Fraction(1, 2))


def test_kms_state_rejects_foreign_letters_and_inner_contractions():
    g = cuntz_graph(1)
    tau = kms_state(g, check_dagger(g))
    (s,) = edge_letters(g)
    with pytest.raises(ValueError, match="foreign letter"):
        tau((Letter("T", (1,), 1).star(), s))
    g = cuntz_graph(2)
    tau = kms_state(g, check_dagger(g))
    S = edge_letters(g)
    u = Letter("u", (1, 2), 0)
    # the last word is zero by its S*_1 S_2 contraction before its u is read
    for word in ((u, u.star()), (S[0], u.star()), (Letter("S", (3,), 1),), (S[0].star(), S[1], u)):
        with pytest.raises(ValueError, match="foreign letter"):
            tau(word)
    cycle = cycle_graph(2)
    tau = kms_state(cycle, check_dagger(cycle))
    s = edge_letters(cycle)[0]
    with pytest.raises(ValueError, match="inner contractions need a one-vertex graph"):
        tau((s.star(), s))


def test_nonnegative_weights_from_a_combination_of_kernel_vectors():
    # every kernel basis vector of D - I has mixed signs; only their sum is nonnegative
    g = parse_graph(
        "vertices 4\n"
        "edge 1 1 1 deg 1\nedge 2 2 2 deg 1\nedge 3 3 2 deg 1\n"
        "edge 4 3 4 deg 1\nedge 5 4 1 deg 1\nedge 6 4 3 deg 1\n"
    )
    D = vertex_matrix(g)
    basis = _rref_kernel([[Fraction(D[i][j] - (i == j)) for j in range(4)] for i in range(4)])
    assert all(min(v) < 0 < max(v) for v in basis)
    half = Fraction(1, 2)
    assert check_dagger(g) == KmsData(Fraction(1), (Fraction(0), Fraction(0), half, half), True)


def test_cuntz_kms_lemma_random_triples():
    """tau(S_alpha x S*_beta) = delta(alpha,beta) n^-|alpha| tau(x), |alpha| = |beta|."""
    rng = random.Random(11)
    for n in (2, 3):
        g = cuntz_graph(n)
        k = check_dagger(g)
        tau = kms_state(g, k)
        S = edge_letters(g)
        for _ in range(100):
            length = rng.randint(1, 3)
            alpha = [rng.randrange(n) for _ in range(length)]
            beta = [rng.randrange(n) for _ in range(length)]
            x = tuple(
                S[rng.randrange(n)] if rng.random() < 0.5 else S[rng.randrange(n)].star()
                for _ in range(rng.randint(0, 4))
            )
            word = tuple(S[a] for a in alpha) + x + tuple(S[b].star() for b in reversed(beta))
            lhs = tau(word)
            expected = (
                Scalar.from_fraction(Fraction(1, n ** length)) * tau(x)
                if alpha == beta
                else Scalar.from_fraction(0)
            )
            assert lhs == expected, (n, alpha, x, beta)


@pytest.mark.parametrize(
    "g",
    [cuntz_graph(2), cycle_graph(3), GraphData(3, ((0, 0), (0, 1), (1, 2), (2, 0), (2, 1)), (1,) * 5)],
    ids=["two-loops", "three-cycle", "mixed"],
)
def test_path_counts_match_the_listed_paths(g):
    assert list(g.path_counts(5)) == [len(g.paths(k)) for k in range(6)]


def test_graph_file_roundtrip():
    g = GraphData(2, ((0, 1), (1, 0)), (0, 1))
    text = "vertices 2\nedge 1 1 2 deg 0\nedge 2 2 1 deg 1\n"
    assert parse_graph(text) == g


BAD_EDGE_IDS = pytest.mark.parametrize("ids", [(1, 1), (5,), (1, 3)], ids=["duplicate", "lone-5", "gap"])


@BAD_EDGE_IDS
def test_graph_file_rejects_edge_ids_other_than_1_to_m(ids):
    edges = "".join(f"edge {i} 1 1 deg 1\n" for i in ids)
    with pytest.raises(ValueError, match="edge ids"):
        parse_graph("vertices 1\n" + edges)


@BAD_EDGE_IDS
def test_graph_json_rejects_edge_ids_other_than_1_to_m(ids):
    edges = ", ".join(f'{{"id": {i}, "src": 1, "dst": 1}}' for i in ids)
    with pytest.raises(ValueError, match="edge ids"):
        parse_graph(f'{{"vertices": 1, "edges": [{edges}]}}')


def test_graph_file_rejects_a_second_vertices_line():
    with pytest.raises(ValueError, match="second 'vertices'"):
        parse_graph("vertices 3\nvertices 1\nedge 1 1 1 deg 1\n")


def test_graph_json_format():
    text = '{"vertices": 1, "edges": [{"id": 1, "src": 1, "dst": 1, "deg": 1}, {"id": 2, "src": 1, "dst": 1, "deg": 2}]}'
    g = parse_graph(text)
    assert g == GraphData(1, ((0, 0), (0, 0)), (1, 2))


def test_kms_table_contains_header_and_values():
    g = cuntz_graph(2)
    k = check_dagger(g)
    table = kms_table(g, k, 1)
    lines = table.splitlines()
    assert lines[0] == "alpha\tbeta\tvalue"
    assert "1\t1\t1/2" in lines


def test_kms_table_lists_the_paths_of_each_length_once(monkeypatch):
    g = cuntz_graph(2)
    k = check_dagger(g)
    nested = [(a, b) for la in range(5) for lb in range(5) for a in g.paths(la) for b in g.paths(lb)]
    assert list(g.path_pairs(4)) == nested  # ordered by (|alpha|, |beta|), then by edge ids
    calls, paths = [], GraphData.paths
    monkeypatch.setattr(GraphData, "paths", lambda self, length: calls.append(length) or paths(self, length))
    assert len(kms_table(g, k, 4).splitlines()) == 1 + 31**2
    assert sorted(calls) == [0, 1, 2, 3, 4]


def test_dagger_defective_radius_is_still_exact():
    # D = [[1,1],[0,1]]: radius 1 with a Jordan block; power iteration alone
    # converges too slowly, but the polynomial certification is exact
    g = GraphData(2, ((0, 0), (0, 1), (1, 1)), (1, 1, 1))
    k = check_dagger(g)
    assert k.exact and k.rho == 1
    assert k.vertex_weights == (Fraction(1), Fraction(0))


def test_dagger_integer_eigenvalue_below_irrational_radius():
    # D = diag([2], [[1,2],[1,1]]): 2 is an eigenvalue but the radius is
    # 1 + sqrt(2); certification must refuse the integer candidate
    g = GraphData(
        3, ((0, 0), (0, 0), (1, 1), (1, 2), (1, 2), (2, 1), (2, 2)), (1,) * 7
    )
    k = check_dagger(g)
    assert not k.exact
    assert abs(k.rho - (1 + 2 ** 0.5)) < 1e-10


def test_dagger_battery_of_integer_radius_graphs():
    # larger loop bouquets: radius n, weight 1
    for n in (4, 5, 7):
        k = check_dagger(cuntz_graph(n))
        assert k.exact and k.rho == n
    # longer cycles: radius 1, uniform weights
    for n in (3, 4):
        k = check_dagger(cycle_graph(n))
        assert k.exact and k.rho == 1
        assert k.vertex_weights == tuple(Fraction(1, n) for _ in range(n))
    # 3-vertex regular graph, one edge to each other vertex: radius 2
    edges = tuple((i, j) for i in range(3) for j in range(3) if i != j)
    g = GraphData(3, edges, (1,) * 6)
    k = check_dagger(g)
    assert k.exact and k.rho == 2
    assert k.vertex_weights == (Fraction(1, 3),) * 3
    # unequal positive weights with integer radius: D = [[1,2],[1,0]]
    g = GraphData(2, ((0, 0), (0, 1), (0, 1), (1, 0)), (1, 1, 1, 1))
    k = check_dagger(g)
    assert k.exact and k.rho == 2
    assert k.vertex_weights == (Fraction(2, 3), Fraction(1, 3))


# -- the shift certificate against a Sturm-chain oracle ---------------------------


def _poly_normalize(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_divmod(a, b):
    """Long division a = q*b + r by a normalized nonzero b; returns (q, r), r normalized."""
    a = _poly_normalize(list(a))
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = _poly_normalize(a[:-1])
    return q, a


def _poly_gcd(a, b):
    a, b = _poly_normalize(list(a)), _poly_normalize(list(b))
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return a


def _count_real_roots_above(p, bound, upper):
    """Distinct real roots of p in (bound, upper], by a Sturm chain on the
    squarefree part."""
    p = _poly_normalize(list(p))
    deriv = _poly_normalize([i * c for i, c in enumerate(p)][1:])
    if not deriv:
        return 0
    g = _poly_gcd(p, deriv)
    if len(g) > 1:
        p = _poly_divmod(p, g)[0]
    chain = [p, _poly_normalize([i * c for i, c in enumerate(p)][1:])]
    while chain[-1]:
        rem = _poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])

    def variations(x):
        signs = []
        for q in chain:
            v = _poly_eval(q, x)
            if v != 0:
                signs.append(1 if v > 0 else -1)
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations(bound) - variations(upper)


def sturm_radius(g):
    """Reference certification: (True, rho) when the largest integer root of
    the characteristic polynomial has no real root above it, else (False, the
    largest real root to 1e-9 by Sturm bisection)."""
    mat = vertex_matrix(g)
    chi = _char_poly(mat)
    upper = Fraction(max(sum(row) for row in mat) + 1)
    roots = [c for c in range(int(upper)) if _poly_eval(chi, Fraction(c)) == 0]
    if roots and _count_real_roots_above(chi, Fraction(roots[-1]), upper) == 0:
        return True, Fraction(roots[-1])
    lo, hi = Fraction(0), upper  # the largest real root lies in (lo, hi]
    while hi - lo > Fraction(1, 10**9):
        mid = (lo + hi) / 2
        if _count_real_roots_above(chi, mid, hi):
            lo = mid
        else:
            hi = mid
    return False, float(hi)


@st.composite
def sink_free_graphs(draw):
    """Vertex matrices with 1-4 vertices, up to 3 parallel edges, no zero row."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    mat = draw(st.lists(row, min_size=n, max_size=n))
    edges = tuple((i, j) for i in range(n) for j in range(n) for _ in range(mat[i][j]))
    return GraphData(n, edges, (1,) * len(edges))


@given(sink_free_graphs())
# a loop beside the golden-ratio graph: the eigenvalue 1 has a nonnegative
# eigenvector but lies below the radius (1 + sqrt(5))/2
@example(GraphData(3, ((0, 0), (1, 1), (1, 2), (2, 1)), (1,) * 4))
@settings(max_examples=150, deadline=None)
def test_dagger_certificate_agrees_with_sturm_oracle(g):
    exact, rho = sturm_radius(g)
    k = check_dagger(g)
    if k is None:
        # the kernel search found no nonnegative eigenvector, so the decision
        # is not visible; no such graph turned up in 3,000 random draws
        return
    assert k.exact == exact
    if exact:
        assert k.rho == rho
    else:
        assert abs(k.rho - rho) < 1e-6
