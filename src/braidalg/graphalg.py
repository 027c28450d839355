"""Finite directed graphs, the vertex matrix, and the critical-temperature state.

The vertex matrix D counts edges between vertices; the state of interest
exists iff the spectral radius of D is an eigenvalue with a nonnegative
eigenvector (always the case for a nonnegative matrix, but checked
honestly).  The state on a span element indexed by two paths is
``delta(alpha, beta) * rho^-|alpha| * weight(range of alpha)``.

The spectral radius is certified exactly when it is an integer: the largest
integer root c of the characteristic polynomial is found by a scan up to the
max row sum, and c is the radius exactly when every coefficient of the
polynomial shifted to c is nonnegative (see ``check_dagger``).  The weights
then come from the adjugate of xI - (D - cI), and every downstream value is an
exact rational.  Otherwise the radius is irrational and is found by power
iteration in float mode; symbolic consumers reject that mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import add

from .algebra import InputError, Letter, mat_mul
from .scalars import Scalar

__all__ = [
    "GraphData",
    "KmsData",
    "InvalidPath",
    "ZeroVertexWeight",
    "IrrationalData",
    "vertex_matrix",
    "check_dagger",
    "kms_eval",
    "normalized_ftilde",
    "cuntz_graph",
    "cycle_graph",
    "parse_graph",
    "edge_letters",
    "kms_state",
]


class InvalidPath(InputError):
    """Edges do not compose into a path."""


class ZeroVertexWeight(InputError):
    """An edge ranges at a weight-zero vertex; normalization is undefined."""


class IrrationalData(InputError):
    """The graph's spectral data does not live in the radical scalar ring."""


@dataclass(frozen=True)
class GraphData:
    """Finite directed graph without sinks; vertices and edges are 0-based."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]  # (source, range)
    gauge_degrees: tuple[int, ...]

    def __post_init__(self):
        if self.num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.gauge_degrees) != len(self.edges):
            raise ValueError("one gauge degree per edge required")
        if self.num_vertices > len(self.edges):  # every vertex needs an edge out; checked before allocating
            raise ValueError(f"graph has sinks: {self.num_vertices} vertices but only {len(self.edges)} edges")
        out_degree = [0] * self.num_vertices
        for s, r in self.edges:
            if not (0 <= s < self.num_vertices and 0 <= r < self.num_vertices):
                raise ValueError(f"edge ({s},{r}) outside vertex range")
            out_degree[s] += 1
        sinks = [v for v, d in enumerate(out_degree) if d == 0]
        if sinks:
            raise ValueError(f"graph has sinks (no outgoing edge) at vertices {sinks}")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def source(self, e: int) -> int:
        return self.edges[e][0]

    def range(self, e: int) -> int:
        return self.edges[e][1]

    def is_path(self, path: tuple[int, ...]) -> bool:
        return all(0 <= e < self.num_edges for e in path) and all(
            self.range(path[i]) == self.source(path[i + 1]) for i in range(len(path) - 1)
        )

    def paths(self, length: int):
        """All paths of exactly the given length, lexicographic in edge ids."""
        paths = [()]
        for _ in range(length):
            paths = [
                p + (e,) for p in paths for e in range(self.num_edges)
                if not p or self.source(e) == self.range(p[-1])
            ]
        return paths

    def path_counts(self, max_len: int):
        """The number of paths of each length 0..max_len, counted without listing them."""
        yield 1
        ends = [1] * self.num_edges  # paths of the current length, by last edge
        for _ in range(max_len):
            yield sum(ends)
            into = [sum(c for f, c in enumerate(ends) if self.range(f) == v) for v in range(self.num_vertices)]
            ends = [into[self.source(e)] for e in range(self.num_edges)]

    def path_pairs(self, max_len: int):
        """All pairs of paths of length at most max_len, ordered by (|alpha|, |beta|)."""
        paths = [self.paths(length) for length in range(max_len + 1)]
        for alphas, betas in product(paths, repeat=2):
            yield from product(alphas, betas)


@dataclass(frozen=True)
class KmsData:
    """Spectral radius and normalized vertex weights; exact when certified."""

    rho: object  # Fraction (exact) or float
    vertex_weights: tuple  # Fractions or floats, entrywise >= 0, sum 1
    exact: bool


def cuntz_graph(n: int, degrees: tuple[int, ...] | None = None) -> GraphData:
    """One vertex with n loops."""
    return GraphData(1, tuple((0, 0) for _ in range(n)), tuple(degrees or (1,) * n))


def cycle_graph(n: int, degrees: tuple[int, ...] | None = None) -> GraphData:
    """Directed n-cycle: one edge from each vertex to the next."""
    return GraphData(
        n, tuple((i, (i + 1) % n) for i in range(n)), tuple(degrees or (1,) * n)
    )


def vertex_matrix(g: GraphData) -> list[list[int]]:
    mat = [[0] * g.num_vertices for _ in range(g.num_vertices)]
    for s, r in g.edges:
        mat[s][r] += 1
    return mat


# -- spectral radius -----------------------------------------------------------


def _float_sum(values) -> float:  # left to right, as sum() added floats before Python 3.12
    return reduce(add, values, 0)


def _power_iteration(mat: list[list[int]]) -> tuple[float, list[float]]:
    n = len(mat)
    x = [1.0 / n] * n
    lam = 0.0
    for _ in range(600):
        y = [_float_sum(mat[i][j] * x[j] for j in range(n)) + x[i] for i in range(n)]  # (D + I) x
        norm = _float_sum(y)  # >= sum(x) = 1, as D >= 0
        y = [v / norm for v in y]
        if abs(norm - lam) < 1e-16 and max(abs(a - b) for a, b in zip(x, y)) < 1e-16:
            return norm - 1.0, y
        x, lam = y, norm
    return lam - 1.0, x


def _char_poly(mat: list[list[int]]) -> tuple[list[Fraction], list[list[list[Fraction]]]]:
    """Faddeev-LeVerrier: the monic characteristic polynomial, ascending
    coefficients, and M_1..M_n with adj(xI - mat) = sum_k M_k x^(n-k)."""
    n = len(mat)
    A = [[Fraction(v) for v in row] for row in mat]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    M = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    adjugate = [M]
    for k in range(1, n + 1):
        AM = mat_mul(A, M)
        c = -sum(AM[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        if k < n:
            M = [[AM[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
            adjugate.append(M)
    return coeffs, adjugate


def _poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def check_dagger(g: GraphData) -> KmsData | None:
    """Spectral radius, eigenvalue test, nonnegative weights; exact when certifiable.

    Returns None only in float mode, when power iteration finds no
    nonnegative eigenvector for the radius; in exact mode the weights below
    always exist.

    A rational root of the monic integer characteristic polynomial chi is an
    integer, so the radius rho is certified exactly when it is one: take the
    largest integer root c of chi up to the max row sum, and accept it when
    every coefficient of chi(x + c) is >= 0.  That holds exactly when c = rho:

    - By Perron-Frobenius rho is an eigenvalue, and every eigenvalue lambda
      has Re lambda <= |lambda| <= rho.  So if c = rho, chi(x + c) is a
      product of factors x + a with a >= 0 and x^2 + 2 Re(c - lambda) x +
      |c - lambda|^2, all with coefficients >= 0, and so is the product.
    - Conversely, if every coefficient is >= 0, then chi(x + c) >= x^n > 0
      for x > 0, so no real root lies above c, rho included.  Since c is a
      real eigenvalue, c <= rho, hence c = rho.

    One Faddeev-LeVerrier run on A = D - cI gives chi_A(x) = chi(x + c) and
    adj(xI - A) = sum_k M_k x^(n-k).  The weights are the row sums of the
    last nonzero M_k, normalized to sum 1:

    - For real t > rho, (tI - D)^-1 = sum_k D^k / t^(k+1) >= 0 and chi(t) > 0,
      so adj(tI - D) >= 0.  With c = rho, adj(xI - A) = adj((x + c)I - D) is
      therefore >= 0 for x > 0, and so is its lowest-order nonzero
      coefficient B, the M_k at x^m.  M_1 = I, so such a B exists.
    - The x^m coefficients of (xI - A) adj(xI - A) = chi_A(x) I give
      A B = -[chi_A]_m I.  Here m = mu - nu < mu, where mu is the
      multiplicity of the root 0 of chi_A and nu >= 1 its index, so
      [chi_A]_m = 0 and A B = 0.
    - Hence B 1 is a nonzero, nonnegative eigenvector of D for rho.
      Relabeling the vertices conjugates the adjugate by the permutation, so
      the weights move with the vertices.

    Otherwise the radius is irrational and float mode applies.
    """
    mat = vertex_matrix(g)
    n = g.num_vertices
    chi = _char_poly(mat)[0]
    row_bound = max(sum(row) for row in mat)

    c = next((c for c in range(row_bound, -1, -1) if _poly_eval(chi, c) == 0), None)
    if c is not None:
        A = [[v - (c if i == j else 0) for j, v in enumerate(row)] for i, row in enumerate(mat)]
        shifted, adjugate = _char_poly(A)  # chi(x + c), and adj(xI - A) by powers of x
        if min(shifted) >= 0:
            lowest = next(M for M in reversed(adjugate) if any(map(any, M)))
            weights = [sum(row) for row in lowest]
            total = sum(weights)
            return KmsData(Fraction(c), tuple(w / total for w in weights), True)

    # irrational radius: float fallback
    rho_f, x_f = _power_iteration(mat)
    total = _float_sum(x_f)
    weights = [v / total for v in x_f]
    residual = max(
        abs(_float_sum(mat[i][j] * weights[j] for j in range(n)) - rho_f * weights[i]) for i in range(n)
    )
    if residual >= 1e-12 or any(w < -1e-12 for w in weights):
        return None
    return KmsData(rho_f, tuple(max(w, 0.0) for w in weights), False)


# -- state evaluation -----------------------------------------------------------


def kms_eval(g: GraphData, k: KmsData, alpha: tuple[int, ...], beta: tuple[int, ...]):
    """delta(alpha,beta) * rho^-|alpha| * weight(range(alpha)); exact in exact mode."""
    for path, label in ((alpha, "alpha"), (beta, "beta")):
        if not g.is_path(tuple(path)):
            raise InvalidPath(f"{label} = {path} is not a composable edge sequence")
    alpha, beta = tuple(alpha), tuple(beta)
    if alpha != beta:
        return Fraction(0) if k.exact else 0.0
    if not alpha:
        return Fraction(1) if k.exact else 1.0
    return k.vertex_weights[g.range(alpha[-1])] / k.rho ** len(alpha)


def normalized_ftilde(g: GraphData, k: KmsData) -> list[Fraction]:
    """Diagonal of the state's sesquilinear matrix on the edge isometries.

    The (i,i) entry is the weight of the range vertex of edge i; for the
    one-vertex graph with n loops this is the identity.  Requires every such
    weight positive, since F = diag sqrt(ftilde) must be invertible.
    """
    if not k.exact:
        raise IrrationalData("normalization requires exact spectral data")
    diag = []
    for e in range(g.num_edges):
        w = k.vertex_weights[g.range(e)]
        if w == 0:
            raise ZeroVertexWeight(
                f"edge {e + 1} ranges at a zero-weight vertex; normalization undefined"
            )
        diag.append(w)
    return diag


# -- interface with the symbolic engine ----------------------------------------


_EDGE = "S"  # the family name of the edge isometries


def edge_letters(g: GraphData) -> list[Letter]:
    return [Letter(_EDGE, (e + 1,), g.gauge_degrees[e]) for e in range(g.num_edges)]


def kms_state(g: GraphData, k: KmsData):
    """The state as a word functional for the reduction engine.

    Accepts any word in the edge letters of ``g`` and raises ValueError on any
    other letter; contracts star-unstar pairs to the spanning form first, then
    applies the path formula.  Exact mode only.  The state is diagonal: on a
    word S_g S*_h of unstarred letters followed by starred ones it is zero
    unless h = g, as ``braided.apply_state_pairs`` requires.
    """
    if not k.exact:
        raise IrrationalData("symbolic evaluation requires exact spectral data")
    edges = {(e + 1,) for e in range(g.num_edges)}

    def evaluate(word) -> Scalar:
        for b in word:
            if b.name != _EDGE or b.index not in edges:
                raise ValueError(f"foreign letter in state argument: {b}")
        # One left-to-right pass: the kept letters never hold a starred letter
        # before an unstarred one, so each S*_e S_f pair is met as it forms, in
        # the order that repeatedly contracting the leftmost pair would take.
        letters = []
        for b in word:
            if not (letters and letters[-1].starred and not b.starred):
                letters.append(b)
                continue
            a = letters.pop()
            if a.index[0] != b.index[0]:
                return Scalar.from_fraction(0)
            if g.num_vertices > 1:
                # S*_e S_e leaves a range projection behind; tracking it
                # is only implemented for the one-vertex case
                raise ValueError(
                    "inner contractions need a one-vertex graph; "
                    "supply spanning-form words instead"
                )
        # the kept letters are a path word followed by a starred path word
        gamma_t = tuple(l.index[0] - 1 for l in letters if not l.starred)
        delta_t = tuple(l.index[0] - 1 for l in reversed(letters) if l.starred)
        if not g.is_path(gamma_t) or not g.is_path(delta_t):
            return Scalar.from_fraction(0)
        return Scalar.from_fraction(kms_eval(g, k, gamma_t, delta_t))

    return evaluate


# -- file formats ---------------------------------------------------------------


def _json_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"JSON graph: expected an integer, got {value!r}")
    return value


def parse_graph(text: str) -> GraphData:
    """Parse the line-oriented graph format (or its JSON equivalent, integers only); edge ids are 1..m."""
    rows: list[tuple[int, int, int, int]] = []  # (id, src, dst, deg)
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        try:
            edges = data["edges"]
            if not isinstance(edges, list) or not all(isinstance(e, dict) for e in edges):
                raise ValueError("JSON graph: 'edges' must be a list of edge objects")
            num_vertices = _json_int(data["vertices"])
            rows = [tuple(_json_int(v) for v in (e["id"], e["src"], e["dst"], e.get("deg", 1))) for e in edges]
        except KeyError as exc:
            raise ValueError(f"JSON graph: missing field {exc}") from None
    else:
        num_vertices = None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "vertices" and len(parts) == 2:
                if num_vertices is not None:
                    raise ValueError(f"graph line {lineno}: a second 'vertices' line")
                num_vertices = int(parts[1])
            elif parts[0] == "edge" and len(parts) == 6 and parts[4] == "deg":
                rows.append((int(parts[1]), int(parts[2]), int(parts[3]), int(parts[5])))
            else:
                raise ValueError(f"bad graph line {lineno}: {raw!r}")
        if num_vertices is None:
            raise ValueError("graph file missing 'vertices m' line")
    rows.sort()
    ids = [row[0] for row in rows]
    if ids != list(range(1, len(rows) + 1)):
        raise ValueError(f"edge ids must be exactly 1..{len(rows)}, got {ids}")
    return GraphData(
        num_vertices,
        tuple((src - 1, dst - 1) for _, src, dst, _ in rows),
        tuple(deg for *_, deg in rows),
    )


def kms_table(g: GraphData, k: KmsData, max_len: int):
    """TSV lines, each ending in a newline: path, path, state value, for every path pair up to max_len."""
    def fmt_path(p):
        return ".".join(str(e + 1) for e in p) if p else "-"

    def fmt_value(v):
        return str(v) if isinstance(v, Fraction) else repr(v)

    yield "alpha\tbeta\tvalue\n"
    for alpha, beta in g.path_pairs(max_len):
        value = kms_eval(g, k, alpha, beta)
        yield f"{fmt_path(alpha)}\t{fmt_path(beta)}\t{fmt_value(value)}\n"
