"""Graded letters, the sparse word polynomial, and matrix helpers.

A :class:`Letter` is a generator symbol with an integer degree, a star flag
and a tensor leg; starring toggles the flag and negates the degree.  Letters
are interned, so equal letters are one object and compare by identity.  A
:class:`GradedPoly` is a finite linear combination of words of letters with
:class:`~braidalg.scalars.Scalar` coefficients, together with a leg
structure: a tuple of block sizes.  Legs of one block braid: commuting two
letters on different legs costs the phase ``z^(deg * deg)``, so words are
kept sorted by leg (stable within a leg) and the total phase of sorting is
determined by the inverted pairs, independent of the swap order.  Letters in
different blocks commute without a phase.

* ``legs=(1,)`` is the graded algebra itself; words multiply by concatenation;
* ``legs=(n,)`` is its n-fold braided tensor product, rendered ``j1(..)*j2(..)``;
* ``legs=(2, 2)`` is the plain tensor square of a two-leg braided product,
  rendered ``... (x) ...``.

The star is antimultiplicative and conjugates coefficients.  Matrices of
polynomials or scalars are plain lists of lists, composed with ordinary
matrix algebra: ``mat_mul``, the star-transpose ``adjoint``, ``diag_matrix``
and ``mat_identity``.  ``conjugate_matrix`` builds the phase-dressed entrywise
adjoint used for braided conjugate representations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import attrgetter

from .scalars import ONE, ZERO, Scalar, as_scalar, zeta

__all__ = [
    "Letter",
    "GradedPoly",
    "BadLeg",
    "LegMismatch",
    "DegreeMismatch",
    "SingularMatrix",
    "adjoint",
    "conjugate_matrix",
    "diag_matrix",
    "mat_mul",
    "mat_identity",
    "row_reduce",
    "scalar_mat_inverse",
]


class BadLeg(Exception):
    """Leg index out of range."""


class LegMismatch(Exception):
    """Operands have different leg structures."""


class DegreeMismatch(Exception):
    """A matrix entry failed its homogeneity precondition."""


class SingularMatrix(Exception):
    """Matrix inversion failed over the scalar ring."""


class Letter:
    """A generator symbol: family name, optional index, degree, star flag, tensor leg.

    Letters are interned: equal fields give the same object, so letters compare
    and hash by identity.  ``symbol`` (the generator, on whatever leg) and
    ``sort_key`` (leg, family, index, star flag) are computed once, at creation.
    """

    __slots__ = ("name", "index", "degree", "starred", "leg", "symbol", "sort_key", "_star")
    _interned: dict[tuple, "Letter"] = {}

    def __new__(cls, name: str, index, degree: int, starred: bool = False, leg: int = 1):
        key = (name, tuple(index), degree, starred, leg)
        self = cls._interned.get(key)
        if self is None:
            self = cls._interned[key] = object.__new__(cls)
            symbol = (name, key[1], starred)
            for attr, value in zip(cls.__slots__, (*key, symbol, (leg, *symbol))):
                object.__setattr__(self, attr, value)
            # the starred letter's own star finds this one in the table
            object.__setattr__(self, "_star", cls(name, index, -degree, not starred, leg))
        return self

    def __setattr__(self, attr, value):
        raise AttributeError(f"Letter is immutable; cannot set {attr!r}")

    def __reduce__(self):  # pickle and copy go back through the table
        return Letter, tuple(getattr(self, attr) for attr in self.__slots__[:5])

    def __repr__(self) -> str:
        return f"Letter({', '.join(f'{attr}={getattr(self, attr)!r}' for attr in self.__slots__[:5])})"

    def star(self) -> "Letter":
        return self._star

    def on_leg(self, leg: int) -> "Letter":
        return Letter(self.name, self.index, self.degree, self.starred, leg)

    def __str__(self) -> str:
        star = "*" if self.starred else ""
        if self.index:
            return f"{self.name}{star}[{','.join(map(str, self.index))}]"
        return f"{self.name}{star}"


Word = tuple[Letter, ...]

_LEG = attrgetter("leg")


def word_key(word: Word):
    return (len(word), tuple(l.sort_key for l in word))


def word_degree(word: Word) -> int:
    return sum(l.degree for l in word)


def word_str(word: Word) -> str:
    return "*".join(str(l) for l in word) if word else "1"


def lword_str(word: Word, offset: int = 0) -> str:
    """Leg notation ``j1(a*b)*j2(c)``, numbering legs from ``offset + 1``."""
    if not word:
        return "1"
    parts = []
    current_leg = None
    current: list[str] = []
    for l in word:
        if l.leg != current_leg:
            if current:
                parts.append(f"j{current_leg - offset}({'*'.join(current)})")
            current_leg, current = l.leg, []
        current.append(str(l))
    parts.append(f"j{current_leg - offset}({'*'.join(current)})")
    return "*".join(parts)


def _block_of(legs: tuple[int, ...]):
    """The block number of every leg, indexed by leg; None when words never need sorting."""
    if legs == (1,):
        return None
    out = [None]
    for block, size in enumerate(legs):
        out.extend([block] * size)
    return tuple(out)


def _leg_sort(word: Word, block_of: tuple) -> tuple[Word, int]:
    """Stable-sort a word by leg; return the sorted word and the phase exponent.

    Every inverted pair (leg_i > leg_j with i < j) in one block contributes
    deg_i * deg_j to the exponent, which is independent of the order in which
    adjacent swaps are performed; pairs in different blocks contribute nothing.
    """
    exponent = 0
    n = len(word)
    for i in range(n):
        a = word[i]
        for j in range(i + 1, n):
            b = word[j]
            if a.leg > b.leg and block_of[a.leg] == block_of[b.leg]:
                exponent += a.degree * b.degree
    return tuple(sorted(word, key=_LEG)), exponent


def _collect(pairs, block_of=None, terms=None) -> dict[Word, Scalar]:
    """Sum (word, coefficient) pairs into ``terms``; zero sums drop out.

    With ``block_of`` (from ``_block_of``) every word is leg-sorted first and
    picks up the phase of the sort; without it the words are in normal form.
    """
    terms = {} if terms is None else terms
    get = terms.get
    for w, c in pairs:
        if block_of is not None:
            w, exponent = _leg_sort(w, block_of)
            if exponent:
                c = c * zeta(exponent)
        prev = get(w)
        if prev is not None:
            c = prev + c
        if c:
            terms[w] = c
        elif prev is not None:
            del terms[w]
    return terms


class GradedPoly:
    """Sparse word polynomial: normal-form words to nonzero scalars, on a leg structure.

    ``legs`` lists the block sizes (an int n means one block of n legs);
    letters carry legs 1..sum(legs), numbered consecutively across blocks.
    """

    __slots__ = ("legs", "_terms")

    def __init__(self, terms: dict[Word, Scalar] | None = None, legs=1):
        legs = (legs,) if isinstance(legs, int) else tuple(legs)
        if not legs or min(legs) < 1:
            raise BadLeg(f"every block needs at least one leg, got {legs}")
        total = sum(legs)
        for w in terms or ():
            for l in w:
                if not 1 <= l.leg <= total:
                    raise BadLeg(f"letter {l} on leg {l.leg}, outside 1..{total}")
        self.legs = legs
        self._terms = _collect(
            ((tuple(w), as_scalar(c)) for w, c in (terms or {}).items()), _block_of(legs)
        )

    @classmethod
    def _make(cls, terms: dict[Word, Scalar], legs: tuple[int, ...]) -> "GradedPoly":
        """Wrap terms that are already in normal form with nonzero coefficients."""
        out = cls.__new__(cls)
        out.legs = legs
        out._terms = terms
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, legs=1) -> "GradedPoly":
        return cls(None, legs)

    @classmethod
    def one(cls, legs=1) -> "GradedPoly":
        return cls({(): ONE}, legs)

    @classmethod
    def from_letter(cls, letter: Letter, legs=1) -> "GradedPoly":
        return cls({(letter,): ONE}, legs)

    # -- structure --------------------------------------------------------

    def _blocks(self, word: Word) -> list[Word]:
        """The word cut into its blocks (a normal-form word is sorted by leg)."""
        parts, start = [], 0
        for bound in accumulate(self.legs):
            end = start
            while end < len(word) and word[end].leg <= bound:
                end += 1
            parts.append(word[start:end])
            start = end
        return parts

    def items(self):
        return sorted(
            self._terms.items(),
            key=lambda kv: tuple(word_key(part) for part in self._blocks(kv[0])),
        )

    def is_zero(self) -> bool:
        return not self._terms

    def is_zero_under(self, spec) -> bool:
        """True iff every coefficient vanishes once the phase is specialized (formal: is zero)."""
        return all(c.specialize(spec).is_zero() for c in self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def degree(self):
        """The common degree if homogeneous (0 for zero), else None."""
        degs = {word_degree(w) for w in self._terms}
        if not degs:
            return 0
        if len(degs) > 1:
            return None
        return degs.pop()

    # -- algebra ------------------------------------------------------------

    def _coerce(self, value) -> "GradedPoly":
        if isinstance(value, GradedPoly):
            if value.legs != self.legs:
                raise LegMismatch(f"legs {self.legs} vs {value.legs}")
            return value
        if isinstance(value, Letter):
            return GradedPoly({(value,): ONE}, self.legs)
        if isinstance(value, (Scalar, int, Fraction)):
            return GradedPoly({(): as_scalar(value)}, self.legs)
        raise TypeError(f"cannot interpret {value!r} as a polynomial")

    def __add__(self, other) -> "GradedPoly":
        other = self._coerce(other)
        return self._make(_collect(other._terms.items(), None, dict(self._terms)), self.legs)

    __radd__ = __add__

    def __neg__(self) -> "GradedPoly":
        return self._make({w: -c for w, c in self._terms.items()}, self.legs)

    def __sub__(self, other) -> "GradedPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "GradedPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "GradedPoly":
        if isinstance(other, (Scalar, int, Fraction)):
            c = as_scalar(other)
            return self._make({w: cc * c for w, cc in self._terms.items()} if c else {}, self.legs)
        other = self._coerce(other)
        right = other._terms.items()
        products = ((w1 + w2, c1 * c2) for w1, c1 in self._terms.items() for w2, c2 in right)
        return self._make(_collect(products, _block_of(self.legs)), self.legs)

    def __rmul__(self, other) -> "GradedPoly":
        if isinstance(other, (Scalar, int, Fraction)):
            return self * other
        return self._coerce(other) * self

    def star(self) -> "GradedPoly":
        """Antimultiplicative star: words reversed, letters and scalars conjugated."""
        starred = (
            (tuple(l.star() for l in reversed(w)), c.star()) for w, c in self._terms.items()
        )
        return self._make(_collect(starred, _block_of(self.legs)), self.legs)

    def tensor(self, other: "GradedPoly") -> "GradedPoly":
        """Plain tensor product: other's legs follow self's, with no phase between them."""
        shift = sum(self.legs)
        terms = {}
        for w2, c2 in other._terms.items():
            moved = tuple(l.on_leg(l.leg + shift) for l in w2)
            for w1, c1 in self._terms.items():
                terms[w1 + moved] = c1 * c2
        return self._make(terms, self.legs + other.legs)

    # -- comparison / rendering -------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPoly):
            if not isinstance(other, (Scalar, int, Fraction, Letter)):
                return NotImplemented
            other = self._coerce(other)
        return self.legs == other.legs and self._terms == other._terms

    def __hash__(self):
        return hash((self.legs, frozenset(self._terms.items())))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(self._term_str(w, c) for w, c in self.items())

    def _term_str(self, word: Word, coeff: Scalar) -> str:
        if len(self.legs) > 1:
            offsets = (0,) + tuple(accumulate(self.legs))
            body = " (x) ".join(
                lword_str(part, offset) for part, offset in zip(self._blocks(word), offsets)
            )
            return body if coeff.is_one() else f"({coeff})*{body}"
        body = word_str(word) if self.legs == (1,) else lword_str(word)
        if coeff.is_one():
            return body
        c = f"{coeff}"
        if not (coeff.is_single_term() and "z" not in c and "sqrt" not in c):
            c = f"({c})"
        return c if not word else f"{c}*{body}"

    def __repr__(self) -> str:
        legs = "" if self.legs == (1,) else f"[{','.join(map(str, self.legs))}]"
        return f"GradedPoly{legs}({self})"


# -- matrices ----------------------------------------------------------------

Matrix = list  # list[list[GradedPoly | Scalar]]


def diag_matrix(entries) -> Matrix:
    """The diagonal matrix of these entries: scalars, or polynomials on one leg structure."""
    entries = list(entries)
    polys = [e for e in entries if isinstance(e, GradedPoly)]
    zero = GradedPoly.zero(polys[0].legs) if polys else ZERO
    return [[e if i == j else zero for j in range(len(entries))] for i, e in enumerate(entries)]


def mat_identity(n: int, legs=1) -> Matrix:
    return diag_matrix([GradedPoly.one(legs)] * n)


def adjoint(m: Matrix) -> Matrix:
    """The star-transpose: entry (i,j) of the result is m[j][i]^*."""
    return [[row[i].star() for row in m] for i in range(len(m[0]))]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product; entries may be scalars or polynomials (of one leg structure), in any mix."""
    m = len(b)
    assert all(len(row) == m for row in a)
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = row[0] * b[0][j]
            for k in range(1, m):
                acc = acc + row[k] * b[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def conjugate_matrix(u: Matrix, d: list[int]) -> Matrix:
    """Entry (i,j) of the result is z^{d_i (d_j - d_i)} * u[i][j]^*, on any leg structure.

    Requires entry (i,j) homogeneous of degree d_j - d_i; raises
    DegreeMismatch otherwise.
    """
    n = len(d)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = u[i][j]
            deg = entry.degree()
            if not entry.is_zero() and deg != d[j] - d[i]:
                found = "is not homogeneous" if deg is None else f"has degree {deg}"
                raise DegreeMismatch(f"entry ({i + 1},{j + 1}) {found}, expected {d[j] - d[i]}")
            row.append(entry.star() * zeta(d[i] * (d[j] - d[i])))
        out.append(row)
    return out


def row_reduce(rows: list[list], unit=bool) -> list[int]:
    """Gauss-Jordan in place to reduced row echelon form; returns the pivot columns.

    The pivot of a column is its first entry at or below the current row for
    which ``unit`` holds; entries are tested for zero by truthiness.
    """
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        row = len(pivots)
        pivot = next((r for r in range(row, len(rows)) if unit(rows[r][col])), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        p = rows[row][col]
        rows[row] = [c / p for c in rows[row]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != row and f:
                rows[r] = [c - f * pc for c, pc in zip(rows[r], rows[row])]
        pivots.append(col)
    return pivots


def scalar_mat_inverse(mat: list[list[Scalar]]) -> list[list[Scalar]]:
    """Gauss-Jordan on ``[mat | I]`` over the scalar ring; pivots must be single-term units."""
    n = len(mat)
    work = [list(row) + unit_row for row, unit_row in zip(mat, diag_matrix([ONE] * n))]
    pivots = row_reduce(work, Scalar.is_single_term)
    for col in range(n):
        if col not in pivots:
            raise SingularMatrix(f"no invertible pivot in column {col + 1}")
    return [row[n:] for row in work]
