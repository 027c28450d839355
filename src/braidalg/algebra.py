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

Text is computed once: a letter renders at creation, and ``lword_str`` caches
a word's leg notation, so a trace formats each letter and word once.

One kernel forms products, for ``*`` and ``mat_entries`` alike: a product word
merges the leg-sorted factors' per-leg segments rather than being sorted, every
factor of a matrix product is split once, every factor pair of an entry
multiplies into one term table, and zero factors are skipped.  The star
reverses ``_split``'s per-leg segments, so only the constructor and
``psi_flatten`` sort words.

The star is antimultiplicative and conjugates coefficients.  Matrices of
polynomials or scalars are plain lists of lists, composed with ordinary
matrix algebra: ``mat_entries``, the entries of a product, ``mat_mul`` built on it,
the star-transpose ``adjoint``, ``diag_matrix`` and ``mat_identity``.  The
phase-dressed entrywise adjoint ``conjugate_matrix`` gives braided conjugates.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, groupby
from operator import add, attrgetter, mul

from .scalars import ONE, ZERO, Scalar, as_scalar, zeta

__all__ = [
    "Letter",
    "GradedPoly",
    "BadLeg",
    "LegMismatch",
    "InputError",
    "DegreeMismatch",
    "SingularMatrix",
    "adjoint",
    "conjugate_matrix",
    "diag_matrix",
    "mat_entries",
    "mat_mul",
    "mat_identity",
    "row_reduce",
    "scalar_mat_inverse",
]


class BadLeg(Exception):
    """Leg index out of range."""


class LegMismatch(Exception):
    """Operands have different leg structures."""


class InputError(ValueError):
    """Input the engine rejects by a rule of its own; the command line prints the class name with the message."""


class DegreeMismatch(InputError):
    """A matrix entry failed its homogeneity precondition."""


class SingularMatrix(InputError):
    """Matrix inversion failed over the scalar ring."""


class Letter:
    """A generator symbol: family name, optional index, degree, star flag, tensor leg.

    Letters are interned: equal fields give the same object, so letters compare
    and hash by identity.  ``symbol`` (the same letter on leg 1, which keys the
    rules on every leg), ``sort_key`` (leg, family, index, star flag) and
    ``text`` (the rendering, ``u*[1,2]``, which ``str`` returns) are computed
    once, at creation.
    """

    __slots__ = ("name", "index", "degree", "starred", "leg", "symbol", "sort_key", "text", "_star")
    _interned: dict[tuple, "Letter"] = {}

    def __new__(cls, name: str, index, degree: int, starred: bool = False, leg: int = 1):
        key = (name, tuple(index), degree, starred, leg)
        self = cls._interned.get(key)
        if self is None:
            self = cls._interned[key] = object.__new__(cls)
            symbol = self if leg == 1 else cls(name, index, degree, starred)
            star = "*" if starred else ""
            text = f"{name}{star}[{','.join(map(str, key[1]))}]" if key[1] else f"{name}{star}"
            for attr, value in zip(cls.__slots__, (*key, symbol, (leg, name, key[1], starred), text)):
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
        return self.text


Word = tuple[Letter, ...]

_LEG = attrgetter("leg")


def word_key(word: Word):
    return (len(word), tuple(l.sort_key for l in word))


def word_degree(word: Word) -> int:
    return sum(l.degree for l in word)


def word_str(word: Word) -> str:
    return "*".join(l.text for l in word) if word else "1"


@lru_cache(maxsize=4096)
def lword_str(word: Word, offset: int = 0) -> str:
    """Leg notation ``j1(a*b)*j2(c)``, numbering legs from ``offset + 1``; cached, as words of
    interned letters never change, so the body runs only on a miss."""
    runs = groupby(word, _LEG)
    return "*".join(f"j{leg - offset}({'*'.join(l.text for l in run)})" for leg, run in runs) if word else "1"


@lru_cache(maxsize=64)
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


# -- the product kernel --------------------------------------------------------


@lru_cache(maxsize=4096)
def _split(word: Word, block_of) -> tuple:
    """``(word, first leg, last leg, segments, degrees, higher)`` of a normal-form word.

    Per leg: its letters, their degree, and the degree on higher legs of its
    block.  An empty word starts past the last leg and ends on leg 0; on one
    leg (``block_of`` None) no product word moves, so the per-leg parts are empty.
    """
    if block_of is None:
        return word, 1, 1, (), (), ()
    legs = range(1, len(block_of))
    segments = tuple(tuple(l for l in word if l.leg == leg) for leg in legs)
    degrees = tuple(map(word_degree, segments))
    higher = tuple(sum(degrees[m - 1] for m in legs if m > leg and block_of[m] == block_of[leg]) for leg in legs)
    first, last = (word[0].leg, word[-1].leg) if word else (len(block_of), 0)
    return word, first, last, segments, degrees, higher


def _split_terms(factor, legs: tuple[int, ...], block_of) -> list:
    """``(split word, coefficient)`` per term of a factor on ``legs``; a scalar is one term on the empty word, zero none."""
    if isinstance(factor, GradedPoly):
        if factor.legs != legs:
            raise LegMismatch(f"legs {legs} vs {factor.legs}")
        return [(_split(w, block_of), c) for w, c in factor._terms.items()]
    c = as_scalar(factor)
    return [(_split((), block_of), c)] if c else []


def _multiply_into(terms: dict, left: list, right: list) -> dict:
    """Add the product of two split term lists to ``terms``; zero sums drop out.

    The product word merges the leg-sorted factors' per-leg segments, and each
    right letter moving past left letters on higher legs of its block costs
    ``z^(deg * deg)``; a left word that ends at or below the right word's first
    leg just concatenates.
    """
    get = terms.get
    for (w1, _, last, segments1, _, higher), c1 in left:
        for (w2, first, _, segments2, degrees, _), c2 in right:
            c = c1 * c2
            if last <= first:
                w = w1 + w2
            else:
                w = sum(map(add, segments1, segments2), ())
                exponent = sum(map(mul, degrees, higher))
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
    ``+``, ``-``, ``*`` and ``==`` take polynomials on the same legs, and a
    scalar (``Scalar``, ``int`` or ``Fraction``) multiplies on either side.
    Other operands raise ``TypeError`` (``==`` says False); other legs raise
    ``LegMismatch``.
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
        legs = [l.leg for l in word]
        ends = [bisect_right(legs, bound) for bound in accumulate(self.legs)]
        return [word[start:end] for start, end in zip([0, *ends], ends)]

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
        degs = {word_degree(w) for w in self._terms} or {0}
        return degs.pop() if len(degs) == 1 else None

    # -- algebra ------------------------------------------------------------

    def _coerce(self, value) -> "GradedPoly":
        if not isinstance(value, GradedPoly):
            raise TypeError(f"cannot interpret {value!r} as a polynomial")
        if value.legs != self.legs:
            raise LegMismatch(f"legs {self.legs} vs {value.legs}")
        return value

    def __add__(self, other) -> "GradedPoly":
        other = self._coerce(other)
        return self._make(_collect(other._terms.items(), None, dict(self._terms)), self.legs)

    def __neg__(self) -> "GradedPoly":
        return self._make({w: -c for w, c in self._terms.items()}, self.legs)

    def __sub__(self, other) -> "GradedPoly":
        negated = ((w, -c) for w, c in self._coerce(other)._terms.items())
        return self._make(_collect(negated, None, dict(self._terms)), self.legs)

    def __mul__(self, other) -> "GradedPoly":
        if isinstance(other, (Scalar, int, Fraction)):
            c = as_scalar(other)
            return self._make({w: cc * c for w, cc in self._terms.items()} if c else {}, self.legs)
        other, block_of = self._coerce(other), _block_of(self.legs)
        left, right = (_split_terms(x, self.legs, block_of) for x in (self, other))
        return self._make(_multiply_into({}, left, right), self.legs)

    def __rmul__(self, other) -> "GradedPoly":
        return self * other  # scalars are central; any other left operand raises in __mul__

    def star(self) -> "GradedPoly":
        """Antimultiplicative star: words reversed, letters and scalars conjugated.

        On more than one leg a word's ``_split`` segments are each reversed, in
        ascending leg order, and the phase is z^(sum of degree * higher degree).
        """
        block_of, terms = _block_of(self.legs), {}
        for w, c in self._terms.items():
            c, segments = c.star(), (w,)
            if block_of is not None:
                _, _, _, segments, degrees, higher = _split(w, block_of)
                if exponent := sum(map(mul, degrees, higher)):
                    c = c * zeta(exponent)
            terms[tuple(l.star() for segment in segments for l in reversed(segment))] = c
        return self._make(terms, self.legs)

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
            return NotImplemented
        return self.legs == other.legs and self._terms == other._terms

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


def mat_entries(a: Matrix, b: Matrix):
    """``entry(i, j)``, entry (i,j) of a b: the one product formula; a scalar times a polynomial is a polynomial.

    With a polynomial among the factors, every factor of both matrices is split
    once, here, and ``entry`` multiplies only the factors of the entry it is
    asked for into one term table, so an all-zero entry is the zero on their
    legs; scalar-only matrices sum their products.
    """
    poly = next((x for m in (a, b) for row in m for x in row if isinstance(x, GradedPoly)), None)
    if poly is None:
        return lambda i, j: reduce(add, (a[i][k] * b[k][j] for k in range(len(b))))
    legs, block_of = poly.legs, _block_of(poly.legs)
    left, right = ([[_split_terms(x, legs, block_of) for x in row] for row in m] for m in (a, b))

    def entry(i: int, j: int) -> GradedPoly:
        terms: dict[Word, Scalar] = {}
        for x, row in zip(left[i], right):
            if x:
                _multiply_into(terms, x, row[j])
        return GradedPoly._make(terms, legs)

    return entry


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product of scalar or polynomial matrices, entry by entry with ``mat_entries``."""
    assert all(len(row) == len(b) for row in a)
    entry = mat_entries(a, b)
    return [[entry(i, j) for j in range(len(b[0]))] for i in range(len(a))]


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


def row_reduce(rows: list[list], unit) -> list[int]:
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
