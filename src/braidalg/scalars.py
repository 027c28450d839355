"""Exact coefficient arithmetic for the phase-braided setting.

A :class:`Scalar` is an element of the Laurent ring in a formal unit-modulus
phase ``z`` over the rationals, extended by formal square roots of positive
rationals.  Internally it is a finite sum of terms

    c * sqrt(r) * z^k

indexed by ``(k, r)`` with ``k`` an integer, ``r`` a square-free positive
integer (``r == 1`` is the rational part) and ``c`` a nonzero rational, kept as
a reduced int pair ``(numerator, denominator)`` with a positive denominator.
Coefficients enter as ``int`` or ``Fraction`` only; others raise ``TypeError``.
A rational phase term (n/d) z^k is shared: one object per value, kept in
``_TERMS``, and the product of two is one lookup in ``_PRODUCTS``, keyed by
their ids, which stay unique as a shared term never leaves ``_TERMS``.  At its
bound (``_MAX_TERMS``, ``_MAX_PRODUCTS``) a table stops growing.

Since the phase lives on the unit circle, complex conjugation (``star``)
sends ``z^k`` to ``z^-k`` and fixes rationals and radicals.

The phase can optionally be specialized to a primitive N-th root of unity,
in which case elements are reduced modulo the N-th cyclotomic polynomial so
zero-testing stays exact.  Radicals are treated as formally independent of
the phase (coincidences like sqrt(2) = z + z^-1 at N = 8 are not folded);
reduction is still a ring homomorphism, so identities proved formally stay
zero under every specialization.

``parse_scalar`` is the one expression reader: it reads the rendering of
``str(Scalar)`` back, as the CLI does for ``--F diag:`` entries and matrix files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

__all__ = [
    "Scalar",
    "ZetaSpec",
    "FORMAL",
    "ZERO",
    "ONE",
    "zeta",
    "sqrt",
    "as_scalar",
    "cyclotomic",
    "parse_scalar",
]


def _square_free(n: int) -> tuple[int, int]:
    """Split a positive integer as g**2 * s with s square-free; returns (g, s)."""
    g, s, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            g *= d
            n //= d * d
        if n % d == 0:
            s *= d
            n //= d
        d += 1
    return g, s * n


def _ratio(n: int, d: int) -> tuple[int, int]:
    """n/d as a reduced pair with a positive denominator; d == 1 skips the gcd."""
    if d == 1:
        return n, 1
    g = gcd(n, d) if d > 0 else -gcd(n, d)
    return n // g, d // g


def _accumulate(terms: dict, key, c: tuple[int, int]) -> None:
    """terms[key] += c for a nonzero reduced pair c, dropping the key if the sum is 0."""
    old = terms.get(key)
    if old is None:
        terms[key] = c
    elif n := old[0] * c[1] + c[0] * old[1]:
        terms[key] = _ratio(n, old[1] * c[1])
    else:
        del terms[key]


@lru_cache(maxsize=256)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the n-th cyclotomic polynomial."""
    if n <= 0:
        raise ValueError("cyclotomic index must be positive")
    # x^n - 1 divided by the cyclotomic polynomials of all proper divisors.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_div(poly, list(cyclotomic(d)))
    return tuple(poly)


def _int_poly_div(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c, rem = divmod(num[i + len(den) - 1], den[-1])
        assert rem == 0
        quot[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    assert all(c == 0 for c in num)
    return quot


@dataclass(frozen=True)
class ZetaSpec:
    """Interpretation of the formal phase: fully formal, or an N-th root of unity."""

    order: int | None = None  # None = formal

    @classmethod
    def root_of_unity(cls, n: int) -> "ZetaSpec":
        if n < 1:
            raise ValueError("root-of-unity order must be >= 1")
        return cls(n)

    def __str__(self) -> str:
        return "formal" if self.order is None else f"root:{self.order}"


FORMAL = ZetaSpec()


class Scalar:
    """An exact sum of terms c * sqrt(r) * z^k, immutable after construction.

    Units are shared: a product with ``ONE`` is the other operand itself, and
    a product of rational phase terms that comes to 1 is ``ONE``.

    >>> zeta(2) * zeta(3)
    Scalar(z^5)
    >>> (zeta(1) + 1) * (zeta(-1) + 1)
    Scalar(z^-1 + 2 + z)
    >>> sqrt(2) * sqrt(6)
    Scalar(2*sqrt(3))
    >>> zeta(3).star()
    Scalar(z^-3)
    >>> (1 + zeta(1) + zeta(2)).specialize(ZetaSpec.root_of_unity(3))
    Scalar(0)
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, int], int | Fraction] | None = None):
        cleaned: dict[tuple[int, int], tuple[int, int]] = {}
        for (k, r), c in (terms or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"scalar coefficients must be int or Fraction, got {c!r}")
            if c == 0:
                continue
            if r < 1:
                raise ValueError(f"radical key must be positive, got {r}")
            g, s = _square_free(r)
            _accumulate(cleaned, (k, s), _ratio(c.numerator * g, c.denominator))
        self._terms = cleaned

    @staticmethod
    def _make(terms: dict[tuple[int, int], tuple[int, int]]) -> "Scalar":
        """Wrap terms in normal form (nonzero reduced pairs); one rational phase term is the shared one."""
        if len(terms) == 1:
            ((k, r), (n, d)), = terms.items()
            if r == 1:
                return _term(k, n, d)
        out = Scalar.__new__(Scalar)
        out._terms = terms
        return out

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_fraction(c: int | Fraction) -> "Scalar":
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"scalar coefficients must be int or Fraction, got {c!r}")
        return _term(0, c.numerator, c.denominator) if c else ZERO

    # -- structure --------------------------------------------------------

    def items(self):
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == ONE._terms

    def is_single_term(self) -> bool:
        return len(self._terms) == 1

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if set(self._terms) == {(0, 1)}:
            return Fraction(*self._terms[(0, 1)])
        raise ValueError(f"not a plain rational: {self}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for key, c in other._terms.items():
            _accumulate(terms, key, c)
        return Scalar._make(terms)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar._make({k: (-n, d) for k, (n, d) in self._terms.items()})

    def __sub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Scalar":
        if self.__class__ is _Term is other.__class__:  # two shared terms: one lookup
            product = _PRODUCTS.get((id(self), id(other)))
            if product is None:
                ((k1, _), (n1, d1)), = self._terms.items()
                ((k2, _), (n2, d2)), = other._terms.items()
                product = _term(k1 + k2, *_ratio(n1 * n2, d1 * d2))
                if len(_PRODUCTS) < _MAX_PRODUCTS:
                    _PRODUCTS[id(self), id(other)] = product
            return product
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self is ONE:
            return other
        if other is ONE:
            return self
        if not self._terms or not other._terms:
            return ZERO
        terms: dict[tuple[int, int], tuple[int, int]] = {}
        for (k1, r1), (n1, d1) in self._terms.items():
            for (k2, r2), (n2, d2) in other._terms.items():
                # sqrt(r1) * sqrt(r2) = g * sqrt(s) with r1*r2 = g^2 * s
                g = gcd(r1, r2)
                _accumulate(terms, (k1 + k2, (r1 // g) * (r2 // g)), _ratio(n1 * n2 * g, d1 * d2))
        return Scalar._make(terms)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        """Division by a single-term scalar (these are the units we need)."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def inverse(self) -> "Scalar":
        """1 / self, for a single-term scalar."""
        if len(self._terms) != 1:
            raise ValueError(f"can only divide by a single-term scalar, got {self}")
        ((k, r), (n, d)), = self._terms.items()
        # 1 / ((n/d) sqrt(r) z^k) = (d/(n r)) sqrt(r) z^-k; r is already square-free
        return Scalar._make({(-k, r): _ratio(d, n * r)})

    def star(self) -> "Scalar":
        """Complex conjugation: z^k -> z^-k, rationals and radicals fixed."""
        return Scalar._make({(-k, r): c for (k, r), c in self._terms.items()})

    def specialize(self, spec: ZetaSpec) -> "Scalar":
        """Canonical residue modulo the cyclotomic polynomial of spec.order."""
        if spec.order is None:
            return self
        n = spec.order
        phi = cyclotomic(n)
        deg = len(phi) - 1
        by_radical: dict[int, list[Fraction]] = {}
        for (k, r), c in self._terms.items():
            coeffs = by_radical.setdefault(r, [Fraction(0)] * n)
            coeffs[k % n] += Fraction(*c)
        terms: dict[tuple[int, int], Fraction] = {}
        for r, coeffs in by_radical.items():
            # reduce mod phi_n (monic); the constructor drops the zeros
            for i in range(len(coeffs) - 1, deg - 1, -1):
                if c := coeffs[i]:
                    for j, pj in enumerate(phi):
                        coeffs[i - deg + j] -= c * pj
            terms.update({(k, r): c for k, c in enumerate(coeffs[:deg])})
        return Scalar(terms)

    # -- comparison / rendering -------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._terms.keys() <= {(0, 1)}:  # a plain rational hashes as the Fraction it equals
            return hash(self.as_fraction())
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for (k, r), (n, d) in self.items():
            factors = []
            if r != 1:
                factors.append(f"sqrt({r})")
            if k != 0:
                factors.append("z" if k == 1 else f"z^{k}")
            mag = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
            if mag != "1" or not factors:
                factors.insert(0, mag)
            sign = ("" if n > 0 else "-") if not parts else (" + " if n > 0 else " - ")
            parts.append(sign + "*".join(factors))
        return "".join(parts)


def as_scalar(value) -> Scalar:
    """A Scalar as it is; an int or Fraction as a rational; anything else is a TypeError."""
    if isinstance(value, Scalar):
        return value
    return Scalar.from_fraction(value)


def _coerce(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    return as_scalar(value) if isinstance(value, (int, Fraction)) else NotImplemented


class _Term(Scalar):
    """A shared rational phase term (n/d) z^k, the one object of its value in ``_TERMS``."""

    __slots__ = ()

    def __reduce__(self):  # copies and pickles come back through the table
        ((k, _), c), = self._terms.items()
        return _term, (k, *c)


_MAX_TERMS = 1 << 12
_MAX_PRODUCTS = 1 << 14
_TERMS: dict[tuple[int, int, int], Scalar] = {}
_PRODUCTS: dict[tuple[int, int], Scalar] = {}


def _term(k: int, n: int, d: int) -> Scalar:
    """(n/d) z^k for a reduced pair n/d != 0: the shared term, or a plain one once ``_TERMS`` is full."""
    term = _TERMS.get((k, n, d))
    if term is None:
        cls = _Term if len(_TERMS) < _MAX_TERMS else Scalar
        term = cls.__new__(cls)
        term._terms = {(k, 1): (n, d)}
        if cls is _Term:
            term = _TERMS.setdefault((k, n, d), term)
    return term


ZERO = Scalar()
ONE = _term(0, 1, 1)


def zeta(k: int = 1) -> Scalar:
    """z^k, a shared term, which is safe because a Scalar is never changed after construction."""
    return _term(k, 1, 1)


def sqrt(value) -> Scalar:
    """sqrt of a positive rational: sqrt(p/q) = sqrt(p*q) / q."""
    v = Scalar.from_fraction(value).as_fraction()
    if v <= 0:
        raise ValueError("radicand must be positive")
    return Scalar({(0, v.numerator * v.denominator): Fraction(1, v.denominator)})


# -- parsing ----------------------------------------------------------------

_TERM_TOKEN = re.compile(
    r"""\s*(
        sqrt\(\s*(?P<rad>\d+)\s*\)
      | z(\^(?P<exp>-?\d+))?
      | \(\s*(?P<pnum>-?\d+)\s*(/\s*(?P<pden>\d+))?\s*\)
      | (?P<num>-?\d+)\s*(/\s*(?P<den>\d+))?
    )\s*""",
    re.X,
)


# square-freeing trial-divides up to sqrt(r), so this bounds it at 10^6 steps
_MAX_RADICAND = 10**12


def _scalar_factor(factor: str) -> Scalar:
    m = _TERM_TOKEN.fullmatch(factor)
    if not m:
        raise ValueError(f"bad scalar factor {factor!r}")
    if m.group("rad") is not None:
        if int(m.group("rad")) > _MAX_RADICAND:
            raise ValueError(f"radicand above 10^12 in {factor!r}")
        return sqrt(int(m.group("rad")))
    if m.group(1).lstrip().startswith("z"):
        exp = m.group("exp")
        return zeta(int(exp) if exp is not None else 1)
    num, den = m.group("pnum", "pden") if m.group("pnum") is not None else m.group("num", "den")
    if den is not None and int(den) == 0:
        raise ValueError(f"zero denominator in {factor!r}")
    return Scalar.from_fraction(Fraction(int(num), int(den) if den else 1))


def parse_scalar(text: str) -> Scalar:
    """Parse the canonical rendering back into a Scalar (lossless round-trip).

    Terms are separated by a '+' or '-' with a space of its own on each side,
    factors by '*'; a leading '-' negates the first term.  An empty term is an error.
    """
    text = text.strip()
    negated = text.startswith("-")
    parts = re.split(r" ([+-]) ", text[1:] if negated else text)
    total = ZERO
    for op, body in zip(["-" if negated else "+"] + parts[1::2], parts[::2]):
        if not body.strip():
            raise ValueError(f"empty term in {text!r}")
        term = -ONE if op == "-" else ONE
        for f in body.split("*"):
            term = term * _scalar_factor(f)
        total = total + term
    return total
