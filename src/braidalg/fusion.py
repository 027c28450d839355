"""The free fusion ring on an integer charge and a two-letter free monoid.

Irreducibles are pairs (x, w) with x an integer and w a word over {a, b}.
The involution negates the charge and bar-reverses the word (a <-> b,
reversed).  The product decomposes by matching a suffix g of the left word
against the bar of a prefix of the right word:

    (x, w) . (y, v) = sum over w = a g, v = bar(g) b of (x + y, a b).

The rule is written once, in the memoized kernel ``_fuse`` on letter strings.
``fuse`` wraps its output in ``Irrep`` and ``Word`` at the API boundary.
``check_fusion_ring`` reads the kernel as whole lines, one word against
every word, and sorts outputs into multisets only where two lines differ.

Dimensions are the unique multiplicative extension with the two-letter
generators n-dimensional.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product
from operator import add, itemgetter, ne

from .simplify import VerificationReport

__all__ = [
    "Word",
    "Irrep",
    "FusionResult",
    "word_bar",
    "fuse",
    "conjugate_irrep",
    "dimension",
    "check_fusion_ring",
    "parse_irrep",
    "all_words",
]

_BAR = str.maketrans("ab", "ba")


@dataclass(frozen=True, order=True)
class Word:
    """A word in the free monoid on two letters; the empty word is the unit."""

    letters: str = ""

    def __post_init__(self):
        if self.letters.strip("ab"):
            raise ValueError(f"word letters must be 'a' or 'b', got {self.letters!r}")

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __str__(self) -> str:
        return self.letters or "e"


@dataclass(frozen=True, order=True)
class Irrep:
    """(integer charge, word); the trivial class is (0, e)."""

    x: int
    w: Word

    def __str__(self) -> str:
        return f"({self.x}; {self.w})"


class FusionResult:
    """Multiset of irreducibles with positive integer multiplicities."""

    __slots__ = ("_counts",)

    def __init__(self, items=()):
        self._counts = Counter()
        for item in items:
            irrep, mult = item if isinstance(item, tuple) else (item, 1)
            self._counts[irrep] += mult
        if any(m < 1 for m in self._counts.values()):
            raise ValueError("multiplicities must be positive")

    def items(self):
        return sorted(self._counts.items())

    def total_dimension(self, n: int) -> int:
        return sum(m * dimension(r.w, n) for r, m in self._counts.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, FusionResult) and self._counts == other._counts

    def __str__(self) -> str:
        return "\n".join(f"{m} x {r}" for r, m in self.items())

    def __repr__(self) -> str:
        return f"FusionResult({dict(self._counts)})"


def _bar(letters: str) -> str:
    return letters[::-1].translate(_BAR)


def word_bar(w: Word) -> Word:
    """Reverse the word and swap the two letters; an antimultiplicative involution.

    >>> str(word_bar(Word("")))
    'e'
    >>> str(word_bar(Word("a")))
    'b'
    >>> str(word_bar(Word("ab")))
    'ab'
    """
    return Word(_bar(w.letters))


@lru_cache(maxsize=1 << 15)  # holds the 3,585 word pairs of the length-3 audits
def _fuse(w: str, v: str) -> tuple[str, ...]:
    """The words a b over the cuts w = a g, v = bar(g) b, shortest g first.

    Once bar(g) is not a prefix of v, no longer suffix g matches either.
    """
    out = []
    for k in range(min(len(w), len(v)) + 1):
        if not v.startswith(_bar(w[len(w) - k:])):
            break
        out.append(w[: len(w) - k] + v[k:])
    return tuple(out)


def fuse(r: Irrep, s: Irrep) -> FusionResult:
    """Decompose the product: for each suffix g of r.w whose bar is a prefix
    of s.w, emit (r.x + s.x, prefix-of-r times suffix-of-s).

    >>> print(fuse(Irrep(0, Word("a")), Irrep(0, Word("b"))))
    1 x (0; e)
    1 x (0; ab)
    >>> print(fuse(Irrep(1, Word("aa")), Irrep(2, Word("bb"))))
    1 x (3; e)
    1 x (3; aabb)
    1 x (3; ab)
    """
    return FusionResult(Irrep(r.x + s.x, Word(u)) for u in _fuse(r.w.letters, s.w.letters))


def fuse_results(left: FusionResult, right: FusionResult) -> FusionResult:
    """The product of two multisets, summed over the kernel outputs of every pair."""
    counts: Counter = Counter()
    for r, mr in left._counts.items():
        for s, ms in right._counts.items():
            for u in _fuse(r.w.letters, s.w.letters):
                counts[r.x + s.x, u] += mr * ms
    return FusionResult((Irrep(x, Word(u)), m) for (x, u), m in counts.items())


def conjugate_irrep(r: Irrep) -> Irrep:
    return Irrep(-r.x, word_bar(r.w))


@lru_cache(maxsize=1 << 12)
def _dim(letters: str, n: int) -> int:
    if not letters or n == 1:
        return 1
    head, last = letters[:-1], letters[-1]
    value = n * _dim(head, n)
    if head and head[-1] == _bar(last):
        value -= _dim(head[:-1], n)
    return value


def dimension(w: Word, n: int) -> int:
    """dim(e) = 1, dim(w a) = n dim(w) - [w ends in b] dim(w minus last), mirrored.

    Nondegenerate for n >= 2; at n = 1 every class is one-dimensional.
    """
    if n < 1:
        raise ValueError("dimension parameter must be >= 1")
    return _dim(w.letters, n)


def _words(max_len: int) -> list[str]:
    """Every letter string of length at most max_len, shortest first."""
    return ["".join(p) for k in range(max_len + 1) for p in product("ab", repeat=k)]


def all_words(max_len: int):
    return map(Word, _words(max_len))


def check_fusion_ring(n: int, max_len: int) -> VerificationReport:
    """Associativity, dimension multiplicativity, the conjugation
    anti-homomorphism, and the single trivial summand in r x conj(r),
    exhaustively over the charge-0 classes up to the length bound.

    Each check compares kernel outputs as multisets of letter strings.
    Associativity is checked one line per pair (w, v), over every t at once:
    (w v) t and w (v t) are concatenations of kernel lines, each built once
    per call, and only the positions where they differ are sorted.
    """
    if n < 1 or max_len < 0:
        raise ValueError(f"need n >= 1 and max_len >= 0, got n={n}, max_len={max_len}")
    words = _words(max_len)
    rows: dict[str, list[tuple[str, ...]]] = {}
    cols: dict[str, list[tuple[str, ...]]] = {}

    def row(u):  # [u x t for t in words]
        line = rows.get(u)
        if line is None:
            line = rows[u] = [_fuse(u, t) for t in words]
        return line

    def col(u):  # [w x u for w in words]
        line = cols.get(u)
        if line is None:
            line = cols[u] = [_fuse(w, u) for w in words]
        return line

    def side(summands, line):  # the summands' lines, concatenated position by position
        lines = map(line, summands)
        out = next(lines, None)
        if out is None:
            return [()] * len(words)
        for more in lines:
            out = list(map(add, out, more))
        return out

    # rights[j][t][i] is words[i] x (v x t) for v = words[j], summed over v x t
    rights = [[side(vt, col) for vt in row(v)] for v in words]
    failed: list[tuple[str, tuple[str, ...]]] = []
    for i, w in enumerate(words):
        at_w = itemgetter(i)
        for v, wv, right_v in zip(words, row(w), rights):
            if sum(_dim(u, n) for u in wv) != _dim(w, n) * _dim(v, n):
                failed.append(("dim", (w, v)))
            if sorted(map(_bar, wv)) != sorted(_fuse(_bar(v), _bar(w))):
                failed.append(("conj", (w, v)))
            left, right = side(wv, row), list(map(at_w, right_v))
            if left != right:
                for t, lt, rt in compress(zip(words, left, right), map(ne, left, right)):
                    if sorted(lt) != sorted(rt):
                        failed.append(("assoc", (w, v, t)))
        if _fuse(w, _bar(w)).count("") != 1:
            failed.append(("frobenius", (w,)))
    verdict = "Unverified" if failed else "Verified"
    checks = [(f"exhaustive over {len(words)} words, n={n}", verdict)]
    for kind, args in failed:
        name = ",".join(str(Irrep(0, Word(u))) for u in args)
        checks.append((f"{kind}({name})", "Unverified"))
    return VerificationReport("fusion-ring", verdict, None, checks)


def parse_irrep(text: str) -> Irrep:
    """Parse '(x; word)' with word over a, b, or e for the empty word."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"irrep must look like '(x; word)', got {text!r}")
    parts = body[1:-1].split(";")
    if len(parts) != 2:
        raise ValueError(f"irrep must look like '(x; word)', got {text!r}")
    x = int(parts[0].strip())
    w = parts[1].strip()
    return Irrep(x, Word("" if w == "e" else w))
