"""Presentations, their relation kinds, and the verification engine.

Each relation kind of a :class:`Presentation` renders its own dump lines
(``lines``) and compiles its own engine rules (``compile``) into the one
:class:`RelationSet`, ``Presentation.rules``.  Three rule kinds result, in
two tables:

* pair rules, one table keyed by adjacent letter pairs: the local rules
  ``S*[i] S[j] -> delta_ij`` for a Cuntz family and ``x x* -> 1``,
  ``x* x -> 1`` for any declared 1x1 unitary, and the directed phase
  commutations ``a b -> phase * b a`` (a local rule wins a shared pair);
* complete contraction families ``sum_k c_k A_k B_k = r``, derived from the
  rows and columns of declared unitary matrices with monomial entries and
  from the full Cuntz sum ``sum_i S[i] S*[i] = 1``.

The verification strategy is expansion + structural normal form +
complete-contraction detection, not ideal membership.  A contraction fires
on a group of monomials that are identical except at one adjacent same-leg
letter pair, where the pair runs over a complete family and the
coefficients are proportional to the family's.  A complete group lies on
one leg: members found on different legs never combine.

Reduction rewrites every term locally once, then fires contractions to a
fixpoint; a zero input returns at once, and a rule set without pair rules
skips the local pass.  Candidates are buckets of terms that agree but for
one family pair; a term enters its buckets as it enters the reduction and
never leaves them, so an entry is live only while its word keeps that
coefficient.  A bucket goes on a heap in the canonical order (largest family,
family, then prefix, suffix and leg) when it fills, and the next firing is
the first popped bucket that is all live and proportional.  A same-leg pair
finds its rules by its interned leg-1 letters, hashed by identity.  A zero
residual means Verified, anything else is Unverified (not a refutation).
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable
from contextvars import ContextVar
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .algebra import GradedPoly, Letter, Word, _collect, lword_str, word_key
from .scalars import FORMAL, ONE, ZERO, Scalar, ZetaSpec

__all__ = [
    "Presentation",
    "UnitaryMatrixRel",
    "CuntzFamilyRel",
    "PhaseCommutationRel",
    "RelationSet",
    "PairFamily",
    "VerificationReport",
    "EVENT_SINK",
    "verify_identity",
    "reduce_poly",
    "render_step",
]


@dataclass(frozen=True)
class PairFamily:
    """A complete contraction: sum_k coeff_k * left_k * right_k = rhs."""

    name: str
    members: tuple[tuple[Letter, Letter, Scalar], ...]
    rhs: Scalar


# -- relation kinds ----------------------------------------------------------------


@dataclass(frozen=True)
class UnitaryMatrixRel:
    """A unitary matrix of monomials: its rows and columns are complete families."""

    name: str
    matrix: tuple  # tuple of tuples of GradedPoly

    def lines(self) -> list[str]:
        return [f"unitary {self.name}:"] + [
            "  [ " + " , ".join(str(p) for p in row) + " ]" for row in self.matrix
        ]

    def compile(self, rules: "RelationSet") -> None:
        name, n = self.name, len(self.matrix)
        entries: list[list[tuple[Scalar, Letter]]] = []
        for row in self.matrix:
            out_row = []
            for poly in row:
                items = list(poly.items())
                if len(items) != 1 or len(items[0][0]) != 1:
                    raise ValueError(
                        f"unitary matrix {name!r} must have monomial entries to be "
                        f"usable for reduction; entry {poly} is not"
                    )
                word, coeff = items[0]
                out_row.append((coeff, word[0]))
            entries.append(out_row)

        if n == 1:
            c, l = entries[0][0]
            # x x* -> 1 / (c c*), x* x -> same: a unitary single letter
            inv = ONE / (c * c.star())
            rules.pair_rules[(l.symbol, l.star().symbol)] = (inv, False)
            rules.pair_rules[(l.star().symbol, l.symbol)] = (inv, False)
            return

        starred = [[(c.star(), l.star()) for c, l in row] for row in entries]  # once per entry
        for i in range(n):
            for j in range(n):
                rhs = ONE if i == j else ZERO
                col = tuple((starred[k][i][1], entries[k][j][1], starred[k][i][0] * entries[k][j][0]) for k in range(n))
                rules.families.append(PairFamily(f"{name}.col[{i + 1},{j + 1}]", col, rhs))
                row = tuple((entries[i][k][1], starred[j][k][1], entries[i][k][0] * starred[j][k][0]) for k in range(n))
                rules.families.append(PairFamily(f"{name}.row[{i + 1},{j + 1}]", row, rhs))


@dataclass(frozen=True)
class CuntzFamilyRel:
    """Isometries with orthogonal ranges that sum to one: S*[i]S[j] = delta, sum S[i]S*[i] = 1."""

    letters: tuple[Letter, ...]  # unstarred edge isometries

    def lines(self) -> list[str]:
        fam = ", ".join(str(l) for l in self.letters)
        return [f"cuntz family ({fam}): S*[i]S[j] = delta, sum S[i]S*[i] = 1"]

    def compile(self, rules: "RelationSet") -> None:
        letters = self.letters
        for a in letters:
            for b in letters:
                rules.pair_rules[(a.star().symbol, b.symbol)] = (ONE if a == b else ZERO, False)
        members = tuple((a, a.star(), ONE) for a in letters)
        rules.families.append(PairFamily(f"cuntz-sum({letters[0].name})", members, ONE))


@dataclass(frozen=True)
class PhaseCommutationRel:
    """(a, b, phase) reads a*b = phase * b*a, compiled as swaps moving a, a* left past b, b*."""

    pairs: tuple[tuple[Letter, Letter, Scalar], ...]

    def lines(self) -> list[str]:
        return [f"commutation {a}*{b} = ({phase})*{b}*{a}" for a, b, phase in self.pairs]

    def compile(self, rules: "RelationSet") -> None:
        for a, b, phase in self.pairs:
            inverse = ONE / phase
            for x, y, c in ((b, a, inverse), (b.star(), a.star(), inverse), (b, a.star(), phase), (b.star(), a, phase)):
                pair = (x.symbol, y.symbol)
                if rules.pair_rules.get(pair, (None, True))[1]:  # a local rule wins its pair
                    rules.pair_rules[pair] = (c, True)


@dataclass
class Presentation:
    """Generator/relation data of a graded *-algebra: a text dump and compiled rules."""

    generators: list[Letter] = field(default_factory=list)
    degree_tuples: dict[str, tuple[int, ...] | int] = field(default_factory=dict)
    relations: list = field(default_factory=list)

    @functools.cached_property
    def rules(self) -> "RelationSet":
        """The engine rules of the relations, compiled on first use."""
        return RelationSet(self.relations)

    def dump(self) -> str:
        lines = ["[generators]", *(f"{g} deg {g.degree}" for g in self.generators), "", "[degrees]"]
        for name, value in sorted(self.degree_tuples.items()):
            lines.append(f"{name} = ({','.join(map(str, value))})" if isinstance(value, tuple) else f"{name} = {value}")
        lines += ["", "[relations]", *(line for rel in self.relations for line in rel.lines())]
        return "\n".join(lines) + "\n"


class RelationSet:
    """Declared relations, compiled into pair rules and contraction families.

    ``relations`` are relation-kind objects, such as ``Presentation.relations``;
    each compiles itself into this set, in the order given.  Rules are keyed
    by pairs of leg-1 letters (``Letter.symbol``), so they apply on every leg;
    ``pair_rules`` maps a pair to ``(coefficient, swap)``, where ``swap`` is
    False for a local rule (the pair is deleted) and True for a directed swap.
    ``pair_index`` maps a pair to its family entries.  A pair across legs has
    no rule.
    """

    def __init__(self, relations=()):
        self.relations = tuple(relations)
        self.pair_rules: dict[tuple, tuple[Scalar, bool]] = {}
        self.families: list[PairFamily] = []
        for rel in self.relations:
            rel.compile(self)

        # (left leg-1 letter, right leg-1 letter) -> ((family, member, 1 / member coefficient,
        # or None when the coefficient is one, family size), ...)
        index: dict[tuple, list[tuple[int, int, Scalar | None, int]]] = {}
        for fi, fam in enumerate(self.families):
            for mi, (a, b, c) in enumerate(fam.members):
                inv = None if c.is_one() else c.inverse()
                index.setdefault((a.symbol, b.symbol), []).append((fi, mi, inv, len(fam.members)))
        self.pair_index = {pair: tuple(entries) for pair, entries in index.items()}


# -- reduction passes -----------------------------------------------------------


def _rewrite(word: Word, coeff: Scalar, pair_rules: dict, trace: list) -> tuple[Word, Scalar]:
    """Exhaustively apply a rule set's ``pair_rules`` to one monomial's same-leg pairs, leftmost first.

    A firing at t changes no pair left of t - 1, so the scan resumes there.
    """
    word = list(word)
    t = 0
    while t < len(word) - 1:
        a, b = word[t], word[t + 1]
        rule = pair_rules.get((a.symbol, b.symbol)) if a.leg == b.leg else None
        if rule is None:
            t += 1
            continue
        c, swap = rule
        trace.append(("swap" if swap else "local", tuple(word), t, c))
        if swap:
            word[t], word[t + 1] = b, a
        else:
            del word[t : t + 2]
        coeff = coeff * c
        if coeff.is_zero():
            break
        t = max(t - 1, 0)
    return tuple(word), coeff


# The word key of the candidate order, cached because the same prefixes and
# suffixes complete again and again; a test that reorders candidates patches it.
_order_key = functools.lru_cache(maxsize=1 << 12)(word_key)


def _index(word: Word, coeff: Scalar, pair_index: dict, buckets: dict, heap: list, seq) -> None:
    """Enter a term in the buckets of its same-leg pairs' ``pair_index`` entries, and push
    ``(order, seq, key)`` for each it fills.

    ``buckets`` maps ``(prefix, suffix, family, leg)`` to ``{member: (word, coeff,
    coeff / member coeff)}``: a key and a member fix one word, so a group never mixes
    legs, and a word indexed again overwrites all its entries.  No entry is removed; it
    is live while ``terms.get(word) is coeff``.  ``order`` is the canonical candidate
    order, and ``seq`` numbers the pushes so that the heap never compares letters.
    """
    for t in range(len(word) - 1):
        a, b = word[t], word[t + 1]
        entries = pair_index.get((a.symbol, b.symbol)) if a.leg == b.leg else None
        if entries is None:
            continue
        prefix, suffix = word[:t], word[t + 2 :]
        for fi, mi, inv, size in entries:
            key = (prefix, suffix, fi, a.leg)
            if (found := buckets.get(key)) is None:
                found = buckets[key] = {}
            found[mi] = (word, coeff, coeff if inv is None else coeff * inv)
            if len(found) == size:
                heappush(heap, ((-size, fi, _order_key(prefix), _order_key(suffix), a.leg), next(seq), key))


def _pop_ready(heap: list, buckets: dict, terms: dict):
    """Remove and return ``(key, bucket)`` of the first pushed bucket that is all live and proportional,
    or None; checked here, as a member can leave and come back with another coefficient after the push."""
    while heap:
        order, _, key = heappop(heap)
        found = buckets.get(key)
        if found is None or len(found) != -order[0]:
            continue
        ratio = found[0][2]._terms
        if all(terms.get(word) is coeff and r._terms == ratio for word, coeff, r in found.values()):
            del buckets[key]
            return key, found
    return None


def reduce_poly(p: GradedPoly, rels: RelationSet):
    """Rewrite every term locally, then fire complete contractions to a fixpoint.

    Local rules are pair rules, so after the first pass every term is
    irreducible and a firing can only create a redex in its collapsed word.
    A zero input returns at once, and with no pair rules the first pass and
    the rewrite of each collapsed word are skipped: they would fire nothing.
    A term is indexed as it enters ``terms`` (``_index``); a firing deletes its
    members from ``terms`` only, which kills their entries, and the next firing is
    the least pushed bucket that is still complete and proportional (``_pop_ready``).
    Returns (reduced polynomial on the same legs, trace): the firings as events,
    ``("local" | "swap", word before, t, coefficient)`` and ``("contract", family, prefix, suffix)``.
    """
    trace: list[tuple] = []
    if not p._terms:
        return GradedPoly._make({}, p.legs), trace
    families, pair_rules, pair_index = rels.families, rels.pair_rules, rels.pair_index
    if pair_rules:
        words = sorted(p._terms, key=word_key)
        terms = _collect(_rewrite(w, p._terms[w], pair_rules, trace) for w in words)
    else:
        terms = dict(p._terms)
    buckets, heap, seq = {}, [], itertools.count()
    for word, coeff in terms.items():
        _index(word, coeff, pair_index, buckets, heap, seq)
    while (ready := _pop_ready(heap, buckets, terms)) is not None:
        (prefix, suffix, fi, _), found = ready
        fam = families[fi]
        for word, _, _ in found.values():
            del terms[word]
        trace.append(("contract", fam, prefix, suffix))
        if fam.rhs.is_zero():
            continue
        word, coeff = prefix + suffix, found[0][2] * fam.rhs
        if pair_rules:
            word, coeff = _rewrite(word, coeff, pair_rules, trace)
            if coeff.is_zero():
                continue
        if (old := terms.pop(word, None)) is not None:
            coeff = old + coeff
        if not coeff.is_zero():
            terms[word] = coeff
            _index(word, coeff, pair_index, buckets, heap, seq)
    return GradedPoly._make(terms, p.legs), trace


def render_step(event: tuple) -> str:
    """The trace line of one ``reduce_poly`` event."""
    if event[0] == "contract":
        _, fam, prefix, suffix = event
        return f"rule contract {fam.name} at {lword_str(prefix)}|...|{lword_str(suffix)} -> ({fam.rhs})"
    kind, word, t, c = event
    a, b = word[t], word[t + 1]
    rhs = f"({c})*{b}{a}" if kind == "swap" else f"({c})"
    return f"rule {kind} {a}{b}->{rhs} at {lword_str(word)}"


# -- verification reports ---------------------------------------------------


EVENT_SINK: ContextVar[list | None] = ContextVar("EVENT_SINK", default=None)  # [(check name, events)] or None


@dataclass
class VerificationReport:
    """A verdict, the first failing residual and a suite's (check name, verdict) pairs;
    never events, which ``verify_identity`` hands to ``EVENT_SINK`` or drops."""

    name: str
    verdict: str  # "Verified" | "Unverified"
    residual: object | None = None
    checks: list[tuple[str, str]] = field(default_factory=list)  # (check name, verdict)

    @property
    def verified(self) -> bool:
        return self.verdict == "Verified"

    @classmethod
    def merge(cls, name: str, reports: Iterable["VerificationReport"]) -> "VerificationReport":
        """One suite report from a stream of leaf reports, read once, so one leaf is alive at a time."""
        verdict, residual, checks = "Verified", None, []
        for r in reports:
            checks.append((r.name, r.verdict))
            if verdict == "Verified" and not r.verified:
                verdict, residual = "Unverified", r.residual
        if not checks:
            raise ValueError(f"{name}: the suite has no checks to run")
        return cls(name, verdict, residual, checks)

    def render(self) -> str:
        out = [f"{self.name}: {self.verdict}"] + [f"  {check}: {verdict}" for check, verdict in self.checks]
        if not self.verified and self.residual is not None:
            out.append(f"  residual: {self.residual}")
        return "\n".join(out) + "\n"


def verify_identity(lhs, rhs, rels: RelationSet, spec: ZetaSpec = FORMAL, name: str = "identity") -> VerificationReport:
    """Reduce lhs - rhs; Verified iff the residual vanishes (exactly, or after
    specializing the phase when spec names a root of unity).  Equal sides are
    not reduced: their residual is the zero on their legs, with no events.

    Unverified is not a refutation; the residual is returned, and the events
    go to ``EVENT_SINK`` when it is set, so a human can extend the rule set.
    """
    residual, events = (GradedPoly._make({}, lhs.legs), []) if lhs == rhs else reduce_poly(lhs - rhs, rels)
    if (sink := EVENT_SINK.get()) is not None:
        sink.append((name, events))
    ok = residual.is_zero_under(spec)
    return VerificationReport(name, "Verified" if ok else "Unverified", residual)
