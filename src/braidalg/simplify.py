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
fixpoint.  Candidates come from an index of the irreducible terms that each
firing updates only for the words it deletes, creates or re-weights; the
next one is the first in the canonical order (largest family, family, then
prefix, suffix and leg).  A zero residual means Verified, anything else is
Unverified (which is not a refutation).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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

        for i in range(n):
            for j in range(n):
                rhs = ONE if i == j else ZERO
                col = tuple(
                    (entries[k][i][1].star(), entries[k][j][1], entries[k][i][0].star() * entries[k][j][0])
                    for k in range(n)
                )
                rules.families.append(PairFamily(f"{name}.col[{i + 1},{j + 1}]", col, rhs))
                row = tuple(
                    (entries[i][k][1], entries[j][k][1].star(), entries[i][k][0] * entries[j][k][0].star())
                    for k in range(n)
                )
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
        lines = ["[generators]"]
        for g in self.generators:
            lines.append(f"{g} deg {g.degree}")
        lines.append("")
        lines.append("[degrees]")
        for name, value in sorted(self.degree_tuples.items()):
            if isinstance(value, tuple):
                lines.append(f"{name} = ({','.join(map(str, value))})")
            else:
                lines.append(f"{name} = {value}")
        lines.append("")
        lines.append("[relations]")
        for rel in self.relations:
            lines.extend(rel.lines())
        return "\n".join(lines) + "\n"


class RelationSet:
    """Declared relations, compiled into pair rules and contraction families.

    ``relations`` are relation-kind objects, such as ``Presentation.relations``;
    each compiles itself into this set, in the order given.  Rules are keyed
    by pairs of letter symbols (``Letter.symbol``), so they apply on every leg;
    ``pair_rules`` maps a pair to ``(coefficient, swap)``, where ``swap`` is
    False for a local rule (the pair is deleted) and True for a directed swap.
    """

    def __init__(self, relations=()):
        self.relations = tuple(relations)
        self.pair_rules: dict[tuple, tuple[Scalar, bool]] = {}
        self.families: list[PairFamily] = []
        for rel in self.relations:
            rel.compile(self)

        # fast lookup: (left symbol, right symbol) -> [(family, member, 1 / member
        # coefficient, or None when the coefficient is one)]
        self.pair_index: dict[tuple, list[tuple[int, int, Scalar | None]]] = {}
        for fi, fam in enumerate(self.families):
            for mi, (a, b, c) in enumerate(fam.members):
                inv = None if c.is_one() else c.inverse()
                self.pair_index.setdefault((a.symbol, b.symbol), []).append((fi, mi, inv))


# -- reduction passes -----------------------------------------------------------


def _rewrite(word: Word, coeff: Scalar, pair_rules, trace: list) -> tuple[Word, Scalar]:
    """Exhaustively apply local pair rules and directed swaps to one monomial, leftmost first.

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


class _ContractionIndex:
    """Complete-family candidates among irreducible terms, kept up to date.

    ``buckets`` maps ``(prefix, suffix, family, leg)`` to ``{member: (word,
    coeff / member coeff)}``: a key and a member fix one word, so a group
    never mixes legs.  ``ready`` holds the complete, proportional buckets
    with their place in the canonical candidate order.
    """

    def __init__(self, rels: RelationSet):
        self.rels = rels
        self.buckets: dict[tuple, dict[int, tuple[Word, Scalar]]] = {}
        self.ready: dict[tuple, tuple] = {}

    def _slots(self, word: Word):
        for t in range(len(word) - 1):
            a, b = word[t], word[t + 1]
            if a.leg == b.leg:
                for fi, mi, inv in self.rels.pair_index.get((a.symbol, b.symbol), ()):
                    yield (word[:t], word[t + 2 :], fi, a.leg), mi, inv

    def add(self, word: Word, coeff: Scalar) -> None:
        """Index a term; each slot it fills was empty, so only completion is new."""
        for key, mi, inv in self._slots(word):
            found = self.buckets.setdefault(key, {})
            found[mi] = (word, coeff if inv is None else coeff * inv)
            prefix, suffix, fi, leg = key
            size = len(self.rels.families[fi].members)
            if len(found) == size and all(found[m][1] == found[0][1] for m in range(1, size)):
                self.ready[key] = (-size, fi, word_key(prefix), word_key(suffix), leg)

    def remove(self, word: Word) -> None:
        for key, mi, _ in self._slots(word):
            found = self.buckets[key]
            del found[mi]
            self.ready.pop(key, None)
            if not found:
                del self.buckets[key]


def reduce_poly(p: GradedPoly, rels: RelationSet):
    """Rewrite every term locally, then fire complete contractions to a fixpoint.

    Local rules are pair rules, so after the first pass every term is
    irreducible and a firing can only create a redex in its collapsed word.
    Returns (reduced polynomial on the same legs, trace): the firings as events,
    ``("local" | "swap", word before, t, coefficient)`` and ``("contract", family, prefix, suffix)``.
    """
    trace: list[tuple] = []
    words = sorted(p._terms, key=word_key)
    terms = _collect(_rewrite(w, p._terms[w], rels.pair_rules, trace) for w in words)
    index = _ContractionIndex(rels)
    for word, coeff in terms.items():
        index.add(word, coeff)
    while index.ready:
        key = min(index.ready, key=index.ready.__getitem__)
        prefix, suffix, fi, _ = key
        fam = rels.families[fi]
        found = index.buckets[key]
        ratio = found[0][1]
        for word, _ in list(found.values()):
            del terms[word]
            index.remove(word)
        trace.append(("contract", fam, prefix, suffix))
        add = ratio * fam.rhs
        if add.is_zero():
            continue
        word, coeff = _rewrite(prefix + suffix, add, rels.pair_rules, trace)
        if coeff.is_zero():
            continue
        old = terms.pop(word, None)
        if old is not None:
            index.remove(word)
            coeff = old + coeff
        if not coeff.is_zero():
            terms[word] = coeff
            index.add(word, coeff)
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


@dataclass
class VerificationReport:
    """A verdict and the events behind it, ``("local" | "swap", word, t, coefficient)``
    and ``("contract", family, prefix, suffix)``: a leaf's in ``trace``, a ``merge``d
    suite's in ``check_traces``; only ``render(with_trace=True)`` makes them text."""

    name: str
    verdict: str  # "Verified" | "Unverified"
    residual: object | None = None
    trace: list[tuple] = field(default_factory=list)
    checks: list[tuple[str, str]] = field(default_factory=list)  # (check name, verdict)
    check_traces: list[tuple[str, list[tuple]]] = field(default_factory=list)  # (check name, its trace)

    @property
    def verified(self) -> bool:
        return self.verdict == "Verified"

    @classmethod
    def merge(cls, name: str, reports: list["VerificationReport"]) -> "VerificationReport":
        """One suite report from leaf reports (``verify_identity``'s, whose checks are empty)."""
        if not reports:
            raise ValueError(f"{name}: the suite has no checks to run")
        verdict = "Verified" if all(r.verified for r in reports) else "Unverified"
        residual = next((r.residual for r in reports if not r.verified), None)
        checks = [(r.name, r.verdict) for r in reports]
        return cls(name, verdict, residual, [], checks, [(r.name, r.trace) for r in reports])

    def render(self, with_trace: bool = False) -> str:
        out = [f"{self.name}: {self.verdict}"]
        for check, verdict in self.checks:
            out.append(f"  {check}: {verdict}")
        if not self.verified and self.residual is not None:
            out.append(f"  residual: {self.residual}")
        if with_trace:
            labelled = [("", self.trace)] + [(f"[{check}] ", trace) for check, trace in self.check_traces]
            steps = (label + render_step(e) for label, trace in labelled for e in trace)
            out.extend(f"  step {k}: {line}" for k, line in enumerate(steps, 1))
        return "\n".join(out) + "\n"


def verify_identity(lhs, rhs, rels: RelationSet, spec: ZetaSpec = FORMAL, name: str = "identity") -> VerificationReport:
    """Reduce lhs - rhs; Verified iff the residual vanishes (exactly, or after
    specializing the phase when spec names a root of unity).

    Unverified is not a refutation; the trace and residual are returned so a
    human can extend the rule set.
    """
    residual, trace = reduce_poly(lhs - rhs, rels)
    ok = residual.is_zero_under(spec)
    return VerificationReport(name, "Verified" if ok else "Unverified", residual, trace)
