"""Moving polynomials between leg structures of iterated braided products.

An element of an n-fold braided product is a :class:`GradedPoly` on ``n``
legs: its letters carry leg indices and its words stay leg-sorted, each
cross-leg swap costing ``z^(deg * deg)`` (see :mod:`braidalg.algebra`).  This
module puts a one-block polynomial on consecutive legs of a larger product
(``embed``) and evaluates a diagonal state on leg 1 of the product of every
pair of factors from two families (``apply_state_pairs``).

``psi_flatten`` implements the flattening used by the bosonization: a
three-leg word over (circle ``Z_LETTER``, X, Y) maps into an ordinary
(phase-free) tensor product of two two-leg words, the leg structure ``(2, 2)``.
"""

from __future__ import annotations

from .algebra import (
    BadLeg,
    GradedPoly,
    Letter,
    _block_of,
    _collect,
    _multiply_into,
    _split,
    word_degree,
)
from .scalars import as_scalar, zeta

__all__ = [
    "BadShape",
    "embed",
    "psi_flatten",
    "apply_state_pairs",
]


class BadShape(Exception):
    """Input does not have the leg structure an operation requires."""


def embed(k: int, p: GradedPoly, num_legs: int) -> GradedPoly:
    """Put legs 1..m of a one-block p on legs k..k+m-1; a degree-preserving homomorphism.

    Every letter moves up by the same k - 1 legs, so a leg-sorted word stays
    sorted and picks up no phase.  A p of several blocks raises BadShape: one
    block would braid letters that commute without a phase.
    """
    if len(p.legs) != 1:
        raise BadShape(f"embed expects one block of legs, got {p.legs}")
    last = num_legs - p.legs[0] + 1
    if not 1 <= k <= last:
        raise BadLeg(f"leg {k} outside 1..{last}")
    return GradedPoly._make(
        {tuple(l.on_leg(l.leg + k - 1) for l in w): c for w, c in p._terms.items()},
        (num_legs,),
    )


Z_LETTER = Letter("z", (), 1)  # the circle generator of the bosonization


def psi_flatten(p: GradedPoly) -> GradedPoly:
    """Flatten a three-leg word over (circle, X, Y) into (circle x X) (x) (circle x Y).

    Letterwise: j1(z) -> z (x) z, j2(a) -> a (x) z^deg(a), j3(b) -> 1 (x) b,
    extended multiplicatively.  Leg 1 must carry only the circle generator.
    The result has legs (2, 2): legs 3 and 4 are the right factor's legs 1 and 2.
    """
    if p.legs != (3,):
        raise BadShape(f"psi_flatten expects 3 legs, got {p.legs}")

    def image(l: Letter) -> tuple[Letter, ...]:
        if l.leg == 1:
            if l.name != Z_LETTER.name:
                raise BadShape(f"leg 1 must carry only {Z_LETTER.name}, found {l}")
            return (l, l.on_leg(3))
        if l.leg == 2:
            z = Z_LETTER if l.degree >= 0 else Z_LETTER.star()
            return (l,) + (z.on_leg(3),) * abs(l.degree)
        return (l.on_leg(4),)

    legs = (2, 2)
    images = ((tuple(x for l in w for x in image(l)), c) for w, c in p._terms.items())
    return GradedPoly._make(_collect(images, _block_of(legs)), legs)


def _by_leg1_prefix(p: GradedPoly) -> dict:
    """Group the terms of p by their leg-1 prefix: prefix -> [(rest, coeff)].

    The rest is shifted down one leg; a normal-form word is sorted by leg, so
    its leg-1 letters are a prefix.  It runs once per factor of a family.
    """
    groups: dict = {}
    for w, c in p._terms.items():
        k = 0
        while k < len(w) and w[k].leg == 1:
            k += 1
        rest = tuple(l.on_leg(l.leg - 1) for l in w[k:])
        groups.setdefault(w[:k], []).append((rest, c))
    return groups


def _partner(head):
    """``head`` reversed and starred: S*_g, the one starred prefix a diagonal state pairs with S_g."""
    return tuple(l.star() for l in reversed(head))


def apply_state_pairs(lefts: dict, rights: dict, state):
    """Yield ``((a, b), (state x id)(lefts[a] * rights[b]))`` for every a, then b.

    ``state`` maps a leg-1 word (a tuple of letters) to a Scalar, Fraction or
    int; the other letters move down one leg.  Every factor must have the legs
    of the first left one, at least two; both checks run at the call, before
    the first pair.  The state is evaluated on pairs of prefixes, so a product
    word is formed only when its prefix pair has a nonzero value; moving the
    right prefix left past the left rest costs ``z^(deg rest * deg prefix)``.

    The state must be diagonal: on a word S_g S*_h, unstarred letters then
    starred ones, it is zero unless h = g.  So a left prefix S_g without a
    starred letter is tried only against S*_g and the right prefixes that
    hold an unstarred letter; every other left prefix meets every right
    prefix.  A state that is not diagonal loses terms.

    Once per factor, when it is grouped by leg-1 prefix: whether each left
    prefix holds a starred letter, each right prefix's degree, and each rest's
    degree and split for the product kernel (``algebra._multiply_into``).
    Once per call: the partner S*_g of each distinct left prefix.  Once per
    row (one left factor against every right one, and kept only that long):
    each prefix pair's state value and the left rests scaled by it and the
    phase.  Once per pair: their products with the right factor's rests.
    """
    if not lefts:
        return iter(())
    first = next(iter(lefts.values()))
    if len(first.legs) != 1 or first.legs[0] < 2:
        raise BadShape("need at least two braided legs to apply a leg-1 state")
    legs = (first.legs[0] - 1,)
    block_of = _block_of(legs)
    left, right, partners = {}, {}, {}
    for a, p in lefts.items():
        left[a] = []
        for head, rests in _by_leg1_prefix(first._coerce(p)).items():
            starred = any(l.starred for l in head)
            if not starred and head not in partners:
                partners[head] = _partner(head)
            rests = [(_split(rest, block_of), word_degree(rest), c) for rest, c in rests]
            left[a].append((head, rests, starred, None if starred else partners[head]))
    for b, q in rights.items():
        groups = {
            h: (word_degree(h), [(_split(rest, block_of), c) for rest, c in rests])
            for h, rests in _by_leg1_prefix(first._coerce(q)).items()
        }
        right[b] = groups, [(h, g) for h, g in groups.items() if not all(l.starred for l in h)]
    return _rows(left, right, legs, state)


def _rows(left: dict, right: dict, legs: tuple, state):
    """The pairs of ``apply_state_pairs``, row by row: one scaled-rest cache per left factor."""
    for a, row in left.items():
        scaled = [{} for _ in row]
        for b, (groups, mixed) in right.items():
            yield (a, b), _apply_grouped(row, groups, mixed, legs, state, scaled)


def _apply_grouped(left: list, right: dict, mixed: list, legs: tuple, state, scaled: list) -> GradedPoly:
    """The pair loop of ``apply_state_pairs``: one left factor against one right factor.

    ``left`` lists ``(prefix, [(split rest, deg rest, coeff)], starred, partner)``;
    ``right`` maps a prefix to ``(degree, [(split rest, coeff)])``, and ``mixed``
    lists the right entries whose prefix holds an unstarred letter.  The row's
    ``scaled[i]`` maps a right prefix to left entry i's rests times the state
    value and the phase ([] for a zero value), filled on the pair's first visit.
    """
    terms = {}
    for (head, rests, starred, mate), cache in zip(left, scaled):
        if starred:
            candidates = right.items()
        else:
            candidates = mixed + [(mate, right[mate])] if mate in right else mixed
        for head_r, (shift, rests_r) in candidates:
            moved = cache.get(head_r)
            if moved is None:
                value = as_scalar(state(head + head_r))
                moved = cache[head_r] = [] if value.is_zero() else [
                    (rest, value * c * zeta(shift * degree) if shift and degree else value * c)
                    for rest, degree, c in rests
                ]
            _multiply_into(terms, moved, rests_r)
    return GradedPoly._make(terms, legs)
