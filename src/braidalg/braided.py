"""Moving polynomials between leg structures of iterated braided products.

An element of an n-fold braided product is a :class:`GradedPoly` on ``n``
legs: its letters carry leg indices and its words stay leg-sorted, each
cross-leg swap costing ``z^(deg * deg)`` (see :mod:`braidalg.algebra`).  This
module puts a one-block polynomial on consecutive legs of a larger product
(``embed``) and evaluates a functional on leg 1 of the product of every
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
    its leg-1 letters are a prefix.
    """
    groups: dict = {}
    for w, c in p._terms.items():
        k = 0
        while k < len(w) and w[k].leg == 1:
            k += 1
        rest = tuple(l.on_leg(l.leg - 1) for l in w[k:])
        groups.setdefault(w[:k], []).append((rest, c))
    return groups


def apply_state_pairs(lefts: dict, rights: dict, state, partner):
    """Yield ``((a, b), (state x id)(lefts[a] * rights[b]))`` for every a, then b.

    ``state`` maps a leg-1 word (a tuple of letters) to a Scalar, Fraction or
    int; the other letters move down one leg.  Every factor must have the legs
    of the first left one, at least two, and is grouped by leg-1 prefix once.
    The state is evaluated on pairs of prefixes, so a product word is formed
    only when its prefix pair has a nonzero value; moving the right prefix
    left past the left rest costs ``z^(deg rest * deg prefix)``.

    ``partner`` declares where a diagonal state is supported: for a left
    prefix that holds no starred letter, ``partner(prefix)`` names the one
    right prefix without unstarred letters on which the state can be nonzero
    (see ``graphalg.path_partner``).  Such a left prefix is tried only against
    that right prefix and the right prefixes that hold an unstarred letter;
    every other left prefix meets every right prefix.  A wrong ``partner``
    drops terms.
    """
    if not lefts:
        return iter(())
    first = next(iter(lefts.values()))
    if len(first.legs) != 1 or first.legs[0] < 2:
        raise BadShape("need at least two braided legs to apply a leg-1 state")
    left = {a: _by_leg1_prefix(first._coerce(p)) for a, p in lefts.items()}
    right = {b: _by_leg1_prefix(first._coerce(q)) for b, q in rights.items()}
    mixed = {b: [(h, r) for h, r in g.items() if not all(l.starred for l in h)] for b, g in right.items()}
    legs = (first.legs[0] - 1,)
    return (
        ((a, b), _apply_grouped(left[a], right[b], mixed[b], legs, state, partner))
        for a in left
        for b in right
    )


def _apply_grouped(left: dict, right: dict, mixed: list, legs: tuple, state, partner) -> GradedPoly:
    """The pair loop of ``apply_state_pairs``; ``mixed`` lists the right prefixes with an unstarred letter."""
    products = []
    for head, rests in left.items():
        if any(l.starred for l in head):
            candidates = right.items()
        else:
            mate = partner(head)
            candidates = mixed + [(mate, right[mate])] if mate in right else mixed
        for head_r, rests_r in candidates:
            value = as_scalar(state(head + head_r))
            if value.is_zero():
                continue
            shift = word_degree(head_r)
            scaled = [(rest_r, value * c_r) for rest_r, c_r in rests_r]
            for rest, c in rests:
                exponent = shift and shift * word_degree(rest)
                if exponent:
                    c = c * zeta(exponent)
                products.extend((rest + rest_r, c * v) for rest_r, v in scaled)
    return GradedPoly._make(_collect(products, _block_of(legs)), legs)
