"""The free fusion ring: involution, product rule, dimensions, audits."""

import functools
import gc
import itertools
import random
import tracemalloc

import pytest

from braidalg import fusion
from braidalg.fusion import (
    FusionResult,
    Irrep,
    Word,
    all_words,
    check_fusion_ring,
    conjugate_irrep,
    dimension,
    fuse,
    fuse_results,
    parse_irrep,
    word_bar,
)
from braidalg.simplify import VerificationReport


def W(s=""):
    return Word(s)


def R(x, s=""):
    return Irrep(x, Word(s))


def test_word_bar_examples():
    assert word_bar(W()) == W()
    assert word_bar(W("a")) == W("b")
    # antimultiplicativity: bar(ab) = bar(b) bar(a) = a b
    assert word_bar(W("ab")) == W("ab")
    assert word_bar(W("aab")) == W("abb")


def test_word_bar_involution_and_antimultiplicative():
    for wl in all_words(3):
        assert word_bar(word_bar(wl)) == wl
        for wr in all_words(2):
            assert word_bar(wl * wr) == word_bar(wr) * word_bar(wl)


def test_fuse_with_unit():
    assert fuse(R(0), R(3, "ab")) == FusionResult([R(3, "ab")])
    assert fuse(R(3, "ab"), R(0)) == FusionResult([R(3, "ab")])


def test_fuse_a_with_b():
    assert fuse(R(0, "a"), R(0, "b")) == FusionResult([R(0, "ab"), R(0, "")])


def test_fuse_aa_with_bb():
    # hand enumeration: suffixes g of aa are e, a, aa;
    # bar(e)=e, bar(a)=b, bar(aa)=bb are all prefixes of bb
    got = fuse(R(1, "aa"), R(2, "bb"))
    assert got == FusionResult([R(3, "aabb"), R(3, "ab"), R(3, "")])


def test_fuse_charges_add_in_every_summand():
    for r in [R(2, "ab"), R(-1, "ba")]:
        for s in [R(3, "b"), R(5, "ab")]:
            for t, _ in fuse(r, s).items():
                assert t.x == r.x + s.x


def test_conjugate_examples():
    assert conjugate_irrep(R(0)) == R(0)
    assert conjugate_irrep(R(1, "a")) == R(-1, "b")
    assert conjugate_irrep(R(-2, "ab")) == R(2, "ab")


def test_conjugate_is_involution():
    for w in all_words(3):
        for x in (-2, 0, 1):
            r = Irrep(x, w)
            assert conjugate_irrep(conjugate_irrep(r)) == r


def test_dimension_examples():
    for n in (1, 2, 3, 5):
        assert dimension(W(), n) == 1
    assert dimension(W("a"), 2) == 2
    # oracle: n^2 = dim(ab) + dim(e) from fuse((0,a),(0,b))
    assert dimension(W("ab"), 2) == 2 * 2 - 1 == 3
    assert dimension(W("ab"), 3) == 3 * 3 - 1 == 8


def test_dimension_solves_the_fusion_recursion():
    # dim(w) * n = total dimension of fuse((0,w), (0,a)), and mirrored
    for n in (2, 3):
        for w in all_words(4):
            for gen in ("a", "b"):
                out = fuse(Irrep(0, w), R(0, gen))
                assert out.total_dimension(n) == dimension(w, n) * n


def test_dimension_degenerate_n1():
    for w in all_words(3):
        assert dimension(w, 1) == 1


def test_frobenius_multiplicity():
    for w in all_words(4):
        r = Irrep(2, w)
        assert dict(fuse(r, conjugate_irrep(r)).items()).get(R(0), 0) == 1


def test_associativity_sample():
    r, s, t = R(0, "ab"), R(0, "ba"), R(0, "a")
    left = fuse_results(fuse(r, s), FusionResult([t]))
    right = fuse_results(FusionResult([r]), fuse(s, t))
    assert left == right


def test_conjugation_antihomomorphism_sample():
    for r, s in itertools.product([R(0, "ab"), R(1, "b")], [R(0, "ba"), R(-1, "aab")]):
        conj = FusionResult([(conjugate_irrep(t), m) for t, m in fuse(r, s).items()])
        assert conj == fuse(conjugate_irrep(s), conjugate_irrep(r))


def test_check_fusion_ring_small():
    report = check_fusion_ring(2, 2)
    assert report.verified
    # dims check at (0,a) x (0,b), n=3: 9 = 8 + 1
    out = fuse(R(0, "a"), R(0, "b"))
    assert out.total_dimension(3) == 9
    assert dimension(W("ab"), 3) == 8


def test_parse_irrep():
    assert parse_irrep("(3; aabb)") == R(3, "aabb")
    assert parse_irrep("(0; e)") == R(0)
    assert parse_irrep("(-2; ba)") == R(-2, "ba")
    with pytest.raises(ValueError):
        parse_irrep("3; ab")
    with pytest.raises(ValueError):
        parse_irrep("(1; xy)")


def test_fusion_result_rendering():
    out = fuse(R(0, "a"), R(0, "b"))
    assert str(out) == "1 x (0; e)\n1 x (0; ab)"


@pytest.mark.parametrize("n, max_len", [(0, 2), (-1, 1), (2, -1), (1, -3)])
def test_check_fusion_ring_rejects_bad_bounds(n, max_len):
    with pytest.raises(ValueError):
        check_fusion_ring(n, max_len)


# At n = 1 every class is one-dimensional, so dim(r x s) fails wherever the
# product has more than one summand; recorded from the per-Irrep audit.
N1_AUDIT = """\
fusion-ring: Unverified
  exhaustive over 7 words, n=1: Unverified
  dim((0; a),(0; b)): Unverified
  dim((0; a),(0; ba)): Unverified
  dim((0; a),(0; bb)): Unverified
  dim((0; b),(0; a)): Unverified
  dim((0; b),(0; aa)): Unverified
  dim((0; b),(0; ab)): Unverified
  dim((0; aa),(0; b)): Unverified
  dim((0; aa),(0; ba)): Unverified
  dim((0; aa),(0; bb)): Unverified
  dim((0; ab),(0; a)): Unverified
  dim((0; ab),(0; aa)): Unverified
  dim((0; ab),(0; ab)): Unverified
  dim((0; ba),(0; b)): Unverified
  dim((0; ba),(0; ba)): Unverified
  dim((0; ba),(0; bb)): Unverified
  dim((0; bb),(0; a)): Unverified
  dim((0; bb),(0; aa)): Unverified
  dim((0; bb),(0; ab)): Unverified
"""


def test_check_fusion_ring_n1_failure_report():
    assert check_fusion_ring(1, 2).render() == N1_AUDIT


def _first_failures(report):
    first = {}
    for name, verdict in report.checks[1:]:
        assert verdict == "Unverified"
        first.setdefault(name.split("(")[0], name)
    return first


def _break_kernel(monkeypatch, keep):
    """Replace the product kernel by one that drops each summand u of
    w x v for which keep(w, v, u) is false."""
    real = fusion._fuse
    monkeypatch.setattr(
        fusion, "_fuse", lambda w, v: tuple(u for u in real(w, v) if keep(w, v, u))
    )


def test_audit_catches_a_kernel_without_the_empty_summand(monkeypatch):
    # the dropped summand is fixed by conjugation, so no conj line fails
    _break_kernel(monkeypatch, lambda w, v, u: u != "")
    report = check_fusion_ring(2, 2)
    assert report.verdict == "Unverified"
    assert _first_failures(report) == {
        "dim": "dim((0; e),(0; e))",
        "assoc": "assoc((0; e),(0; e),(0; a))",
        "frobenius": "frobenius((0; e))",
    }


def test_audit_catches_a_kernel_that_breaks_conjugation(monkeypatch):
    # drop the full concatenation only when the left word is the longer one
    _break_kernel(monkeypatch, lambda w, v, u: not (len(w) > len(v) and u == w + v))
    report = check_fusion_ring(2, 2)
    assert report.verdict == "Unverified"
    first = _first_failures(report)
    assert first["dim"] == "dim((0; a),(0; e))"
    assert first["conj"] == "conj((0; e),(0; a))"
    assert first["assoc"] == "assoc((0; a),(0; e),(0; a))"
    assert "frobenius" not in first


def _reference_audit(n, max_len, canon=sorted):
    """The per-triple loop that check_fusion_ring's line form replaced, kept
    as its oracle; ``canon=list`` compares outputs in kernel order instead."""
    kernel, words, failed = fusion._fuse, fusion._words(max_len), []
    for w in words:
        for v in words:
            wv = kernel(w, v)
            if sum(fusion._dim(u, n) for u in wv) != fusion._dim(w, n) * fusion._dim(v, n):
                failed.append(("dim", (w, v)))
            if canon(map(fusion._bar, wv)) != canon(kernel(fusion._bar(v), fusion._bar(w))):
                failed.append(("conj", (w, v)))
            for t in words:
                left = [x for u in wv for x in kernel(u, t)]
                right = [x for u in kernel(v, t) for x in kernel(w, u)]
                if canon(left) != canon(right):
                    failed.append(("assoc", (w, v, t)))
        if kernel(w, fusion._bar(w)).count("") != 1:
            failed.append(("frobenius", (w,)))
    verdict = "Unverified" if failed else "Verified"
    checks = [(f"exhaustive over {len(words)} words, n={n}", verdict)]
    for kind, args in failed:
        name = ",".join(str(Irrep(0, Word(u))) for u in args)
        checks.append((f"{kind}({name})", "Unverified"))
    return VerificationReport("fusion-ring", verdict, None, checks)


def _changed(kind, out, rng):
    """``out`` with one summand dropped, duplicated or made wrong, reversed, or emptied."""
    i = rng.randrange(len(out))
    wrong = out[i][:-1] + ("b" if out[i].endswith("a") else "a")
    return {
        "drop": out[:i] + out[i + 1:],
        "duplicate": out + (out[i],),
        "reverse": out[::-1],
        "empty": (),
        "wrong": out[:i] + (wrong,) + out[i + 1:],
    }[kind]


def _seeded_kernel(kind, seed):
    """The real kernel with about one nonempty output in five changed, each
    pair drawn from its own seeded generator."""
    real = fusion._fuse

    @functools.lru_cache(maxsize=None)
    def kernel(w, v):
        out, rng = real(w, v), random.Random(f"{kind}:{seed}:{w}:{v}")
        return _changed(kind, out, rng) if out and rng.random() < 0.2 else out

    return kernel


@pytest.mark.parametrize("n, max_len", [(1, 2), (2, 2), (3, 3)])
@pytest.mark.parametrize("kind", ["drop", "duplicate", "reverse", "empty", "wrong"])
def test_the_line_audit_renders_the_per_triple_audit_under_mutated_kernels(
    monkeypatch, kind, n, max_len
):
    verdicts = set()
    for seed in range(12):
        monkeypatch.setattr(fusion, "_fuse", _seeded_kernel(kind, seed))
        report = check_fusion_ring(n, max_len)
        assert report.render() == _reference_audit(n, max_len).render(), seed
        verdicts.add(report.verdict)
        if kind == "reverse" and n >= 2:
            # the summands' order moved, their multiset did not; an audit that
            # compared the concatenations without sorting them would fail
            assert report.verified, seed
            assert not _reference_audit(n, max_len, canon=list).verified, seed
    assert verdicts == {"Verified" if kind == "reverse" and n >= 2 else "Unverified"}


def test_one_length_3_audit_calls_the_kernel_once_per_pair():
    fusion._fuse.cache_clear()
    check_fusion_ring(2, 3)
    info = fusion._fuse.cache_info()
    # the 3,585 pairs that the comment on _fuse's decorator sizes it for
    assert info.misses == info.currsize == 3585


def test_repeated_audits_keep_no_memory():
    """Lines built as tuple(iterator) grew the traced memory by about 1 MB
    over these 8 audits: resized tuples filled free lists never drawn from."""
    gc.collect()  # empties the free lists that earlier tests filled
    tracemalloc.start()
    try:
        check_fusion_ring(2, 3)
        before = tracemalloc.get_traced_memory()[0]
        for n in range(2, 10):
            check_fusion_ring(n, 3)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # up to about 156 KB of this is _dim's cache filling for the new n
    assert grown < 256 * 1024, grown
