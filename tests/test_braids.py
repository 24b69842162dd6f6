"""Braid words, Garside left normal form, and the generator dictionary."""

import random
import re
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilden import braids
from hilden.braids import (
    BraidWord,
    GarsideNF,
    braid_word,
    braids_equal,
    braid_is_trivial,
    build_generator,
    delta,
    exponent_sum,
    format_braid_word,
    full_twist,
    nf_inverse,
    nf_multiply,
    nf_to_braid_word,
    normal_form,
    parse_braid_text,
    perm_of_braid,
    sigma_alphabet,
)
from hilden.perms import Perm, identity_perm, psi_of_braid_word
from hilden.presentations import (Presentation, _lemma_schedule, braid_assignment, build_LH,
                                  build_PH, build_SH, build_intermediate_LH, image_letters,
                                  verify)


# --- construction --------------------------------------------------------------


def test_braid_word_free_reduces():
    b = braid_word(4, [1, 2, -2, -1, 3])
    assert b.letters == (3,)
    assert exponent_sum(b) == 1


def test_braid_word_validates_letters():
    with pytest.raises(ValueError):
        braid_word(3, [3])
    with pytest.raises(ValueError):
        braid_word(3, [0])
    with pytest.raises(ValueError):
        braid_word(1, [])  # at least two strands


def test_mul_pow_inverse():
    a = braid_word(4, [1, 2])
    b = braid_word(4, [-2])
    assert (a * b).letters == (1,)
    assert (a**2).letters == (1, 2, 1, 2)
    assert a.inverse().letters == (-2, -1)
    with pytest.raises(ValueError):
        a * braid_word(5, [1])


def test_perm_of_braid_matches_psi():
    b = braid_word(5, [1, 3, -2, 4])
    assert perm_of_braid(b) == psi_of_braid_word(b.letters, 5)


# --- normal form anchors ------------------------------------------------------------


def test_nf_of_cancelling_pair_is_trivial():
    nf = normal_form(braid_word(3, [1, -1]))
    assert (nf.power, nf.factors) == (0, ())
    assert nf.canonical_length == 0


def test_nf_of_half_twist_is_one_delta():
    nf = normal_form(braid_word(3, [1, 2, 1]))
    assert (nf.power, nf.factors) == (1, ())


def test_nf_of_single_inverse_letter():
    nf = normal_form(braid_word(2, [-1]))
    assert (nf.power, nf.factors) == (-1, ())
    nf3 = normal_form(braid_word(3, [-1]))
    assert nf3.power == -1 and len(nf3.factors) == 1
    assert str(nf3.factors[0]) == "(1 2 3)"


# 42-letter word over four strands taken from a published worked example of
# left-greedy normal form (letters shifted to 1-based)
KER2 = [c + 1 for c in (
    1, 0, 2, 0, 1, 2, 1, 1, 2, 1, 0, 0, 2, 2, 1, 1, 0, 2, 0, 1, 2,
    1, 0, 0, 2, 1, 1, 0, 2, 0, 2, 1, 0, 1, 0, 2, 0, 2, 1, 1, 0, 2,
)]


def test_published_normal_form_example():
    b = braid_word(4, KER2)
    nf = normal_form(b)
    assert (nf.power, nf.canonical_length) == (0, 13)
    sq = normal_form(b * b)
    assert (sq.power, sq.canonical_length) == (2, 22)
    assert nf_multiply(nf, nf) == sq
    assert nf_multiply(sq, nf_inverse(sq)) == normal_form(braid_word(4, []))
    with pytest.raises(ValueError):
        nf_multiply(nf, normal_form(braid_word(5, [])))  # strand count mismatch


def test_nf_round_trip_through_word():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(2, 6)
        word = [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(rng.randint(0, 30))]
        nf = normal_form(braid_word(m, word))
        assert normal_form(nf_to_braid_word(nf)) == nf


# --- the word problem ------------------------------------------------------------------


def test_braid_relation_and_far_commutation():
    for m in (3, 4, 5, 6):
        for i in range(1, m - 1):
            assert braids_equal(
                braid_word(m, [i, i + 1, i]), braid_word(m, [i + 1, i, i + 1])
            )
        for i in range(1, m - 1):
            for j in range(i + 2, m):
                assert braids_equal(braid_word(m, [i, j]), braid_word(m, [j, i]))


def test_strand_count_must_match():
    with pytest.raises(ValueError):
        braids_equal(braid_word(3, [1]), braid_word(4, [1]))


def test_sphere_relator_is_not_trivial_as_a_braid():
    z = build_generator("z", 1)
    assert not braid_is_trivial(z)


def test_full_twist_is_central():
    rng = random.Random(5)
    for m in (3, 4, 5):
        ft = full_twist(m)
        for _ in range(25):
            word = [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(12)]
            b = braid_word(m, word)
            assert braids_equal(b * ft, ft * b)


def test_delta_conjugation_flips_generators():
    for m in (3, 4, 5):
        d = delta(m)
        for i in range(1, m):
            lhs = d * braid_word(m, [i]) * d.inverse()
            assert braids_equal(lhs, braid_word(m, [m - i]))


def test_canonical_form_is_stable_under_relator_rewrites():
    # rewriting a subword by a braid relation must not change the normal form
    rng = random.Random(23)
    for _ in range(120):
        m = rng.randint(3, 5)
        word = [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(rng.randint(4, 20))]
        b = braid_word(m, word)
        i = rng.randint(1, m - 2)
        variant_letters = list(word)
        pos = rng.randint(0, len(word))
        insertion = rng.choice(
            [
                [i, i + 1, i, -i - 1, -i, -i - 1],  # braid relation commutator
                [i, -i],
                [-i, i],
            ]
        )
        variant_letters[pos:pos] = insertion
        assert normal_form(braid_word(m, variant_letters)) == normal_form(b)


# --- generator dictionary ------------------------------------------------------------


def test_single_index_generator_words():
    n = 2
    assert build_generator("s", n, 1).letters == (2, 3, 1, 2)
    assert build_generator("r", n, 1).letters == (-2, -3, 1, 2)
    assert build_generator("t", n, 1).letters == (1, 1)
    assert build_generator("rho", n).letters == (1, 3, 5)
    assert build_generator("z", n).letters == (1, 2, 3, 4, 5, 5, 4, 3, 2, 1)


def test_pair_generator_words():
    assert build_generator("x", 2, 1, 2).letters == (2, 3, 3, 2)
    assert build_generator("p", 2, 1, 3).letters == (
        4, 5, 3, 4, 2, 3, 1, 2, 2, 3, 1, 2, -4, -3, -5, -4
    )


def test_pair_indices_are_order_insensitive():
    assert build_generator("p", 2, 1, 3) == build_generator("p", 2, 3, 1)


def test_pair_generator_conjugation_recursion():
    # alpha_{i,j} = s_{j-1} alpha_{i,j-1} s_{j-1}^-1 for j-1 > i
    for kind in ("p", "x", "y"):
        for n in (2, 3):
            for i in range(1, n):
                for j in range(i + 2, n + 2):
                    s = build_generator("s", n, j - 1)
                    inner = build_generator(kind, n, i, j - 1)
                    assert build_generator(kind, n, i, j) == s * inner * s.inverse()


def test_p_is_square_of_s_and_xy_split():
    for n in (1, 2):
        for i in range(1, n + 1):
            s = build_generator("s", n, i)
            r = build_generator("r", n, i)
            assert build_generator("p", n, i, i + 1) == s * s
            assert build_generator("x", n, i, i + 1) == s * r.inverse()
            assert build_generator("y", n, i, i + 1) == r.inverse() * s


def test_shift_word():
    # shift = s_n ... s_1 t_1
    for n in (1, 2, 3):
        want = build_generator("t", n, 1)
        for i in range(1, n + 1):
            want = build_generator("s", n, i) * want
        assert build_generator("shift", n) == want


def test_build_generator_validation():
    with pytest.raises(ValueError):
        build_generator("q", 2, 1)
    with pytest.raises(ValueError):
        build_generator("s", 2, 3)  # s needs 1 <= i <= n
    with pytest.raises(ValueError):
        build_generator("t", 2, 4)  # t needs 1 <= i <= n+1
    with pytest.raises(ValueError):
        build_generator("p", 2, 2, 2)  # pair needs i != j
    with pytest.raises(ValueError):
        build_generator("rho", 2, 1)  # rho takes no index
    for name, idx in (("h", (1,)), ("sigma", (1,)), ("delta", ()), ("full_twist", ())):
        with pytest.raises(ValueError):
            build_generator(name, 2, *idx)  # no longer in the dictionary


def test_generator_images_land_in_the_right_cosets():
    # every dictionary generator maps into the liftable, block-preserving part
    from hilden.perms import is_liftable, preserves_blocks

    for n in (1, 2, 3):
        m = 2 * n + 2
        words = [build_generator("rho", n), build_generator("shift", n)]
        for i in range(1, n + 1):
            words += [build_generator(k, n, i) for k in ("s", "r")]
        for i in range(1, n + 2):
            words.append(build_generator("t", n, i))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 2):
                words += [build_generator(k, n, i, j) for k in ("p", "x", "y")]
        for w in words:
            pm = psi_of_braid_word(w.letters, m)
            assert is_liftable(pm) and preserves_blocks(pm)


# --- token grammar ----------------------------------------------------------------------


def test_parse_sigma_tokens():
    b = parse_braid_text("g1 G2 g1", strands=4)
    assert b.letters == (1, -2, 1)


def test_parse_identity_literal():
    assert parse_braid_text("1", strands=5).letters == ()
    assert parse_braid_text("g1 1 G1", strands=3).letters == ()


def test_parse_named_tokens():
    assert parse_braid_text("s1", n=2) == build_generator("s", 2, 1)
    assert parse_braid_text("S1", n=2) == build_generator("s", 2, 1).inverse()
    assert parse_braid_text("rho", n=2) == build_generator("rho", 2)
    assert parse_braid_text("RHO", n=2) == build_generator("rho", 2).inverse()
    assert parse_braid_text("p1.3", n=2) == build_generator("p", 2, 1, 3)
    assert parse_braid_text("X1.2", n=2) == build_generator("x", 2, 1, 2).inverse()


def test_parse_errors():
    with pytest.raises(ValueError, match="need n"):
        parse_braid_text("s1", strands=4)
    with pytest.raises(ValueError, match="need n"):  # checked before the name
        parse_braid_text("nope", strands=4)
    for tok, msg in (("p1.1", "pair indices must differ"),
                     ("s0", "index 0 out of range 1..1 for 's'"),
                     ("t3", "index 3 out of range 1..2 for 't'")):
        with pytest.raises(ValueError, match=re.escape(f"token 0 ({tok!r}): {msg}")):
            parse_braid_text(tok, n=1)
    with pytest.raises(ValueError, match="unrecognized"):  # case is all or nothing
        parse_braid_text("Rho", n=1)
    with pytest.raises(ValueError, match="out of range"):
        parse_braid_text("g9", strands=4)
    with pytest.raises(ValueError, match="unrecognized"):
        parse_braid_text("nope", n=2)
    with pytest.raises(ValueError):
        parse_braid_text("g1")  # needs exactly one of strands/n
    with pytest.raises(ValueError):
        parse_braid_text("g1", strands=3, n=1)
    for tok in ("g1", "rho"):
        with pytest.raises(ValueError, match=re.escape("n must be >= 1")):
            parse_braid_text(tok, n=0)


def test_format_parse_round_trip():
    b = braid_word(4, [1, -2, 3, 3])
    assert parse_braid_text(format_braid_word(b), strands=4) == b
    assert format_braid_word(braid_word(4, [])) == "1"


def test_sigma_alphabet_names():
    ab = sigma_alphabet(4)
    assert [ab.name(i) for i in (1, 2, 3)] == ["g1", "g2", "g3"]


# --- property suite ---------------------------------------------------------------------


word_st = st.lists(
    st.tuples(st.sampled_from([1, 2, 3]), st.sampled_from([1, -1])).map(lambda t: t[0] * t[1]),
    max_size=16,
)


def _letters_st(m, max_size=16):
    """Signed generator indices of a braid word on m strands."""
    return st.lists(st.integers(1 - m, m - 1).filter(bool), max_size=max_size)


one_word_st = st.integers(2, 7).flatmap(lambda m: st.tuples(st.just(m), _letters_st(m)))
pair_word_st = st.integers(2, 7).flatmap(
    lambda m: st.tuples(st.just(m), _letters_st(m), _letters_st(m)))


@settings(max_examples=80, deadline=None)
@given(pair_word_st)
def test_nf_multiply_agrees_with_concatenation(case):
    m, ls, ms = case
    a, b = braid_word(m, ls), braid_word(m, ms)
    assert nf_multiply(normal_form(a), normal_form(b)) == normal_form(a * b)


@settings(max_examples=80, deadline=None)
@given(one_word_st)
def test_nf_inverse_agrees_with_word_inverse(case):
    m, ls = case
    b = braid_word(m, ls)
    inv = nf_inverse(normal_form(b))
    assert inv == normal_form(b.inverse())
    assert braid_is_trivial(nf_to_braid_word(inv) * b)


@settings(max_examples=80, deadline=None)
@given(word_st)
def test_nf_preserves_the_underlying_permutation(ls):
    from hilden.perms import compose

    b = braid_word(4, ls)
    nf = normal_form(b)
    assert perm_of_braid(nf_to_braid_word(nf)) == perm_of_braid(b)
    # factor permutations composed with the delta contribution agree too
    w0 = perm_of_braid(delta(4))
    acc = identity_perm(4)
    for _ in range(nf.power % 2):
        acc = compose(acc, w0)  # w0 is an involution, only parity matters
    for f in nf.factors:
        acc = compose(acc, f)
    assert acc == perm_of_braid(b)


long_word_st = st.integers(3, 10).flatmap(lambda m: st.tuples(st.just(m), _letters_st(m, 60)))


@settings(max_examples=150, deadline=None)
@given(long_word_st)
def test_normal_form_is_left_weighted(case):
    m, ls = case
    b = braid_word(m, ls)
    nf = normal_form(b)
    ident, w0 = tuple(range(m)), tuple(range(m - 1, -1, -1))
    factors = [f.images for f in nf.factors]
    assert all(f not in (ident, w0) for f in factors)
    for a, c in zip(factors, factors[1:]):
        cinv = [0] * m
        for x, v in enumerate(c):
            cinv[v] = x
        finishers = {i for i in range(m - 1) if a[i] > a[i + 1]}
        starters = {i for i in range(m - 1) if cinv[i] > cinv[i + 1]}
        assert starters <= finishers
    # each factor's length is its inversion count; delta has m(m-1)/2 letters
    inversions = sum(1 for f in factors for x in range(m) for y in range(x + 1, m) if f[x] > f[y])
    assert nf.power * m * (m - 1) // 2 + inversions == exponent_sum(b)


def _slides_per_letter(monkeypatch):
    """`_slide` calls per letter over the relator images of `build_PH(2)`."""
    calls = 0
    slide = braids._slide

    def counting_slide(a, b):
        nonlocal calls
        calls += 1
        return slide(a, b)

    monkeypatch.setattr(braids, "_slide", counting_slide)
    pres = build_PH(2)
    assign = braid_assignment(pres)
    letters = 0
    for rel in pres.relators:
        b = braid_word(6, image_letters(rel, assign))
        letters += len(b)
        normal_form(b)
    return calls / letters


def test_normal_form_drops_an_emptied_factor_at_once(monkeypatch):
    # A backward slide can empty the appended factor; kept, it would be slid
    # across by every later append (about 15 slides per letter on these words).
    assert _slides_per_letter(monkeypatch) <= 4


def test_normal_form_packs_letter_runs(monkeypatch):
    # One factor per letter costs about 2.6 slides per letter on these words;
    # packing runs into permutation braids leaves about 0.64.
    assert _slides_per_letter(monkeypatch) <= 1


def test_left_weighting_cache_is_bounded():
    maxsize = braids._slide.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0


def _relator_normal_forms():
    """(power, factors) of every relator image of three builders at n = 2 and
    of the identity schedule, and of the first half of each (mostly not
    trivial), all on 6 strands."""
    words = []
    for pres in (build_PH(2), build_intermediate_LH(2), build_SH(2, 3)):
        assign = braid_assignment(pres)
        words += [image_letters(rel, assign) for rel in pres.relators]
    words += [letters for _, _, letters in _lemma_schedule(2)]
    words += [ls[:len(ls) // 2] for ls in words]
    return [(nf.power, nf.factors) for nf in (normal_form(braid_word(6, ls)) for ls in words)]


def test_normal_forms_do_not_depend_on_the_cache_state(monkeypatch):
    braids._slide.cache_clear()
    cold = _relator_normal_forms()
    assert any(factors for _, factors in cold)
    hits = braids._slide.cache_info().hits
    assert _relator_normal_forms() == cold
    assert braids._slide.cache_info().hits > hits  # the second pass read the cache
    # A one-entry cache evicts on every miss.
    monkeypatch.setattr(braids, "_slide", lru_cache(maxsize=1)(braids._slide.__wrapped__))
    assert _relator_normal_forms() == cold


def _letter_fold(m, ls):
    """The normal form built by entering every letter as its own factor.

    g_i is the transposition s_i; g_i^-1 is delta^-1 . (w0 . s_i), and its
    delta^-1 moves to the front, turning each factor it passes into tau of it.
    """
    power, factors = 0, []
    for c in braid_word(m, ls).letters:
        s = list(range(m))
        s[abs(c) - 1], s[abs(c)] = s[abs(c)], s[abs(c) - 1]
        if c < 0:
            power -= 1
            factors = [braids._tau(f) for f in factors]
            s = [m - 1 - v for v in s]
        factors.append(tuple(s))
    surplus, fs = braids._normalize_factors(factors, m)
    return GarsideNF(m, power + surplus, tuple(Perm(f) for f in fs))


@settings(max_examples=150, deadline=None)
@given(long_word_st)
def test_packed_runs_match_the_letter_by_letter_fold(case):
    m, ls = case
    assert normal_form(braid_word(m, ls)) == _letter_fold(m, ls)


def test_packed_runs_exact_cases(monkeypatch):
    for m in (3, 4, 6):
        nf = normal_form(delta(m))
        assert (nf.power, nf.factors) == (1, ())
        nf = normal_form(delta(m).inverse())
        assert (nf.power, nf.factors) == (-1, ())
    assert normal_form(parse_braid_text("g1 G2 g1 G2", strands=3)) == _letter_fold(3, [1, -2, 1, -2])

    seen = []
    normalize = braids._normalize_factors

    def recording_normalize(factors, m):
        seen.append(len(factors))
        return normalize(factors, m)

    monkeypatch.setattr(braids, "_normalize_factors", recording_normalize)
    rng = random.Random(3)
    for m in (3, 5, 7):
        for _ in range(10):
            p = list(range(m))
            while p in (list(range(m)), list(range(m - 1, -1, -1))):
                rng.shuffle(p)
            ls = braids._perm_positive_word(p)  # a reduced positive word of p
            nf = normal_form(braid_word(m, ls))
            assert seen.pop() == 1
            assert (nf.power, [f.images for f in nf.factors]) == (0, [tuple(p)])


def test_braids_equal_checks_exponent_sums_first(monkeypatch):
    def no_normal_form(b):
        raise AssertionError("normal form computed")

    monkeypatch.setattr(braids, "normal_form", no_normal_form)
    assert not braids_equal(braid_word(4, [1, 2]), braid_word(4, [1, 2, 3, -3, 3]))
    assert not braids_equal(braid_word(3, [1]), braid_word(3, [-1]))


# --- a second oracle: Artin's action on the free group -------------------------------


def _artin_images(m, letters):
    """Images of x_1..x_m in F_m under the braid, as freely reduced tuples of
    signed generator indices.  sigma_i sends x_i to x_i x_{i+1} x_i^-1 and
    x_{i+1} to x_i; the action is faithful (Artin 1925)."""

    def subst(word, im):
        out = []
        for e in word:
            for f in im[e - 1] if e > 0 else [-f for f in reversed(im[-e - 1])]:
                if out and out[-1] == -f:
                    out.pop()
                else:
                    out.append(f)
        return tuple(out)

    im = [(j,) for j in range(1, m + 1)]
    for c in letters:
        i = abs(c)
        if c > 0:
            moved = ((i, i + 1, -i), (i,))
        else:
            moved = ((i + 1,), (-(i + 1), i, i + 1))
        im[i - 1], im[i] = subst(moved[0], im), subst(moved[1], im)
    return im


def test_braids_equal_agrees_with_the_free_group_action():
    rng = random.Random(1925)
    outcomes = {True: 0, False: 0}
    same_sum_unequal = 0
    for _ in range(300):
        m = rng.randint(3, 5)
        word = [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(rng.randint(0, 8))]
        other = list(word)
        for _ in range(rng.randint(1, 2)):  # cancelling pairs x x^-1
            c = rng.choice([1, -1]) * rng.randint(1, m - 1)
            pos = rng.randint(0, len(other))
            other[pos:pos] = [c, -c]
        if rng.random() < 0.5:  # a nontrivial commutator keeps the exponent sum
            i = rng.randint(1, m - 2)
            pos = rng.randint(0, len(other))
            other[pos:pos] = [i, i + 1, -i, -i - 1]
        for _ in range(2 * len(other)):  # far commutations
            k = rng.randrange(len(other) - 1)
            if abs(abs(other[k]) - abs(other[k + 1])) >= 2:
                other[k], other[k + 1] = other[k + 1], other[k]
        a, b = braid_word(m, word), braid_word(m, other)
        equal = braids_equal(a, b)
        assert equal == (_artin_images(m, a.letters) == _artin_images(m, b.letters))
        outcomes[equal] += 1
        same_sum_unequal += not equal and exponent_sum(a) == exponent_sum(b)
    assert outcomes[True] > 50 and outcomes[False] > 50 and same_sum_unequal > 50


# --- triviality one run of consecutive generator indices at a time --------------------


def _inverse(ls):
    return [-c for c in reversed(ls)]


@st.composite
def block_words(draw):
    """(m, letters): a word confined to 2-3 runs of consecutive generator
    indices, with at least one unused index between runs.  It is a cross-run
    commutator, a braid relation conjugated inside one run, or their product;
    perturbed, the commutator of two neighbouring generators of one run goes
    in somewhere, which leaves the word trivial only in a one-index run."""
    runs, lo = [], draw(st.integers(1, 2))
    for _ in range(draw(st.integers(2, 3))):
        hi = lo + draw(st.integers(0, 2))
        runs.append(list(range(lo, hi + 1)))
        lo = hi + draw(st.integers(2, 3))
    m = runs[-1][-1] + draw(st.integers(1, 2))

    def letters_of(indices, max_size):
        signed = st.tuples(st.sampled_from(indices), st.sampled_from([1, -1]))
        return [i * e for i, e in draw(st.lists(signed, max_size=max_size))]

    a, b = draw(st.permutations(runs))[:2]
    u, v = letters_of(a, 4), letters_of(b, 4)
    commutator = u + v + _inverse(u) + _inverse(v)
    run = draw(st.sampled_from(runs))
    i = draw(st.sampled_from(run[:-1] or run))
    relation = [i, i + 1, i, -(i + 1), -i, -(i + 1)] if i + 1 in run else [i, -i]
    w = letters_of(sum(runs, []), 6)
    conjugated = w + relation + _inverse(w)
    word = draw(st.sampled_from([commutator, conjugated, commutator + conjugated]))
    if draw(st.booleans()):
        run = draw(st.sampled_from(runs))
        i = draw(st.sampled_from(run[:-1] or run))
        j = i + 1 if i + 1 in run else i
        p = draw(st.integers(0, len(word)))
        word = word[:p] + [i, j, -i, -j] + word[p:]
    return m, word


@settings(max_examples=300, deadline=None)
@given(block_words())
def test_block_triviality_agrees_with_the_full_normal_form_and_the_disk_action(case):
    m, ls = case
    b = braid_word(m, ls)
    nf = normal_form(b)
    full = nf.power == 0 and not nf.factors
    disk = _artin_images(m, b.letters) == [(j,) for j in range(1, m + 1)]
    assert braid_is_trivial(b) == full == disk


def _normal_form_strands(monkeypatch):
    """Strand counts of the `normal_form` calls made after this is called."""
    seen = []
    nf = braids.normal_form

    def recording(b):
        seen.append(b.strands)
        return nf(b)

    monkeypatch.setattr(braids, "normal_form", recording)
    return seen


def test_block_triviality_edge_cases(monkeypatch):
    seen = _normal_form_strands(monkeypatch)
    assert braid_is_trivial(braid_word(5, []))
    assert seen == []
    # one run covering every generator keeps all m strands
    assert braid_is_trivial(braid_word(4, [3, 1, 2, 1, -2, -1, -2, -3]))
    assert not braid_is_trivial(full_twist(4))
    assert seen == [4, 4]
    # indices i and i + 1 form one run; split apart, [g2, g3] would cancel
    seen.clear()
    assert not braid_is_trivial(braid_word(6, [2, 3, -2, -3]))
    assert seen == [3]
    seen.clear()
    assert braid_is_trivial(braid_word(6, [2, 4, -2, -4]))
    assert seen == [2, 2]


def test_far_commutation_rows_need_only_small_normal_forms(monkeypatch):
    # (1)(a)-(1)(c) commute generators on disjoint strands of 18: each run's
    # subword freely cancels, and no normal form spans more than one block swap
    pres = build_LH(8)
    rows = [(w, tag, rid) for w, tag, rid in zip(pres.relators, pres.tags, pres.ids)
            if tag in ("(1)(a)", "(1)(b)", "(1)(c)")]
    far = Presentation(pres.name, pres.n, pres.k, pres.generators,
                       *map(tuple, zip(*rows)))
    seen = _normal_form_strands(monkeypatch)
    rep = verify(far)
    assert len(rep.rows) == 232 and rep.counts() == {"braid": 232}
    assert seen and max(seen) <= 4
