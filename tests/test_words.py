"""Free words over a named alphabet: reduction, algebra, parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilden.words import (
    Alphabet,
    Word,
    _cat,
    _inv,
    _reduce_letters,
    conjugate,
    cyclically_reduce,
    format_word,
    identity,
    invert,
    multiply,
    parse_word,
    reduce,
    substitute,
)

AB = Alphabet(("a", "b", "c"))


def W(*letters):
    return reduce(AB, letters)


# --- alphabet ------------------------------------------------------------


def test_alphabet_lookup_is_one_based():
    assert AB.name(1) == "a" and AB.name(3) == "c"
    assert AB.index("b") == 2
    assert len(AB) == 3


def test_alphabet_rejects_bad_names():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a", "x y"))
    with pytest.raises(ValueError):
        Alphabet(("a", "x^2"))


def test_alphabet_value_semantics():
    assert Alphabet(("a", "b", "c")) == AB


# --- reduction and the Word invariant -------------------------------------


def test_reduce_cancels_adjacent_inverses():
    assert W(1, -1).letters == ()
    assert W(1, 2, -2, -1).letters == ()
    assert W(1, 2, -2, 3).letters == (1, 3)


def test_word_constructor_requires_reduced_letters():
    with pytest.raises(ValueError):
        Word(AB, (1, -1))
    with pytest.raises(ValueError):
        Word(AB, (4,))
    with pytest.raises(ValueError):
        Word(AB, (0,))


def test_identity_and_len():
    e = identity(AB)
    assert e.letters == () and len(W(1, 2)) == 2


# --- group operations ------------------------------------------------------


def test_multiply_cancels_only_at_the_seam():
    u = W(1, 2)
    v = W(-2, -1, 3)
    assert multiply(u, v).letters == (3,)
    # an internal non-reduced pair can never arise: inputs are reduced
    assert (u * v).letters == (3,)


def test_inverse_and_pow():
    u = W(1, 2, -3)
    assert u.inverse().letters == (3, -2, -1)
    assert (u * u.inverse()).letters == ()
    assert (u**0).letters == ()
    assert (u**2) == u * u
    assert (u**-2) == (u.inverse() * u.inverse())
    assert invert(u) == u.inverse()


def test_conjugate():
    u, h = W(1), W(2, 3)
    assert conjugate(u, h) == h * u * h.inverse()


def test_cyclically_reduce_reconstructs():
    w = W(2, 1, 3, -1, -2)
    core, conj = cyclically_reduce(w)
    assert core.letters == (3,)
    assert conj * core * conj.inverse() == w


def test_cyclically_reduce_of_reduced_word_is_itself():
    w = W(1, 2)
    core, conj = cyclically_reduce(w)
    assert core == w and conj.letters == ()


def test_cyclically_reduce_exact_cases():
    empty = identity(AB)
    assert cyclically_reduce(empty) == (empty, empty)
    assert cyclically_reduce(W(2)) == (W(2), empty)
    assert cyclically_reduce(W(1, -1)) == (empty, empty)
    # fully conjugated: everything but the middle letter is the conjugator
    core, conj = cyclically_reduce(W(1, 2, -3, 2, 3, -2, -1))
    assert (core.letters, conj.letters) == ((2,), (1, 2, -3))


def test_cyclically_reduce_strips_a_long_conjugator():
    # 40,000 letters: the strip walks two indices, it does not copy per pair
    h = W(*([1, 2] * 20_000))
    core, conj = cyclically_reduce(conjugate(W(3), h))
    assert core == W(3) and conj == h


# --- substitution (homomorphism into a target alphabet) --------------------


def test_substitute_maps_letters_homomorphically():
    target = Alphabet(("x", "y"))
    images = {1: reduce(target, (1, 2)), 2: reduce(target, (2,)), 3: identity(target)}
    w = W(1, 3, -2)
    # (x y) . 1 . y^-1 freely reduces to x
    assert substitute(w, images).letters == (1,)
    assert substitute(W(2, 1), images).letters == (2, 1, 2)


def test_substitute_of_product_is_product_of_substitutes():
    target = Alphabet(("x", "y"))
    images = {1: reduce(target, (1,)), 2: reduce(target, (2, -1)), 3: reduce(target, (1, 1))}
    u, v = W(1, 2), W(-2, 3)
    assert substitute(u * v, images) == substitute(u, images) * substitute(v, images)


# --- text form --------------------------------------------------------------


def test_parse_and_format_round_trip():
    w = W(1, -2, 3, 3)
    assert parse_word(AB, format_word(w)) == w
    assert format_word(identity(AB)) == "1"
    assert parse_word(AB, "1").letters == ()


def test_parse_word_diagnostics():
    with pytest.raises(ValueError, match="token 1"):
        parse_word(AB, "a zz")
    with pytest.raises(ValueError):
        parse_word(AB, "a^2")


# --- property suite ----------------------------------------------------------

letters_st = st.lists(st.sampled_from([1, 2, 3, -1, -2, -3]), max_size=24)


@settings(max_examples=200)
@given(letters_st)
def test_reduce_is_idempotent(ls):
    once = reduce(AB, ls)
    again = reduce(AB, once.letters)
    assert once == again


@settings(max_examples=200)
@given(letters_st, letters_st)
def test_product_inverse_reverses(ls, ms):
    u, v = reduce(AB, ls), reduce(AB, ms)
    assert (u * v).inverse() == v.inverse() * u.inverse()


@settings(max_examples=200)
@given(letters_st)
def test_word_times_inverse_is_identity(ls):
    u = reduce(AB, ls)
    assert (u * u.inverse()).letters == ()
    assert (u.inverse() * u).letters == ()


@settings(max_examples=200)
@given(letters_st, letters_st)
def test_letter_kernel_agrees_with_free_reduction(ls, ms):
    a, b = _reduce_letters(ls), _reduce_letters(ms)
    assert _cat(list(a), b) == list(_reduce_letters(a + b))
    assert tuple(_inv(_inv(a))) == a
    assert _cat(list(a), _inv(a)) == []


@settings(max_examples=200)
@given(letters_st)
def test_format_parse_round_trip(ls):
    w = reduce(AB, ls)
    assert parse_word(AB, format_word(w)) == w


@settings(max_examples=100)
@given(letters_st, letters_st)
def test_conjugation_is_undone_by_inverse_conjugation(ls, ms):
    w, h = reduce(AB, ls), reduce(AB, ms)
    assert conjugate(conjugate(w, h), h.inverse()) == w


def _cyclically_reduce_naive(w):
    ls, pre = list(w.letters), []
    while len(ls) >= 2 and ls[0] == -ls[-1]:
        pre.append(ls[0])
        ls = ls[1:-1]
    return reduce(AB, ls), reduce(AB, pre)


@settings(max_examples=200)
@given(letters_st, letters_st)
def test_cyclically_reduce_matches_the_naive_strip(ls, ms):
    for w in (reduce(AB, ls), conjugate(reduce(AB, ls), reduce(AB, ms))):
        core, conj = cyclically_reduce(w)
        assert (core, conj) == _cyclically_reduce_naive(w)
        assert conj * core * conj.inverse() == w
