"""Permutations, the strand homomorphism, and the named subgroups."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilden.braids import build_generator
from hilden.perms import (
    ENUMERATION_MAX_N,
    SUBGROUP_LABELS,
    Perm,
    block_flip,
    block_kernel,
    compose,
    enumerate_subgroup,
    format_cycles,
    generated_subgroup,
    identity_perm,
    inverse,
    preserves_blocks,
    is_liftable,
    is_parity_preserving,
    is_parity_reversing,
    parse_cycles,
    perm_from_images,
    perm_to_json,
    pi_to_Z2,
    Pi_to_Snp1,
    psi_of_braid_word,
    subgroup_table_json,
    transposition,
)


# --- elementary algebra -----------------------------------------------------


def test_compose_applies_right_factor_first():
    f = transposition(3, 1, 2)
    g = transposition(3, 2, 3)
    # 1 -g-> 1 -f-> 2, 2 -g-> 3 -f-> 3, 3 -g-> 2 -f-> 1
    assert str(compose(f, g)) == "(1 2 3)"
    assert str(compose(g, f)) == "(1 3 2)"


def test_apply_is_one_based():
    p = perm_from_images((2, 3, 1))
    assert p(1) == 2 and p.apply(3) == 1
    with pytest.raises(ValueError):
        p.apply(0)
    with pytest.raises(ValueError):
        p.apply(4)


def test_inverse():
    p = perm_from_images((2, 3, 1))
    assert compose(p, inverse(p)) == identity_perm(3)
    assert compose(inverse(p), p) == identity_perm(3)


def test_identity_str():
    assert str(identity_perm(4)) == "id"


# --- strand homomorphism ------------------------------------------------------


def test_psi_ignores_letter_signs():
    assert psi_of_braid_word([1], 3) == psi_of_braid_word([-1], 3)
    assert str(psi_of_braid_word([1], 3)) == "(1 2)"


def test_psi_folds_left_to_right():
    # word g1 g2: sends 1->2->2? trace: start id, right factor acts first in
    # composition, and the word letter order composes l1 o l2, so psi(g1 g2)
    # = (1 2) o (2 3): 1->2, 2->3->... check against compose directly
    want = compose(transposition(3, 1, 2), transposition(3, 2, 3))
    assert psi_of_braid_word([1, 2], 3) == want


# frozen images of the dictionary generators under the strand homomorphism
def test_psi_of_dictionary_generators():
    for n in (1, 2, 3):
        m = 2 * n + 2
        for i in range(1, n + 1):
            s = build_generator("s", n, i)
            assert psi_of_braid_word(s.letters, m) == compose(
                transposition(m, 2 * i - 1, 2 * i + 1),
                transposition(m, 2 * i, 2 * i + 2),
            )
            r = build_generator("r", n, i)
            assert psi_of_braid_word(r.letters, m) == psi_of_braid_word(s.letters, m)
        for i in range(1, n + 2):
            t = build_generator("t", n, i)
            assert psi_of_braid_word(t.letters, m) == identity_perm(m)
        rho = build_generator("rho", n)
        want = identity_perm(m)
        for i in range(1, n + 2):
            want = compose(want, transposition(m, 2 * i - 1, 2 * i))
        assert psi_of_braid_word(rho.letters, m) == want
        z = build_generator("z", n)
        assert psi_of_braid_word(z.letters, m) == identity_perm(m)


def test_psi_of_shift_word_n2():
    shift = build_generator("shift", 2)
    assert str(psi_of_braid_word(shift.letters, 6)) == "(1 5 3)(2 6 4)"


# --- parity and block predicates ---------------------------------------------


def test_parity_predicates_on_generator_images():
    m = 4
    s1 = psi_of_braid_word(build_generator("s", 1, 1).letters, m)
    rho = psi_of_braid_word(build_generator("rho", 1).letters, m)
    assert is_parity_preserving(s1) and not is_parity_reversing(s1)
    assert is_parity_reversing(rho) and not is_parity_preserving(rho)
    assert is_liftable(s1) and is_liftable(rho)
    g2 = psi_of_braid_word([2], m)
    assert not is_liftable(g2)


def test_block_preserving():
    m = 4
    s1 = psi_of_braid_word(build_generator("s", 1, 1).letters, m)
    rho = psi_of_braid_word(build_generator("rho", 1).letters, m)
    assert preserves_blocks(s1) and preserves_blocks(rho)
    assert not preserves_blocks(psi_of_braid_word([2], m))


def test_predicates_require_even_degree():
    with pytest.raises(ValueError):
        is_liftable(identity_perm(3))


# --- subgroup enumeration -------------------------------------------------------

# orders enumerated by brute force over S_{2n+2}
EXPECTED_ORDERS = {
    1: {"W": 8, "V": 8, "VW": 4, "S^oe": 2, "S^oxS^e": 4},
    2: {"W": 72, "V": 48, "VW": 12, "S^oe": 6, "S^oxS^e": 36},
    3: {"W": 1152, "V": 384, "VW": 48, "S^oe": 24, "S^oxS^e": 576},
    4: {"W": 28800, "V": 3840, "VW": 240, "S^oe": 120, "S^oxS^e": 14400},
}

# each named subgroup as the public predicates define it
SUBGROUP_FILTERS = {
    "W": is_liftable,
    "V": preserves_blocks,
    "VW": lambda p: preserves_blocks(p) and is_liftable(p),
    "S^oe": lambda p: preserves_blocks(p) and is_parity_preserving(p),
    "S^oxS^e": is_parity_preserving,
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subgroup_orders(n):
    import math

    fact = math.factorial(n + 1)
    closed = {
        "W": 2 * fact * fact,
        "V": 2 ** (n + 1) * fact,
        "VW": 2 * fact,
        "S^oe": fact,
        "S^oxS^e": fact * fact,
    }
    assert closed == EXPECTED_ORDERS[n]
    for label in SUBGROUP_LABELS:
        assert enumerate_subgroup(label, n).order == EXPECTED_ORDERS[n][label]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_subgroups_match_the_predicate_filter(n):
    # the structural construction against a walk over all of S_{2n+2}
    every = [Perm(p) for p in permutations(range(2 * n + 2))]
    assert set(SUBGROUP_FILTERS) == set(SUBGROUP_LABELS)
    for label, pred in SUBGROUP_FILTERS.items():
        want = frozenset(p for p in every if pred(p))
        assert enumerate_subgroup(label, n).elements == want, label


def test_enumeration_capacity_guard():
    with pytest.raises(ValueError):
        enumerate_subgroup("W", ENUMERATION_MAX_N + 1)


def test_subgroups_are_closed_under_composition():
    for label in SUBGROUP_LABELS:
        table = enumerate_subgroup(label, 2)
        sample = sorted(table.elements, key=lambda p: p.images)[:8]
        for a in sample:
            for b in sample:
                assert compose(a, b) in table.elements


def test_vw_is_intersection_of_v_and_w():
    for n in (1, 2):
        v = enumerate_subgroup("V", n).elements
        w = enumerate_subgroup("W", n).elements
        vw = enumerate_subgroup("VW", n).elements
        assert vw == v & w


# --- quotient maps ----------------------------------------------------------------


def test_pi_to_Z2_splits_vw_by_parity():
    for n in (1, 2):
        for p in enumerate_subgroup("VW", n).elements:
            bit = pi_to_Z2(p)
            assert bit == (0 if is_parity_preserving(p) else 1)
    with pytest.raises(ValueError):
        pi_to_Z2(psi_of_braid_word([2], 4))


def test_Pi_collapses_blocks_bijectively_on_parity_preserving_part():
    import math

    for n in (1, 2):
        elements = enumerate_subgroup("S^oe", n).elements
        images = {Pi_to_Snp1(p) for p in elements}
        assert len(images) == math.factorial(n + 1) == len(elements)


def test_Pi_requires_block_preserving():
    with pytest.raises(ValueError):
        Pi_to_Snp1(psi_of_braid_word([2], 4))


def test_block_kernel_is_kernel_of_Pi_on_V():
    for n in (1, 2):
        m = 2 * n + 2
        kern = block_kernel(n)
        assert len(kern) == 2 ** (n + 1)
        want = {
            p
            for p in enumerate_subgroup("V", n).elements
            if Pi_to_Snp1(p) == identity_perm(n + 1)
        }
        assert set(kern) == want
        flips = [block_flip(m, i) for i in range(1, n + 2)]
        for f in flips:
            assert f in want


def test_generated_subgroup_recovers_vw():
    for n in (1, 2, 3):
        m = 2 * n + 2
        gens = [
            psi_of_braid_word(build_generator("s", n, i).letters, m)
            for i in range(1, n + 1)
        ]
        gens.append(psi_of_braid_word(build_generator("rho", n).letters, m))
        got = generated_subgroup(gens)
        assert got == enumerate_subgroup("VW", n).elements


# --- text and JSON forms --------------------------------------------------------


def test_cycle_notation_round_trip():
    p = perm_from_images((2, 1, 4, 3))
    assert format_cycles(p) == "(1 2)(3 4)"
    assert parse_cycles("(1 2)(3 4)", 4) == p
    assert parse_cycles("id", 5) == identity_perm(5)
    with pytest.raises(ValueError):
        parse_cycles("(1 2", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1 9)", 4)


def test_perm_to_json():
    p = perm_from_images((2, 1, 3))
    assert perm_to_json(p) == {"m": 3, "cycles": "(1 2)"}


def test_subgroup_table_json_lists_cycle_strings():
    table = enumerate_subgroup("VW", 1)
    d = subgroup_table_json(table)
    assert d["label"] == "VW" and d["n"] == 1 and d["m"] == 4 and d["order"] == 4
    assert d["elements"] == ["id", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"]
    # round trip: every string parses back to an element of the table
    assert {parse_cycles(c, 4) for c in d["elements"]} == table.elements


# --- property suite -----------------------------------------------------------------


perm_st = st.permutations(list(range(1, 7))).map(lambda im: perm_from_images(tuple(im)))


@settings(max_examples=150)
@given(perm_st, perm_st)
def test_compose_matches_pointwise_application(f, g):
    h = compose(f, g)
    for x in range(1, 7):
        assert h(x) == f(g(x))


@settings(max_examples=150)
@given(perm_st)
def test_inverse_round_trip(p):
    assert inverse(inverse(p)) == p
    assert compose(p, inverse(p)) == identity_perm(6)


@settings(max_examples=150)
@given(perm_st)
def test_liftable_iff_preserving_or_reversing(p):
    assert is_liftable(p) == (is_parity_preserving(p) or is_parity_reversing(p))
