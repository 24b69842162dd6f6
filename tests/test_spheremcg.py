"""Action of braids on the fundamental group of a punctured sphere."""

import random

import pytest

from hilden.braids import braid_word, build_generator, delta, full_twist
from hilden.perms import psi_of_braid_word
from hilden.spheremcg import (
    ARTIN_CONVENTION,
    DEFAULT_BUDGET,
    BudgetExceededError,
    artin_action,
    class_of_puncture,
    compose_autos,
    conjugation_auto,
    identity_auto,
    induced_perm_of_action,
    is_inner,
    is_liftable_class,
    mcg_equal,
    sphere_trivial,
    x_alphabet,
)
from hilden.words import format_word, parse_word, reduce


def _rand_braid(rng, m, length):
    return braid_word(m, [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(length)])


# --- frozen values ------------------------------------------------------------


def test_full_twist_acts_trivially_on_four_strand_sphere():
    assert artin_action(full_twist(4)).is_identity()


def test_sphere_relator_action_is_conjugation():
    z = build_generator("z", 1)  # g1 g2 g3 g3 g2 g1 on four strands
    act = artin_action(z)
    ab = x_alphabet(3)
    assert [format_word(w) for w in act.images] == [
        "x1",
        "x1 x2 x1^-1",
        "x1 x3 x1^-1",
    ]
    conj = is_inner(act)
    assert conj is not None and format_word(conj) == "x1"
    assert sphere_trivial(z)


def test_single_generator_is_not_trivial():
    assert not sphere_trivial(braid_word(4, [1]))
    assert is_inner(artin_action(braid_word(4, [1]))) is None


def test_identity_auto_is_inner_with_trivial_conjugator():
    act = identity_auto(3)
    conj = is_inner(act)
    assert conj is not None and conj.letters == ()


def test_class_of_puncture_tracks_loops():
    ident = identity_auto(3)
    assert [class_of_puncture(ident, i) for i in (1, 2, 3)] == [1, 2, 3]
    # the boundary-adjacent generator moves the last interior loop onto the
    # outer puncture
    act = artin_action(braid_word(4, [3]))
    assert class_of_puncture(act, 3) == 4
    assert str(induced_perm_of_action(act)) == "(3 4)"
    # a non-braid automorphism is rejected
    ab = x_alphabet(2)
    broken = type(ident)(2, (reduce(ab, (1, 2)), reduce(ab, (2,))))
    with pytest.raises(ValueError):
        class_of_puncture(broken, 1)


def test_convention_hook_is_recorded():
    assert isinstance(ARTIN_CONVENTION, str) and "x_i" in ARTIN_CONVENTION


# --- structural properties -------------------------------------------------------


def test_action_is_a_homomorphism():
    rng = random.Random(31)
    for m in (4, 6):
        for _ in range(40):
            a = _rand_braid(rng, m, rng.randint(0, 8))
            b = _rand_braid(rng, m, rng.randint(0, 8))
            assert artin_action(a * b) == compose_autos(artin_action(a), artin_action(b))


def test_action_permutes_puncture_classes_like_the_strand_permutation():
    rng = random.Random(47)
    for m in (4, 5):
        for _ in range(40):
            b = _rand_braid(rng, m, rng.randint(0, 10))
            act = artin_action(b)
            assert induced_perm_of_action(act) == psi_of_braid_word(b.letters, m)


def test_inner_detection_on_random_conjugations():
    rng = random.Random(83)
    ab = x_alphabet(4)
    for _ in range(40):
        g = reduce(ab, [rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(rng.randint(0, 5))])
        act = conjugation_auto(g)
        conj = is_inner(act)
        assert conj is not None
        # the found conjugator induces the same automorphism
        assert conjugation_auto(conj) == act


def test_compose_autos_matches_substitution():
    rng = random.Random(7)
    for m in (4, 5):
        a = _rand_braid(rng, m, 6)
        b = _rand_braid(rng, m, 6)
        left = artin_action(a * b)
        right = compose_autos(artin_action(a), artin_action(b))
        assert left == right == artin_action(braid_word(m, list(a.letters) + list(b.letters)))


# --- equality up to the sphere mapping class -----------------------------------------


def test_mcg_equal_quotients_by_center_and_sphere_relator():
    z = build_generator("z", 1)
    b = braid_word(4, [1, -2, 1])
    assert mcg_equal(z, braid_word(4, []))
    assert mcg_equal(b * z, b)
    assert mcg_equal(b * full_twist(4), b)
    assert not mcg_equal(braid_word(4, [1]), braid_word(4, []))
    assert not mcg_equal(braid_word(4, [1]), braid_word(4, [2]))


def test_delta_squared_equals_full_twist():
    for m in (3, 4, 5):
        assert mcg_equal(delta(m) * delta(m), full_twist(m))


# --- liftability of a class -----------------------------------------------------------


def test_liftable_classes():
    assert is_liftable_class(build_generator("s", 1, 1))
    assert is_liftable_class(build_generator("rho", 1))
    assert not is_liftable_class(braid_word(4, [2]))


# --- budget control --------------------------------------------------------------------


def test_budget_abort_reports_progress():
    # alternating-sign word whose images grow exponentially
    letters = [1, -2] * 80
    b = braid_word(4, letters)
    with pytest.raises(BudgetExceededError) as ei:
        artin_action(b, budget=50)
    err = ei.value
    assert err.letters_done < err.letters_total == len(letters)
    assert err.size > err.budget == 50


def test_default_budget_is_generous():
    assert DEFAULT_BUDGET >= 10**6
    # a moderately long word stays well under it
    artin_action(braid_word(4, [1, 2, 3] * 30))
