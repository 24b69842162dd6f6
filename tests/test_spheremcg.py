"""Action of braids on the fundamental group of a punctured sphere."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilden.spheremcg as M
from hilden.braids import (braid_is_trivial, braid_word, build_generator, delta, full_twist,
                           parse_braid_text)
from hilden.perms import psi_of_braid_word
from hilden.spheremcg import (
    ARTIN_CONVENTION,
    DEFAULT_BUDGET,
    BudgetExceededError,
    FreeAuto,
    artin_action,
    class_of_puncture,
    closes_at,
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
from hilden.words import Word, cyclically_reduce, format_word, parse_word, reduce


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


def _is_inner_by_k_scan(a):
    """Reference: try every x_1-exponent k the image lengths allow."""
    alph = x_alphabet(a.rank)
    if a.rank == 1:
        return Word(alph, ()) if a.images[0].letters == (1,) else None
    core, c = cyclically_reduce(a.images[0])
    if core.letters != (1,):
        return None
    kmax = max(len(w) for w in a.images) + len(c) + 2
    for k in range(-kmax, kmax + 1):
        g = c * Word(alph, (1,) * k if k >= 0 else (-1,) * -k)
        if all(g * Word(alph, (i + 1,)) * g.inverse() == w for i, w in enumerate(a.images)):
            return g
    return None


def _sphere_relator(m):
    return braid_word(m, list(range(1, m)) + list(range(m - 1, 0, -1)))


def test_is_inner_matches_the_k_scan_on_braid_actions():
    rng = random.Random(2026)
    outcomes = []
    for t in range(240):
        m = rng.randint(3, 8)
        c = _rand_braid(rng, m, rng.randint(0, 4))
        if t % 3 == 0:
            b = _rand_braid(rng, m, rng.randint(0, 8))
        elif t % 3 == 1:
            b = c * _sphere_relator(m) ** rng.randint(-2, 2) * c.inverse()
        else:
            b = c * _sphere_relator(m) * c.inverse() * _rand_braid(rng, m, 1)
        act = artin_action(b)
        got = is_inner(act)
        assert got == _is_inner_by_k_scan(act)
        outcomes.append(got is not None)
    assert any(outcomes) and not all(outcomes)


def test_is_inner_matches_the_k_scan_on_perturbed_conjugations():
    rng = random.Random(2027)
    outcomes = []
    for t in range(240):
        rank = rng.randint(2, 6)
        ab = x_alphabet(rank)
        g = reduce(ab, [rng.choice([1, -1]) * rng.randint(1, rank) for _ in range(rng.randint(0, 6))])
        act = conjugation_auto(g)
        if t % 2:
            imgs = list(act.images)
            i = rng.randrange(rank)
            imgs[i] = imgs[i] * reduce(ab, [rng.choice([1, -1]) * rng.randint(1, rank)])
            act = FreeAuto(rank, tuple(imgs))
        got = is_inner(act)
        assert got == _is_inner_by_k_scan(act)
        outcomes.append(got is not None)
    assert any(outcomes) and not all(outcomes)


# first draw of random.Random(3) over g2..g4 and their inverses, 60 letters
_LONG_WORD = (
    "g4 g3 G4 g4 g3 G4 g2 G4 G3 g2 g4 G4 g4 g2 g3 g3 G4 G4 G3 G2 G2 g2 G2 G4 "
    "G4 G3 G4 G4 G4 g3 g3 g4 G4 g4 g4 G3 g2 G4 G2 G2 G2 g3 G3 g2 g3 G4 G4 g2 "
    "G2 g2 g2 G3 G2 g3 G3 g3 G3 G4 g4 G3"
)


def test_is_inner_does_a_bounded_number_of_concatenations(monkeypatch):
    b = parse_braid_text(_LONG_WORD, strands=6)
    act = artin_action(b)
    assert sum(len(w) for w in act.images) > 50_000
    calls = []
    real_cat = M._cat

    def counting_cat(a, b):
        calls.append(1)
        return real_cat(a, b)

    monkeypatch.setattr(M, "_cat", counting_cat)
    assert is_inner(act) is None
    assert len(calls) <= 2 * act.rank + 4
    monkeypatch.undo()
    assert not mcg_equal(b, braid_word(6, []))


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


# --- the closing-level ladder ---------------------------------------------------------


@st.composite
def _ladder_case(draw):
    m = draw(st.integers(3, 6))
    letter = st.integers(1, m - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return (m, draw(st.lists(letter, max_size=5)), draw(st.lists(letter, max_size=10)),
            draw(st.integers(1, m - 2)), draw(st.sampled_from((1, -1))))


@settings(max_examples=60, deadline=None)
@given(_ladder_case())
def test_closes_at_agrees_with_the_public_oracles(case):
    m, u, v, i, e = case
    uw = braid_word(m, u)
    z = braid_word(m, list(range(1, m)) + list(range(m - 1, 0, -1)))  # the loop of point 1
    # (word, the level it must close at up to sphere_mcg); None expects no
    # level, and v, a random word, only has to agree with the oracles
    cases = [
        (uw * braid_word(m, [i, i + 1, i, -i - 1, -i, -i - 1]) * uw.inverse(), "braid"),
        (uw * z ** e * uw.inverse(), "sphere_mcg"),  # a conjugated sphere relator
        (uw * full_twist(m) ** e * uw.inverse(), "sphere_mcg"),
        (uw * braid_word(m, [i]) * uw.inverse(), None),  # a transposition
        (braid_word(m, v), "any"),
    ]
    for b, want in cases:
        perm_trivial = psi_of_braid_word(b.letters, m).is_identity()
        assert closes_at(b, "permutation", DEFAULT_BUDGET) == (
            "permutation" if perm_trivial else None)
        at_braid = closes_at(b, "braid", DEFAULT_BUDGET)
        assert at_braid in ("braid", None)
        assert (at_braid == "braid") == braid_is_trivial(b)
        at_sphere = closes_at(b, "sphere_mcg", DEFAULT_BUDGET)
        assert (at_sphere is not None) == sphere_trivial(b)
        assert at_sphere == "braid" if at_braid else at_sphere in ("sphere_mcg", None)
        if not perm_trivial:
            assert at_braid is at_sphere is None
        if want != "any":
            assert at_sphere == want


def test_closes_at_spends_the_budget_only_at_the_sphere_level():
    b = braid_word(4, [1, -2] * 81)  # a pure braid whose sphere image grows fast
    assert closes_at(b, "braid", 50) is None
    with pytest.raises(BudgetExceededError):
        closes_at(b, "sphere_mcg", 50)
    with pytest.raises(ValueError):
        closes_at(b, "disk", 50)


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


def test_budget_abort_fields_are_pinned():
    # frozen values: the running size must report what a full recount does
    for m, letters, budget, fields in (
        (4, [1, -2] * 80, 50, (6, 160, 51, 50)),
        (5, [1, -2, 3, -4] * 20, 1000, (15, 80, 1421, 1000)),
    ):
        with pytest.raises(BudgetExceededError) as ei:
            artin_action(braid_word(m, letters), budget=budget)
        err = ei.value
        assert (err.letters_done, err.letters_total, err.size, err.budget) == fields


def test_default_budget_is_generous():
    assert DEFAULT_BUDGET >= 10**6
    # a moderately long word stays well under it
    artin_action(braid_word(4, [1, 2, 3] * 30))
