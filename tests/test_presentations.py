"""Presentation builders and the relator verification pipeline."""

import json

import pytest

import hilden.presentations as PRES
import hilden.words as W
from hilden.braids import braid_is_trivial, braid_word
from hilden.perms import identity_perm, psi_of_braid_word
from hilden.presentations import (
    Presentation,
    braid_assignment,
    build_LH,
    build_PH,
    build_PH1,
    build_SH,
    build_VW,
    build_intermediate_LH,
    build_presentation,
    build_prop_LH,
    image_letters,
    perm_assignment,
    presentation_from_json,
    verify,
    verify_lemma_identities,
)


# --- sizes ------------------------------------------------------------------------


def lh_count(n):
    return (
        2 * (n - 1) * (n - 2)
        + 2 * n * (n - 1)
        + n * (n + 1) // 2
        + n
        + (n + 1)
        + 5 * (n - 1)
        + 5 * n
        + 3
    )


@pytest.mark.parametrize("n,count", [(1, 12), (2, 30), (3, 57)])
def test_lh_relator_counts(n, count):
    pres = build_LH(n)
    assert len(pres.relators) == lh_count(n) == count
    assert len(pres.generators) == 2 * n + (n + 1) + 1


@pytest.mark.parametrize("n,count", [(1, 7), (2, 54), (3, 192)])
def test_ph1_relator_counts(n, count):
    assert len(build_PH1(n).relators) == count


def test_ph_adds_two_relators():
    for n in (1, 2):
        assert len(build_PH(n).relators) == len(build_PH1(n).relators) + 2


def test_vw_generators_and_relators():
    pres = build_VW(2)
    assert pres.generators == ("s1", "s2", "rho")
    # verify() appends one synthetic group-order row on top of these
    assert len(pres.relators) == 6


def test_intermediate_and_prop_counts():
    assert len(build_intermediate_LH(1).relators) == 22
    assert len(build_prop_LH(1).relators) == 22


@pytest.mark.parametrize("n,k,count", [(1, 3, 16), (2, 4, 34)])
def test_sh_relator_counts(n, k, count):
    assert len(build_SH(n, k).relators) == count


def test_sh_rejects_small_k():
    with pytest.raises(ValueError):
        build_SH(1, 2)


def test_ids_are_unique_and_tag_consistent():
    for pres in (build_LH(2), build_PH(1), build_SH(1, 3), build_VW(2)):
        assert len(set(pres.ids)) == len(pres.ids)
        for rid, tag in zip(pres.ids, pres.tags):
            assert rid.startswith(tag)


def test_build_presentation_dispatch():
    assert build_presentation("lh", 2).name == "lh"
    assert build_presentation("sh", 1, k=3).name == "sh"
    with pytest.raises(ValueError):
        build_presentation("nosuch", 1)
    with pytest.raises(ValueError):
        build_presentation("sh", 1)  # k required


# --- serialization -------------------------------------------------------------------


def test_presentation_json_round_trip():
    pres = build_LH(2)
    d = pres.to_json_dict()
    assert d["schema"] == 1
    assert presentation_from_json(json.loads(json.dumps(d))) == pres


def test_builders_assemble_letters_without_parsing_text(monkeypatch):
    # builders and the identity schedule make their words from signed letters;
    # only JSON import reads the text form
    calls = []

    def counting(parse):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return parse(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(PRES, "parse_word", counting(PRES.parse_word))
    monkeypatch.setattr(W, "parse_word", counting(W.parse_word))
    built = [build_presentation(name, 3, 4 if name == "sh" else None)
             for name in ("lh", "ph1", "ph", "vw", "intermediate-lh", "prop-lh", "sh")]
    PRES._lemma_schedule(3)
    assert calls == []
    assert presentation_from_json(built[0].to_json_dict()) == built[0]
    assert len(calls) == len(built[0].relators)


# --- assignments -----------------------------------------------------------------------


def test_braid_assignment_covers_all_generators():
    for pres in (build_LH(2), build_PH1(1), build_SH(1, 3), build_prop_LH(1)):
        images = braid_assignment(pres)
        assert set(images) == set(pres.generators)
        m = 2 * pres.n + 2
        for w in images.values():
            assert w.strands == m


def test_every_relator_maps_to_a_pure_braid():
    # the strand image of every relator must be the identity permutation
    for pres in (build_LH(2), build_PH(1), build_PH1(2), build_SH(2, 3),
                 build_intermediate_LH(1), build_prop_LH(2)):
        images = braid_assignment(pres)
        m = 2 * pres.n + 2
        for rel in pres.relators:
            letters = image_letters(rel, images)
            assert psi_of_braid_word(letters, m) == identity_perm(m)


def test_perm_assignment_only_for_vw():
    pres = build_VW(1)
    images = perm_assignment(pres)
    assert set(images) == {"s1", "rho"}
    with pytest.raises(ValueError):
        perm_assignment(build_LH(1))


# --- verification --------------------------------------------------------------------


def test_lh_verification_closes_at_the_recorded_levels():
    for n in (1, 2):
        rep = verify(build_LH(n))
        assert rep.ok
        for row in rep.rows:
            want = "sphere_mcg" if row.tag in ("(4)", "(5)") else "braid"
            assert (row.status, row.closes_at) == ("ok", want), row.id


def test_ph_verification_sphere_rows_are_the_two_global_relators():
    rep = verify(build_PH(1))
    assert rep.ok
    sphere = sorted(r.tag for r in rep.rows if r.closes_at == "sphere_mcg")
    assert sphere == ["(F)", "(Z)"]


def test_ph1_closes_entirely_at_the_braid_level():
    rep = verify(build_PH1(2))
    assert rep.ok and rep.counts() == {"braid": 54}


def test_intermediate_and_prop_verification():
    rep = verify(build_intermediate_LH(1))
    assert rep.ok
    assert sorted(r.tag for r in rep.rows if r.closes_at == "sphere_mcg") == ["(F)", "(Z)"]
    rep = verify(build_prop_LH(1))
    assert rep.ok
    assert sorted(r.tag for r in rep.rows if r.closes_at == "sphere_mcg") == ["(4)", "(5)"]


def test_sh_verification_sphere_rows():
    rep = verify(build_SH(1, 3))
    assert rep.ok and len(rep.rows) == 16
    sphere = {r.id for r in rep.rows if r.closes_at == "sphere_mcg"}
    assert sphere == {"(4)", "(5)", "(6)(a)[s1]", "(6)(a)[r1]", "(6)(b)", "(6)(c)"}
    rep2 = verify(build_SH(2, 4))
    assert rep2.ok and rep2.counts() == {"braid": 28, "sphere_mcg": 6}


def test_vw_verifies_at_the_permutation_level_with_order_row():
    for n in (1, 2, 3):
        rep = verify(build_VW(n))
        assert rep.ok
        assert all(r.closes_at == "permutation" for r in rep.rows)
        order_rows = [r for r in rep.rows if r.tag == "(order)"]
        assert len(order_rows) == 1 and order_rows[0].status == "ok"


def test_vw_wrong_relator_fails_its_row_through_the_shared_ladder(monkeypatch):
    pres = build_VW(2)
    i = pres.tags.index("(invol-r)")  # rho rho becomes rho alone
    rho = W.parse_word(pres.alphabet, "rho")
    wrong = Presentation(pres.name, pres.n, pres.k, pres.generators,
                         pres.relators[:i] + (rho,) + pres.relators[i + 1:], pres.tags, pres.ids)
    targets = []
    ladder = PRES.M.closes_at

    def spy(b, target, budget):
        targets.append(target)
        return ladder(b, target, budget)

    monkeypatch.setattr(PRES.M, "closes_at", spy)
    rep = verify(wrong)
    assert targets == ["permutation"] * len(pres.relators)
    want = {rid: ("ok", "permutation") for rid in pres.ids + ("(order)",)}
    want[pres.ids[i]] = ("FAILED", None)
    assert {r.id: (r.status, r.closes_at) for r in rep.rows} == want


def test_tiny_budget_leaves_sphere_rows_unresolved():
    rep = verify(build_LH(1), budget=1)
    assert not rep.ok
    by_tag = {r.tag: r.status for r in rep.rows if r.tag in ("(4)", "(5)")}
    assert by_tag == {"(4)": "UNRESOLVED", "(5)": "UNRESOLVED"}
    assert all(
        r.status == "ok" for r in rep.rows if r.tag not in ("(4)", "(5)")
    )


def test_report_counts_and_ok():
    rep = verify(build_LH(1))
    counts = rep.counts()
    assert counts == {"braid": 10, "sphere_mcg": 2}
    assert rep.ok and len(rep.rows) == 12


# --- consequence identities ----------------------------------------------------------


@pytest.mark.parametrize("n,rows", [(1, 38), (2, 152), (4, 843), (5, 1584)])
def test_lemma_identities_close_at_braid_level(n, rows):
    rep = verify_lemma_identities(n)
    assert rep.ok and len(rep.rows) == rows
    assert all(r.closes_at == "braid" for r in rep.rows)


def test_lemma_identities_cap():
    with pytest.raises(ValueError):
        verify_lemma_identities(6)


# --- relators really die in the braid group where recorded ---------------------------


def test_braid_closing_relators_are_trivial_braids():
    pres = build_LH(1)
    images = braid_assignment(pres)
    m = 2 * pres.n + 2
    for rel, tag in zip(pres.relators, pres.tags):
        b = braid_word(m, image_letters(rel, images))
        assert braid_is_trivial(b) == (tag not in ("(4)", "(5)"))
