"""Smith normal form and first homology of the presentation families."""

import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from hilden import homology
from hilden.homology import (
    AbelianInvariants,
    exponent_vector,
    expected_h1,
    h1_generators_report,
    h1_of_presentation,
    matrix_mul,
    relator_matrix,
    smith_normal_form,
)
from hilden.presentations import build_LH, build_PH, build_SH, build_VW, presentation_from_json
from hilden.words import parse_word


# --- smith normal form ----------------------------------------------------------


def as_lists(rows):
    return [list(r) for r in rows]


def test_snf_small_example():
    res = smith_normal_form([[2, 4], [6, 8]])
    assert list(res.diagonal()) == [2, 4]
    assert as_lists(matrix_mul(matrix_mul(res.U, [[2, 4], [6, 8]]), res.V)) == as_lists(res.D)


def test_snf_identity_and_zero():
    res = smith_normal_form([[1, 0], [0, 1]])
    assert list(res.diagonal()) == [1, 1]
    res = smith_normal_form([[0, 0], [0, 0]])
    assert list(res.diagonal()) == [0, 0]


def test_snf_single_entries():
    assert list(smith_normal_form([[-7]]).diagonal()) == [7]
    assert list(smith_normal_form([[0, 12, 18]]).diagonal()) == [6]
    assert list(smith_normal_form([[4], [6]]).diagonal()) == [2]


def test_snf_coprime_diagonal_becomes_a_chain():
    # diag(2, 3) must become diag(1, 6)
    res = smith_normal_form([[2, 0], [0, 3]])
    assert list(res.diagonal()) == [1, 6]


def test_snf_rejects_ragged_input():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


def _scrambled_diagonal(rng, diag):
    """diag padded by up to two zero rows and columns, then mixed by random
    unimodular row and column additions."""
    rows, cols = len(diag) + rng.randint(0, 2), len(diag) + rng.randint(0, 2)
    M = [[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)]
         for i in range(rows)]
    for _ in range(10):
        i, j = rng.sample(range(rows), 2)
        q = rng.choice([-2, -1, 1, 2])
        M[i] = [a + q * b for a, b in zip(M[i], M[j])]
        i, j = rng.sample(range(cols), 2)
        q = rng.choice([-2, -1, 1, 2])
        for row in M:
            row[i] += q * row[j]
    return M


def test_snf_random_cross_check():
    rng = random.Random(7)
    inputs = []
    for _ in range(120):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        inputs.append([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    # diagonals that are not a divisibility chain: a pivot that does not
    # divide the rest of its block
    for diag in ([2, 3, 5], [4, 6], [6, 10, 15], [0, 2, 3]):
        inputs += [_scrambled_diagonal(rng, diag) for _ in range(10)]
    for M in inputs:
        rows, cols = len(M), len(M[0])
        res = smith_normal_form(M)
        # decomposition, unimodularity, chain
        assert as_lists(matrix_mul(matrix_mul(res.U, M), res.V)) == as_lists(res.D)
        assert abs(sympy.Matrix(res.U).det()) == abs(sympy.Matrix(res.V).det()) == 1
        diag = list(res.diagonal())
        assert all(d >= 0 for d in diag)
        nz = [d for d in diag if d]
        assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
        # independent diagonal
        S = sympy_snf(sympy.Matrix(M))
        k = min(rows, cols)
        theirs = [abs(int(S[i, i])) for i in range(min(S.rows, S.cols))]
        assert (diag + [0] * k)[:k] == (theirs + [0] * k)[:k]


# --- exponent vectors ----------------------------------------------------------------


def test_exponent_vector():
    pres = build_LH(1)
    ab = pres.alphabet
    w = parse_word(ab, "s1 r1 s1 t1^-1")
    vec = exponent_vector(w, len(pres.generators))
    by_name = dict(zip(pres.generators, vec))
    assert by_name["s1"] == 2 and by_name["r1"] == 1 and by_name["t1"] == -1


def test_relator_matrix_shape():
    pres = build_LH(2)
    M = relator_matrix(pres)
    assert len(M) == len(pres.relators)
    assert all(len(row) == len(pres.generators) for row in M)


# --- first homology -------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 11))
def test_lh_h1_is_z_plus_two_torsion_classes(n):
    h = h1_of_presentation(build_LH(n))
    assert (h.invariants.free_rank, h.invariants.torsion) == (1, (2, 2))
    assert expected_h1("lh", n) == AbelianInvariants(1, (2, 2))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", range(3, 7))
def test_sh_h1_parity_rule(n, k):
    h = h1_of_presentation(build_SH(n, k))
    want = (2, 2, 2) if (n % 2 == 1 and k % 2 == 0) else (2, 2)
    assert (h.invariants.free_rank, h.invariants.torsion) == (1, want)
    assert expected_h1("sh", n, k) == AbelianInvariants(1, want)


def test_vw_h1():
    for n in (1, 2, 3):
        h = h1_of_presentation(build_VW(n))
        assert (h.invariants.free_rank, h.invariants.torsion) == (0, (2, 2))


def test_expected_h1_validation():
    with pytest.raises(ValueError):
        expected_h1("sh", 1, 2)
    with pytest.raises(ValueError):
        expected_h1("nosuch", 1)
    with pytest.raises(ValueError):
        expected_h1("sh", 1)  # k required


def test_free_group_h1():
    # no relators: H1 is free of the generator rank
    pres = build_LH(1)
    empty = type(pres)(
        name=pres.name, n=pres.n, k=pres.k, generators=pres.generators,
        relators=(), tags=(), ids=(),
    )
    h = h1_of_presentation(empty)
    assert h.invariants.free_rank == len(pres.generators)
    assert h.invariants.torsion == ()


def test_h1_feeds_smith_normal_form_the_distinct_nonzero_rows(monkeypatch):
    seen = []

    def recording(mat):
        seen.append([tuple(row) for row in mat])
        return smith_normal_form(mat)

    monkeypatch.setattr(homology, "smith_normal_form", recording)
    pres = build_LH(20)
    h = h1_of_presentation(pres)
    assert (h.invariants.free_rank, h.invariants.torsion) == (1, (2, 2))
    (rows,) = seen
    assert len(relator_matrix(pres)) == 1893
    assert len(rows) == len(set(rows)) == 81
    assert all(any(row) for row in rows)


def _full_matrix_invariants(pres):
    g = len(pres.generators)
    nonzero = [d for d in smith_normal_form(relator_matrix(pres)).diagonal() if d]
    return g - len(nonzero), tuple(d for d in nonzero if d > 1)


def test_h1_matches_smith_normal_form_of_the_full_relator_matrix():
    cases = [build_LH(n) for n in range(1, 13)]
    cases += [build_SH(n, k) for n in range(1, 7) for k in range(3, 7)]
    cases += [build(n) for build in (build_VW, build_PH) for n in (1, 2, 3)]
    for pres in cases:
        h = h1_of_presentation(pres)
        got = (h.invariants.free_rank, h.invariants.torsion)
        assert got == _full_matrix_invariants(pres), (pres.name, pres.n, pres.k)


# --- named class orders -----------------------------------------------------------------


def test_lh_class_orders():
    for n in (1, 2, 3):
        rep = h1_generators_report(build_LH(n))
        orders = {c["class"]: c["order"] for c in rep["classes"]}
        assert orders == {"s1": 0, "r1": 2, "X": 2}  # 0 marks infinite order
        assert rep["torsion_generated"] is True


def test_sh_class_orders_odd_k_match_the_two_class_picture():
    rep = h1_generators_report(build_SH(2, 3))
    orders = {c["class"]: c["order"] for c in rep["classes"]}
    assert orders == {"s1": 0, "r1": 2, "X": 2}


def test_sh_class_orders_even_k_depend_on_n_parity():
    # odd n: the extra class is genuinely new torsion
    rep = h1_generators_report(build_SH(1, 4))
    orders = {c["class"]: c["order"] for c in rep["classes"]}
    assert orders == {"s1": 0, "r1": 2, "X": 2, "Y": 2}
    assert rep["torsion_generated"] is True
    # even n: the candidate X class collapses
    rep = h1_generators_report(build_SH(2, 4))
    orders = {c["class"]: c["order"] for c in rep["classes"]}
    assert orders == {"s1": 0, "r1": 2, "X": 1, "Y": 2}


def test_torsion_not_generated_by_the_named_classes():
    # an extra generator u of order 2 adds torsion that no named class reaches
    d = build_LH(1).to_json_dict()
    d["generators"].append("u")
    for key, value in (("relators", "u u"), ("tags", "(u)"), ("ids", "(u)")):
        d[key].append(value)
    rep = h1_generators_report(presentation_from_json(d))
    assert (rep["free_rank"], rep["torsion"]) == (1, [2, 2, 2])
    assert rep["torsion_generated"] is False


def test_class_coords_kill_relators():
    pres = build_LH(2)
    h = h1_of_presentation(pres)
    diag = list(h.snf.diagonal())
    g = len(pres.generators)
    for rel in pres.relators:
        coords = h.class_coords(exponent_vector(rel, g))
        for d, c in zip(diag, coords):
            if d:
                assert c % d == 0
        # beyond the diagonal the quotient is free: relators map to zero there
        for c in coords[len(diag):]:
            assert c == 0


def test_class_order_of_relator_is_one():
    pres = build_LH(1)
    h = h1_of_presentation(pres)
    g = len(pres.generators)
    for rel in pres.relators:
        assert h.class_order(exponent_vector(rel, g)) == 1


# --- metamorphic invariance --------------------------------------------------------------


def _invariants(pres):
    h = h1_of_presentation(pres)
    return (h.invariants.free_rank, h.invariants.torsion)


def test_h1_is_stable_under_relator_shuffles_inversions_conjugations():
    rng = random.Random(13)
    for pres in (build_LH(2), build_SH(1, 4)):
        base = _invariants(pres)
        ab = pres.alphabet
        relators = list(pres.relators)
        for _ in range(6):
            variant = list(relators)
            rng.shuffle(variant)
            variant = [w.inverse() if rng.random() < 0.5 else w for w in variant]
            # conjugating a relator never changes the normal closure
            conj = parse_word(ab, rng.choice(pres.generators))
            variant = [conj * w * conj.inverse() if rng.random() < 0.5 else w for w in variant]
            mutated = type(pres)(
                name=pres.name, n=pres.n, k=pres.k, generators=pres.generators,
                relators=tuple(variant),
                tags=tuple("(m)" for _ in variant),
                ids=tuple(f"(m){i}" for i in range(len(variant))),
            )
            assert _invariants(mutated) == base
