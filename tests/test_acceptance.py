"""Acceptance checks: one test per shipping requirement.

Each test pins the observable behavior and asserts the wall-clock budget the
feature has to meet on a stock machine.  Frozen numbers (subgroup orders,
homology invariants, closure levels, normal-form anchors) were computed with
an independent brute-force oracle before this package was written.
"""

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from hilden.braids import (
    braid_word,
    braids_equal,
    build_generator,
    delta,
    full_twist,
    normal_form,
)
from hilden.cli import main
from hilden.homology import matrix_mul, smith_normal_form
from hilden.perms import (
    Pi_to_Snp1,
    enumerate_subgroup,
    generated_subgroup,
    psi_of_braid_word,
)
from hilden.presentations import (
    build_LH,
    build_PH,
    build_SH,
    verify,
    verify_lemma_identities,
)
from hilden.spheremcg import (
    artin_action,
    compose_autos,
    induced_perm_of_action,
    sphere_trivial,
)
from hilden.words import Alphabet, reduce as reduce_word


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def timed(budget_seconds):
    """Context manager asserting the block finishes inside the budget."""

    class _Timer:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.monotonic() - self.t0
            if exc == (None, None, None):
                assert self.elapsed < budget_seconds, (
                    f"took {self.elapsed:.1f}s, budget {budget_seconds}s"
                )
            return False

    return _Timer()


# 1. homology sweep of the liftable family through the CLI ---------------------------


def test_01_cli_h1_sweep_of_the_liftable_family():
    with timed(5):
        code, out, _ = run_cli(
            ["h1", "--group", "lh", "--n", "1..10", "--format", "json"]
        )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 10
    assert all(r["free_rank"] == 1 and r["torsion"] == [2, 2] for r in rows)


# 2. homology grid of the handlebody family through the CLI --------------------------


def test_02_cli_h1_grid_of_the_handlebody_family():
    with timed(10):
        code, out, _ = run_cli(
            ["h1", "--group", "sh", "--n", "1..6", "--k", "3..6", "--format", "json"]
        )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 24
    for r in rows:
        n = int(r["id"].split("n=")[1].split(",")[0])
        k = int(r["id"].split("k=")[1].rstrip("]"))
        want = [2, 2, 2] if (n % 2 == 1 and k % 2 == 0) else [2, 2]
        assert r["status"] == "ok" and r["torsion"] == want, r["id"]


# 3. every liftable-family relator verifies ------------------------------------------


def test_03_liftable_family_relators_all_verify():
    with timed(600):
        for n in (1, 2, 3):
            rep = verify(build_LH(n))
            assert rep.ok, [r.id for r in rep.rows if r.status != "ok"]
            for row in rep.rows:
                want = "sphere_mcg" if row.tag in ("(4)", "(5)") else "braid"
                assert row.closes_at == want, (n, row.id)


# 4. the generator dictionary satisfies the defining braid identities ----------------


def _zeta_word(n):
    w = braid_word(2 * n + 2, [])
    for i in range(1, n + 1):
        w = w * build_generator("r", n, i)
    for i in range(n, 0, -1):
        w = w * build_generator("s", n, i)
    return w * build_generator("t", n, 1)


def test_04_dictionary_identities_hold_at_the_braid_level():
    with timed(60):
        for n in (1, 2, 3, 4):
            m = 2 * n + 2
            t_prod = braid_word(m, [])
            for i in range(1, n + 2):
                t_prod = t_prod * build_generator("t", n, i)
            rho = build_generator("rho", n)
            assert braids_equal(rho * rho, t_prod)

            z = build_generator("z", n)
            assert braids_equal(_zeta_word(n), z)

            stairs = braid_word(m, [])
            for a in range(1, n + 1):
                for b in range(a, 0, -1):
                    stairs = stairs * build_generator("s", n, b)
            assert braids_equal(t_prod * stairs * stairs, full_twist(m))

            wz = braid_word(m, [])
            for j in range(n + 1, 1, -1):
                wz = wz * build_generator("x", n, 1, j).inverse()
            for j in range(2, n + 2):
                wz = wz * build_generator("p", n, 1, j)
            wz = wz * build_generator("t", n, 1)
            assert braids_equal(wz, z)

            wf = t_prod
            for j in range(2, n + 2):
                for i in range(1, j):
                    wf = wf * build_generator("p", n, i, j)
            assert braids_equal(wf, full_twist(m))


# 5. every pure-family relator verifies ----------------------------------------------


def test_05_pure_family_relators_all_verify():
    with timed(600):
        for n in (1, 2):
            rep = verify(build_PH(n))
            assert rep.ok, [r.id for r in rep.rows if r.status != "ok"]
            sphere = sorted(r.tag for r in rep.rows if r.closes_at == "sphere_mcg")
            assert sphere == ["(F)", "(Z)"]


# 6. the derived rewriting identities hold -------------------------------------------


def test_06_rewriting_identities_close_at_the_braid_level():
    with timed(600):
        for n, rows in ((1, 38), (2, 152), (3, 396)):
            rep = verify_lemma_identities(n)
            assert rep.ok and len(rep.rows) == rows
            assert all(r.closes_at == "braid" for r in rep.rows)


# 7. the permutation picture matches the closed-form orders --------------------------


def test_07_subgroup_orders_quotients_and_generation():
    import math

    with timed(30):
        for n in (1, 2, 3):
            f = math.factorial(n + 1)
            want = {
                "W": 2 * f * f,
                "V": 2 ** (n + 1) * f,
                "VW": 2 * f,
                "S^oe": f,
                "S^oxS^e": f * f,
            }
            for label, order in want.items():
                assert enumerate_subgroup(label, n).order == order, (label, n)
            # block collapse is a bijection on the parity-preserving part
            elements = enumerate_subgroup("S^oe", n).elements
            assert len({Pi_to_Snp1(p) for p in elements}) == f
            # the strand images of the named generators generate the full image
            m = 2 * n + 2
            gens = [
                psi_of_braid_word(build_generator("s", n, i).letters, m)
                for i in range(1, n + 1)
            ]
            gens.append(psi_of_braid_word(build_generator("rho", n).letters, m))
            assert generated_subgroup(gens) == enumerate_subgroup("VW", n).elements


# 8. the handlebody family verifies and its global word equals the sphere relator ----


def test_08_handlebody_family_verifies_and_zeta_maps_onto_the_sphere_relator():
    with timed(600):
        for n in (1, 2):
            for k in (3, 4):
                rep = verify(build_SH(n, k))
                assert rep.ok, (n, k, [r.id for r in rep.rows if r.status != "ok"])
        for n in (1, 2, 3):
            m = 2 * n + 2
            assert braids_equal(_zeta_word(n), build_generator("z", n))
            assert sphere_trivial(_zeta_word(n))
            # the reversed-order variant of the half-twist product identity
            w = braid_word(m, [])
            for i in range(n + 1, 0, -1):
                w = w * build_generator("t", n, i)
            blocks = braid_word(m, [])
            for j in range(1, n + 1):
                for b in range(n, j - 1, -1):
                    blocks = blocks * build_generator("s", n, b)
            assert braids_equal(w * blocks * blocks, full_twist(m))


# 9. randomized property battery ------------------------------------------------------


def test_09_property_battery():
    rng = random.Random(20260814)
    with timed(120):
        # free reduction is idempotent
        ab = Alphabet(("a", "b", "c"))
        for _ in range(10_000):
            ls = [rng.choice([1, 2, 3, -1, -2, -3]) for _ in range(rng.randint(0, 16))]
            w = reduce_word(ab, ls)
            assert reduce_word(ab, w.letters) == w

        # normal form is canonical under relator rewrites
        bases = []
        for _ in range(400):
            m = rng.randint(3, 5)
            word = [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(rng.randint(4, 18))]
            bases.append((m, word, normal_form(braid_word(m, word))))
        checks = 0
        while checks < 10_000:
            m, word, nf = bases[rng.randrange(len(bases))]
            variant = list(word)
            i = rng.randint(1, m - 2)
            pos = rng.randint(0, len(variant))
            variant[pos:pos] = rng.choice(
                [[i, -i], [-i, i], [i, i + 1, i, -i - 1, -i, -i - 1]]
            )
            assert normal_form(braid_word(m, variant)) == nf
            checks += 1

        # the full twist is central
        for m in (3, 4, 5, 6):
            ft = full_twist(m)
            for _ in range(40):
                b = braid_word(
                    m, [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(10)]
                )
                assert braids_equal(b * ft, ft * b)

        # the sphere action is a homomorphism consistent with strand permutations
        for m in (4, 5, 6):
            for _ in range(60):
                a = braid_word(m, [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(6)])
                b = braid_word(m, [rng.choice([1, -1]) * rng.randint(1, m - 1) for _ in range(6)])
                assert artin_action(a * b) == compose_autos(artin_action(a), artin_action(b))
                assert induced_perm_of_action(artin_action(a)) == psi_of_braid_word(a.letters, m)

        # integer normal form: exact decomposition, unimodular transforms,
        # diagonal agreement with an independent implementation
        for _ in range(1_000):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            res = smith_normal_form(M)
            assert [list(r) for r in matrix_mul(matrix_mul(res.U, M), res.V)] == [
                list(r) for r in res.D
            ]
            assert abs(sympy.Matrix(res.U).det()) == abs(sympy.Matrix(res.V).det()) == 1
            diag = list(res.diagonal())
            S = sympy_snf(sympy.Matrix(M))
            theirs = [abs(int(S[i, i])) for i in range(min(S.rows, S.cols))]
            k = min(rows, cols)
            assert (diag + [0] * k)[:k] == (theirs + [0] * k)[:k]
