"""Integer Smith normal form and first homology of the presentations.

``smith_normal_form`` returns D = U * M * V with U, V unimodular (built
from swaps, negations and additions of a multiple of one line to another)
and D diagonal with nonnegative entries in a divisibility chain
d_1 | d_2 | ... .

First homology of a presentation is the cokernel of the relator exponent
matrix.  Coordinates of a named class in the diagonalized quotient come from
right-multiplying its exponent vector by V: the map v -> v V carries the
relator lattice onto the row lattice of D, so component i lives in Z/d_i
(or Z when d_i = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .presentations import Presentation
from .words import Word


@dataclass(frozen=True)
class SNFResult:
    D: tuple[tuple[int, ...], ...]
    U: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]

    def diagonal(self) -> tuple[int, ...]:
        k = min(len(self.D), len(self.D[0]) if self.D else 0)
        return tuple(self.D[i][i] for i in range(k))


def smith_normal_form(mat: list[list[int]]) -> SNFResult:
    r = len(mat)
    c = len(mat[0]) if r else 0
    for row in mat:
        if len(row) != c:
            raise ValueError("ragged matrix")
    A = [[int(x) for x in row] for row in mat]
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    V = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_swap(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]
            U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        if i != j:
            for row in A:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def row_add(dst, src, q):
        if q:
            Ad, As = A[dst], A[src]
            for x in range(c):
                Ad[x] += q * As[x]
            Ud, Us = U[dst], U[src]
            for x in range(r):
                Ud[x] += q * Us[x]

    def col_add(dst, src, q):
        if q:
            for row in A:
                row[dst] += q * row[src]
            for row in V:
                row[dst] += q * row[src]

    def row_negate(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    def find_pivot(t):
        best = None
        for i in range(t, r):
            Ai = A[i]
            for j in range(t, c):
                v = Ai[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
                    if best[0] == 1:
                        return best
        return best

    def clear_lines(t) -> bool:
        """Clear column t and row t by the pivot A[t][t]; False when a
        remainder smaller than the pivot is left."""
        p = A[t][t]
        for i in range(t + 1, r):
            if A[i][t]:
                row_add(i, t, -(A[i][t] // p))
                if A[i][t]:
                    return False
        for j in range(t + 1, c):
            if A[t][j]:
                col_add(j, t, -(A[t][j] // p))
                if A[t][j]:
                    return False
        return True

    # one pivot loop: t advances only once the pivot divides its whole block,
    # so the diagonal comes out as the chain d_1 | d_2 | ...
    t = 0
    while t < min(r, c):
        best = find_pivot(t)
        if best is None:
            break
        _, pi, pj = best
        row_swap(t, pi)
        col_swap(t, pj)
        if A[t][t] < 0:
            row_negate(t)
        if not clear_lines(t):
            continue  # pivot again on the smaller remainder
        p = A[t][t]
        if p > 1:
            bad = next((i for i in range(t + 1, r)
                        if any(x % p for x in A[i][t + 1:])), None)
            if bad is not None:
                # row t picks up an entry p does not divide; clearing it
                # leaves a remainder smaller than p, so the pivot shrinks
                row_add(t, bad, 1)
                continue
        t += 1

    diag = [A[i][i] for i in range(min(r, c))]
    for i in range(len(diag) - 1):
        if diag[i + 1] and (not diag[i] or diag[i + 1] % diag[i]):
            raise ArithmeticError(f"Smith normal form: d_{i + 1} = {diag[i]} does not "
                                  f"divide d_{i + 2} = {diag[i + 1]}")
    return SNFResult(
        tuple(tuple(row) for row in A),
        tuple(tuple(row) for row in U),
        tuple(tuple(row) for row in V),
    )


def matrix_mul(a, b):
    if not a:
        return []
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = []
    for row in a:
        acc = [0] * cols
        for k, v in enumerate(row):
            if v:
                bk = b[k]
                for j in range(cols):
                    acc[j] += v * bk[j]
        out.append(acc)
    return out


# --- presentation homology ---------------------------------------------------

@dataclass(frozen=True)
class AbelianInvariants:
    free_rank: int
    torsion: tuple[int, ...]  # entries > 1, in divisibility order


def exponent_vector(w: Word, ngens: int) -> list[int]:
    v = [0] * ngens
    for ch in w.letters:
        v[abs(ch) - 1] += 1 if ch > 0 else -1
    return v


def relator_matrix(pres: Presentation) -> list[list[int]]:
    g = len(pres.generators)
    return [exponent_vector(w, g) for w in pres.relators]


@dataclass(frozen=True)
class H1Result:
    """H1 of a presentation; ``snf`` is over its distinct nonzero relator rows."""

    invariants: AbelianInvariants
    snf: SNFResult
    ngens: int

    def class_coords(self, v: list[int]) -> list[int]:
        """Coordinates of an exponent vector in the diagonalized quotient."""
        return matrix_mul([v], self.snf.V)[0]

    def class_order(self, v: list[int]) -> int:
        """Order of the class in H1 (0 means infinite)."""
        coords = self.class_coords(v)
        diag = self.snf.diagonal()
        order = 1
        for j in range(self.ngens):
            d = diag[j] if j < len(diag) else 0
            cj = coords[j]
            if d == 0:
                if cj:
                    return 0
            elif cj % d:
                dj = d // gcd(d, cj % d)
                order = order * dj // gcd(order, dj)
        return order


def h1_of_presentation(pres: Presentation) -> H1Result:
    """First homology of ``pres``.

    Zero rows and repeated rows of the relator matrix leave its cokernel
    unchanged, so ``snf`` is the Smith normal form of the distinct nonzero
    rows in first-occurrence order (``U`` is square in their count).
    """
    g = len(pres.generators)
    rows = list(dict.fromkeys(tuple(v) for v in relator_matrix(pres) if any(v)))
    snf = smith_normal_form(rows or [[0] * g])
    diag = snf.diagonal()
    nonzero = [d for d in diag if d]
    inv = AbelianInvariants(g - len(nonzero), tuple(d for d in nonzero if d > 1))
    return H1Result(inv, snf, g)


def expected_h1(name: str, n: int, k: int | None = None) -> AbelianInvariants:
    """The closed forms the sweeps are checked against."""
    if name == "lh":
        return AbelianInvariants(1, (2, 2))
    if name == "sh":
        if k is None or k < 3:
            raise ValueError("sh closed form needs k >= 3")
        if n % 2 == 1 and k % 2 == 0:
            return AbelianInvariants(1, (2, 2, 2))
        return AbelianInvariants(1, (2, 2))
    raise ValueError(f"no closed form recorded for {name!r}")


def _named_class_vectors(pres: Presentation) -> list[tuple[str, str, list[int]]]:
    """(label, human word, exponent vector) of the generating classes named
    by the homology theorems."""
    g = len(pres.generators)
    alph = pres.alphabet

    def vec(pairs: list[tuple[str, int]]) -> list[int]:
        v = [0] * g
        for name, e in pairs:
            v[alph.index(name) - 1] += e
        return v

    n = pres.n
    half = n * (n + 1) // 2
    classes = [("s1", "s1", vec([("s1", 1)])),
               ("r1", "r1", vec([("r1", 1)]))]
    if pres.name == "lh" or (pres.name == "sh" and pres.k is not None and pres.k % 2 == 1):
        classes.append(("X", f"rho (r1 s1)^{half}",
                        vec([("rho", 1), ("r1", half), ("s1", half)])))
    elif pres.name == "sh":
        classes.append(("X", f"t1 s1^{n}", vec([("t1", 1), ("s1", n)])))
        classes.append(("Y", f"rho s1^{half}", vec([("rho", 1), ("s1", half)])))
    else:
        raise ValueError(f"no named classes recorded for {pres.name!r}")
    return classes


def h1_generators_report(pres: Presentation) -> dict:
    """Orders and coordinates of the theorem-named classes, plus a check that
    the finite-order ones generate the whole torsion subgroup (available when
    every torsion invariant is 2)."""
    res = h1_of_presentation(pres)
    diag = res.snf.diagonal()
    torsion_pos = [j for j, d in enumerate(diag) if d > 1]
    classes = []
    mod2_rows = []
    for label, text, v in _named_class_vectors(pres):
        coords = res.class_coords(v)
        order = res.class_order(v)
        classes.append({"class": label, "word": text, "order": order,
                        "coords": coords})
        if order not in (0, 1):
            mod2_rows.append([coords[j] % diag[j] for j in torsion_pos])
    torsion_generated: bool | None = None
    if all(diag[j] == 2 for j in torsion_pos):
        # U and V stay invertible mod 2, so the GF(2) rank of the rows is the
        # number of odd Smith invariants
        odd = sum(d % 2 for d in smith_normal_form(mod2_rows).diagonal())
        torsion_generated = odd == len(torsion_pos)
    return {
        "name": pres.name, "n": pres.n, "k": pres.k,
        "free_rank": res.invariants.free_rank,
        "torsion": list(res.invariants.torsion),
        "classes": classes,
        "torsion_generated": torsion_generated,
    }

