"""Seeded inputs and ground truth for the benchmark workloads.

Nothing here imports ``hilden``: every expected answer comes either from how
an input was built or from a closed form, so the benchmark checks the
program against knowledge it does not share with it.

A command is a dict with the CLI argument list (``argv``) and what its report
must say (``expect``); ``check`` compares one report against it.
"""

from __future__ import annotations

import math
import random

JOBS = 2  # the reference machine's nproc; pinned so os.cpu_count() never decides
BUDGET = 10**6  # the CLI's default sphere-oracle letter budget, pinned explicitly
BAD_STATUSES = ("FAILED", "UNRESOLVED", "mismatch")

WORKLOADS = ("batch-verify", "interactive", "algebra")


def pinned(argv: list[str]) -> list[str]:
    return argv + ["--jobs", str(JOBS), "--budget", str(BUDGET), "--format", "json"]


# --- closed forms ---------------------------------------------------------------

def lh_relators(n: int) -> int:
    return (2 * (n - 1) * (n - 2) + 2 * n * (n - 1) + n * (n + 1) // 2 + n
            + (n + 1) + 5 * (n - 1) + 5 * n + 3)


# Relator counts of the other families, recorded from the builders at the seed
# commit; the vw report has one extra row for the order of the image.
_FROZEN_ROWS = {
    ("ph", 3, None): 194,
    ("intermediate-lh", 3, None): 292,
    ("prop-lh", 1, None): 22,
    ("prop-lh", 2, None): 58,
    ("prop-lh", 4, None): 184,
    ("sh", 1, 3): 16,
    ("sh", 1, 4): 16,
    ("sh", 1, 5): 16,
    ("sh", 2, 3): 34,
    ("sh", 2, 4): 34,
    ("sh", 2, 5): 34,
    ("sh", 5, 5): 142,
    ("vw", 1, None): 4,
    ("vw", 2, None): 7,
    ("vw", 3, None): 11,
    ("lemmas", 3, None): 396,
}


def verify_rows(group: str, n: int, k: int | None = None) -> int:
    if group == "lh":
        return lh_relators(n)
    return _FROZEN_ROWS[(group, n, k)]


def h1_invariants(group: str, n: int, k: int | None) -> tuple[int, list[int]]:
    """(free rank, torsion) of H1: lh gives Z + (Z/2)^2; sh adds a third Z/2
    exactly when n is odd and k is even."""
    if group == "sh" and n % 2 == 1 and k % 2 == 0:
        return 1, [2, 2, 2]
    return 1, [2, 2]


def subgroup_orders(n: int) -> dict[str, int]:
    f = math.factorial(n + 1)
    return {"W": 2 * f * f, "V": 2 ** (n + 1) * f, "VW": 2 * f,
            "S^oe": f, "S^oxS^e": f * f}


# --- braid words and their permutations -------------------------------------------

def psi(letters, m: int) -> tuple[int, ...]:
    """Image in S_m (0-based images) of a braid word: each letter +-k acts as
    the transposition (k, k+1), the leftmost letter last."""
    acc = list(range(m))
    for c in letters:
        i = abs(c) - 1
        acc[i], acc[i + 1] = acc[i + 1], acc[i]
    return tuple(acc)


def compose(f, g) -> tuple[int, ...]:
    """f after g."""
    return tuple(f[x] for x in g)


def cycles(p) -> str:
    """Disjoint cycles, 1-based, each started at its least point; ``id`` for
    the identity."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            continue
        cyc, x = [start], p[start]
        seen[start] = True
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append("(" + " ".join(str(v + 1) for v in cyc) + ")")
    return "".join(out) or "id"


def parse_cycles(text: str, m: int) -> tuple[int, ...]:
    img = list(range(m))
    if text.strip() != "id":
        for grp in text.strip()[1:-1].split(")("):
            pts = [int(t) - 1 for t in grp.split()]
            for a, b in zip(pts, pts[1:] + pts[:1]):
                img[a] = b
    return tuple(img)


def inversions(p) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def text(letters) -> str:
    return " ".join(f"g{c}" if c > 0 else f"G{-c}" for c in letters) or "1"


def free_reduce(letters) -> list[int]:
    out: list[int] = []
    for c in letters:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return out


def random_word(rng: random.Random, m: int, length: int) -> list[int]:
    out: list[int] = []
    while len(out) < length:
        c = rng.choice((1, -1)) * rng.randint(1, m - 1)
        if not out or out[-1] != -c:
            out.append(c)
    return out


def far_commute(rng: random.Random, w: list[int], moves: int) -> list[int]:
    """Apply up to ``moves`` swaps of adjacent letters on strands >= 2 apart."""
    w = list(w)
    for _ in range(moves):
        spots = [i for i in range(len(w) - 1) if abs(abs(w[i]) - abs(w[i + 1])) >= 2]
        if not spots:
            break
        i = rng.choice(spots)
        w[i], w[i + 1] = w[i + 1], w[i]
    return w


def braid_equal_pair(rng: random.Random, m: int) -> tuple[list[int], list[int]]:
    """Equal braids: cancelling pairs x x^-1 are inserted, then far
    commutations move letters between them so free reduction cannot undo
    the insertions."""
    a = random_word(rng, m, rng.randint(10, 22))
    b = list(a)
    for _ in range(rng.randint(2, 4)):
        x = rng.choice((1, -1)) * rng.randint(1, m - 1)
        i = rng.randint(0, len(b))
        b[i:i] = [x, -x]
    return a, far_commute(rng, b, 3 * len(b))


def sphere_relator(m: int) -> list[int]:
    """g1 .. g_{m-1} g_{m-1} .. g1: the loop of the first point around all
    others, trivial on the sphere but not as a braid."""
    return list(range(1, m)) + list(range(m - 1, 0, -1))


def sphere_only_pair(rng: random.Random, m: int) -> tuple[list[int], list[int]]:
    """Equal on the marked sphere, different braids: a conjugate of the
    sphere relator (or its inverse) is inserted, which shifts the exponent
    sum by 2(m - 1)."""
    a = random_word(rng, m, rng.randint(10, 22))
    h = random_word(rng, m, rng.randint(0, 3))
    z = sphere_relator(m)
    if rng.random() < 0.5:
        z = [-c for c in reversed(z)]
    i = rng.randint(0, len(a))
    b = a[:i] + h + z + [-c for c in reversed(h)] + a[i:]
    return a, far_commute(rng, free_reduce(b), 4)


def unequal_pair(rng: random.Random, m: int) -> tuple[list[int], list[int]]:
    """Different classes even on the sphere: one extra letter multiplies the
    permutation by a transposition, and the permutation is an invariant of
    both the braid and the marked-sphere class."""
    a = random_word(rng, m, rng.randint(10, 22))
    b = list(a)
    i = rng.randint(0, len(b))
    b[i:i] = [rng.choice((1, -1)) * rng.randint(1, m - 1)]
    b = far_commute(rng, free_reduce(b), 4)
    if psi(a, m) == psi(b, m):
        raise AssertionError("unequal pair with equal permutations")
    return a, b


PAIR_BUILDERS = {"braid": braid_equal_pair, "sphere": sphere_only_pair,
                 "unequal": unequal_pair}


def _cat(a: list[int], b: list[int]) -> list[int]:
    i = 0
    while a and i < len(b) and a[-1] == -b[i]:
        a.pop()
        i += 1
    a.extend(b[i:])
    return a


def _inv(w: list[int]) -> list[int]:
    return [-c for c in reversed(w)]


def sphere_image_exceeds(letters, m: int, cap: int) -> bool:
    """Does the total image length pass ``cap`` while a braid word acts on
    the free group of the m-punctured sphere (sigma_i: x_i -> x_i x_{i+1}
    x_i^-1, x_{i+1} -> x_i, with x_m = (x_1 .. x_{m-1})^-1)?  This sizes the
    work of the sphere oracle for a pair; it never decides a label."""
    rank = m - 1
    imgs = [[i + 1] for i in range(rank)]
    for c in letters:
        j = abs(c) - 1
        if j < rank - 1:
            if c > 0:
                old = imgs[j]
                imgs[j] = _cat(_cat(list(old), imgs[j + 1]), _inv(old))
                imgs[j + 1] = old
            else:
                old = imgs[j + 1]
                imgs[j + 1] = _cat(_cat(_inv(old), imgs[j]), old)
                imgs[j] = old
        else:
            prod: list[int] = []
            for w in imgs:
                prod = _cat(prod, w)
            if c > 0:
                old = imgs[j]
                imgs[j] = _cat(_cat(list(old), _inv(prod)), _inv(old))
            else:
                imgs[j] = _inv(prod)
        if sum(len(w) for w in imgs) > cap:
            return True
    return False


# --- workloads --------------------------------------------------------------------

# Pairs whose sphere image would pass this many letters are drawn again.  The
# oracle's cost grows with the image (and quadratically in its conjugator
# search), so an uncapped draw lets one pair in a few hundred take seconds and
# the work of a pass would depend on the seed.  Up to the cap the growth is
# still exercised: the largest pairs cost tens of times the median one.
SPHERE_IMAGE_CAP = 1000
STRANDS = (4, 6, 8)
PAIRS_PER_CELL = 30  # braid eq pairs per (strand count, label)
NF_PER_M = 10
LIFTABLE_PER_M = 10


def _verify(group: str, n: int, k: int | None = None) -> dict:
    argv = ["verify", "--group", group, "--n", str(n)]
    if k is not None:
        argv += ["--k", str(k)]
    return {"argv": pinned(argv), "expect": {"kind": "verify", "rows": verify_rows(group, n, k)}}


def _h1(group: str, n: int, ks: range | None = None) -> dict:
    argv = ["h1", "--group", group, "--n", str(n)]
    if ks is None:
        cases = [(f"{group}[n={n}]", None)]
    else:
        argv += ["--k", f"{ks[0]}..{ks[-1]}"]
        cases = [(f"{group}[n={n},k={k}]", k) for k in ks]
    rows = [(rid, *h1_invariants(group, n, k)) for rid, k in cases]
    return {"argv": pinned(argv), "expect": {"kind": "h1", "rows": rows}}


def _subgroups(n: int) -> dict:
    return {"argv": pinned(["subgroups", "--n", str(n)]),
            "expect": {"kind": "subgroups", "orders": subgroup_orders(n)}}


def _eq(rng: random.Random, m: int, label: str) -> dict:
    while True:
        a, b = PAIR_BUILDERS[label](rng, m)
        if label == "braid" or not sphere_image_exceeds(free_reduce(a + _inv(b)), m,
                                                        SPHERE_IMAGE_CAP):
            break
    argv = ["braid", "eq", "--mcg", "--strands", str(m), text(a), text(b)]
    return {"argv": pinned(argv), "expect": {"kind": "eq", "label": label, "m": m, "words": [a, b]}}


def _nf(rng: random.Random, m: int) -> dict:
    a, b = braid_equal_pair(rng, m)
    return {"argv": pinned(["braid", "nf", "--strands", str(m), text(a), text(b)]),
            "expect": {"kind": "nf", "m": m, "words": [a, b]}}


def _block_word(rng: random.Random, n: int, length: int) -> list[int]:
    """A word in the block generators s_i, t_i and rho (or their inverses),
    spelled in band generators; its permutation maps blocks to blocks."""
    out: list[int] = []
    for _ in range(length):
        kind = rng.choice("str")
        if kind == "s":
            i = rng.randint(1, n)
            w = [2 * i, 2 * i + 1, 2 * i - 1, 2 * i]
        elif kind == "t":
            i = rng.randint(1, n + 1)
            w = [2 * i - 1, 2 * i - 1]
        else:
            w = list(range(1, 2 * n + 2, 2))
        out += w if rng.random() < 0.5 else _inv(w)
    return free_reduce(out)


def _liftable(rng: random.Random, m: int) -> dict:
    n = (m - 2) // 2
    if rng.random() < 0.5:
        w = _block_word(rng, n, rng.randint(3, 6))
    else:
        w = random_word(rng, m, rng.randint(10, 22))
    return {"argv": pinned(["liftable", "--n", str(n), text(w)]),
            "expect": {"kind": "liftable", "m": m, "word": w}}


def commands(workload: str, seed: int) -> list[dict]:
    """The fixed command list of one pass; the seed draws the braid words and
    the order of the commands."""
    rng = random.Random(seed)
    if workload == "batch-verify":
        cmds = [_verify("ph", 3), _verify("intermediate-lh", 3), _verify("prop-lh", 4),
                _verify("lh", 8), _verify("sh", 5, 5), _verify("lemmas", 3)]
    elif workload == "interactive":
        cmds = [_verify("lh", n) for n in (1, 2, 3)]
        cmds += [_verify("sh", n, k) for n in (1, 2) for k in (3, 4, 5)]
        cmds += [_verify("vw", n) for n in (1, 2, 3)]
        cmds += [_verify("prop-lh", n) for n in (1, 2)]
        for m in STRANDS:
            cmds += [_eq(rng, m, label) for label in PAIR_BUILDERS for _ in range(PAIRS_PER_CELL)]
            cmds += [_nf(rng, m) for _ in range(NF_PER_M)]
            cmds += [_liftable(rng, m) for _ in range(LIFTABLE_PER_M)]
    elif workload == "algebra":
        # the sweeps h1 lh n=1..20 and h1 sh n=1..6 k=3..6, one command per n,
        # so that the latency percentiles are taken over more than three commands
        cmds = [_h1("lh", n) for n in range(1, 21)]
        cmds += [_h1("sh", n, range(3, 7)) for n in range(1, 7)]
        cmds.append(_subgroups(3))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(cmds)
    return cmds


# --- checking one report ------------------------------------------------------------

def expected_rows(expect: dict) -> int:
    kind = expect["kind"]
    if kind == "verify":
        return expect["rows"]
    if kind == "h1":
        return len(expect["rows"])
    if kind == "subgroups":
        return len(expect["orders"])
    if kind == "nf":
        return len(expect["words"])
    return 1


def _nf_error(m: int, letters: list[int], row: dict) -> str | None:
    """A normal form delta^p A_1 .. A_k must keep the exponent sum (each A_t
    contributes its inversion count, delta m(m-1)/2) and the permutation."""
    p = row["power"]
    factors = [] if row["factors"] == "-" else [parse_cycles(f, m) for f in row["factors"].split("; ")]
    if row["canonical_length"] != len(factors):
        return "canonical_length disagrees with the factor list"
    expsum = sum(1 if c > 0 else -1 for c in letters)
    if p * m * (m - 1) // 2 + sum(inversions(f) for f in factors) != expsum:
        return "normal form changes the exponent sum"
    acc = tuple(range(m - 1, -1, -1)) if p % 2 else tuple(range(m))
    for f in factors:
        acc = compose(acc, f)
    if acc != psi(letters, m):
        return "normal form changes the permutation"
    return None


def check(expect: dict, code: int, report: dict | None) -> tuple[int, int, str | None]:
    """(rows attempted, rows wrong or FAILED/UNRESOLVED, first error) for one
    command's exit code and JSON report."""
    want = expected_rows(expect)
    kind = expect["kind"]
    ok_code = 1 if kind == "eq" and expect["label"] == "unequal" else 0
    if report is None or code != ok_code:
        return want, want, f"exit code {code}, expected {ok_code}"
    rows = report["rows"]
    if len(rows) != want:
        return want, want, f"{len(rows)} rows, expected {want}"
    bad, error = 0, None

    def wrong(msg: str) -> None:
        nonlocal bad, error
        bad += 1
        error = error or msg

    if kind == "eq":
        row = rows[0]
        got = (row["status"], row["closes_at"], row["equal"])
        want_row = {"braid": ("ok", "braid", True), "sphere": ("ok", "sphere_mcg", True),
                    "unequal": ("mismatch", None, False)}[expect["label"]]
        if got != want_row:
            wrong(f"braid eq {expect['label']} pair reported {got}")
        return want, bad, error
    for row in rows:
        if row.get("status") in BAD_STATUSES:
            wrong(f"row {row.get('id')} is {row['status']}")
    if kind == "h1":
        for row, (rid, free, torsion) in zip(rows, expect["rows"]):
            if (row["id"], row["free_rank"], row["torsion"]) != (rid, free, torsion):
                wrong(f"h1 row {row['id']} gave {row['free_rank']}, {row['torsion']}")
    elif kind == "subgroups":
        got = {row["id"]: row["order"] for row in rows}
        for label, order in expect["orders"].items():
            if got.get(label) != order:
                wrong(f"subgroup {label} has order {got.get(label)}, expected {order}")
    elif kind == "nf":
        m = expect["m"]
        for row, letters in zip(rows, expect["words"]):
            msg = _nf_error(m, letters, row)
            if msg:
                wrong(msg)
        if len({(row["power"], row["factors"]) for row in rows}) != 1:
            wrong("equal braids got different normal forms")
    elif kind == "liftable":
        m = expect["m"]
        p = psi(expect["word"], m)
        lift = all(p[x] % 2 == x % 2 for x in range(m)) or all(p[x] % 2 != x % 2 for x in range(m))
        if (rows[0]["liftable"], rows[0]["perm"]) != (lift, cycles(p)):
            wrong(f"liftable gave {rows[0]['liftable']}, {rows[0]['perm']}")
    return want, bad, error
