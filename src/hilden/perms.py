"""Permutations of the marked points {1, ..., m} and the braid-to-symmetric
homomorphism.

Points are 1-based in every public signature; internally images are stored as
0-based tuples.  ``compose(f, g)`` applies ``g`` first, matching the package
convention that the right factor of a product acts first.

With ``m = 2n + 2`` the marked points carry two structures:

* parity classes: odd points {1, 3, ...} and even points {2, 4, ...};
* blocks: consecutive pairs {1,2}, {3,4}, ..., {2n+1, 2n+2}.

A permutation is *liftable* when it preserves the odd/even partition either
classwise or by swapping the two classes.  The named subgroups W (liftable),
V (block-preserving), VW, S^oe (parity-classwise-preserving inside V) and
S^o x S^e (parity-classwise-preserving) are built for small n from their
structure: S^o x S^e is a product of two copies of S_{n+1}, W extends it by
the parity swap, and V is the wreath product Z/2 wr S_{n+1}.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import factorial
from typing import Iterable, Sequence

from .words import Word

ENUMERATION_MAX_N = 4  # W has 2((n+1)!)^2 elements, 1,036,800 at n=5: the cap bounds memory


@dataclass(frozen=True)
class Perm:
    """A permutation of {1..m}; ``images[i]`` is the 0-based image of i."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("not a permutation")

    @property
    def size(self) -> int:
        return len(self.images)

    def apply(self, point: int) -> int:
        """Image of a 1-based point."""
        if not 1 <= point <= len(self.images):
            raise ValueError(f"point {point} out of range")
        return self.images[point - 1] + 1

    def __call__(self, point: int) -> int:
        return self.apply(point)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def __str__(self) -> str:
        return format_cycles(self)


def identity_perm(m: int) -> Perm:
    return Perm(tuple(range(m)))


def perm_from_images(images_1based: Sequence[int]) -> Perm:
    """Build from 1-based image list: point i maps to images_1based[i-1]."""
    return Perm(tuple(v - 1 for v in images_1based))


def compose(f: Perm, g: Perm) -> Perm:
    """f after g: ``compose(f, g)(x) == f(g(x))``."""
    if f.size != g.size:
        raise ValueError("size mismatch")
    fi, gi = f.images, g.images
    return Perm(tuple(fi[gi[x]] for x in range(len(fi))))


def inverse(p: Perm) -> Perm:
    inv = [0] * p.size
    for i, v in enumerate(p.images):
        inv[v] = i
    return Perm(tuple(inv))


def transposition(m: int, a: int, b: int) -> Perm:
    """The transposition (a b) in S_m, 1-based."""
    img = list(range(m))
    img[a - 1], img[b - 1] = img[b - 1], img[a - 1]
    return Perm(tuple(img))


def psi_of_braid_word(word: Word | Iterable[int], m: int) -> Perm:
    """Image of a braid word under the map to S_m sending the i-th band
    generator (either sign) to the transposition (i, i+1).

    The word's letters are signed band-generator indices; letters are applied
    right-to-left as maps, i.e. the leftmost letter acts last.
    """
    letters = word.letters if isinstance(word, Word) else tuple(word)
    acc = list(range(m))
    # acc = l1 . l2 ... lk as maps; fold left-to-right with acc = acc . s_i
    for c in letters:
        i = abs(c) - 1
        if not 0 <= i < m - 1:
            raise ValueError(f"letter {c} out of range for {m} strands")
        # right-multiplying by s_i swaps positions i, i+1
        acc[i], acc[i + 1] = acc[i + 1], acc[i]
    return Perm(tuple(acc))


# --- parity / block predicates (m = 2n + 2) ---------------------------------

def _is_even_m(p: Perm) -> int:
    m = p.size
    if m % 2 != 0 or m < 4:
        raise ValueError("predicates need m = 2n + 2 with n >= 1")
    return m


def is_parity_preserving(p: Perm) -> bool:
    """Odd points map to odd points (hence even to even)."""
    _is_even_m(p)
    return all((x % 2 == 0) == (p.images[x] % 2 == 0) for x in range(p.size))


def is_parity_reversing(p: Perm) -> bool:
    """Odd points map to even points (hence even to odd)."""
    _is_even_m(p)
    return all((x % 2 == 0) != (p.images[x] % 2 == 0) for x in range(p.size))


def is_liftable(p: Perm) -> bool:
    return is_parity_preserving(p) or is_parity_reversing(p)


def preserves_blocks(p: Perm) -> bool:
    """The pair partition {1,2},{3,4},... is mapped to itself."""
    _is_even_m(p)
    im = p.images
    return all(im[2 * b] // 2 == im[2 * b + 1] // 2 for b in range(p.size // 2))


SUBGROUP_LABELS = ("W", "V", "VW", "S^oe", "S^oxS^e")


@dataclass(frozen=True)
class SubgroupTable:
    label: str
    n: int
    m: int
    elements: frozenset[Perm]

    @property
    def order(self) -> int:
        return len(self.elements)


def enumerate_subgroup(label: str, n: int) -> SubgroupTable:
    """List the elements of one of the named subgroups of S_{2n+2}.

    Each group is built from its structure over the blocks b = 0..n (0-based
    points 2b and 2b+1), so the cost follows the subgroup's order.  Raises for
    n > ENUMERATION_MAX_N: W alone has 2((n+1)!)^2 elements.
    """
    if label not in SUBGROUP_LABELS:
        raise ValueError(f"unknown subgroup label {label!r}; use one of {SUBGROUP_LABELS}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ENUMERATION_MAX_N:
        raise ValueError(
            f"n={n} exceeds enumeration capacity (max n={ENUMERATION_MAX_N}: "
            f"W has 2((n+1)!)^2 elements, {2 * factorial(ENUMERATION_MAX_N + 2) ** 2:,} "
            f"at n={ENUMERATION_MAX_N + 1})"
        )
    sym = list(permutations(range(n + 1)))
    blocks = range(n + 1)
    if label in ("W", "S^oxS^e"):
        # the odd points and the even points are permuted independently
        images = [tuple(v for b in blocks for v in (2 * so[b], 2 * se[b] + 1))
                  for so in sym for se in sym]
        if label == "W":
            images += [tuple(v ^ 1 for v in im) for im in images]  # then swap parity
    else:
        # block b goes to block s(b), its two points swapped when f[b] is 1
        zeros, ones = (0,) * (n + 1), (1,) * (n + 1)
        flips = {"V": list(product((0, 1), repeat=n + 1)),
                 "VW": [zeros, ones], "S^oe": [zeros]}[label]
        images = [tuple(v for b in blocks for v in (2 * s[b] + f[b], 2 * s[b] + 1 - f[b]))
                  for s in sym for f in flips]
    return SubgroupTable(label, n, 2 * n + 2, frozenset(map(Perm, images)))


def generated_subgroup(gens: Iterable[Perm]) -> frozenset[Perm]:
    """Closure of a finite generating set under composition (BFS)."""
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    m = gens[0].size
    seen = {identity_perm(m)}
    frontier = [identity_perm(m)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(seen)


# --- the two projections ------------------------------------------------------

def pi_to_Z2(p: Perm) -> int:
    """0 for parity-preserving, 1 for parity-reversing.  Domain: liftable."""
    if is_parity_preserving(p):
        return 0
    if is_parity_reversing(p):
        return 1
    raise ValueError("permutation is not liftable")


def Pi_to_Snp1(p: Perm) -> Perm:
    """Collapse blocks: a block-preserving permutation of {1..2n+2} induces a
    permutation of the n+1 blocks."""
    if not preserves_blocks(p):
        raise ValueError("permutation does not preserve blocks")
    half = p.size // 2
    return Perm(tuple(p.images[2 * b] // 2 for b in range(half)))


def block_flip(m: int, i: int) -> Perm:
    """The transposition (2i-1, 2i) swapping the two points of block i."""
    return transposition(m, 2 * i - 1, 2 * i)


def block_kernel(n: int) -> frozenset[Perm]:
    """All products of distinct block flips: the kernel of the block collapse
    on V, of order 2^(n+1)."""
    m = 2 * n + 2
    out = set()
    for r in range(n + 2):
        for subset in combinations(range(1, n + 2), r):
            p = identity_perm(m)
            for i in subset:
                p = compose(block_flip(m, i), p)
            out.add(p)
    return frozenset(out)


# --- cycle notation I/O -------------------------------------------------------

def format_cycles(p: Perm) -> str:
    """Disjoint-cycle string like ``(1 3)(2 4)``; identity prints ``id``."""
    seen = [False] * p.size
    out = []
    for start in range(p.size):
        if seen[start] or p.images[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = p.images[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p.images[x]
        out.append("(" + " ".join(str(v + 1) for v in cyc) + ")")
    return "".join(out) if out else "id"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, m: int) -> Perm:
    """Parse disjoint-cycle notation over {1..m}; ``id`` is the identity."""
    text = text.strip()
    if text == "id":
        return identity_perm(m)
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"bad cycle notation: {text!r}")
    img = list(range(m))
    used: set[int] = set()
    for grp in _CYCLE_RE.findall(text):
        pts = [int(t) for t in grp.split()]
        if len(pts) < 2:
            raise ValueError(f"cycle too short in {text!r}")
        for v in pts:
            if not 1 <= v <= m:
                raise ValueError(f"point {v} out of range 1..{m}")
            if v in used:
                raise ValueError(f"point {v} repeated")
            used.add(v)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            img[a - 1] = b - 1
    return Perm(tuple(img))


def perm_to_json(p: Perm) -> dict:
    return {"m": p.size, "cycles": format_cycles(p)}


def subgroup_table_json(table: SubgroupTable) -> dict:
    """Serialize a subgroup table; elements become a sorted array of cycle strings."""
    elements = [format_cycles(p) for p in sorted(table.elements, key=lambda p: p.images)]
    return {"label": table.label, "n": table.n, "m": table.m,
            "order": table.order, "elements": elements}
