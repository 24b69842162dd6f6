"""Braid words on m strands and their Garside left normal form.

A braid word is a freely reduced word over the band generators
``g1 .. g{m-1}``.  The word problem is solved exactly through the left
normal form ``delta^p . A_1 ... A_k`` where each factor ``A_t`` is a
permutation braid (recorded by its permutation) and each adjacent pair is
left-weighted: every generator starting ``A_{t+1}`` also finishes ``A_t``.
Two words are equal in the braid group iff their normal forms coincide.
``normal_form`` packs each run of same-sign letters that stays a permutation
braid into one factor, then appends the factors one at a time to a
left-weighted list, sliding each backward until the first pair that is
already left-weighted.  ``_slide`` left-weights one pair in a single forward
scan that steps back once after each swap.  It is memoized in a
``functools.lru_cache`` bounded at ``_SLIDE_CACHE_SIZE`` (4,096) pairs, since
relator images repeat factor pairs.  The cache cannot change an answer: the
left-weighted pair with a given product is unique, so a hit, a miss and an
eviction give the same pair, and keys and values are tuples that no caller
can mutate.  ``braid_is_trivial`` splits the word into runs of consecutive
generator indices and needs a trivial normal form of each run's subword on
its own strands only.  ``nf_multiply`` and
``nf_inverse`` normalize the word of the product or of the inverse, so
``normal_form`` is the one place a normal form is built.

Also here: the generator dictionary expanding the named elements of the
two-string-per-block setup (m = 2n + 2) into explicit band-generator words:

    s_i   = g_{2i} g_{2i+1} g_{2i-1} g_{2i}        (block swap, i = 1..n)
    r_i   = g_{2i}^-1 g_{2i+1}^-1 g_{2i-1} g_{2i}  (twisted block swap)
    t_i   = g_{2i-1}^2                             (block full twist, i = 1..n+1)
    rho   = g_1 g_3 ... g_{2n+1}                   (global block flip)
    p_{i,j}, x_{i,j}, y_{i,j}                      (pair elements, see below)
    shift = s_n ... s_2 s_1 t_1                    (block rotation)
    z     = g_1 .. g_{2n+1} g_{2n+1} .. g_1        (first-point loop)

Pair elements at adjacent indices are p = s_i^2, x = s_i r_i^-1,
y = r_i^-1 s_i; general p/x/y_{i,j} conjugate the adjacent case by a chain of
block swaps.  Stored words are freely reduced, so x_{i,j} at adjacent indices
shortens to g_{2i} g_{2i+1}^2 g_{2i}.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .perms import Perm, psi_of_braid_word
from .words import Alphabet, Word, _inv, reduce as word_reduce


@lru_cache(maxsize=None)
def sigma_alphabet(m: int) -> Alphabet:
    if m < 2:
        raise ValueError("need at least 2 strands")
    return Alphabet(tuple(f"g{i}" for i in range(1, m)))


@dataclass(frozen=True)
class BraidWord:
    strands: int
    word: Word

    def __post_init__(self) -> None:
        if self.word.alphabet != sigma_alphabet(self.strands):
            raise ValueError("word alphabet does not match strand count")

    @property
    def letters(self) -> tuple[int, ...]:
        return self.word.letters

    def __len__(self) -> int:
        return len(self.word)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("strand count mismatch")
        return BraidWord(self.strands, self.word * other.word)

    def __pow__(self, e: int) -> "BraidWord":
        return BraidWord(self.strands, self.word ** e)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, self.word.inverse())


def braid_word(m: int, letters) -> BraidWord:
    """Freely reduce signed generator indices into a braid word."""
    return BraidWord(m, word_reduce(sigma_alphabet(m), letters))


def braid_identity(m: int) -> BraidWord:
    return braid_word(m, ())


def exponent_sum(b: BraidWord) -> int:
    """Total signed letter count; invariant under braid relations."""
    return sum(1 if c > 0 else -1 for c in b.letters)


def perm_of_braid(b: BraidWord) -> Perm:
    return psi_of_braid_word(b.word, b.strands)


# --- Garside machinery on raw 0-based permutation tuples ---------------------

def _tau(p):
    """Conjugation by the half twist: tau(p) = w0 . p . w0."""
    m = len(p)
    return tuple(m - 1 - p[m - 1 - i] for i in range(m))


# Left-weighted pairs kept by ``_slide``.  Relator images hand it the same
# factor pairs again and again: one pass of the benchmark's batch-verify
# workload makes 19,537 calls on 2,677 distinct pairs, and one of its
# interactive workload 7,906 calls on 3,136.  4,096 entries (under 0.6 KB
# each) hold a pass's working set and bound the cache in a long-lived process.
_SLIDE_CACHE_SIZE = 4096


@lru_cache(maxsize=_SLIDE_CACHE_SIZE)
def _slide(a, b):
    """Make the factor pair (a, b) left-weighted, preserving the product.

    A generator index i starts b when b^-1 has a descent at i, and finishes a
    when a has one.  Any starter of b missing from a's finishers migrates
    left: a <- a.s_i, b <- s_i.b.  A swap at i changes only the tests at
    i - 1, i and i + 1, so one forward scan that steps back once after each
    swap ends with no starter left to move.  The left-weighted pair with a
    given product is unique, so the scan order does not change the result.
    """
    m = len(a)
    a = list(a)
    b = list(b)
    binv = [0] * m
    for x, v in enumerate(b):
        binv[v] = x
    i = 0
    while i < m - 1:
        if binv[i] > binv[i + 1] and a[i] < a[i + 1]:
            a[i], a[i + 1] = a[i + 1], a[i]
            j1, j2 = binv[i], binv[i + 1]
            b[j1], b[j2] = b[j2], b[j1]
            binv[i], binv[i + 1] = j2, j1
            i = i - 1 if i else 1
        else:
            i += 1
    return tuple(a), tuple(b)


def _normalize_factors(factors: list, m: int) -> tuple[int, tuple]:
    """Left-weight a factor list; return (delta surplus, canonical factors).

    Right multiplication of a left normal form by one permutation braid
    (Epstein et al., *Word Processing in Groups*, ch. 9; ElRifai-Morton
    1994): the list is kept left-weighted while each new factor is appended
    and slid backward pair by pair.  The pass stops at the first pair that is
    already left-weighted, since every pair before it was left-weighted
    before the append and is untouched.  Only the appended factor can end up
    as the identity: every earlier factor keeps a starter that its left
    neighbour already finishes.
    """
    ident = tuple(range(m))
    fs: list = []
    for f in factors:
        if f == ident:
            continue
        fs.append(f)
        for j in range(len(fs) - 2, -1, -1):
            a, b = _slide(fs[j], fs[j + 1])
            if a == fs[j]:
                break
            fs[j], fs[j + 1] = a, b
        if fs[-1] == ident:
            fs.pop()
    w0 = tuple(range(m - 1, -1, -1))
    surplus = 0
    while fs and fs[0] == w0:
        surplus += 1
        fs.pop(0)
    return surplus, tuple(fs)


@dataclass(frozen=True)
class GarsideNF:
    strands: int
    power: int
    factors: tuple[Perm, ...]

    @property
    def canonical_length(self) -> int:
        return len(self.factors)


def normal_form(b: BraidWord) -> GarsideNF:
    """Garside left normal form; equal braids get identical normal forms.

    Letters are packed into permutation-braid factors before normalizing.
    A run of letters of one sign grows while each letter makes the run's
    permutation R one inversion longer: the letter g_{i+1}^(+-1) swaps R[i]
    and R[i + 1], which lengthens R exactly when R[i] < R[i + 1].  A
    positive run is the factor R itself.  A negative run x_1^-1 .. x_k^-1 is
    Q^-1 with Q = x_k .. x_1, so R is the permutation of Q^-1, and the run
    enters as delta^-1 . (delta . Q^-1), the factor w0 . R.  Each delta^-1
    moves to the front; a factor it passes becomes its conjugate tau.
    """
    m = b.strands
    runs = []  # (a letter of the run, its permutation), in word order
    for c in b.letters:
        i = abs(c) - 1
        if not runs or runs[-1][0] * c < 0 or cur[i] > cur[i + 1]:
            cur = list(range(m))
            runs.append((c, cur))
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
    t = 0  # delta exponent of the runs after the current one
    factors = []
    for c, r in reversed(runs):
        f = tuple(r) if c > 0 else tuple(m - 1 - v for v in r)  # w0 . R
        factors.append(_tau(f) if t % 2 else f)
        if c < 0:
            t -= 1
    factors.reverse()
    surplus, fs = _normalize_factors(factors, m)
    return GarsideNF(m, t + surplus, tuple(Perm(f) for f in fs))


def nf_multiply(a: GarsideNF, b: GarsideNF) -> GarsideNF:
    return normal_form(nf_to_braid_word(a) * nf_to_braid_word(b))


def nf_inverse(a: GarsideNF) -> GarsideNF:
    return normal_form(nf_to_braid_word(a).inverse())


def braid_is_trivial(b: BraidWord) -> bool:
    """Triviality decided one run of consecutive generator indices at a time.

    Runs that are not adjacent commute, so the subgroup the word's letters
    generate is the direct product of the runs' braid groups, each embedded
    in B_m (van der Lek 1983; Paris 1997).  The braid is trivial exactly when
    the subword of every run lo..hi, shifted onto hi - lo + 2 strands, has a
    trivial normal form.
    """
    used = {abs(c) for c in b.letters}
    for lo in sorted(i for i in used if i - 1 not in used):
        hi = lo
        while hi + 1 in used:
            hi += 1
        sub = [c - lo + 1 if c > 0 else c + lo - 1 for c in b.letters if lo <= abs(c) <= hi]
        nf = normal_form(braid_word(hi - lo + 2, sub))
        if nf.power or nf.factors:
            return False
    return True


def braids_equal(a: BraidWord, b: BraidWord) -> bool:
    """Exact word-problem decision via normal forms.  The exponent sum is a
    braid invariant, so braids that differ in it need no normal form."""
    if a.strands != b.strands:
        raise ValueError("strand count mismatch")
    if exponent_sum(a) != exponent_sum(b):
        return False
    return normal_form(a) == normal_form(b)


def _perm_positive_word(p) -> list[int]:
    """A reduced positive word for a permutation braid factor."""
    q = list(p)
    rev = []
    while True:
        for i in range(len(q) - 1):
            if q[i] > q[i + 1]:
                q[i], q[i + 1] = q[i + 1], q[i]
                rev.append(i + 1)
                break
        else:
            break
    rev.reverse()
    return rev


def nf_to_braid_word(nf: GarsideNF) -> BraidWord:
    m = nf.strands
    delta = _delta_letters(m)
    letters: list[int] = []
    if nf.power >= 0:
        letters += list(delta) * nf.power
    else:
        letters += _inv(delta) * (-nf.power)
    for f in nf.factors:
        letters += _perm_positive_word(f.images)
    return braid_word(m, letters)


# --- generator dictionary -----------------------------------------------------

def _s_letters(i: int) -> tuple[int, ...]:
    return (2 * i, 2 * i + 1, 2 * i - 1, 2 * i)


def _r_letters(i: int) -> tuple[int, ...]:
    return (-2 * i, -(2 * i + 1), 2 * i - 1, 2 * i)


def _t_letters(i: int) -> tuple[int, ...]:
    return (2 * i - 1, 2 * i - 1)


def _rho_letters(n: int) -> tuple[int, ...]:
    return tuple(range(1, 2 * n + 2, 2))


def _alpha_letters(kind: str, i: int, j: int, n: int) -> tuple[int, ...]:
    if not 1 <= i < j <= n + 1:
        raise ValueError(f"need 1 <= i < j <= n+1, got ({i}, {j})")
    if j == i + 1:
        s, ri = _s_letters(i), tuple(_inv(_r_letters(i)))
        if kind == "p":
            return s + s
        if kind == "x":
            return s + ri
        if kind == "y":
            return ri + s
        raise ValueError(f"unknown pair kind {kind!r}")
    pre: tuple[int, ...] = ()
    for k in range(j - 1, i, -1):
        pre += _s_letters(k)
    return pre + _alpha_letters(kind, i, i + 1, n) + tuple(_inv(pre))


def _shift_letters(n: int) -> tuple[int, ...]:
    out: tuple[int, ...] = ()
    for i in range(n, 0, -1):
        out += _s_letters(i)
    return out + _t_letters(1)


def _z_letters(n: int) -> tuple[int, ...]:
    up = tuple(range(1, 2 * n + 2))
    return up + tuple(reversed(up))


def _delta_letters(m: int) -> tuple[int, ...]:
    out: tuple[int, ...] = ()
    for k in range(1, m):
        out += tuple(range(k, 0, -1))
    return out


def delta(m: int) -> BraidWord:
    return braid_word(m, _delta_letters(m))


def full_twist(m: int) -> BraidWord:
    return braid_word(m, _delta_letters(m) * 2)


def build_generator(name: str, n: int, i: int | None = None, j: int | None = None) -> BraidWord:
    """Expand a named generator at block count n into a braid word on
    m = 2n + 2 strands.  Pair kinds p/x/y take two indices (order-insensitive,
    since the pair element depends only on the unordered pair)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = 2 * n + 2

    def need_i(lo: int, hi: int) -> int:
        if i is None or j is not None:
            raise ValueError(f"generator {name!r} takes exactly one index")
        if not lo <= i <= hi:
            raise ValueError(f"index {i} out of range {lo}..{hi} for {name!r}")
        return i

    if name == "s":
        return braid_word(m, _s_letters(need_i(1, n)))
    if name == "r":
        return braid_word(m, _r_letters(need_i(1, n)))
    if name == "t":
        return braid_word(m, _t_letters(need_i(1, n + 1)))
    if name in ("p", "x", "y"):
        if i is None or j is None:
            raise ValueError(f"generator {name!r} takes two indices")
        if i == j:
            raise ValueError("pair indices must differ")
        lo, hi = min(i, j), max(i, j)
        return braid_word(m, _alpha_letters(name, lo, hi, n))
    if i is not None or j is not None:
        raise ValueError(f"generator {name!r} takes no indices")
    if name == "rho":
        return braid_word(m, _rho_letters(n))
    if name == "shift":
        return braid_word(m, _shift_letters(n))
    if name == "z":
        return braid_word(m, _z_letters(n))
    raise ValueError(f"unknown generator name {name!r}")


# --- token grammar ------------------------------------------------------------

_TOK_SIGMA = re.compile(r"^([gG])(\d+)$")
_TOK_NAMED = re.compile(r"(rho)|([srt])(\d+)|([pxy])(\d+)\.(\d+)")


def parse_braid_text(text: str, *, strands: int | None = None, n: int | None = None) -> BraidWord:
    """Parse whitespace-separated braid tokens.

    ``g<k>`` is the k-th band generator; ``s<i>``, ``r<i>``, ``t<i>``,
    ``rho``, ``p<i>.<j>``, ``x<i>.<j>``, ``y<i>.<j>`` expand through the
    generator dictionary and need ``n``.  Uppercase inverts a token.
    Exactly one of ``strands``/``n`` fixes the strand count (``n`` gives
    2n + 2).
    """
    if (strands is None) == (n is None):
        raise ValueError("give exactly one of strands or n")
    if n is not None and n < 1:
        raise ValueError("n must be >= 1")
    m = strands if strands is not None else 2 * n + 2
    letters: list[int] = []
    for pos, tok in enumerate(text.split()):
        if tok == "1":  # identity literal, matches format_braid_word
            continue
        mt = _TOK_SIGMA.match(tok)
        if mt:
            k = int(mt.group(2))
            if not 1 <= k <= m - 1:
                raise ValueError(f"token {pos} ({tok!r}): generator index out of range for {m} strands")
            letters.append(k if mt.group(1) == "g" else -k)
            continue
        if n is None:
            raise ValueError(f"token {pos} ({tok!r}): named generators need n")
        low = tok.lower()
        # all lowercase names the generator, all uppercase its inverse
        mt = _TOK_NAMED.fullmatch(low) if tok in (low, low.upper()) else None
        if mt is None:
            raise ValueError(f"token {pos} ({tok!r}): unrecognized")
        name, *idx = (g for g in mt.groups() if g is not None)
        try:
            w = build_generator(name, n, *map(int, idx))
        except ValueError as e:
            raise ValueError(f"token {pos} ({tok!r}): {e}") from None
        letters += w.letters if tok == low else w.inverse().letters
    return braid_word(m, letters)


def format_braid_word(b: BraidWord) -> str:
    if not b.letters:
        return "1"
    return " ".join(f"g{c}" if c > 0 else f"G{-c}" for c in b.letters)
