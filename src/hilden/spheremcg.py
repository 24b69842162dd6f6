"""Mapping classes of the m-marked sphere via free-group automorphisms.

The fundamental group of the m-punctured sphere is free of rank m - 1 on
loops x_1 .. x_{m-1} around the first m - 1 punctures; the loop around the
last puncture is x_m = (x_1 ... x_{m-1})^-1.  A braid word acts by the
standard rule

    sigma_i:  x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i

for the disk, re-expressed through the x_m substitution when i = m - 1.
Letters compose with the right factor acting first (package convention), and
two braid words represent the same mapping class of the marked sphere iff
their action quotients differ by an inner automorphism.

``is_inner`` is a complete decision here: a conjugating element must carry
x_1 to the stored image of x_1, which confines it to the coset c x_1^k of
the centralizer of x_1, and the exponent k is read off the image of x_2
(conjugated back by c it must be x_1^k x_2 x_1^-k).  The one candidate is
then checked against every image, so the decision is linear in the image
size.  ``None`` therefore means "definitely not inner".  The only
indeterminate outcome in this module is :class:`BudgetExceededError`, raised
when the letter budget for an action computation runs out; the budget
bounds ``artin_action``, and everything after it is linear in its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .braids import BraidWord, braid_is_trivial, exponent_sum, perm_of_braid
from .perms import is_liftable, perm_from_images, psi_of_braid_word
from .words import Alphabet, Word, _cat, _inv, cyclically_reduce, substitute

DEFAULT_BUDGET = 10**6

# The action rule above is one of the two mirror conventions in circulation;
# the flipped one is obtained by acting with the inverse letters.  The
# package uses the unflipped rule (it matches the braid-to-symmetric-group
# map used everywhere else), and every verify report records it.
ARTIN_CONVENTION = "sigma_i: x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i (unflipped)"


class BudgetExceededError(RuntimeError):
    """Raised when an action computation exceeds its total letter budget."""

    def __init__(self, letters_done: int, letters_total: int, size: int, budget: int):
        self.letters_done = letters_done
        self.letters_total = letters_total
        self.size = size
        self.budget = budget
        super().__init__(
            f"image size {size} exceeds budget {budget} after letter "
            f"{letters_done}/{letters_total}"
        )


@lru_cache(maxsize=None)
def x_alphabet(rank: int) -> Alphabet:
    if rank < 1:
        raise ValueError("rank must be >= 1")
    return Alphabet(tuple(f"x{i}" for i in range(1, rank + 1)))


@dataclass(frozen=True)
class FreeAuto:
    """An automorphism of the free group on x_1 .. x_rank, by its images."""

    rank: int
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.rank:
            raise ValueError("need one image per generator")
        alph = x_alphabet(self.rank)
        for w in self.images:
            if w.alphabet != alph:
                raise ValueError("image words must live in the x-alphabet")

    def is_identity(self) -> bool:
        return all(w.letters == (i + 1,) for i, w in enumerate(self.images))


def identity_auto(rank: int) -> FreeAuto:
    alph = x_alphabet(rank)
    return FreeAuto(rank, tuple(Word(alph, (i + 1,)) for i in range(rank)))


def conjugation_auto(g: Word) -> FreeAuto:
    """The inner automorphism w -> g w g^-1."""
    rank = len(g.alphabet)
    alph = x_alphabet(rank)
    if g.alphabet != alph:
        raise ValueError("conjugator must live in the x-alphabet")
    gl = list(g.letters)
    gi = _inv(gl)
    return FreeAuto(
        rank, tuple(Word(alph, tuple(_cat(_cat(list(gl), [i + 1]), gi))) for i in range(rank))
    )


def compose_autos(f: FreeAuto, g: FreeAuto) -> FreeAuto:
    """f after g: images of x_i are f applied to g's images."""
    if f.rank != g.rank:
        raise ValueError("rank mismatch")
    fmap = {i + 1: f.images[i] for i in range(f.rank)}
    return FreeAuto(f.rank, tuple(substitute(w, fmap) for w in g.images))


def artin_action(b: BraidWord, budget: int = DEFAULT_BUDGET) -> FreeAuto:
    """The sphere mapping-class action of a braid word, as a rank m-1
    automorphism.  Raises :class:`BudgetExceededError` when the summed image
    length passes ``budget``."""
    m = b.strands
    if m < 3:
        raise ValueError("sphere action needs at least 3 strands")
    rank = m - 1
    imgs: list[list[int]] = [[i + 1] for i in range(rank)]
    size = rank
    letters = b.letters
    for done, c in enumerate(letters, start=1):
        j = abs(c) - 1  # 0-based rank slot of the lower strand
        # a letter rewrites slots j and j + 1 (only j at the last pair)
        size -= sum(len(w) for w in imgs[j:j + 2])
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
            # last two punctures: x_m is the inverse boundary word
            prod: list[int] = []
            for w in imgs:
                prod = _cat(prod, w)
            if c > 0:
                old = imgs[j]
                imgs[j] = _cat(_cat(list(old), _inv(prod)), _inv(old))
            else:
                imgs[j] = _inv(prod)
        size += sum(len(w) for w in imgs[j:j + 2])
        if size > budget:
            raise BudgetExceededError(done, len(letters), size, budget)
    alph = x_alphabet(rank)
    return FreeAuto(rank, tuple(Word(alph, tuple(w)) for w in imgs))


def is_inner(a: FreeAuto) -> Word | None:
    """Return a conjugator g with a = (w -> g w g^-1), or None if a is not
    inner.  The only candidate is c x_1^k, with c from the cyclic reduction
    of a(x_1) and k read from a(x_2); it is checked against every image, so
    the cost is linear in the image size and None is definitive."""
    alph = x_alphabet(a.rank)
    if a.rank == 1:
        return Word(alph, ()) if a.images[0].letters == (1,) else None
    core, c = cyclically_reduce(a.images[0])
    if core.letters != (1,):
        return None
    # a conjugator must be c * x_1^k, and then c^-1 a(x_2) c is the reduced
    # word x_1^k x_2 x_1^-k: k is its leading run of x_1^{+-1}
    d = _cat(_cat(_inv(c.letters), a.images[1].letters), c.letters)
    if not d:
        return None
    k = 0
    if abs(d[0]) == 1:
        while k < len(d) and d[k] == d[0]:
            k += 1
    g = _cat(list(c.letters), [d[0]] * k)
    gi = _inv(g)
    for i, w in enumerate(a.images):
        if tuple(_cat(_cat(list(g), [i + 1]), gi)) != w.letters:
            return None
    return Word(alph, tuple(g))


def mcg_equal(a: BraidWord, b: BraidWord, budget: int = DEFAULT_BUDGET) -> bool:
    """Do two braid words induce the same mapping class of the marked
    sphere?  May raise :class:`BudgetExceededError`."""
    if a.strands != b.strands:
        raise ValueError("strand count mismatch")
    return is_inner(artin_action(a * b.inverse(), budget=budget)) is not None


def sphere_trivial(b: BraidWord, budget: int = DEFAULT_BUDGET) -> bool:
    return is_inner(artin_action(b, budget=budget)) is not None


_LEVELS = ("permutation", "braid", "sphere_mcg")


def closes_at(b: BraidWord, target: str, budget: int) -> str | None:
    """Where a braid word closes on the ladder ``permutation < braid <
    sphere_mcg``, checked up to ``target``; None when nothing up to it does.
    Ψ is an invariant at every level: a nontrivial one gives None, a trivial
    one closes at ``permutation`` as the target.  Past it the word closes at
    ``braid`` (exponent sum 0, trivial normal form), then at ``sphere_mcg``
    (inner sphere action; may raise :class:`BudgetExceededError`)."""
    if target not in _LEVELS:
        raise ValueError(f"unknown level {target!r}; choose from {_LEVELS}")
    if not psi_of_braid_word(b.letters, b.strands).is_identity():
        return None
    if target == "permutation":
        return "permutation"
    if exponent_sum(b) == 0 and braid_is_trivial(b):
        return "braid"
    if target == "braid":
        return None
    return "sphere_mcg" if sphere_trivial(b, budget) else None


def is_liftable_class(b: BraidWord) -> bool:
    """Liftability of the underlying marked-sphere class depends only on the
    induced point permutation's interaction with the odd/even partition."""
    return is_liftable(perm_of_braid(b))


def class_of_puncture(a: FreeAuto, i: int) -> int:
    """Which puncture (1-based, up to m = rank + 1) the i-th loop is sent to,
    read off from the cyclic core of the image."""
    core, _ = cyclically_reduce(a.images[i - 1])
    ls = core.letters
    if len(ls) == 1 and ls[0] > 0:
        return ls[0]
    # the only other conjugacy class a puncture loop can land on is the
    # inverse boundary class, i.e. the last puncture
    if len(ls) == a.rank and all(c < 0 for c in ls) and {abs(c) for c in ls} == set(
        range(1, a.rank + 1)
    ):
        return a.rank + 1
    raise ValueError("image is not a puncture loop; not a braid action?")


def induced_perm_of_action(a: FreeAuto):
    """Recover the puncture permutation from an action; useful as a
    consistency check against the symmetric-group image of the word."""
    images = [class_of_puncture(a, i) for i in range(1, a.rank + 1)]
    last = ({*range(1, a.rank + 2)} - set(images)).pop()
    return perm_from_images(images + [last])
