"""Freely reduced words over a named alphabet.

Letters are nonzero signed integers: ``+k`` is the k-th generator (1-based),
``-k`` its inverse.  Every :class:`Word` is freely reduced -- no adjacent
``x, -x`` pair survives construction.  All operations reduce their results.
``_inv`` and ``_cat`` are the package's one spelling of letter inversion and
seam-cancelling concatenation; the other modules import them.

Composition convention used across the package: in a product the *right*
factor acts first.  Words are read left to right, so ``u * v`` means "do v,
then u" whenever words are later interpreted as mapping classes or
automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence


class Alphabet:
    """An ordered tuple of distinct generator names.

    Generator ``names[k-1]`` has letter value ``k``.  Alphabets compare and
    hash by their name tuple, so structurally identical alphabets are
    interchangeable.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        for nm in names:
            if not nm or any(ch.isspace() for ch in nm) or "^" in nm:
                raise ValueError(f"bad generator name: {nm!r}")
        self.names = names
        self._index = {nm: k + 1 for k, nm in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.names)!r})"

    def index(self, name: str) -> int:
        """1-based letter value of a generator name."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def name(self, letter: int) -> str:
        """Name of a (possibly negative) letter, ignoring its sign."""
        k = abs(letter)
        if not 1 <= k <= len(self.names):
            raise ValueError(f"letter {letter} out of range for {self!r}")
        return self.names[k - 1]


def _reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for c in letters:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def _cat(a: list[int], b: Sequence[int]) -> list[int]:
    """Append the reduced letters ``b`` to the reduced list ``a`` in place;
    only the seam can cancel, so neither side is rescanned.  Returns ``a``."""
    i = 0
    while a and i < len(b) and a[-1] == -b[i]:
        a.pop()
        i += 1
    a.extend(b[i:])
    return a


def _inv(letters: Sequence[int]) -> list[int]:
    """The letters of the inverse word: negated and reversed."""
    return [-c for c in reversed(letters)]


@dataclass(frozen=True)
class Word:
    """A freely reduced word.  Construct through :func:`reduce`."""

    alphabet: Alphabet
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.alphabet)
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError("word is not freely reduced")
        for c in self.letters:
            if c == 0 or not 1 <= abs(c) <= n:
                raise ValueError(f"letter {c} out of range")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __pow__(self, e: int) -> "Word":
        if e < 0:
            return invert(self) ** (-e)
        w = identity(self.alphabet)
        for _ in range(e):
            w = multiply(w, self)
        return w

    def inverse(self) -> "Word":
        return invert(self)

    def __str__(self) -> str:
        return format_word(self)


def identity(alphabet: Alphabet) -> Word:
    return Word(alphabet, ())


def reduce(alphabet: Alphabet, letters: Iterable[int]) -> Word:
    """Freely reduce a raw letter sequence into a :class:`Word`."""
    return Word(alphabet, _reduce_letters(letters))


def multiply(u: Word, v: Word) -> Word:
    if u.alphabet != v.alphabet:
        raise ValueError("alphabet mismatch")
    return Word(u.alphabet, tuple(_cat(list(u.letters), v.letters)))


def invert(w: Word) -> Word:
    return Word(w.alphabet, tuple(_inv(w.letters)))


def conjugate(w: Word, h: Word) -> Word:
    """h * w * h^-1, reduced."""
    return multiply(multiply(h, w), invert(h))


def cyclically_reduce(w: Word) -> tuple[Word, Word]:
    """Return ``(core, c)`` with ``w == c * core * c^-1`` and core cyclically
    reduced (its first letter is not the inverse of its last)."""
    ls = w.letters
    i, j = 0, len(ls) - 1
    while i < j and ls[i] == -ls[j]:
        i += 1
        j -= 1
    return Word(w.alphabet, ls[i:j + 1]), Word(w.alphabet, ls[:i])


def substitute(w: Word, images: Mapping[int, Word]) -> Word:
    """Homomorphic extension: replace generator ``k`` by ``images[k]``.

    All image words must share one alphabet; the result lives there.
    """
    target: Alphabet | None = None
    for img in images.values():
        if target is None:
            target = img.alphabet
        elif img.alphabet != target:
            raise ValueError("image words use different alphabets")
    if target is None:
        raise ValueError("empty image mapping")
    out: list[int] = []
    for c in w.letters:
        k = abs(c)
        if k not in images:
            raise ValueError(f"no image for generator {k}")
        img = images[k].letters
        _cat(out, img if c > 0 else _inv(img))
    return Word(target, tuple(out))


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse the whitespace-separated text form: ``name``, ``name^-1``, or
    the empty word ``1``."""
    toks = text.split()
    if toks == ["1"]:
        return identity(alphabet)
    letters: list[int] = []
    for pos, tok in enumerate(toks):
        sign = 1
        name = tok
        if tok.endswith("^-1"):
            sign, name = -1, tok[:-3]
        try:
            letters.append(sign * alphabet.index(name))
        except KeyError:
            raise ValueError(f"token {pos}: unknown generator {name!r}") from None
    return reduce(alphabet, letters)


def format_word(w: Word) -> str:
    if not w.letters:
        return "1"
    parts = []
    for c in w.letters:
        nm = w.alphabet.name(c)
        parts.append(nm if c > 0 else nm + "^-1")
    return " ".join(parts)
