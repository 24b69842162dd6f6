"""Finite presentations of the block-symmetric braid subgroups, and their
verification against the braid/sphere oracles.

Seven builders, all deterministic (byte-for-byte identical output for equal
parameters):

    build_LH(n)               block group on s_i, r_i, t_i, rho
    build_PH1(n)              pure block group, framed version (p/x/y/t)
    build_PH(n)               pure block group on the sphere (adds (Z), (F))
    build_VW(n)               the finite block-symmetric quotient
    build_intermediate_LH(n)  pure presentation extended by s_i, r_i, rho
    build_prop_LH(n)          redundant generating set with p/x/y and shift
    build_SH(n, k)            handlebody variant; k >= 3 twist order

Relators are stored as single freely reduced words ``lhs * rhs^-1``, each with
a family tag like ``(2)(d)`` and a unique id.  Builders assemble them as lists
of signed generator letters (inversion is negate-and-reverse) and never spell
or parse text; ``parse_word`` serves JSON import only.

``verify`` pushes every relator, one after another, through a generator
assignment into the braid group on 2n + 2 strands and reports where
``spheremcg.closes_at`` closes it: ``braid`` (a trivial Garside normal form of
the subword of each run of consecutive generator indices), ``sphere_mcg``
(trivial in the marked-sphere mapping class group), or ``permutation`` (the
finite quotient stops there).  A relator that closes nowhere is ``FAILED``;
an aborted sphere computation is ``UNRESOLVED``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from . import braids as B
from . import perms as P
from . import spheremcg as M
from .words import Alphabet, Word, _inv, parse_word, reduce

# --- letter helpers: +k is generator k of the emitter's alphabet, -k its inverse

def _pw(xs: Sequence[int], e: int) -> list[int]:
    return list(xs) if e == 1 else _inv(xs)


def _comm(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return list(a) + list(b) + _inv(a) + _inv(b)


def _eq(lhs: Sequence[int], rhs: Sequence[int]) -> list[int]:
    return list(lhs) + _inv(rhs)


# Triple-commutation schedule: with strictly increasing indices a < b < c the
# three pair slots (a,b | a,c | b,c) commute in 24 kind patterns, 8 per
# leading slot.  ROW1 leads with the (a,b) pair, ROW2 with (a,c), ROW3 with
# (b,c); in each row the leader commutes with the product of the other two in
# the listed order.
ROW1 = [("p", "p", "p"), ("p", "y", "y"), ("x", "p", "p"), ("x", "x", "p"),
        ("x", "y", "y"), ("y", "p", "p"), ("y", "p", "x"), ("y", "y", "y")]
ROW2 = [("p", "p", "p"), ("p", "x", "y"), ("x", "p", "p"), ("x", "p", "x"),
        ("x", "x", "y"), ("y", "p", "p"), ("y", "x", "y"), ("y", "y", "p")]
ROW3 = [("p", "p", "p"), ("p", "x", "x"), ("x", "p", "p"), ("x", "x", "x"),
        ("x", "y", "p"), ("y", "p", "p"), ("y", "p", "y"), ("y", "x", "x")]


@dataclass(frozen=True)
class Presentation:
    name: str
    n: int
    k: int | None
    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    tags: tuple[str, ...]
    ids: tuple[str, ...]

    def __post_init__(self) -> None:
        alph = Alphabet(self.generators)
        for w in self.relators:
            if w.alphabet != alph:
                raise ValueError("relator outside the presentation alphabet")
        if not (len(self.relators) == len(self.tags) == len(self.ids)):
            raise ValueError("relators, tags, ids must align")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("relator ids must be unique")

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.generators)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "name": self.name,
            "n": self.n,
            "k": self.k,
            "generators": list(self.generators),
            "relators": [str(w) for w in self.relators],
            "tags": list(self.tags),
            "ids": list(self.ids),
        }


def presentation_from_json(d: dict) -> Presentation:
    alph = Alphabet(tuple(d["generators"]))
    relators = tuple(parse_word(alph, s) for s in d["relators"])
    return Presentation(
        d["name"], d["n"], d.get("k"), tuple(d["generators"]),
        relators, tuple(d["tags"]), tuple(d["ids"]),
    )


class _Emitter:
    """Collects (id, tag, letters) rows and reduces them to words at the end.

    The generator methods resolve a name to its one-letter list in the
    emitter's alphabet, so the family emitters never spell or parse text."""

    def __init__(self, generators: Sequence[str]):
        self.alph = Alphabet(tuple(generators))
        self.generators = tuple(generators)
        self.rows: list[tuple[str, str, list[int]]] = []

    def s(self, i: int) -> list[int]:
        return [self.alph.index(f"s{i}")]

    def r(self, i: int) -> list[int]:
        return [self.alph.index(f"r{i}")]

    def t(self, i: int) -> list[int]:
        return [self.alph.index(f"t{i}")]

    def t_all(self, n: int) -> list[int]:
        """t_1 ... t_{n+1}: one letter per block."""
        return [self.alph.index(f"t{i}") for i in range(1, n + 2)]

    def pair(self, kind: str, i: int, j: int) -> list[int]:
        return [self.alph.index(f"{kind}{min(i, j)}.{max(i, j)}")]

    @property
    def rho(self) -> list[int]:
        return [self.alph.index("rho")]

    @property
    def shift(self) -> list[int]:
        return [self.alph.index("s")]

    def add(self, tag: str, idx: str, letters: list[int]) -> None:
        self.rows.append((f"{tag}{idx}", tag, letters))

    def build(self, name: str, n: int, k: int | None = None) -> Presentation:
        words = tuple(reduce(self.alph, letters) for _, _, letters in self.rows)
        return Presentation(
            name, n, k, self.generators, words,
            tuple(tag for _, tag, _ in self.rows),
            tuple(rid for rid, _, _ in self.rows),
        )


def _twist_generators(n: int) -> list[str]:
    return [f"t{i}" for i in range(1, n + 2)]


def _lh_generators(n: int) -> list[str]:
    return ([f"s{i}" for i in range(1, n + 1)]
            + [f"r{i}" for i in range(1, n + 1)]
            + _twist_generators(n)
            + ["rho"])


def _pair_generators(n: int) -> list[str]:
    out = []
    for kind in "pxy":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 2):
                out.append(f"{kind}{i}.{j}")
    return out


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")


# --- family emitters (shared between builders) ----------------------------------

def _emit_lh_12(e: _Emitter, n: int) -> None:
    """Families (1)(a)-(e) and (2)(a)-(g) on s/r/t/rho."""
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            for a in "sr":
                for b in "sr":
                    wa = e.s(i) if a == "s" else e.r(i)
                    wb = e.s(j) if b == "s" else e.r(j)
                    e.add("(1)(a)", f"[{a}{i},{b}{j}]", _comm(wa, wb))
    for i in range(1, n + 1):
        for j in range(1, n + 2):
            if j in (i, i + 1):
                continue
            e.add("(1)(b)", f"[s{i},t{j}]", _comm(e.s(i), e.t(j)))
            e.add("(1)(b)", f"[r{i},t{j}]", _comm(e.r(i), e.t(j)))
    for i in range(1, n + 2):
        for j in range(i + 1, n + 2):
            e.add("(1)(c)", f"[t{i},t{j}]", _comm(e.t(i), e.t(j)))
    for i in range(1, n + 1):
        e.add("(1)(d)", f"[s{i}]", _comm(e.s(i), e.rho))
    for i in range(1, n + 2):
        e.add("(1)(e)", f"[t{i}]", _comm(e.t(i), e.rho))
    for i in range(1, n):
        for a in "sr":
            w1 = e.s(i) if a == "s" else e.r(i)
            w2 = e.s(i + 1) if a == "s" else e.r(i + 1)
            e.add("(2)(a)", f"[{a}{i}]", _eq(w1 + w2 + w1, w2 + w1 + w2))
        for ex in (1, -1):
            se_i, se_i1 = _pw(e.s(i), ex), _pw(e.s(i + 1), ex)
            e.add("(2)(b)", f"[i={i},e={ex}]",
                  _eq(se_i + se_i1 + e.r(i), e.r(i + 1) + se_i + se_i1))
        e.add("(2)(c)", f"[i={i}]",
              _eq(e.r(i) + e.r(i + 1) + e.s(i), e.s(i + 1) + e.r(i) + e.r(i + 1)))
    for i in range(1, n + 1):
        e.add("(2)(d)", f"[i={i}]",
              _eq(e.r(i) + e.rho + e.s(i), e.rho + e.s(i) + _inv(e.r(i))))
        for ex in (1, -1):
            se = _pw(e.s(i), ex)
            e.add("(2)(e)", f"[i={i},e={ex}]", _eq(se + e.t(i), e.t(i + 1) + se))
        e.add("(2)(f)", f"[i={i}]", _eq(e.r(i) + e.t(i), e.t(i + 1) + e.r(i)))
        e.add("(2)(g)", f"[i={i}]",
              _eq(e.t(i) + e.s(i) + e.s(i) + e.r(i), e.r(i) + e.s(i) + e.s(i) + e.t(i + 1)))


def _emit_rho_square(e: _Emitter, n: int, tag: str) -> None:
    e.add(tag, "", _eq(e.rho + e.rho, e.t_all(n)))


def _emit_s_braid(e: _Emitter, n: int, far_tag: str, braid_tag: str) -> None:
    """Far commutation and the braid relation of the block swaps s_i."""
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            e.add(far_tag, f"[{i},{j}]", _comm(e.s(i), e.s(j)))
    for i in range(1, n):
        e.add(braid_tag, f"[{i}]", _eq(e.s(i) + e.s(i + 1) + e.s(i), e.s(i + 1) + e.s(i) + e.s(i + 1)))


def _emit_s_rho_comm(e: _Emitter, n: int, tag: str) -> None:
    for i in range(1, n + 1):
        e.add(tag, f"[{i}]", _comm(e.s(i), e.rho))


def _emit_rho_t_comm(e: _Emitter, n: int, tag: str) -> None:
    """rho commutes with the block twists t_1 .. t_{n+1}."""
    for i in range(1, n + 2):
        e.add(tag, f"[{i}]", _comm(e.rho, e.t(i)))


def _emit_rho_pairs(e: _Emitter, n: int, p_tag: str, xy_tag: str) -> None:
    """rho commutes with p_{i,j} and sends x/y_{i,j} to its inverse times p_{i,j}."""
    for i in range(1, n + 2):
        for j in range(i + 1, n + 2):
            e.add(p_tag, f"[{i},{j}]", _comm(e.rho, e.pair("p", i, j)))
            for al in "xy":
                e.add(xy_tag, f"[{al},{i},{j}]",
                      _eq(e.rho + e.pair(al, i, j) + _inv(e.rho),
                          _inv(e.pair(al, i, j)) + e.pair("p", i, j)))


def _zeta_tokens(e: _Emitter, n: int) -> list[int]:
    """r_1 ... r_n s_n ... s_1 t_1, one letter each; the letters after the
    first n spell the shift."""
    out: list[int] = []
    for i in range(1, n + 1):
        out += e.r(i)
    for i in range(n, 0, -1):
        out += e.s(i)
    out += e.t(1)
    return out


def _emit_lh_45(e: _Emitter, n: int) -> None:
    e.add("(4)", "", _zeta_tokens(e, n))
    stairs: list[int] = []
    for a in range(1, n + 1):
        for b in range(a, 0, -1):
            stairs += e.s(b)
    e.add("(5)", "", e.t_all(n) + stairs + stairs)


def _emit_pure_families(e: _Emitter, n: int) -> None:
    """The pure-group families on p/x/y/t with increasing indices."""
    N = n + 1
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            for k in range(1, N + 1):
                e.add("(C-pt)", f"[{i},{j};{k}]", _comm(e.pair("p", i, j), e.t(k)))
                if k != i:
                    e.add("(C-xt)", f"[{i},{j};{k}]", _comm(e.pair("x", i, j), e.t(k)))
                if k != j:
                    e.add("(C-yt)", f"[{i},{j};{k}]", _comm(e.pair("y", i, j), e.t(k)))
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            e.add("(C-tt)", f"[{i},{j}]", _comm(e.t(i), e.t(j)))
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            for k in range(j + 1, N + 1):
                for l in range(k + 1, N + 1):
                    for a in "pxy":
                        for b in "pxy":
                            e.add("(C1)", f"[{a}{i}.{j},{b}{k}.{l}]",
                                  _comm(e.pair(a, i, j), e.pair(b, k, l)))
                            e.add("(C3)", f"[{a}{i}.{k},{b}{j}.{l}]",
                                  _comm(e.pair(a, i, k),
                                        e.pair("p", j, k) + e.pair(b, j, l) + _inv(e.pair("p", j, k))))
    for a_ in range(1, N + 1):
        for b_ in range(a_ + 1, N + 1):
            for c_ in range(b_ + 1, N + 1):
                for (al, be, ga) in ROW1:
                    e.add("(C2)", f"[ab|{al}{be}{ga};{a_},{b_},{c_}]",
                          _comm(e.pair(al, a_, b_), e.pair(be, a_, c_) + e.pair(ga, b_, c_)))
                for (al, be, ga) in ROW2:
                    e.add("(C2)", f"[ac|{al}{be}{ga};{a_},{b_},{c_}]",
                          _comm(e.pair(al, a_, c_), e.pair(be, b_, c_) + e.pair(ga, a_, b_)))
                for (al, be, ga) in ROW3:
                    e.add("(C2)", f"[bc|{al}{be}{ga};{a_},{b_},{c_}]",
                          _comm(e.pair(al, b_, c_), e.pair(be, a_, b_) + e.pair(ga, a_, c_)))
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            e.add("(M-x)", f"[{i},{j}]", _comm(e.pair("x", i, j), e.pair("p", i, j) + e.t(i)))
            e.add("(M-y)", f"[{i},{j}]", _comm(e.pair("y", i, j), e.pair("p", i, j) + e.t(j)))


def _z_relator_tokens(e: _Emitter, n: int) -> list[int]:
    N = n + 1
    letters: list[int] = []
    for j in range(N, 1, -1):
        letters += _inv(e.pair("x", 1, j))
    for j in range(2, N + 1):
        letters += e.pair("p", 1, j)
    letters += e.t(1)
    return letters


def _f_relator_tokens(e: _Emitter, n: int) -> list[int]:
    letters = e.t_all(n)
    for j in range(2, n + 2):
        for i in range(1, j):
            letters += e.pair("p", i, j)
    return letters


# --- the seven builders ----------------------------------------------------------

def _checked(pres: Presentation, expected: int) -> Presentation:
    """Guard a builder against drifting from its closed-form relator count."""
    if len(pres.relators) != expected:
        raise RuntimeError(f"{pres.name} n={pres.n}: built {len(pres.relators)} "
                           f"relators, closed form says {expected}")
    return pres


def build_LH(n: int) -> Presentation:
    """Presentation on s_i, r_i, t_i, rho (families (1)-(5))."""
    _check_n(n)
    e = _Emitter(_lh_generators(n))
    _emit_lh_12(e, n)
    _emit_rho_square(e, n, "(3)")
    _emit_lh_45(e, n)
    expected = (2 * (n - 1) * (n - 2) + 2 * n * (n - 1) + (n + 1) * n // 2
                + n + (n + 1) + 5 * (n - 1) + 5 * n + 3)
    return _checked(e.build("lh", n), expected)


def build_PH1(n: int) -> Presentation:
    """Pure block group, framed version: p/x/y pairs and block twists t."""
    _check_n(n)
    e = _Emitter(_pair_generators(n) + _twist_generators(n))
    _emit_pure_families(e, n)
    N = n + 1
    pairs = N * (N - 1) // 2
    triples = N * (N - 1) * (N - 2) // 6
    quads = N * (N - 1) * (N - 2) * (N - 3) // 24
    expected = (pairs * N + 2 * pairs * (N - 1) + pairs
                + 18 * quads + 24 * triples + 2 * pairs)
    return _checked(e.build("ph1", n), expected)


def build_PH(n: int) -> Presentation:
    """Pure block group on the sphere: adds the loop and full-twist relators."""
    _check_n(n)
    e = _Emitter(_pair_generators(n) + _twist_generators(n))
    _emit_pure_families(e, n)
    e.add("(Z)", "", _z_relator_tokens(e, n))
    e.add("(F)", "", _f_relator_tokens(e, n))
    return e.build("ph", n)


def build_VW(n: int) -> Presentation:
    """The finite block-symmetric quotient on involutions sbar_i, rbar."""
    _check_n(n)
    e = _Emitter([f"s{i}" for i in range(1, n + 1)] + ["rho"])
    for i in range(1, n + 1):
        e.add("(invol-s)", f"[{i}]", e.s(i) + e.s(i))
    _emit_s_braid(e, n, "(far)", "(braid)")
    e.add("(invol-r)", "", e.rho + e.rho)
    _emit_s_rho_comm(e, n, "(comm-sr)")
    expected = n + (n - 1) * (n - 2) // 2 + (n - 1) + 1 + n
    return _checked(e.build("vw", n), expected)


def build_intermediate_LH(n: int) -> Presentation:
    """Pure presentation extended by s_i, r_i, rho with their action data."""
    _check_n(n)
    N = n + 1
    e = _Emitter(_lh_generators(n) + _pair_generators(n))
    _emit_pure_families(e, n)
    e.add("(Z)", "", _z_relator_tokens(e, n))
    e.add("(F)", "", _f_relator_tokens(e, n))
    for i in range(1, n + 1):
        e.add("(B-sq)", f"[{i}]", _eq(e.s(i) + e.s(i), e.pair("p", i, i + 1)))
    _emit_s_braid(e, n, "(B-far)", "(B-braid)")
    _emit_rho_square(e, n, "(B-rho)")
    _emit_s_rho_comm(e, n, "(B-srho)")
    for k in range(1, n + 1):
        for i in range(1, N + 1):
            if i == k:
                rhs = e.t(k + 1)
            elif i == k + 1:
                rhs = e.t(k)
            else:
                rhs = e.t(i)
            e.add("(A1)(a)", f"[k={k},i={i}]", _eq(e.s(k) + e.t(i) + _inv(e.s(k)), rhs))
    for i in range(1, n + 1):
        p_ = e.pair("p", i, i + 1)
        e.add("(A1)(b)", f"[p,{i}]", _eq(e.s(i) + p_ + _inv(e.s(i)), p_))
        e.add("(A1)(b)", f"[x,{i}]",
              _eq(e.s(i) + e.pair("x", i, i + 1) + _inv(e.s(i)), p_ + e.pair("y", i, i + 1) + _inv(p_)))
        e.add("(A1)(b)", f"[y,{i}]",
              _eq(e.s(i) + e.pair("y", i, i + 1) + _inv(e.s(i)), e.pair("x", i, i + 1)))
    for al in "pxy":
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                for k in range(1, n + 1):
                    if k == i and j == i + 1:
                        continue  # covered by (A1)(b)
                    if k == i - 1:
                        rhs = e.pair("p", i - 1, i) + e.pair(al, i - 1, j) + _inv(e.pair("p", i - 1, i))
                    elif k == i and j - i >= 2:
                        rhs = e.pair(al, i + 1, j)
                    elif k == j - 1 and j - i >= 2:
                        rhs = e.pair("p", j - 1, j) + e.pair(al, i, j - 1) + _inv(e.pair("p", j - 1, j))
                    elif k == j:
                        rhs = e.pair(al, i, j + 1)
                    else:
                        rhs = e.pair(al, i, j)
                    e.add("(A1)(c)", f"[{al},{i},{j};k={k}]",
                          _eq(e.s(k) + e.pair(al, i, j) + _inv(e.s(k)), rhs))
    _emit_rho_t_comm(e, n, "(A2)(a)")
    _emit_rho_pairs(e, n, "(A2)(b)", "(A2)(c)")
    return e.build("intermediate-lh", n)


def build_prop_LH(n: int) -> Presentation:
    """Redundant generating set: families (1)-(5) plus the p/x/y and shift
    definitions and their conjugation schedule (6)(a)-(g)."""
    _check_n(n)
    N = n + 1
    e = _Emitter(_lh_generators(n) + ["s"] + _pair_generators(n))
    _emit_lh_12(e, n)
    _emit_rho_square(e, n, "(3)")
    _emit_lh_45(e, n)
    for i in range(1, n + 1):
        e.add("(6)(a)", f"[p,{i}]", _eq(e.pair("p", i, i + 1), e.s(i) + e.s(i)))
        e.add("(6)(a)", f"[x,{i}]", _eq(e.pair("x", i, i + 1), e.s(i) + _inv(e.r(i))))
        e.add("(6)(a)", f"[y,{i}]", _eq(e.pair("y", i, i + 1), _inv(e.r(i)) + e.s(i)))
    for al in "pxy":
        for i in range(1, N + 1):
            for j in range(i + 2, N + 1):
                chain: list[int] = []
                for a in range(j - 1, i, -1):
                    chain += e.s(a)
                e.add("(6)(b)", f"[{al},{i},{j}]",
                      _eq(e.pair(al, i, j), chain + e.pair(al, i, i + 1) + _inv(chain)))
    e.add("(6)(c)", "", _eq(e.shift, _zeta_tokens(e, n)[n:]))
    for j in range(2, N + 1):
        for (al, be) in [("p", "p"), ("x", "y"), ("y", "x")]:
            e.add("(6)(d)", f"[{al}->{be},j={j}]",
                  _eq(e.shift + e.pair(al, 1, j) + _inv(e.shift), e.pair(be, j - 1, N)))
    for i in range(2, N + 1):
        for j in range(i + 1, N + 1):
            for al in "pxy":
                e.add("(6)(e)", f"[{al},{i},{j}]",
                      _eq(e.shift + e.pair(al, i, j) + _inv(e.shift), e.pair(al, i - 1, j - 1)))
    _emit_rho_pairs(e, n, "(6)(f)", "(6)(g)")
    return e.build("prop-lh", n)


def build_SH(n: int, k: int) -> Presentation:
    """Handlebody variant: the zeta word has order dividing k, and rho
    inverts it."""
    _check_n(n)
    if k < 3:
        raise ValueError("k must be >= 3")
    e = _Emitter(_lh_generators(n))
    _emit_lh_12(e, n)
    _emit_rho_square(e, n, "(3)")
    zeta = _zeta_tokens(e, n)
    e.add("(4)", "", zeta * k)
    blk: list[int] = []
    for j in range(1, n + 1):
        for b in range(n, j - 1, -1):
            blk += e.s(b)
    e.add("(5)", "", e.t_all(n)[::-1] + blk + blk)
    e.add("(6)(a)", "[s1]", _comm(zeta, e.s(1)))
    e.add("(6)(a)", "[r1]", _comm(zeta, e.r(1)))
    rprod = zeta[:n]  # r_1 ... r_n
    e.add("(6)(b)", "", _eq(rprod + e.t(n + 1), e.t(1) + rprod))
    e.add("(6)(c)", "", _eq(e.rho + zeta, _inv(zeta) + e.rho))
    return e.build("sh", n, k)


_BUILDERS: dict[str, Callable[..., Presentation]] = {
    "lh": build_LH,
    "ph1": build_PH1,
    "ph": build_PH,
    "vw": build_VW,
    "intermediate-lh": build_intermediate_LH,
    "prop-lh": build_prop_LH,
    "sh": build_SH,
}


def build_presentation(name: str, n: int, k: int | None = None) -> Presentation:
    if name not in _BUILDERS:
        raise ValueError(f"unknown presentation {name!r}; choose from {sorted(_BUILDERS)}")
    if name == "sh":
        if k is None:
            raise ValueError("sh needs k")
        return build_SH(n, k)
    if k is not None:
        raise ValueError(f"presentation {name!r} takes no k")
    return _BUILDERS[name](n)


# --- generator assignments --------------------------------------------------------

def braid_assignment(pres: Presentation) -> dict[str, B.BraidWord]:
    """The dictionary assignment sending each presentation generator to its
    braid word on 2n + 2 strands.  Generator names are braid tokens (see
    ``braids.parse_braid_text``), except ``s``, the block rotation."""
    n = pres.n
    return {g: B.build_generator("shift", n) if g == "s" else B.parse_braid_text(g, n=n)
            for g in pres.generators}


def perm_assignment(pres: Presentation) -> dict[str, P.Perm]:
    """Assignment for the finite quotient: the point permutations of the
    corresponding braid words."""
    if pres.name != "vw":
        raise ValueError("perm_assignment is for the vw presentation")
    return {g: B.perm_of_braid(b) for g, b in braid_assignment(pres).items()}


def image_letters(relator: Word, assignment: dict[str, B.BraidWord]) -> list[int]:
    """Expand a presentation relator into braid letters via the assignment."""
    out: list[int] = []
    alph = relator.alphabet
    for c in relator.letters:
        w = assignment[alph.name(c)].letters
        out.extend(w if c > 0 else _inv(w))
    return out


# --- verification ------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyRow:
    id: str
    tag: str
    status: str  # ok | FAILED | UNRESOLVED
    closes_at: str | None  # permutation | braid | sphere_mcg
    micros: int

    def to_json_dict(self) -> dict:
        return {"id": self.id, "tag": self.tag, "status": self.status,
                "closes_at": self.closes_at, "micros": self.micros}


@dataclass(frozen=True)
class VerificationReport:
    name: str
    params: dict
    rows: tuple[VerifyRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.status == "ok" for r in self.rows)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.rows:
            key = r.closes_at if r.status == "ok" else r.status
            out[key] = out.get(key, 0) + 1
        return out


def _verify_rows(m: int, items: list[tuple[str, str, list[int]]], target: str,
                 budget: int) -> list[VerifyRow]:
    rows = []
    for rid, tag, letters in items:
        t0 = time.perf_counter_ns()
        try:
            closes = M.closes_at(B.braid_word(m, letters), target, budget)
            status = "FAILED" if closes is None else "ok"
        except M.BudgetExceededError:
            status, closes = "UNRESOLVED", None
        rows.append(VerifyRow(rid, tag, status, closes, (time.perf_counter_ns() - t0) // 1000))
    return rows


def verify(pres: Presentation, budget: int = M.DEFAULT_BUDGET) -> VerificationReport:
    """Verify every relator of a presentation under its generator assignment.

    Each relator's braid image closes up to the sphere level, or up to the
    permutation level for the finite quotient, which gets an extra row
    checking the order of the generated image.
    """
    params: dict = {"n": pres.n, "artin_convention": M.ARTIN_CONVENTION}
    if pres.k is not None:
        params["k"] = pres.k
    assign = braid_assignment(pres)
    items = [(rid, tag, image_letters(rel, assign))
             for rid, tag, rel in zip(pres.ids, pres.tags, pres.relators)]
    vw = pres.name == "vw"
    rows = _verify_rows(2 * pres.n + 2, items, "permutation" if vw else "sphere_mcg", budget)
    if vw:
        t0 = time.perf_counter_ns()
        order = len(P.generated_subgroup(B.perm_of_braid(b) for b in assign.values()))
        want = 2 * math.factorial(pres.n + 1)
        rows.append(VerifyRow("(order)", "(order)", "ok" if order == want else "FAILED",
                              "permutation" if order == want else None,
                              (time.perf_counter_ns() - t0) // 1000))
    return VerificationReport(pres.name, params, tuple(rows))


# --- braid-level identity schedule (conjugation ladders etc.) -----------------------

def _lemma_schedule(n: int) -> list[tuple[str, str, list[int]]]:
    """(id, tag, braid letters of lhs*rhs^-1) for the identity suite: the
    relator families of ``prop-lh`` and ``ph1``, then the conjugation ladders,
    index slides, hoists and the loop and full-twist words that no builder
    emits."""
    N = n + 1
    prop, ph1 = build_prop_LH(n), build_PH1(n)
    prop_assign = braid_assignment(prop)
    e = _Emitter(prop.generators)

    # block-twist conjugation ladders
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            for ex in (1, -1):
                down: list[int] = []
                for a in range(j - 1, i - 1, -1):
                    down += _pw(e.s(a), ex)
                up = down[::-1]  # one letter per block swap
                e.add("t-ladder", f"[desc-bottom,{i},{j},e={ex}]",
                      _eq(down + e.t(i), e.t(j) + down))
                e.add("t-ladder", f"[asc-top,{i},{j},e={ex}]",
                      _eq(up + e.t(j), e.t(i) + up))
                for k in range(i + 1, j + 1):
                    e.add("t-ladder", f"[desc-mid,{i},{j},k={k},e={ex}]",
                          _eq(down + e.t(k), e.t(k - 1) + down))
                    e.add("t-ladder", f"[asc-mid,{i},{j},k={k},e={ex}]",
                          _eq(up + e.t(k - 1), e.t(k) + up))

    # index-slides and the hoist form of distant pairs
    for al in "pxy":
        for i in range(1, N + 1):
            for j in range(i + 2, N + 1):
                e.add("slide-left", f"[{al},{i},{j}]",
                      _eq(_inv(e.s(j - 1)) + e.pair(al, i, j) + e.s(j - 1), e.pair(al, i, j - 1)))
            for j in range(i + 1, N + 1):
                if i >= 2:
                    e.add("slide-up", f"[{al},{i},{j}]",
                          _eq(_inv(e.s(i - 1)) + e.pair(al, i, j) + e.s(i - 1), e.pair(al, i - 1, j)))
        for i in range(2, n + 1):
            for ex in (1, -1):
                sL, sR = _pw(e.s(i - 1), ex), _pw(e.s(i), ex)
                e.add("swap-conj", f"[{al},i={i},e={ex}]",
                      _eq(sL + e.pair(al, i, i + 1) + _inv(sL), _inv(sR) + e.pair(al, i - 1, i) + sR))
        for i in range(1, N + 1):
            for j in range(i + 2, N + 1):
                pre: list[int] = []
                for a in range(i, j - 1):
                    pre += _inv(e.s(a))
                e.add("hoist", f"[{al},{i},{j}]",
                      _eq(e.pair(al, i, j), pre + e.pair(al, j - 1, j) + _inv(pre)))

    _emit_rho_t_comm(e, n, "rho-t-comm")

    # families the builders emit, expanded through their assignments.  (4)
    # and (5) are sphere-level words, (6)(b) and (6)(c) restate the
    # dictionary's own definitions, and (C-tt) repeats (1)(c).
    out: list[tuple[str, str, list[int]]] = []
    for pres, assign, skip in ((prop, prop_assign, ("(4)", "(5)", "(6)(b)", "(6)(c)")),
                               (ph1, braid_assignment(ph1), ("(C-tt)",)),
                               (e.build("", n), prop_assign, ())):
        for rid, tag, rel in zip(pres.ids, pres.tags, pres.relators):
            if tag not in skip:
                out.append((pres.name + rid, pres.name + tag, image_letters(rel, assign)))

    # the loop word and the full twist, spelled as in (Z), (F) and (4), against
    # their letter words
    z = B.build_generator("z", n)
    for tag, letters, word in (("z-word", _z_relator_tokens(e, n), z),
                               ("fulltwist-word", _f_relator_tokens(e, n), B.full_twist(2 * n + 2)),
                               ("zeta-image", _zeta_tokens(e, n), z)):
        rel = reduce(prop.alphabet, letters)
        out.append((tag, tag, image_letters(rel, prop_assign) + list(word.inverse().letters)))
    return out


def verify_lemma_identities(n: int, budget: int = M.DEFAULT_BUDGET) -> VerificationReport:
    """Verify the worked braid identities behind the presentations: the
    builders' relator families (dictionary, commutation schedules, shift and
    rho conjugation), ladders, slides, hoists, the loop and full-twist words.
    Supported for n <= 5."""
    _check_n(n)
    if n > 5:
        raise ValueError("identity suite is sized for n <= 5")
    rows = _verify_rows(2 * n + 2, _lemma_schedule(n), "sphere_mcg", budget)
    return VerificationReport("lemmas", {"n": n, "artin_convention": M.ARTIN_CONVENTION},
                              tuple(rows))
