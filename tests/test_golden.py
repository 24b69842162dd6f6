"""sha256 digests of everything the builders emit.

Each digest covers the JSON of one builder at n = 1..4 (``sh`` at k = 3..5)
or at larger n, the identity schedule's (id, tag, freely reduced letters) rows, or the
letters of a builder's generator assignment.  A changed relator, tag, id,
image letter or order changes a digest, so a refactor of the builders, the
token grammar or the assignments that keeps these passing keeps every byte
of their output.
"""

import hashlib
import json

import pytest

from hilden.braids import braid_word
from hilden.presentations import (
    _lemma_schedule,
    braid_assignment,
    build_presentation,
    perm_assignment,
)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def _presentations(name):
    ks = (3, 4, 5) if name == "sh" else (None,)
    return [build_presentation(name, n, k) for n in range(1, 5) for k in ks]


BUILDER_JSON = {
    "lh":
        "4af975b944f87785ccd757300a6d938762ad1defe368dbe3e2ac27313019dc84",
    "ph1":
        "a1bd043996f6abf70b68b7c1ba80611822e9823994bc0d4fabdf3eef99d02c34",
    "ph":
        "a72df85eadca6465abbfc1d422c31f6b4146be64a365fdb9345b8be02f13b5b8",
    "vw":
        "abbb71616156aa584022c6783d4b190b63aaa3fd4cdbf03d59663367c9641945",
    "intermediate-lh":
        "2e5a1bb78f129d6081703e4259d8dada5c360e840cec289e80222feb1ab8812e",
    "prop-lh":
        "e8fc58809709ca1630858550320887707f372513735c90753736e17225bfc511",
    "sh":
        "8b6a653b27c59bb12a8788f021e0f9a48e995c4678aadbf2e8bca6b692dd242b",
}

# Past the n <= 4 above: lh and vw at the algebra sweep's n = 5..20, the
# others at n = 5, 6 (sh at k = 3..6).
LARGE_BUILDER_CASES = {
    "lh": [(n, None) for n in range(5, 21)],
    "vw": [(n, None) for n in range(5, 21)],
    "sh": [(n, k) for n in (5, 6) for k in range(3, 7)],
    "ph": [(n, None) for n in (5, 6)],
    "ph1": [(n, None) for n in (5, 6)],
    "intermediate-lh": [(n, None) for n in (5, 6)],
    "prop-lh": [(n, None) for n in (5, 6)],
}

LARGE_BUILDER_JSON = {
    "lh":
        "56382eb3be82333875d027db8d5136b4bd19948e676ab7d3f30fbc2c007a5ddc",
    "vw":
        "2040941517eee43ae296d5b278932629342e2469998375f392bf5f901715ad42",
    "sh":
        "12f8e2315f8ee964d1e5f268f50ce422778031c618eff497badd7193c13beff2",
    "ph":
        "716b8f5acd2a805a6d1c19efbe9f23f31a6feff294efb9a198474e100060d8c1",
    "ph1":
        "2095663f451859e5aa3461c13295b9832af3fa1ca1a9106b3cfdc1aae19c732d",
    "intermediate-lh":
        "b7174d1180a00651ca1e74ff689377da747fbcd3c14824d10304ec3132e3328c",
    "prop-lh":
        "f6975485cf5edc35742b98e67f6bce37879b369a513f6ba955811d39ac534f1d",
}

ASSIGNMENT_LETTERS = {
    "lh":
        "ff68900a929bc93f6c8179c3ae6ebafd18a83b2f3608d21e8e5c5a09d12d9eb2",
    "ph1":
        "32c3549f8ef1840098e1c575ee9b38872416e9d31699e6bc86c4c34e706550f0",
    "ph":
        "32c3549f8ef1840098e1c575ee9b38872416e9d31699e6bc86c4c34e706550f0",
    "vw":
        "b7e35b7067571d10872d8cae91f5941b9520766dbf0b17206754616388af1853",
    "intermediate-lh":
        "13cdf96898d68de2504fadc485a9fbf00693671a5c7e4b1a5e76272f0aabbf43",
    "prop-lh":
        "1710437e5786e501139c1d58e453358f63126e04b1a06db7535887c706fc79ce",
    "sh":
        "1f48506417d31d810d1102378952e6c395b7b60d173cdb21f154a149701877db",
}

LEMMA_SCHEDULE = {
    1:
        "0b3f13ed0774ed7fd1152acabbac99238a8a09cf97f85cf601db5bc4eff6709e",
    2:
        "15fb542533dd5c31093c478683f166136f460fd9eac4574006fe52e9a824afe8",
    3:
        "3994d839e4e776a61f70418cf55a38c95db98218bcf1f1ba318866143fc53124",
    4:
        "8cf6af5e32714428009c3b11de208e5784ace1796dffb0dc324a4deba239c950",
    5:
        "7878eb0441841ef1c2a3fb2f2a34e9887ed121f09bc2d9b48e2d09e1808620ed",
}


@pytest.mark.parametrize("name", sorted(BUILDER_JSON))
def test_builder_json_is_pinned(name):
    got = _digest([pres.to_json_dict() for pres in _presentations(name)])
    assert got == BUILDER_JSON[name]


@pytest.mark.parametrize("name", sorted(LARGE_BUILDER_JSON))
def test_builder_json_past_n4_is_pinned(name):
    pres = [build_presentation(name, n, k) for n, k in LARGE_BUILDER_CASES[name]]
    assert _digest([p.to_json_dict() for p in pres]) == LARGE_BUILDER_JSON[name]


@pytest.mark.parametrize("name", sorted(ASSIGNMENT_LETTERS))
def test_assignment_letters_are_pinned(name):
    images = []
    for pres in _presentations(name):
        if name == "vw":
            images.append([[g, list(p.images)] for g, p in perm_assignment(pres).items()])
        else:
            images.append([[g, list(w.letters)] for g, w in braid_assignment(pres).items()])
    assert _digest(images) == ASSIGNMENT_LETTERS[name]


@pytest.mark.parametrize("n", sorted(LEMMA_SCHEDULE))
def test_lemma_schedule_is_pinned(n):
    m = 2 * n + 2
    rows = [[rid, tag, list(braid_word(m, letters).letters)]
            for rid, tag, letters in _lemma_schedule(n)]
    assert _digest(rows) == LEMMA_SCHEDULE[n]
