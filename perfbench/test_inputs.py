"""Checks of the benchmark's own inputs and checker.

Run from the checkout root:

    PYTHONPATH=src python3 -m pytest perfbench/test_inputs.py
"""

import copy

import pytest

from hilden.braids import braid_word, braids_equal
from hilden.spheremcg import mcg_equal
from perfbench.workloads import PAIR_BUILDERS, PAIRS_PER_CELL, STRANDS, check, commands

ORACLES = {"braid": (True, True), "sphere": (False, True), "unequal": (False, False)}


@pytest.mark.parametrize("seed", [0, 1])
def test_pair_labels_agree_with_both_oracles(seed):
    cells = {}
    for cmd in commands("interactive", seed):
        expect = cmd["expect"]
        if expect["kind"] != "eq":
            continue
        m, label = expect["m"], expect["label"]
        a, b = (braid_word(m, w) for w in expect["words"])
        assert (braids_equal(a, b), mcg_equal(a, b)) == ORACLES[label], (m, label, cmd["argv"])
        cells[(m, label)] = cells.get((m, label), 0) + 1
    assert cells == {(m, label): PAIRS_PER_CELL for m in STRANDS for label in PAIR_BUILDERS}


@pytest.mark.parametrize("seed", [0, 1])
def test_nf_words_are_equal_braids(seed):
    for cmd in commands("interactive", seed):
        if cmd["expect"]["kind"] == "nf":
            m = cmd["expect"]["m"]
            a, b = (braid_word(m, w) for w in cmd["expect"]["words"])
            assert braids_equal(a, b)


def test_same_seed_same_inputs():
    for workload in ("batch-verify", "interactive", "algebra"):
        assert commands(workload, 3) == commands(workload, 3)
    assert commands("interactive", 3) != commands("interactive", 4)


def _report(rows):
    return {"schema": 1, "command": "x", "params": {}, "rows": rows}


def test_checker_rejects_wrong_answers():
    subgroups = next(c["expect"] for c in commands("algebra", 0)
                     if c["expect"]["kind"] == "subgroups")
    rows = [{"id": k, "status": "ok", "order": v} for k, v in subgroups["orders"].items()]
    assert check(subgroups, 0, _report(rows))[1] == 0
    wrong = copy.deepcopy(rows)
    wrong[0]["order"] += 1
    assert check(subgroups, 0, _report(wrong))[1] == 1

    eq = {"kind": "eq", "label": "unequal"}
    mismatch = {"status": "mismatch", "closes_at": None, "equal": False}
    assert check(eq, 1, _report([mismatch])) == (1, 0, None)
    assert check(eq, 0, _report([{**mismatch, "status": "ok", "equal": True}]))[1] == 1
    assert check({"kind": "verify", "rows": 2}, 0, _report([{"status": "ok"}]))[1] == 2
