"""End-to-end command-line interface behavior."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

import hilden.spheremcg as M
from hilden.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv + ["--format", "json"])
    return code, (json.loads(out) if out else None), err


# --- verify -----------------------------------------------------------------------


def test_verify_lh_json_schema():
    code, d, _ = run_json(["verify", "--group", "lh", "--n", "1"])
    assert code == 0
    assert d["schema"] == 1 and d["command"] == "verify"
    assert d["params"]["group"] == "lh" and d["params"]["n"] == 1
    assert len(d["rows"]) == 12
    for row in d["rows"]:
        assert {"id", "tag", "status", "closes_at", "micros"} <= set(row)
        assert row["status"] == "ok"


def test_verify_text_contains_summary():
    code, out, _ = run(["verify", "--group", "vw", "--n", "1"])
    assert code == 0
    assert "summary:" in out and "(order)" in out
    assert "permutation" in out


def test_verify_lemmas():
    code, d, _ = run_json(["verify", "--group", "lemmas", "--n", "1"])
    assert code == 0
    assert len(d["rows"]) == 38 and all(r["closes_at"] == "braid" for r in d["rows"])


def test_verify_lemmas_rejects_k_like_every_group_without_one():
    code, out, err = run(["verify", "--group", "lemmas", "--n", "2", "--k", "5"])
    assert code == 2 and out == ""
    assert "presentation 'lemmas' takes no k" in err
    code, _, err = run(["verify", "--group", "lh", "--n", "2", "--k", "5"])
    assert code == 2 and "presentation 'lh' takes no k" in err


def test_verify_lemmas_past_n5_is_a_usage_error():
    code, out, err = run(["verify", "--group", "lemmas", "--n", "6"])
    assert code == 2 and out == ""
    assert "identity suite is sized for n <= 5" in err


def test_verify_records_the_artin_convention():
    code, d, _ = run_json(["verify", "--group", "ph", "--n", "1"])
    assert code == 0
    assert "x_i" in d["params"]["artin_convention"]


# --- h1 ----------------------------------------------------------------------------


def test_h1_lh_range():
    code, d, _ = run_json(["h1", "--group", "lh", "--n", "1..10"])
    assert code == 0 and len(d["rows"]) == 10
    for row in d["rows"]:
        assert row["status"] == "ok"
        assert row["free_rank"] == 1 and row["torsion"] == [2, 2]
        assert row["expected_free_rank"] == 1 and row["expected_torsion"] == [2, 2]


def test_h1_sh_grid():
    code, d, _ = run_json(["h1", "--group", "sh", "--n", "1..3", "--k", "3..4"])
    assert code == 0 and len(d["rows"]) == 6
    by_id = {r["id"]: r for r in d["rows"]}
    assert by_id["sh[n=1,k=4]"]["torsion"] == [2, 2, 2]
    assert by_id["sh[n=2,k=4]"]["torsion"] == [2, 2]
    assert by_id["sh[n=1,k=3]"]["torsion"] == [2, 2]


def test_h1_sh_requires_k():
    code, _, err = run(["h1", "--group", "sh", "--n", "1"])
    assert code == 2 and "k" in err


def test_h1_sh_rejects_small_k():
    code, _, err = run(["h1", "--group", "sh", "--n", "1", "--k", "2"])
    assert code == 2 and "k >= 3" in err


def test_h1_rejects_non_h1_groups():
    code, _, err = run(["h1", "--group", "ph", "--n", "1"])
    assert code == 2


# --- braid ------------------------------------------------------------------------------


def test_braid_eq_equal_words():
    code, d, _ = run_json(["braid", "eq", "g1 g2 g1", "g2 g1 g2", "--strands", "4"])
    assert code == 0
    row = d["rows"][0]
    assert (row["status"], row["closes_at"], row["equal"]) == ("ok", "braid", True)


def test_braid_eq_unequal_words_exit_one():
    code, d, _ = run_json(["braid", "eq", "g1", "g2", "--strands", "4"])
    assert code == 1 and d["rows"][0]["status"] == "mismatch"


def test_braid_eq_through_the_dictionary():
    code, d, _ = run_json(["braid", "eq", "s1 s1", "p1.2", "--n", "2"])
    assert code == 0 and d["rows"][0]["equal"] is True


def test_braid_eq_mcg_route():
    code, d, _ = run_json(
        ["braid", "eq", "g1 g2 g3 g3 g2 g1", "1", "--n", "1", "--mcg"]
    )
    assert code == 0 and d["rows"][0]["closes_at"] == "sphere_mcg"
    # without --mcg the same pair is a mismatch
    code, d, _ = run_json(["braid", "eq", "g1 g2 g3 g3 g2 g1", "1", "--n", "1"])
    assert code == 1 and d["rows"][0]["status"] == "mismatch"


def test_braid_eq_mcg_needs_three_strands_whatever_the_words():
    for pair in (["g1 g1", "g1 g1"], ["g1 G1", "1 g1"], ["g1", "g1 g1"]):
        code, out, err = run(["braid", "eq", "--mcg", "--strands", "2", *pair])
        assert (code, out) == (2, "")
        assert err == "hilden braid: error: sphere action needs at least 3 strands\n"


def test_braid_eq_mcg_skips_the_sphere_action_when_permutations_differ(monkeypatch):
    def no_action(*args, **kwargs):
        raise AssertionError("the sphere action ran")

    monkeypatch.setattr(M, "artin_action", no_action)
    code, d, _ = run_json(["braid", "eq", "--mcg", "--strands", "4", "g1 g2", "g2 g1"])
    assert code == 1 and d["rows"][0]["status"] == "mismatch"


def test_braid_eq_mcg_permutation_mismatch_needs_no_budget():
    # the sphere action of this pair passes a budget of 2, but the
    # permutations already differ
    code, d, _ = run_json(["braid", "eq", "--mcg", "--strands", "4", "g1 g2 g3", "g3",
                           "--budget", "2"])
    row = d["rows"][0]
    assert code == 1
    assert (row["status"], row["closes_at"], row["equal"]) == ("mismatch", None, False)


def test_braid_nf_rejects_mcg():
    code, out, err = run(["braid", "nf", "--mcg", "--strands", "4", "g1 g2"])
    assert (code, out) == (2, "")
    assert err == "hilden braid: error: --mcg applies to braid eq only\n"


def test_braid_eq_accepts_options_before_words():
    # the conjugation identity r1 rho s1 = rho s1 r1^-1 closes at braid level
    code, d, _ = run_json(["braid", "eq", "--n", "1", "r1 rho s1", "rho s1 R1"])
    assert code == 0
    assert d["rows"][0]["status"] == "ok"
    assert d["rows"][0]["closes_at"] == "braid"


def test_braid_eq_needs_two_words():
    code, _, err = run(["braid", "eq", "g1", "--strands", "3"])
    assert code == 2 and "two words" in err


def test_braid_nf_rows():
    code, d, _ = run_json(["braid", "nf", "g1 G1", "g1 g2 g1", "G1", "--strands", "3"])
    assert code == 0
    rows = d["rows"]
    assert [(r["word"], r["power"], r["canonical_length"]) for r in rows] == [
        ("g1 G1", 0, 0),
        ("g1 g2 g1", 1, 0),
        ("G1", -1, 1),
    ]
    assert rows[2]["factors"] == "(1 2 3)"
    assert rows[0]["factors"] == "-"


def test_braid_identity_literal():
    code, d, _ = run_json(["braid", "nf", "1", "--strands", "5"])
    assert code == 0 and d["rows"][0]["canonical_length"] == 0


def test_braid_words_file(tmp_path):
    p = tmp_path / "words.txt"
    p.write_text("g1 g2 g1\n\n# a comment line\ng2 g1 g2\n")
    code, d, _ = run_json(["braid", "nf", "--words-file", str(p), "--strands", "4"])
    assert code == 0
    assert [r["word"] for r in d["rows"]] == ["g1 g2 g1", "g2 g1 g2"]


def test_braid_words_file_conflicts_with_inline(tmp_path):
    p = tmp_path / "words.txt"
    p.write_text("g1\n")
    code, _, err = run(["braid", "nf", "g1", "--words-file", str(p), "--strands", "3"])
    assert code == 2


def test_braid_needs_exactly_one_strand_source():
    code, _, err = run(["braid", "nf", "g1"])
    assert code == 2
    code, _, err = run(["braid", "nf", "g1", "--strands", "3", "--n", "1"])
    assert code == 2


def test_braid_parse_error_is_a_usage_error():
    code, _, err = run(["braid", "eq", "g1 bogus!", "g1", "--strands", "3"])
    assert code == 2 and "bogus" in err


def test_braid_rejects_n_zero():
    for word in ("g1", "rho"):
        code, out, err = run(["braid", "nf", "--n", "0", word])
        assert (code, out) == (2, "")
        assert err == "hilden braid: error: n must be >= 1\n"


def test_braid_rejects_a_bad_strand_count_without_words():
    for strands in ("0", "1", "-2"):
        code, out, err = run(["braid", "nf", "--strands", strands])
        assert (code, out) == (2, "")
        assert err == "hilden braid: error: need at least 2 strands\n"
    code, out, err = run(["braid", "nf", "--n", "0"])
    assert (code, out, err) == (2, "", "hilden braid: error: n must be >= 1\n")


def test_text_summary_of_no_rows():
    code, out, _ = run(["braid", "nf", "--strands", "3"])
    assert code == 0
    assert out.splitlines()[-1] == "summary: 0 rows"


# --- subgroups ----------------------------------------------------------------------------


def test_subgroups_orders():
    code, d, _ = run_json(["subgroups", "--n", "2"])
    assert code == 0
    orders = {r["id"]: r["order"] for r in d["rows"]}
    assert orders == {"W": 72, "V": 48, "VW": 12, "S^oe": 6, "S^oxS^e": 36}


def test_subgroups_orders_smallest_case():
    code, d, _ = run_json(["subgroups", "--n", "1"])
    assert code == 0
    orders = {r["id"]: r["order"] for r in d["rows"]}
    assert orders == {"W": 8, "V": 8, "VW": 4, "S^oe": 2, "S^oxS^e": 4}


def test_subgroups_element_dump():
    code, d, _ = run_json(["subgroups", "--n", "1", "--elements"])
    assert code == 0
    for row in d["rows"]:
        assert len(row["elements"]) == row["order"]
        assert row["elements"][0] == "id"
        assert all(isinstance(c, str) for c in row["elements"])
    vw = next(r for r in d["rows"] if r["id"] == "VW")
    assert set(vw["elements"]) == {"id", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"}
    # without the flag the rows stay lean
    _, lean, _ = run_json(["subgroups", "--n", "1"])
    assert all("elements" not in r for r in lean["rows"])


def test_subgroups_capacity_error():
    code, _, err = run(["subgroups", "--n", "5"])
    assert code == 2
    assert err == ("hilden subgroups: error: n=5 exceeds enumeration capacity (max n=4: "
                   "W has 2((n+1)!)^2 elements, 1,036,800 at n=5)\n")


# --- liftable -----------------------------------------------------------------------------


def test_liftable_true_and_false_both_exit_zero():
    code, d, _ = run_json(["liftable", "s1", "--n", "1"])
    assert code == 0 and d["rows"][0]["liftable"] is True
    code, d, _ = run_json(["liftable", "g2", "--n", "1"])
    assert code == 0 and d["rows"][0]["liftable"] is False
    assert d["rows"][0]["perm"] == "(2 3)"


def test_liftable_single_vs_paired_crossings():
    # one crossing inside a block is not liftable; crossing both blocks is
    code, d, _ = run_json(["liftable", "--n", "1", "g1"])
    assert code == 0 and d["rows"][0]["liftable"] is False
    code, d, _ = run_json(["liftable", "--n", "1", "g1 g3"])
    assert code == 0 and d["rows"][0]["liftable"] is True


# --- shared behavior ------------------------------------------------------------------------


def test_out_writes_the_report_file(tmp_path):
    p = tmp_path / "report.json"
    code, out, _ = run(["subgroups", "--n", "1", "--format", "json", "--out", str(p)])
    assert code == 0 and out == ""
    d = json.loads(p.read_text())
    assert d["command"] == "subgroups" and len(d["rows"]) == 5


def test_text_format_is_rendered_from_the_same_report(tmp_path):
    p = tmp_path / "report.json"
    code, text_out, _ = run(
        ["h1", "--group", "lh", "--n", "1..3", "--out", str(p), "--format", "json"]
    )
    d = json.loads(p.read_text())
    code2, text, _ = run(["h1", "--group", "lh", "--n", "1..3"])
    for row in d["rows"]:
        assert row["id"] in text


def test_usage_errors_exit_two():
    assert run([])[0] == 2
    assert run(["verify", "--group", "nosuch", "--n", "1"])[0] == 2
    assert run(["verify", "--group", "lh"])[0] == 2
    assert run(["verify", "--group", "lh", "--n", "0"])[0] == 2
    assert run(["h1", "--group", "lh", "--n", "10..1"])[0] == 2
    for k in ("3..", "3,4"):
        code, out, err = run(["h1", "--group", "sh", "--n", "1", "--k", k])
        assert (code, out) == (2, "")
        assert f"bad range '{k}': use N or LO..HI" in err
    assert run(["verify", "--group", "vw", "--n", "1", "--jobs", "0"])[0] == 2
    assert run(["verify", "--group", "vw", "--n", "1", "--budget", "-5"])[0] == 2


def test_csv_format_renders_the_row_table():
    import csv as csvmod

    code, out, _ = run(["h1", "--group", "lh", "--n", "1..10", "--format", "csv"])
    assert code == 0
    rows = list(csvmod.reader(io.StringIO(out)))
    assert rows[0] == ["id", "tag", "status", "closes_at", "micros",
                       "expected_free_rank", "expected_torsion", "free_rank", "torsion"]
    assert len(rows) == 11
    assert rows[1][0] == "lh[n=1]" and rows[1][2] == "ok"
    assert rows[1][6] == "[2, 2]" == rows[1][8]

    # every command shares the renderer
    code, out, _ = run(["verify", "--group", "vw", "--n", "1", "--format", "csv"])
    assert code == 0
    rows = list(csvmod.reader(io.StringIO(out)))
    assert rows[0][:3] == ["id", "tag", "status"]
    assert len(rows) == 1 + 4  # header + three relators + the order row


def test_every_command_accepts_the_shared_tuning_flags():
    assert run(["h1", "--group", "lh", "--n", "1", "--jobs", "2", "--budget", "10"])[0] == 0
    assert run(["subgroups", "--n", "1", "--jobs", "1", "--budget", "10"])[0] == 0
    assert run(["liftable", "s1", "--n", "1", "--jobs", "1", "--budget", "10"])[0] == 0
    assert run(["braid", "nf", "g1", "--strands", "3", "--jobs", "2"])[0] == 0


def test_help_exits_zero():
    code, out, _ = run(["--help"])
    assert code == 0 and out.startswith("usage:")


def test_repeated_calls_in_one_process_do_not_share_state():
    from hilden.cli import _build_parser

    _build_parser.cache_clear()
    calls = [
        ["braid", "eq", "--strands", "4", "--mcg", "g1 g2 g3 g3 g2 g1", "1", "--format", "json"],
        ["braid", "nf", "--strands", "4", "g1 g2", "--format", "json"],
        ["verify", "--group", "nope", "--n", "1"],
        ["--help"],
        ["braid", "eq", "--strands", "4", "g1 g2 g3 g3 g2 g1", "1", "--format", "json"],
        ["braid", "nf", "g1", "--strands", "3", "--format", "json"],
    ]

    def strip_micros(result):
        code, out, err = result
        if out.startswith("{"):
            d = json.loads(out)
            for row in d["rows"]:
                row.pop("micros")
            out = d
        return code, out, err

    first = [strip_micros(run(argv)) for argv in calls]
    assert [r[0] for r in first] == [0, 0, 2, 0, 1, 0]
    # words and --mcg of the first call are not carried into later ones
    assert first[1][1]["params"]["words"] == ["g1 g2"]
    assert first[4][1]["rows"][0]["status"] == "mismatch"
    for _ in range(2):
        for argv, want in zip(reversed(calls), reversed(first)):
            assert strip_micros(run(argv)) == want


def test_bad_status_drives_the_exit_code():
    # an unresolved sphere check (tiny budget) must not exit 0
    code, d, _ = run_json(["verify", "--group", "lh", "--n", "1", "--budget", "1"])
    assert code == 1
    statuses = {r["status"] for r in d["rows"]}
    assert "UNRESOLVED" in statuses
