"""Command-line interface.

Subcommands:

    verify     check every relator of a presentation (or the identity suite)
    h1         first-homology sweeps against the recorded closed forms
    braid      eq (exact word problem, optionally up to sphere mapping class)
               and nf (Garside normal form) for braid words
    subgroups  orders of the named permutation subgroups
    liftable   liftability of a braid word's marked-sphere class

Every command builds one JSON report ``{schema: 1, command, params, rows}``;
the text format is rendered from that same report.  Exit status is 0 exactly
when no row is FAILED, UNRESOLVED, or mismatch; usage and parse errors
exit 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time

from . import braids as B
from . import homology as H
from . import perms as P
from . import presentations as PRES
from . import spheremcg as M

_BAD_STATUSES = ("FAILED", "UNRESOLVED", "mismatch")

_GROUPS = ("lh", "ph", "ph1", "prop-lh", "intermediate-lh", "sh", "vw", "lemmas")


def _parse_range(text: str) -> list[int]:
    """'3' -> [3]; '1..10' -> [1, ..., 10]."""
    lo, sep, hi = text.partition("..")
    try:
        out = list(range(int(lo), int(hi) + 1)) if sep else [int(text)]
    except ValueError:
        raise ValueError(f"bad range {text!r}: use N or LO..HI") from None
    if not out:
        raise ValueError(f"empty range {text!r}")
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on first use and kept: argparse reads sys.stdout/sys.stderr when
    # it prints, and every parse starts from a fresh namespace
    ap = argparse.ArgumentParser(prog="hilden", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; verification is serial")
        p.add_argument("--budget", type=int, default=M.DEFAULT_BUDGET,
                       help="sphere-oracle letter cap (where applicable)")
        p.add_argument("--format", choices=("json", "text", "csv"), default="text")
        p.add_argument("--out", metavar="PATH", help="write the report to a file")

    pv = sub.add_parser("verify", help="verify presentation relators")
    pv.add_argument("--group", required=True, choices=_GROUPS)
    pv.add_argument("--n", required=True, type=int)
    pv.add_argument("--k", type=int)
    common(pv)

    ph = sub.add_parser("h1", help="first homology sweeps")
    ph.add_argument("--group", required=True, choices=("lh", "sh"))
    ph.add_argument("--n", required=True, help="value or range like 1..10")
    ph.add_argument("--k", help="value or range (sh only), each >= 3")
    common(ph)

    pb = sub.add_parser("braid", help="braid word problem and normal forms")
    pb.add_argument("mode", choices=("eq", "nf"))
    pb.add_argument("words", nargs="*", help="braid words in token form")
    pb.add_argument("--strands", type=int)
    pb.add_argument("--n", type=int, help="block count; strands = 2n + 2")
    pb.add_argument("--mcg", action="store_true",
                    help="for eq: also compare as marked-sphere classes")
    pb.add_argument("--words-file", metavar="PATH", help="read words, one per line")
    common(pb)

    ps = sub.add_parser("subgroups", help="orders of the named subgroups")
    ps.add_argument("--n", required=True, type=int)
    ps.add_argument("--elements", action="store_true",
                    help="include each subgroup's elements as cycle strings")
    common(ps)

    pl = sub.add_parser("liftable", help="liftability of a braid word")
    pl.add_argument("word")
    pl.add_argument("--n", required=True, type=int)
    common(pl)
    return ap


def _emit(report: dict, args) -> int:
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif fmt == "csv":
        text = _render_csv(report)
    else:
        text = _render_text(report)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    bad = sum(1 for row in report["rows"] if row.get("status") in _BAD_STATUSES)
    return 1 if bad else 0


def _row_columns(rows: list[dict]) -> list[str]:
    keys = ["id", "tag", "status", "closes_at", "micros"]
    return keys + sorted({k for row in rows for k in row} - set(keys))


def _render_csv(report: dict) -> str:
    rows = report["rows"]
    keys = _row_columns(rows)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(keys)
    for row in rows:
        writer.writerow(["" if row.get(k) is None else row.get(k) for k in keys])
    return buf.getvalue()


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    if report["params"]:
        lines.append("params: " + " ".join(f"{k}={v}" for k, v in report["params"].items()))
    rows = report["rows"]
    if rows:
        keys = _row_columns(rows)
        table = [[("" if row.get(k) is None else str(row.get(k))) for k in keys] for row in rows]
        widths = [max(len(keys[j]), max(len(t[j]) for t in table)) for j in range(len(keys))]
        lines.append("  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip())
        for t in table:
            lines.append("  ".join(v.ljust(w) for v, w in zip(t, widths)).rstrip())
    counts: dict[str, int] = {}
    for row in rows:
        s = row.get("status", "ok")
        counts[s] = counts.get(s, 0) + 1
    lines.append(f"summary: {len(rows)} rows"
                 + "".join(f", {v} {k}" for k, v in sorted(counts.items())))
    return "\n".join(lines) + "\n"


def _report(command: str, params: dict, rows: list[dict]) -> dict:
    return {"schema": 1, "command": command, "params": params, "rows": rows}


def _cmd_verify(args) -> int:
    if args.group == "lemmas":
        if args.k is not None:
            raise ValueError("presentation 'lemmas' takes no k")
        rep = PRES.verify_lemma_identities(args.n, budget=args.budget)
    else:
        pres = PRES.build_presentation(args.group, args.n, args.k)
        rep = PRES.verify(pres, budget=args.budget)
    params = {"group": args.group, **rep.params}
    rows = [r.to_json_dict() for r in rep.rows]
    return _emit(_report("verify", params, rows), args)


def _cmd_h1(args) -> int:
    ns = _parse_range(args.n)
    if args.group == "sh":
        if not args.k:
            raise ValueError("h1 --group sh needs --k")
        ks = _parse_range(args.k)
        for k in ks:
            if k < 3:
                raise ValueError(f"k={k} not supported: the handlebody family needs k >= 3")
        cases = [(n, k) for n in ns for k in ks]
    else:
        if args.k:
            raise ValueError("--k only applies to sh")
        cases = [(n, None) for n in ns]
    rows = []
    for n, k in cases:
        t0 = time.perf_counter_ns()
        pres = PRES.build_presentation(args.group, n, k)
        got = H.h1_of_presentation(pres).invariants
        want = H.expected_h1(args.group, n, k)
        rid = f"{args.group}[n={n}]" if k is None else f"{args.group}[n={n},k={k}]"
        rows.append({
            "id": rid, "tag": "h1",
            "status": "ok" if got == want else "mismatch",
            "closes_at": None,
            "micros": (time.perf_counter_ns() - t0) // 1000,
            "free_rank": got.free_rank, "torsion": list(got.torsion),
            "expected_free_rank": want.free_rank, "expected_torsion": list(want.torsion),
        })
    params = {"group": args.group, "n": args.n}
    if args.group == "sh":
        params["k"] = args.k
    return _emit(_report("h1", params, rows), args)


def _read_words(args) -> list[str]:
    words = list(args.words)
    if args.words_file:
        if words:
            raise ValueError("give words inline or via --words-file, not both")
        with open(args.words_file) as fh:
            words = [ln.strip() for ln in fh
                     if ln.strip() and not ln.lstrip().startswith("#")]
    return words


def _cmd_braid(args) -> int:
    if args.mcg and args.mode != "eq":
        raise ValueError("--mcg applies to braid eq only")
    if (args.strands is None) == (args.n is None):
        raise ValueError("give exactly one of --strands or --n")
    if args.n is not None and args.n < 1:
        raise ValueError("n must be >= 1")
    strands = args.strands if args.strands is not None else 2 * args.n + 2
    if strands < 2:
        raise ValueError("need at least 2 strands")
    if args.mcg and strands < 3:
        raise ValueError("sphere action needs at least 3 strands")
    words = _read_words(args)
    parsed = [B.parse_braid_text(w, strands=args.strands, n=args.n) for w in words]
    params = {"mode": args.mode, "strands": strands, "words": list(words)}
    if args.n is not None:
        params["n"] = args.n
    rows = []
    if args.mode == "eq":
        if len(parsed) != 2:
            raise ValueError("braid eq needs exactly two words")
        a, b = parsed
        t0 = time.perf_counter_ns()
        try:
            closes = M.closes_at(a * b.inverse(), "sphere_mcg" if args.mcg else "braid",
                                 args.budget)
            status, equal = ("ok", True) if closes else ("mismatch", False)
        except M.BudgetExceededError:
            status, closes, equal = "UNRESOLVED", None, None
        rows.append({"id": "eq", "tag": "braid-eq", "status": status,
                     "closes_at": closes,
                     "micros": (time.perf_counter_ns() - t0) // 1000,
                     "equal": equal})
    else:
        for idx, bw in enumerate(parsed):
            t0 = time.perf_counter_ns()
            nf = B.normal_form(bw)
            rows.append({"id": f"w{idx}", "tag": "braid-nf", "status": "ok",
                         "closes_at": None, "word": words[idx],
                         "micros": (time.perf_counter_ns() - t0) // 1000,
                         "power": nf.power,
                         "canonical_length": nf.canonical_length,
                         "factors": "; ".join(str(f) for f in nf.factors) or "-"})
    return _emit(_report("braid", params, rows), args)


def _cmd_subgroups(args) -> int:
    rows = []
    for label in P.SUBGROUP_LABELS:
        t0 = time.perf_counter_ns()
        table = P.enumerate_subgroup(label, args.n)
        row = {"id": label, "tag": "subgroup", "status": "ok",
               "closes_at": None,
               "micros": (time.perf_counter_ns() - t0) // 1000,
               "order": table.order}
        if args.elements:
            row["elements"] = P.subgroup_table_json(table)["elements"]
        rows.append(row)
    return _emit(_report("subgroups", {"n": args.n, "m": 2 * args.n + 2}, rows), args)


def _cmd_liftable(args) -> int:
    bw = B.parse_braid_text(args.word, n=args.n)
    t0 = time.perf_counter_ns()
    perm = B.perm_of_braid(bw)
    result = P.is_liftable(perm)
    rows = [{"id": "liftable", "tag": "liftable", "status": "ok",
             "closes_at": None,
             "micros": (time.perf_counter_ns() - t0) // 1000,
             "liftable": result, "perm": str(perm)}]
    return _emit(_report("liftable", {"n": args.n, "word": args.word}, rows), args)


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args, extras = ap.parse_known_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if extras:
        # argparse cannot match a nargs="*" positional that follows options
        # (e.g. `braid eq --n 1 W1 W2`); leftover non-flag tokens are words.
        if getattr(args, "command", None) != "braid" or any(a.startswith("-") for a in extras):
            print(f"hilden: error: unrecognized arguments: {' '.join(extras)}",
                  file=sys.stderr)
            return 2
        args.words = list(args.words) + extras
    if getattr(args, "jobs", 1) < 1 or getattr(args, "budget", 1) < 1:
        print("hilden: error: --jobs and --budget must be >= 1", file=sys.stderr)
        return 2
    handlers = {"verify": _cmd_verify, "h1": _cmd_h1, "braid": _cmd_braid,
                "subgroups": _cmd_subgroups, "liftable": _cmd_liftable}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as e:
        print(f"hilden {args.command}: error: {e}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
