"""Command-line front end: compute invariants, run the oracle, characterize.

Exit codes: 0 success; 1 a compare, selftest or example-84 failure, or the
oracle element budget (CapacityExceeded); 2 a configuration or input error,
argparse usage errors included.
All emitted JSON/CSV carries big integers as decimal strings and deterministic
key ordering, so outputs are usable as golden files.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from . import oracle, primegraph, sympl
from .arith import divisibility_predicates, search_catalan
from .characterize import (
    CONFIRMING,
    NEEDS_MANUAL_LEMMA,
    OUTCOME_HYPOTHESES_NOT_MET,
    OUTCOME_ISOMORPHIC,
    characterize,
    verdict_json,
)
# re-exported: perfbench reads the oracle's element budget from here
from .oracle import DEFAULT_MAX_ENUM

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psp4nse",
        description="Exact invariants and characterization of PSp4(q), q = 2^f > 2",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="write class table, nse table, spectrum, prime graph")
    p_compute.add_argument("--q", type=int, required=True, help="q = 2^f > 2")
    p_compute.add_argument("--out", default=".", help="output directory")

    p_oracle = sub.add_parser("oracle", help="enumerate Sp4(q) by brute force")
    p_oracle.add_argument("--q", type=int, help="q = 2^f > 2 (enumeration feasible at q=4)")
    p_oracle.add_argument("--compare", action="store_true",
                          help="exit nonzero on any mismatch against the closed forms")
    p_oracle.add_argument("--example-84", action="store_true",
                          help="run the two order-84 groups with equal nse but different type")
    p_oracle.add_argument("--out", default=".", help="output directory")

    p_char = sub.add_parser("characterize", help="decide PSp4(q) from an order and an nse set")
    p_char.add_argument("--order", required=True, help="group order (decimal string)")
    p_char.add_argument("--nse-file", required=True,
                        help="JSON file: array of decimal strings, or an nse-table object")
    p_char.add_argument("--out", default=None, help="verdict output path (default stdout)")

    p_cat = sub.add_parser("catalan", help="classify solutions of p^m = q^n + 1")
    p_cat.add_argument("--bound", type=int, default=1_000_000, help="search bound on p^m")
    p_cat.add_argument("--out", default=None, help="output path (default stdout)")

    sub.add_parser("selftest", help="run the closed-form invariant suite at q = 4 and 8")
    return parser


def _decimal(text) -> int | None:
    """The value of an ASCII decimal string (digits only: no sign, space or
    underscore), else None."""
    if isinstance(text, str) and text.isascii() and text.isdigit():
        return int(text)
    return None


def _nse_value(v) -> int:
    """One nse entry: a JSON integer (not a bool) or a decimal string."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    value = _decimal(v)
    if value is None:
        raise ValueError(f"nse values must be JSON integers or decimal strings, got {json.dumps(v)}")
    return value


def _write_json(path: Path | str | None, obj) -> None:
    """Write obj as indented JSON to path, or to stdout when path is empty."""
    text = json.dumps(obj, indent=2) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_compute(args: argparse.Namespace) -> int:
    q = args.q
    # class_table validates q and rejects a q too large for it before any file is written
    classes_csv = sympl.class_table_csv(sympl.class_table(q))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    table = sympl.nse_table(q)
    nse_obj = sympl.nse_table_json(table)
    _write_json(out / f"nse_q{q}.json", nse_obj)

    (out / f"classes_q{q}.csv").write_text(classes_csv, encoding="utf-8")

    spec = sympl.spectrum(q)
    _write_json(out / f"spectrum_q{q}.json", {
        "q": q,
        "order": str(table.order),
        "spectrum": [str(r) for r in spec],
    })

    _write_json(out / f"prime_graph_q{q}.json", primegraph.graph_json(primegraph.prime_graph(q)))

    _write_json(None, nse_obj)
    print(f"wrote nse, classes, spectrum, prime graph for q={q} to {out}", file=sys.stderr)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.q is None and not args.example_84:
        print("oracle: nothing to do (give --q and/or --example-84)", file=sys.stderr)
        return 2
    # sp4_group validates q and refuses a q over its element budget before any file is written
    group = None if args.q is None else oracle.sp4_group(args.q)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    if args.example_84:
        specs = {
            "Z4x(Z7:Z3)": oracle.z4_times_z7_z3(),
            "Z3x(Z7:Z4)": oracle.z3_times_z7_z4(),
        }
        report = {}
        for name, spec in specs.items():
            hist = oracle.perm_nse(spec)
            report[name] = {
                "order": str(hist.total()),
                "nse": [str(v) for v in sorted(hist.nse())],
                "counts": {str(k): str(v) for k, v in sorted(hist.counts.items())},
                "G_3": str(hist.power_count(3)),
                "has_order_28": hist[28] > 0,
            }
        _write_json(out / "example_84.json", report)
        ok = (
            report["Z4x(Z7:Z3)"]["nse"] == [str(v) for v in (1, 2, 6, 12, 14, 28)]
            and report["Z3x(Z7:Z4)"]["nse"] == [str(v) for v in (1, 2, 6, 12, 14, 28)]
            and report["Z4x(Z7:Z3)"]["G_3"] == "15"
            and report["Z3x(Z7:Z4)"]["G_3"] == "3"
            and report["Z4x(Z7:Z3)"]["has_order_28"]
            and not report["Z3x(Z7:Z4)"]["has_order_28"]
        )
        print(f"example-84: nse match={ok}")
        status = 0 if ok else 1
    if group is None:
        return status

    q = args.q
    hist = oracle.order_histogram(group)
    _write_json(out / f"histogram_q{q}.json", {
        "q": q,
        "order": str(hist.total()),
        "counts": {str(k): str(v) for k, v in sorted(hist.counts.items())},
    })
    print(f"enumerated {len(group)} elements of Sp4({q})")
    if args.compare:
        table = sympl.nse_table(q)
        mismatches = []
        if hist.total() != table.order:
            mismatches.append(f"size {hist.total()} != {table.order}")
        if dict(hist.counts) != table.counts:
            mismatches.append("order histogram differs from the closed forms")
        if mismatches:
            print("compare: FAIL: " + "; ".join(mismatches))
            return 1
        print("compare: OK (histogram equals the closed-form table)")
    return status


def _cmd_characterize(args: argparse.Namespace) -> int:
    order = _decimal(args.order)
    if order is None:
        raise ValueError(f"--order must be a decimal integer, got {args.order!r}")
    text = Path(args.nse_file).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except RecursionError:
        raise ValueError("nse file is nested too deeply to parse") from None
    if isinstance(raw, dict) and isinstance(raw.get("counts"), dict):
        values = raw["counts"].values()
    elif isinstance(raw, list):
        values = raw
    else:
        raise ValueError("nse file must be a JSON array or an nse-table object")
    nse = {_nse_value(v) for v in values}
    verdict = characterize(order, nse)
    _write_json(args.out, verdict_json(verdict))
    print(f"outcome: {verdict.outcome}" + (f" (q={verdict.q})" if verdict.q else ""),
          file=sys.stderr)
    return 0


def _cmd_catalan(args: argparse.Namespace) -> int:
    sols = search_catalan(args.bound)
    _write_json(args.out, [
        {"p": str(s.p), "q": str(s.q), "m": s.m, "n": s.n, "kind": s.kind,
         "value": str(s.value)}
        for s in sols
    ])
    return 0


def _selftest_checks(q: int):
    counts = sympl.nse_table(q).counts
    rows = sympl.class_table(q)
    yield (f"q={q} partition: counts sum to |G|",
           sum(counts.values()) == sympl.group_order(q))
    by_order: dict[int, int] = {}
    for row in rows:
        by_order[row.rep_order] = by_order.get(row.rep_order, 0) + row.class_length
    yield (f"q={q} class table reproduces every same-order count", by_order == counts)
    per_family = Counter(row.family for row in rows)
    counts_ok = all(
        per_family[famname] == sympl.family_class_count(q, famname)
        for famname in sympl.CLASS_FAMILIES
    )
    yield (f"q={q} class counts match the count polynomials", counts_ok)
    yield (f"q={q} prime graph has two components",
           len(primegraph.prime_graph(q).components) == 2)
    yield (f"q={q} odd/even prime sets separated", primegraph.separation_check(q))
    verdict = characterize(sympl.group_order(q), sympl.nse_set(q))
    yield (f"q={q} characterize returns Isomorphic", verdict.outcome == OUTCOME_ISOMORPHIC)
    confirming = {e.case for e in verdict.trace.entries if e.status == CONFIRMING}
    yield (f"q={q} confirming branches are PSL2(q^2) and PSp4(q)",
           confirming == {"PSL2(q^2)", "PSp4(q)"})
    yield (f"q={q} no unresolved elimination cases",
           not verdict.trace.by_status(NEEDS_MANUAL_LEMMA))
    bad = characterize(sympl.group_order(q), sympl.nse_set(q) | {7})
    yield (f"q={q} perturbed nse set is rejected",
           bad.outcome == OUTCOME_HYPOTHESES_NOT_MET)


def _cmd_selftest() -> int:
    failures = 0
    checks = []
    for q in (4, 8):
        checks.extend(_selftest_checks(q))
    reports = [(f, divisibility_predicates(1 << f)) for f in range(2, 9)]
    pattern_ok = all(not rep["i"].divides and rep["ii"].divides == (f == 2) for f, rep in reports)
    checks.append(("divisibility predicates match the stated exceptional q", pattern_ok))
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        failures += 0 if ok else 1
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    """Parse the arguments and run one command; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "characterize":
            return _cmd_characterize(args)
        if args.command == "catalan":
            return _cmd_catalan(args)
        return _cmd_selftest()
    except oracle.CapacityExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
