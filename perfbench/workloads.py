"""Requests, per-layer spans and output checks for the psp4nse benchmark.

A workload is a list of requests built from a seed. A pass runs every request
once, one after the other, in one process. A request runs either plain (the
public calls the CLI commands make, timed as one unit) or traced (the same
work split into per-layer public calls, each wrapped in a span). Every output
is checked after its request returns, outside the timed region; a request that
raises or fails a check counts as failed.

Checks never call the package, so they cannot warm its caches for the next
request. Seed-independent outputs are compared by sha256 with goldens.json,
which holds digests recorded once from the original code and never
re-recorded: a change to an emitted byte is a failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from psp4nse import arith, oracle, primegraph, sympl
from psp4nse.characterize import (
    CONFIRMING,
    FAMILIES,
    NEEDS_MANUAL_LEMMA,
    OUTCOME_HYPOTHESES_NOT_MET,
    OUTCOME_ISOMORPHIC,
    OUTCOME_NOT_APPLICABLE,
    EliminationTrace,
    PrimeCountCheck,
    Verdict,
    build_A_sets,
    characterize,
    eliminate_family,
    frobenius_exclusion,
    match_order,
    prime_count_membership,
    verdict_json,
)
from psp4nse.cli import DEFAULT_MAX_ENUM
from psp4nse.primegraph import separation_check

WORKLOADS = ("oracle-q4", "recognize-mix", "closed-forms")

RECOGNIZE_F = range(2, 27)
COMPUTE_F = range(2, 10)
NSE_GRAPH_F = (32, 40, 48)
ORACLE_ELEMENTS = 979_200
CONFIRMING_CASES = {"PSL2(q^2)", "PSp4(q)"}
EXAMPLE_84_NSE = [str(v) for v in (1, 2, 6, 12, 14, 28)]

GOLDENS_PATH = Path(__file__).with_name("goldens.json")


def dumps(obj) -> str:
    """JSON text exactly as the CLI writes its files."""
    return json.dumps(obj, indent=2) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_s() -> float:
    """The fastest of three runs of a fixed pure-Python loop, in seconds.

    It measures how fast the host runs this process right now. Other tenants
    slow every vCPU by up to half for tens of seconds at a time; a request's
    time over the reference time taken around it cancels much of that drift
    for pure-Python requests, less of it for numpy-heavy ones.
    """
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        x = 0
        seen = set()
        for i in range(10_000):
            x = (x * 6364136223846793005 + i) % 18446744073709551557
            seen.add(x & 0xFFFFF)
        best = min(best, perf_counter() - start)
    return best


def warm_up() -> None:
    """The lazy set-up every user run pays: the small-prime sieve.

    factorize walks the sieve first, so one call builds it; the public caches
    it fills are cleared again.
    """
    arith.factorize(1)
    clear_caches()


def clear_caches() -> None:
    arith.factorize.cache_clear()
    arith.cyclotomic_eval.cache_clear()
    sympl.spectrum.cache_clear()


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """Spans and exact counters of one traced pass, kept in memory.

    A span is [id, name, start, end, parent id, request id]; the parent is
    the span open when it started, so a request's spans share its id.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, rid: int):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append([sid, name, start, end, parent, rid])

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value


class NullTracer:
    """Tracing off: spans cost one call that returns a shared no-op context."""

    enabled = False
    _null = nullcontext()
    spans: list = []
    counters: dict = {}
    gauges: dict = {}

    def span(self, name: str, rid: int):
        return self._null

    def count(self, name: str, n: int) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass


# ---------------------------------------------------------------------------
# requests


@dataclass(frozen=True)
class Request:
    rid: int
    kind: str
    f: int
    order: int = 0
    nse: frozenset = frozenset()
    expect: str | None = None  # exact output text, for seed-dependent outputs
    problems: tuple[str, ...] = ()  # failed checks on this request's inputs


def _negative_json(outcome: str, q: int | None, order: int, reason: str) -> str:
    return dumps({"outcome": outcome, "q": q, "order": str(order), "reason": reason,
                  "trace": None})


def _not_applicable_reason(order: int) -> str:
    return f"{order} is not q^4(q^4-1)(q^2-1) for any q = 2^f > 2"


def _mismatch_reason(q: int, missing, extra) -> str:
    return f"nse set differs from nse(PSp4({q})): missing {missing}, unexpected {extra}"


def _recognize_requests(rng: random.Random, goldens: dict) -> list[Request]:
    """Four requests per f: the true pair, one count removed, one bogus count
    added, and an order off by a seeded offset.

    The true nse sets come from the closed forms, checked here against the
    recorded nse-table digests and the partition identity.
    """
    reqs = []
    for f in RECOGNIZE_F:
        q = 1 << f
        order = sympl.group_order(q)
        table = sympl.nse_table(q)
        nse = table.value_set()
        problems = []
        if sum(table.counts.values()) != order:
            problems.append(f"partition identity fails at f={f}")
        if digest(dumps(sympl.nse_table_json(table))) != goldens.get(f"nse/f{f}"):
            problems.append(f"nse table digest differs at f={f}")
        problems = tuple(problems)
        counts = sorted(nse)
        removed = rng.choice(counts)
        bogus = rng.choice(counts) + rng.randrange(1, 1 << 16)
        while bogus in nse:
            bogus += 1
        off_order = order + rng.randrange(1, 1 << 16)
        reqs += [
            Request(0, "positive", f, order, nse, problems=problems),
            Request(0, "minus", f, order, nse - {removed}, problems=problems,
                    expect=_negative_json(OUTCOME_HYPOTHESES_NOT_MET, q, order,
                                          _mismatch_reason(q, [removed], []))),
            Request(0, "plus", f, order, nse | {bogus}, problems=problems,
                    expect=_negative_json(OUTCOME_HYPOTHESES_NOT_MET, q, order,
                                          _mismatch_reason(q, [], [bogus]))),
            Request(0, "offset", f, off_order, nse,
                    expect=_negative_json(OUTCOME_NOT_APPLICABLE, None, off_order,
                                          _not_applicable_reason(off_order))),
        ]
    return reqs


def build_requests(workload: str, seed: int, goldens: dict) -> list[Request]:
    """The seeded request list; the seed sets the order and the perturbations."""
    rng = random.Random(seed)
    if workload == "oracle-q4":
        return [Request(0, "enumerate", 2), Request(1, "histogram", 2),
                Request(2, "example-84", 2)]
    if workload == "recognize-mix":
        reqs = _recognize_requests(rng, goldens)
    elif workload == "closed-forms":
        reqs = [Request(0, "compute", f) for f in COMPUTE_F]
        reqs += [Request(0, "nse-graph", f) for f in NSE_GRAPH_F]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return [replace(r, rid=rid) for rid, r in enumerate(reqs)]


# ---------------------------------------------------------------------------
# running a request


def _nse_table(q: int, rid: int, tr) -> sympl.NseTable:
    """nse_table(q); when traced, the factoring of q^2-1 and q^2+1 is split
    out first, so it gets spans of its own.

    nse_table factors both itself, so the split-out calls move that work in
    front of it instead of adding to it. They do add two factorize calls,
    which is why the factorize counters are taken from untraced passes.
    """
    if tr.enabled:
        with tr.span("arith.factorize_q2m1", rid):
            arith.factorize(q * q - 1)
        with tr.span("arith.factorize_q2p1", rid):
            arith.factorize(q * q + 1)
    return _nse_table_call(q, rid, tr)


def _nse_table_call(q: int, rid: int, tr) -> sympl.NseTable:
    with tr.span("sympl.nse_table", rid):
        table = sympl.nse_table(q)
    tr.count("sympl.spectrum_size", len(table.counts))
    return table


def _positive_verdict(q: int, order: int, rid: int, tr) -> Verdict:
    """The positive branch of characterize, one public call per step."""
    with tr.span("characterize.build_A_sets", rid):
        a_sets = build_A_sets(q)
    table = _nse_table_call(q, rid, tr)
    primes = [(2, "A2")]
    primes += [(r, "A9") for r in arith.prime_divisors(q * q + 1)]
    primes += [(r, "A4|A5") for r in arith.prime_divisors(q * q - 1)]
    checks = []
    for r, bucket in primes:
        with tr.span("characterize.prime_count_membership", rid):
            ok = prime_count_membership(q, r, table.counts[r])
        tr.count("characterize.prime_count_membership.calls", 1)
        checks.append(PrimeCountCheck(r, table.counts[r], bucket, ok))
    with tr.span("characterize.separation_check", rid):
        separated = separation_check(q)
    with tr.span("characterize.frobenius_exclusion", rid):
        excluded, witnesses = frobenius_exclusion(q)
    entries = []
    for family in FAMILIES:
        before = arith.factorize.cache_info()
        with tr.span(f"characterize.eliminate.{family}", rid):
            entries.extend(eliminate_family(q, family))
        after = arith.factorize.cache_info()
        tr.count(f"characterize.eliminate.{family}.factorize_calls",
                 after.hits + after.misses - before.hits - before.misses)
    if not all(c.ok for c in checks) or not separated or not excluded:
        raise RuntimeError(f"internal consistency failure in the trace for q={q}")
    trace = EliminationTrace(a_sets, tuple(checks), separated, excluded, witnesses,
                             tuple(entries))
    return Verdict(OUTCOME_ISOMORPHIC, q, order, None, trace)


def _traced_verdict(req: Request, tr) -> Verdict:
    """characterize(order, nse), split into the public calls it makes."""
    with tr.span("characterize.match_order", req.rid):
        q = match_order(req.order)
    if q is None:
        return Verdict(OUTCOME_NOT_APPLICABLE, None, req.order,
                       _not_applicable_reason(req.order), None)
    expected = _nse_table(q, req.rid, tr).value_set()
    if req.nse != expected:
        missing = sorted(expected - req.nse)[:3]
        extra = sorted(req.nse - expected)[:3]
        return Verdict(OUTCOME_HYPOTHESES_NOT_MET, q, req.order,
                       _mismatch_reason(q, missing, extra), None)
    return _positive_verdict(q, req.order, req.rid, tr)


def _recognize(req: Request, tr, traced: bool) -> dict:
    if traced:
        verdict = _traced_verdict(req, tr)
    else:
        verdict = characterize(req.order, req.nse)
    with tr.span("characterize.verdict_json", req.rid):
        text = dumps(verdict_json(verdict))
    return {"verdict": verdict, "texts": {f"verdict/f{req.f}": text}}


def _closed_forms(req: Request, tr) -> dict:
    """The compute command's work; nse-graph requests skip the class table."""
    rid, f = req.rid, req.f
    q = 1 << f
    texts = {}
    out = {"texts": texts}
    table = out["table"] = _nse_table(q, rid, tr)
    with tr.span("sympl.serialize", rid):
        texts[f"nse/f{f}"] = dumps(sympl.nse_table_json(table))
    if req.kind == "compute":
        with tr.span("sympl.class_table", rid):
            rows = out["rows"] = sympl.class_table(q)
        tr.count("sympl.class_rows", len(rows))
        with tr.span("sympl.serialize", rid):
            texts[f"classes/f{f}"] = sympl.class_table_csv(rows)
    spec = sympl.spectrum(q)
    if req.kind == "compute":
        with tr.span("sympl.serialize", rid):
            texts[f"spectrum/f{f}"] = dumps({
                "q": q, "order": str(table.order), "spectrum": [str(r) for r in spec],
            })
    with tr.span("primegraph.build_graph", rid):
        graph = primegraph.build_graph(set(spec), table.order)
        texts[f"graph/f{f}"] = dumps(primegraph.graph_json(graph))
    return out


def _oracle(req: Request, tr, session: dict) -> dict:
    """oracle --q 4 --compare --example-84 as three requests: enumerate Sp4(4)
    from its generators as sp4_group does, then its order histogram compared
    with the closed forms, then the order-84 pair.

    The group passes from the first request to the second in the session.
    Three requests instead of one let each half of the 25 s command count at
    its own fastest pass, which steadies the result on a drifting host.
    """
    rid = req.rid
    if req.kind == "enumerate":
        cap = int(os.environ.get("NSE_MAX_ENUM", DEFAULT_MAX_ENUM))
        if tr.enabled:
            with tr.span("oracle.sp4_generators", rid):
                gens = oracle.sp4_generators(4)
            with tr.span("oracle.enumerate", rid):
                group = oracle.enumerate_group(gens, cap)
            tr.count("oracle.elements", len(group))
            tr.count("oracle.products", len(gens) * len(group))
        else:
            group = oracle.sp4_group(4, cap)
        session["group"] = group
        tr.gauge("oracle.peak_rss_after_enumerate_mb", peak_rss_mb())
        return {"elements": len(group), "texts": {}}
    if req.kind == "histogram":
        group = session.pop("group")
        with tr.span("oracle.histogram", rid):
            hist = oracle.order_histogram(group)
        tr.count("oracle.order_products", sum((k - 1) * c for k, c in hist.counts.items()))
        with tr.span("oracle.serialize", rid):
            hist_text = dumps({
                "q": 4,
                "order": str(hist.total()),
                "counts": {str(k): str(v) for k, v in sorted(hist.counts.items())},
            })
        table = _nse_table(4, rid, tr)
        with tr.span("oracle.compare", rid):
            same = hist.total() == table.order and dict(hist.counts) == table.counts
        return {"table": table, "same": same, "texts": {"histogram/f2": hist_text}}
    with tr.span("oracle.perm_nse", rid):
        report = {}
        for name, spec in (("Z4x(Z7:Z3)", oracle.z4_times_z7_z3()),
                           ("Z3x(Z7:Z4)", oracle.z3_times_z7_z4())):
            h = oracle.perm_nse(spec)
            report[name] = {
                "order": str(h.total()),
                "nse": [str(v) for v in sorted(h.nse())],
                "counts": {str(k): str(v) for k, v in sorted(h.counts.items())},
                "G_3": str(h.power_count(3)),
                "has_order_28": h[28] > 0,
            }
    with tr.span("oracle.serialize", rid):
        example_text = dumps(report)
    return {"report": report, "texts": {"example84": example_text}}


def execute(req: Request, tr, traced: bool, session: dict) -> dict:
    if req.kind in ("enumerate", "histogram", "example-84"):
        return _oracle(req, tr, session)
    if req.kind in ("compute", "nse-graph"):
        return _closed_forms(req, tr)
    return _recognize(req, tr, traced)


# ---------------------------------------------------------------------------
# checks


def check(req: Request, out: dict, goldens: dict) -> list[str]:
    """Failed checks of one request's output; empty when it is correct."""
    bad = list(req.problems)
    for key, text in out["texts"].items():
        if req.expect is not None:
            if text != req.expect:
                bad.append(f"{key}: output differs from the expected {req.kind} verdict")
        elif key not in goldens:
            bad.append(f"{key}: no recorded digest")
        elif digest(text) != goldens[key]:
            bad.append(f"{key}: sha256 differs from the recorded digest")
    if req.kind == "positive":
        v = out["verdict"]
        if v.outcome != OUTCOME_ISOMORPHIC or v.q != 1 << req.f or v.trace is None:
            bad.append(f"verdict {v.outcome} q={v.q}, expected Isomorphic q={1 << req.f}")
        else:
            if v.trace.by_status(NEEDS_MANUAL_LEMMA):
                bad.append("NeedsManualLemma entries in a positive verdict")
            confirming = {e.case for e in v.trace.by_status(CONFIRMING)}
            if confirming != CONFIRMING_CASES:
                bad.append(f"confirming set {sorted(confirming)}")
    elif req.kind in ("minus", "plus", "offset"):
        v = out["verdict"]
        want = OUTCOME_NOT_APPLICABLE if req.kind == "offset" else OUTCOME_HYPOTHESES_NOT_MET
        want_q = None if req.kind == "offset" else 1 << req.f
        if v.outcome != want or v.q != want_q:
            bad.append(f"verdict {v.outcome} q={v.q}, expected {want} q={want_q}")
    elif req.kind in ("compute", "nse-graph"):
        table = out["table"]
        if sum(table.counts.values()) != table.order:
            bad.append("partition identity fails")
        if req.kind == "compute":
            by_order: dict[int, int] = {}
            for row in out["rows"]:
                by_order[row.rep_order] = by_order.get(row.rep_order, 0) + row.class_length
            if by_order != table.counts:
                bad.append("class table does not regroup to the nse counts")
    elif req.kind == "enumerate":
        if out["elements"] != ORACLE_ELEMENTS:
            bad.append(f"enumerated {out['elements']} elements, expected {ORACLE_ELEMENTS}")
    elif req.kind == "histogram":
        table = out["table"]
        if not out["same"] or sum(table.counts.values()) != table.order:
            bad.append("order histogram differs from the closed forms")
    elif req.kind == "example-84":
        g, h = out["report"]["Z4x(Z7:Z3)"], out["report"]["Z3x(Z7:Z4)"]
        if not (g["nse"] == h["nse"] == EXAMPLE_84_NSE and g["G_3"] == "15"
                and h["G_3"] == "3" and g["has_order_28"] and not h["has_order_28"]):
            bad.append("order-84 pair does not separate as stated")
    return bad


# ---------------------------------------------------------------------------
# one pass


def _run_once(req: Request, tr, traced: bool, goldens: dict,
              session: dict) -> tuple[float, str | None]:
    """One cold execution of a request: its latency and its failure, if any."""
    clear_caches()
    start = perf_counter()
    try:
        with tr.span("request", req.rid):
            out = execute(req, tr, traced, session)
    except Exception:
        latency = perf_counter() - start
        return latency, f"request {req.rid} ({req.kind}, f={req.f}) raised:\n{traceback.format_exc()}"
    latency = perf_counter() - start
    bad = check(req, out, goldens)
    if bad:
        return latency, f"request {req.rid} ({req.kind}, f={req.f}): " + "; ".join(bad)
    return latency, None


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    """Run every request once, closed loop, and check each output.

    Each request starts with the public caches cleared, as a fresh CLI
    process would, so its cost does not depend on the seeded request order.
    """
    goldens = json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))
    requests = build_requests(workload, seed, goldens)
    tr = Tracer() if traced else NullTracer()
    latencies = []
    refs = [reference_s()]
    failures = []
    session: dict = {}
    calls = misses = cyclotomic_peak = 0
    for req in requests:
        latency, failure = _run_once(req, tr, traced, goldens, session)
        refs.append(reference_s())
        latencies.append(latency)
        if failure:
            failures.append(failure)
        fac = arith.factorize.cache_info()
        calls += fac.hits + fac.misses
        misses += fac.misses
        cyclotomic_peak = max(cyclotomic_peak, arith.cyclotomic_eval.cache_info().currsize)
    return {
        "attempted": len(requests),
        "failed": len(failures),
        "failures": failures,
        "latencies_s": latencies,
        # reference_s() before and after each request; refs_s[i] and
        # refs_s[i + 1] bracket request i
        "refs_s": refs,
        "peak_rss_mb": peak_rss_mb(),
        "spans": tr.spans,
        "counters": tr.counters,
        # the program's own cache traffic: exact only in an untraced pass,
        # where the benchmark makes no factorize call of its own
        "cache_counts": {
            "arith.factorize_calls": calls,
            "arith.factorize_misses": misses,
            "arith.cyclotomic_cache_entries": cyclotomic_peak,
        },
        "gauges": tr.gauges,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
