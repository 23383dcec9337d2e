"""Run one psp4nse benchmark workload and print its metrics.

    python3 perfbench/run.py --workload recognize-mix --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from src/ there.
Every pass runs in a fresh worker process (perfbench/worker.py) as one
closed-loop client: one thread, and each request starts only after the
previous one returned. Untraced and traced passes never share a process.

--trace 0 starts set-up-only workers, then untraced passes while --seconds
allows another one (at least two), and reports the end-to-end metrics.
--trace 1 alternates two untraced and two traced passes with the same seed,
writes the spans to perfbench/out/, and reports the per-layer metrics; every
exact counter must repeat between the two passes it is taken from.

Metric names and units come from BENCHMARK.json. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics. The exit
status is 0 when every request passed its checks, 1 when one did not, and 2
when the checkout holds no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle-q4", "recognize-mix", "closed-forms")
SETUP_WORKERS = 5
REPEATS = 2  # least number of passes of each kind in one run
DEADLINE_S = 170.0  # the whole run must end within 180 s


@dataclass(frozen=True)
class Worker:
    """The outcome of one worker process."""

    setup_s: float | None
    result: dict | None
    error: str | None


def run_worker(workload: str, seed: int, mode: str, deadline: float) -> Worker:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--t0", repr(t0)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Worker(None, None, f"{mode} worker timed out")
    lines = out.splitlines()
    setup_s = None
    if lines and lines[0].startswith("ready "):
        setup_s = float(lines[0].split()[1])
    if proc.returncode != 0 or setup_s is None or (mode != "setup" and len(lines) < 2):
        return Worker(setup_s, None, f"{mode} worker exited with {proc.returncode}")
    result = json.loads(lines[-1]) if mode != "setup" else None
    return Worker(setup_s, result, None)


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    k = max(1, -(-pct * len(ordered) // 100))
    return ordered[k - 1]


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: summed duration minus the time its child spans cover."""
    covered: dict[int, float] = defaultdict(float)
    for _sid, _name, start, end, parent, _rid in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _parent, _rid in spans:
        out[name] += end - start - covered[sid]
    return out


def pass_wall(result: dict) -> float:
    """Time from the first request to the last response, less the checks."""
    return sum(result["latencies_s"])


def fastest(passes: list[dict]) -> list[float]:
    """Per request, its fastest repetition over the passes.

    Other tenants of the host only ever slow a request down, and the slow
    phases last tens of seconds, so the fastest of repetitions spread over
    the run is the steady estimate of what the request costs.
    """
    return [min(lat) for lat in zip(*(r["latencies_s"] for r in passes))]


def fastest_ref(passes: list[dict]) -> list[float]:
    """Per request, its smallest time over the passes in reference units.

    A request's reference time is the mean of the reference loop timed just
    before and just after it.
    """
    return [min(lat) for lat in zip(*(
        [t / ((a + b) / 2) for t, a, b in zip(r["latencies_s"], r["refs_s"], r["refs_s"][1:])]
        for r in passes))]


def end_to_end(setups: list[float], passes: list[dict]) -> dict[str, float]:
    """The gated end-to-end metrics; wall time and latencies in seconds are
    printed but not gated, because the host's drift moves them by more than
    the largest bound allowed."""
    latencies = fastest(passes)
    print(f"latency samples: n = {len(latencies)} requests, each the fastest of "
          f"{len(passes)} passes; set-up samples: n = {len(setups)}")
    print(f"wall_s {sum(latencies)!r} s")
    for pct in (50, 90):
        print(f"latency_p{pct}_s {nearest_rank(latencies, pct)!r} s")
    return {
        "wall_ref": sum(fastest_ref(passes)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }


def per_layer(plain: list[dict], traced: list[dict], names: dict[str, str]) -> dict[str, float]:
    """Per-layer values from the traced passes.

    "<span>_s" is the self time of that span over a pass, the smaller of the
    traced passes; a count is an exact counter, equal in both passes. The
    factorize and cyclotomic cache counts come from the untraced passes,
    because the traced ones add factorize calls of their own. Both are 0
    where the workload never reaches the layer.
    """
    values: dict[str, float] = {}
    for r in traced:
        for name, v in self_times(r["spans"]).items():
            key = f"{name}_s"
            values[key] = min(values[key], v) if key in values else v
    values.update(traced[0]["counters"])
    values.update(plain[0]["cache_counts"])
    for name in traced[0]["gauges"]:
        values[name] = min(r["gauges"][name] for r in traced)
    enum_s = values.get("oracle.enumerate_s", 0.0)
    values["oracle.elements_per_s"] = values.get("oracle.elements", 0) / enum_s if enum_s else 0.0
    wall = sum(fastest(traced))
    values["trace.wall_s"] = wall
    values["trace.coverage"] = 1.0 - values["request_s"] / wall
    values["trace.overhead"] = wall / sum(fastest(plain)) - 1.0
    return {name: values.get(name, 0 if unit == "count" else 0.0)
            for name, unit in names.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "psp4nse" / "__init__.py").is_file():
        print(f"run: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    errors: list[str] = []
    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []

    def spawn(mode: str) -> Worker:
        w = run_worker(args.workload, args.seed, mode, deadline)
        if w.error:
            errors.append(w.error)
        if w.setup_s is not None:
            setups.append(w.setup_s)
        if w.result is not None:
            (traced if mode == "traced" else plain).append(w.result)
            print(f"{mode} pass: {len(w.result['latencies_s'])} requests, "
                  f"{w.result['failed']} failed, wall {pass_wall(w.result):.4f} s, "
                  f"peak rss {w.result['peak_rss_mb']:.1f} MB")
        return w

    if args.trace:
        for mode in ("plain", "traced") * REPEATS:
            if spawn(mode).error:
                break
    else:
        for _ in range(SETUP_WORKERS):
            spawn("setup")
        start = time.monotonic()
        while not spawn("plain").error:
            used = time.monotonic() - start
            per_pass = used / len(plain)
            if time.monotonic() + per_pass > deadline:
                break
            if len(plain) >= REPEATS and used + per_pass > args.seconds:
                break

    results = plain + traced
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for msg in r["failures"][:5]:
            print(f"FAIL {msg}", file=sys.stderr)
    first = results[0] if results else {}
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "NSE_MAX_ENUM": os.environ.get("NSE_MAX_ENUM", "unset (default 2000000)"),
    }
    print("env " + json.dumps(env))

    complete = not errors and len(plain) >= REPEATS and len(traced) == (REPEATS if args.trace else 0)
    metrics: dict[str, float] = {}
    if complete and args.trace:
        for kind, passes, key in (("traced", traced, "counters"),
                                  ("untraced", plain, "cache_counts")):
            c1, c2 = passes[0][key], passes[1][key]
            for name in sorted(set(c1) | set(c2)):
                if c1.get(name) != c2.get(name):
                    errors.append(f"counter {name} differs between {kind} passes: "
                                  f"{c1.get(name)} vs {c2.get(name)}")
        metrics = per_layer(plain, traced, units)
        write_spans(args, env, traced)
    elif complete:
        metrics = end_to_end(setups, plain)
    for msg in errors:
        print(f"ERROR {msg}", file=sys.stderr)
    if not complete:
        failed = max(failed, 1)
        attempted = max(attempted, failed)
    for name, value in metrics.items():
        print(f"{name:<52} {value!r:>24} {units[name]}")
    if attempted:
        print(f"fail_ratio {failed / attempted!r} ({failed} of {attempted} requests)")

    correct = bool(complete) and not errors and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def write_spans(args, env: dict, traced: list[dict]) -> None:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "env": env,
        "span_fields": ["id", "name", "start_s", "end_s", "parent", "request"],
        "passes": [{k: r[k] for k in ("spans", "counters", "gauges")} for r in traced],
    }) + "\n", encoding="utf-8")
    print(f"spans written to {path.relative_to(ROOT)}")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


if __name__ == "__main__":
    raise SystemExit(main())
