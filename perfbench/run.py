#!/usr/bin/env python3
"""Benchmark of the ``mixdom`` command line, end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload prove|sweep|roundtrip --seed N \\
        --seconds S --trace 0|1

The program is imported from the checkout's ``src/`` (it need not be
installed); without it the benchmark exits 2 and prints no result. One
client runs the workload's rounds back to back in this process until
``--seconds`` is used up (see ``workloads.py`` for the workloads and why
each was chosen). ``compare`` runs its pool with MIXDOM_WORKERS = nproc.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: setup_s is
the median of several fresh processes timed from start to the point where
``mixdom.cli`` is imported and the inputs are generated, peak_rss_mb is
this process's peak, and the rates are medians over rounds of work per
second of command time. solve_s, compare_s (prove only) and fail_frac are
printed too. ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones (medians over traced
rounds), with trace.overhead_frac comparing the two kinds of round.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The full result and, when traced, every span go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import env
import spans
import workloads

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "instances_per_s": "1/s",
    "elements_per_s": "1/s",
}
# printed with the end-to-end table; they do not exist on every workload
# (or are 0 on a healthy run), so the gate works from the ones above
REPORTED = {"solve_s": "s", "compare_s": "s", "fail_frac": "ratio"}

PER_LAYER = {
    "petersen.build_calls": "count",
    "petersen.build_s": "s",
    "constructions.construct_calls": "count",
    "constructions.construct_s": "s",
    "constructions.self_s": "s",
    "constructions.repairs": "count",
    "formulas.calls": "count",
    "formulas.s": "s",
    "domination.verify_calls": "count",
    "domination.verify_s": "s",
    "domination.verify_elements_per_s": "1/s",
    "domination.greedy_s": "s",
    "solver.nodes.solve": "count",
    "solver.nodes.compare": "count",
    "solver.solve_s": "s",
    "solver.nodes_per_s": "1/s",
    "solver.incumbent_excess": "count",
    "cli.compare_row_s": "s",
    "cli.pool_efficiency": "ratio",
    "cli.command_self_s": "s",
    "setfile.dump_s": "s",
    "setfile.load_s": "s",
    "setfile.bytes": "B",
    "setfile.load_elements_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}

SETUP_PROBES = 9
MAX_ROUNDS = 500


def setup_probe(workload: str, seed: int) -> None:
    """Child side of setup_s: import the CLI, generate the inputs, say so."""
    import mixdom.cli  # noqa: F401

    workloads.plan(workload, seed, MAX_ROUNDS)
    print("ready", flush=True)


def setup_seconds(workload: str, seed: int) -> float:
    """Median start-to-ready time of fresh processes, after one warm-up."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=env.ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit {code}")
        times.append(elapsed)
    return statistics.median(times[1:])


def run_rounds(session, tracer, plan, seconds: float, trace: bool):
    """Run rounds until ``seconds`` would be overrun by half a round.

    With tracing, odd rounds are traced and at least one of each kind runs.
    """
    rounds = []
    t0 = time.perf_counter()
    for i, ops in enumerate(plan):
        stats = workloads.RoundStats(traced=trace and i % 2 == 1)
        first = len(tracer.spans) if tracer else 0
        if stats.traced:
            tracer.install()
            session.tracer = tracer
        try:
            for op in ops:
                session.run(op, stats)
        finally:
            if stats.traced:
                tracer.restore()
                session.tracer = None
        if stats.traced:
            stats.layers = spans.layer_metrics(tracer.spans[first:], session.op_kinds,
                                               env.nproc())
        rounds.append(stats)
        elapsed = time.perf_counter() - t0
        if len(rounds) >= (2 if trace else 1) and elapsed * (1 + 0.5 / len(rounds)) >= seconds:
            break
    return rounds


def end_to_end(workload: str, rounds) -> dict:
    plain = [r for r in rounds if not r.traced]
    out = {
        "instances_per_s": statistics.median(r.instances / r.seconds for r in plain),
        "elements_per_s": statistics.median(r.elements / r.seconds for r in plain),
    }
    if workload == "prove":
        out["solve_s"] = statistics.median(r.solve_s for r in plain)
        out["compare_s"] = statistics.median(r.compare_s for r in plain)
    return out


def per_layer(rounds) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    out = {name: statistics.median(r.layers[name] for r in traced)
           for name in PER_LAYER if name != "trace.overhead_frac"}
    # seconds per element, so rounds of different sizes compare
    cost_traced = statistics.median(r.seconds / max(r.elements, 1) for r in traced)
    cost_plain = statistics.median(r.seconds / max(r.elements, 1) for r in plain)
    out["trace.overhead_frac"] = cost_traced / cost_plain - 1
    return out


def _show(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        env.load_mixdom()
    except env.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    from mixdom import cli

    os.environ["MIXDOM_WORKERS"] = str(env.nproc())
    facts = env.facts(args.seed)
    plan = workloads.plan(args.workload, args.seed, MAX_ROUNDS)
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)

    tracer = spans.Tracer() if args.trace else None
    env.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=env.OUT) as tmp:
        session = workloads.Session(cli, Path(tmp))
        try:
            rounds = run_rounds(session, tracer, plan, args.seconds, bool(args.trace))
        finally:
            session.close()

    e2e = end_to_end(args.workload, rounds)
    e2e["fail_frac"] = session.failed / session.attempted
    if setup_s is not None:
        e2e["setup_s"] = setup_s
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = {**END_TO_END, **REPORTED}
    n_plain = sum(not r.traced for r in rounds)
    print(f"facts: {json.dumps(facts)}")
    print(f"end to end: workload={args.workload} untraced rounds={n_plain} "
          f"commands={session.attempted} failed={session.failed}")
    for name, value in e2e.items():
        print(f"  {name:<34} {_show(value):>14} {units[name]}")
    layers = per_layer(rounds) if args.trace else {}
    if layers:
        print(f"per layer: traced rounds={len(rounds) - n_plain}")
        for name, value in layers.items():
            print(f"  {name:<34} {_show(value):>14} {PER_LAYER[name]}")
    for failure in session.failures[:20]:
        print(f"FAILED {failure}")

    shown, shown_units = (layers, PER_LAYER) if args.trace else (e2e, END_TO_END)
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": shown[name], "unit": unit}
                    for name, unit in shown_units.items()},
    }
    stem = f"{args.workload}-trace{args.trace}"
    with open(env.OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "workload": args.workload, "end_to_end": e2e,
                   "per_layer": layers, "failures": session.failures,
                   "rounds": [vars(r) for r in rounds]}, fh, indent=1)
    if tracer:
        tracer.write(env.OUT / f"spans-{stem}.json",
                     {"facts": facts, "workload": args.workload, "op_kinds": session.op_kinds})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
