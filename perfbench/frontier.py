#!/usr/bin/env python3
"""Frontier report: for each k, the largest n a cold ``mixdom solve`` proves
within a fixed per-instance budget.

Usage, from the root of a checkout:

    python3 perfbench/frontier.py

For each k in ``KS`` it walks n upward from the smallest valid n and stops
at the first instance the solver does not prove within ``BUDGET_S`` seconds
(``solve --max-time``, exit 3). Every proved witness is checked by the
benchmark's independent checker. It prints one line per instance with the
proof time and node count, and writes ``perfbench/out/frontier.json``.
This report is informational; it is not one of the gated workloads.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checker
import env
import workloads

KS = (1, 2, 3)
BUDGET_S = 20.0
N_MAX = 64


def walk(session, k: int) -> list[dict]:
    rows = []
    for n in range(max(3, 2 * k + 1), N_MAX + 1):
        code, out, seconds = session.invoke(
            "solve", ["solve", "--n", str(n), "--k", str(k), "--max-time", str(BUDGET_S)])
        f = workloads.output_fields(out)
        row = {"n": n, "k": k, "exit": code, "proved": code == 0 and f.get("proved") == "yes",
               "optimum": int(f["optimum"].split()[0]), "nodes": int(f["nodes"]),
               "seconds": seconds}
        if row["proved"]:
            ids = [checker.parse_label(label, n, k) for label in f["set"].split()]
            problem = workloads.witness_problem(n, k, ids, row["optimum"])
            row["problem"] = problem
            session.record(f"solve P({n},{k})", problem)
        rows.append(row)
        print(f"  k={k} n={n:>3} proved={'yes' if row['proved'] else 'no ':<3} "
              f"optimum={row['optimum']} nodes={row['nodes']} seconds={seconds:.3f}", flush=True)
        if not row["proved"]:
            break
    return rows


def main() -> int:
    try:
        env.load_mixdom()
    except env.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from mixdom import cli

    facts = env.facts(None)
    print(f"facts: {json.dumps(facts)}")
    print(f"frontier: budget={BUDGET_S:g}s per instance")
    env.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=env.OUT) as tmp:
        session = workloads.Session(cli, Path(tmp))
        try:
            rows = {k: walk(session, k) for k in KS}
        finally:
            session.close()
    largest = {k: max((r["n"] for r in rs if r["proved"]), default=None) for k, rs in rows.items()}
    for k, n in largest.items():
        print(f"largest proved n for k={k}: {n}")
    for failure in session.failures:
        print(f"FAILED {failure}")
    with open(env.OUT / "frontier.json", "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "budget_s": BUDGET_S, "largest_proved_n": largest,
                   "instances": [r for rs in rows.values() for r in rs]}, fh, indent=1)
    return 1 if session.failed else 0


if __name__ == "__main__":
    sys.exit(main())
