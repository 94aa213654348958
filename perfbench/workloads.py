"""The benchmark's workloads and the session that runs their commands.

Each workload is a fixed list of ``mixdom`` command lines, drawn from the
seed, that one client runs one after another (a closed loop). A ``Session``
calls the click entry point ``mixdom.cli.main`` in-process, captures the
output, times each command and checks its exit code and output against the
independent checker in ``checker.py``.

- ``prove``: cold ``solve`` of P(14,1), P(12,2), P(12,3), then ``compare``
  for k=3, n=8..13. The exact search does nearly all the work, and it is
  the only workload that uses compare's thread pool. The instance list is
  fixed because proof time grows about 3x per step in n; the seed only
  shuffles the order.
- ``sweep``: ``table`` eq1 (n=8..2000), k2 (n=5..2000), k2remark
  (n=8..2000) and general (n=7..200): about 6.9k small instances whose cost
  is per-instance overhead in build, constructions, formulas and verify.
  No exact search runs. The seed shuffles the order.
- ``roundtrip``: ``construct -o F`` then ``verify F`` for k = 1..7 at
  n drawn from [100000, 200000], so writing and reading set files
  dominate. The draw is stratified (one n per seventh of the range, in
  seeded order) so every round does about the same work.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

import click
import numpy as np

import checker

WORKLOADS = ("prove", "sweep", "roundtrip")

PROVE_SOLVES = ((14, 1), (12, 2), (12, 3))
PROVE_COMPARE = (3, 8, 13)
SWEEP_TABLES = (("eq1", 8, 2000), ("k2", 5, 2000), ("k2remark", 8, 2000), ("general", 7, 200))
ROUNDTRIP_KS = (1, 2, 3, 4, 5, 6, 7)
ROUNDTRIP_N = (100_000, 200_000)


def plan(workload: str, seed: int, rounds: int) -> list[list[tuple]]:
    """The operations of each round, drawn from ``seed``."""
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        if workload == "prove":
            ops = [("solve", n, k) for n, k in PROVE_SOLVES] + [("compare", *PROVE_COMPARE)]
            rng.shuffle(ops)
        elif workload == "sweep":
            ops = [("table", *t) for t in SWEEP_TABLES]
            rng.shuffle(ops)
        elif workload == "roundtrip":
            lo, hi = ROUNDTRIP_N
            width = (hi - lo) / len(ROUNDTRIP_KS)
            strata = list(range(len(ROUNDTRIP_KS)))
            rng.shuffle(strata)
            ops = [("roundtrip", lo + int((j + rng.random()) * width), k)
                   for j, k in zip(strata, ROUNDTRIP_KS)]
        else:
            raise ValueError(f"unknown workload {workload!r}")
        out.append(ops)
    return out


@dataclass
class RoundStats:
    """Work and CLI time of one round; the checker's own time is excluded."""

    traced: bool = False
    seconds: float = 0.0
    solve_s: float = 0.0
    compare_s: float = 0.0
    instances: int = 0
    elements: int = 0
    layers: dict = field(default_factory=dict)


def output_fields(out: str) -> dict[str, str]:
    """``key: value`` lines of a command's output."""
    pairs = (line.split(": ", 1) for line in out.splitlines() if ": " in line)
    return {key: value for key, value in pairs}


def table_rows(name: str, lo: int, hi: int) -> int:
    if name == "general":
        return sum(max(0, hi - max(lo, 2 * k + 1) + 1) for k in range(3, 8))
    return hi - lo + 1


# column holding the construction size in each table's rows
_CONSTR_COLUMN = {"eq1": 2, "k2": 2, "k2remark": 4, "general": 3}


class Session:
    """Runs ``mixdom`` commands in-process and tallies checked outcomes."""

    def __init__(self, cli, workdir):
        self.cli = cli
        self.workdir = workdir
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.op_kinds: dict[int, str] = {}
        self.last_error = ""
        # compare prints no witnesses, so the solver results it gets are kept
        # here and checked like the ones solve prints
        self._solved: list = []
        self._solve_exact = cli.solve_exact
        solver = sys.modules["mixdom.solver"]
        solved = self._solved

        def solve_exact(graph, *args, **kwargs):
            result = solver.solve_exact(graph, *args, **kwargs)
            solved.append((graph.n, graph.k, result))
            return result

        cli.solve_exact = solve_exact

    def close(self) -> None:
        self.cli.solve_exact = self._solve_exact

    def invoke(self, kind: str, argv: list[str]) -> tuple[int | None, str, float]:
        """Exit code (None on an uncaught exception), stdout and wall seconds.

        Stderr, with the traceback of a crash, is kept in ``last_error``.
        """
        op = len(self.op_kinds) + 1
        self.op_kinds[op] = kind
        span = self.tracer.command(op, kind) if self.tracer else None
        out, err = io.StringIO(), io.StringIO()
        code = 0
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.cli.main.main(args=argv, prog_name="mixdom", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except click.ClickException as exc:
                code = exc.exit_code
            except Exception:  # a crash is a failed operation, not a benchmark crash
                code = None
                err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        if span is not None:
            self.tracer.close(span)
        self.last_error = err.getvalue().strip()
        return code, out.getvalue(), seconds

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            detail = f" ({self.last_error.splitlines()[-1]})" if self.last_error else ""
            self.failures.append(f"{what}: {problem}{detail}")

    def run(self, op: tuple, stats: RoundStats) -> None:
        getattr(self, "_" + op[0])(*op[1:], stats)

    def _solve(self, n: int, k: int, stats: RoundStats) -> None:
        code, out, seconds = self.invoke("solve", ["solve", "--n", str(n), "--k", str(k)])
        stats.seconds += seconds
        stats.solve_s += seconds
        stats.instances += 1
        problem = None
        f = output_fields(out)
        want = checker.OPTIMA[(n, k)]
        if code != 0:
            problem = f"exit {code}"
        elif f.get("proved") != "yes":
            problem = "not proved"
        elif f.get("optimum") != str(want):
            problem = f"optimum {f.get('optimum')}, expected {want}"
        else:
            try:
                ids = [checker.parse_label(label, n, k) for label in f["set"].split()]
            except (KeyError, ValueError) as exc:
                ids, problem = [], f"bad witness: {exc}"
            if problem is None:
                problem = witness_problem(n, k, ids, want)
            stats.elements += len(ids)
        self.record(f"solve P({n},{k})", problem)

    def _compare(self, k: int, lo: int, hi: int, stats: RoundStats) -> None:
        self._solved.clear()
        code, out, seconds = self.invoke(
            "compare", ["compare", "--k", str(k), "--n-start", str(lo), "--n-end", str(hi),
                        "--format", "records"])
        stats.seconds += seconds
        stats.compare_s += seconds
        ns = list(range(lo, hi + 1))
        stats.instances += len(ns)
        problem = None
        try:
            rows = [dict(part.split("=", 1) for part in line.split())
                    for line in out.splitlines() if line.startswith("n=")]
            if code != 0:
                problem = f"exit {code}"
            elif sorted(int(r["n"]) for r in rows) != ns:
                problem = "rows do not cover the range"
            for r in rows if problem is None else ():
                n, want = int(r["n"]), checker.OPTIMA[(int(r["n"]), k)]
                if r["proved"] != "yes" or r["exact"] != str(want):
                    problem = f"n={n}: exact={r['exact']} proved={r['proved']}, expected {want}"
                elif int(r["gap"]) != int(r["construction"]) - want:
                    problem = f"n={n}: gap {r['gap']} disagrees with the construction"
        except (KeyError, ValueError) as exc:
            problem = f"unparseable record: {exc}"
        if problem is None and sorted(n for n, _, _ in self._solved) != ns:
            problem = "solver results do not cover the range"
        for n, kk, result in self._solved if problem is None else ():
            problem = witness_problem(n, kk, result.witness.ids(), checker.OPTIMA[(n, kk)])
            stats.elements += len(result.witness)
            if problem is not None:
                problem = f"n={n}: {problem}"
                break
        self.record(f"compare k={k} n={lo}..{hi}", problem)

    def _table(self, name: str, lo: int, hi: int, stats: RoundStats) -> None:
        code, out, seconds = self.invoke(
            "table", ["table", "--name", name, "--n-start", str(lo), "--n-end", str(hi)])
        stats.seconds += seconds
        lines = out.splitlines()
        rows = [cells for cells in map(str.split, lines) if cells and cells[0].isdigit()]
        want = table_rows(name, lo, hi)
        problem = None
        if code != 0:
            problem = f"exit {code}"
        elif not lines or lines[-1] != "all cells agree":
            problem = "cells disagree"
        elif len(rows) != want:
            problem = f"{len(rows)} rows, expected {want}"
        else:
            try:
                stats.elements += sum(int(r[_CONSTR_COLUMN[name]]) for r in rows)
                stats.instances += len(rows)
            except (IndexError, ValueError) as exc:
                problem = f"unparseable row: {exc}"
        self.record(f"table {name}", problem)

    def _roundtrip(self, n: int, k: int, stats: RoundStats) -> None:
        path = self.workdir / f"roundtrip-k{k}.set"
        path.unlink(missing_ok=True)
        code, out, seconds = self.invoke(
            "construct", ["construct", "--n", str(n), "--k", str(k), "-o", str(path)])
        stats.seconds += seconds
        stats.instances += 1
        f = output_fields(out)
        file_problem = None
        try:
            fn, fk, fsize, ids = checker.parse_set_file(path.read_text(encoding="utf-8"))
            if (fn, fk) != (n, k) or fsize != len(ids):
                file_problem = f"file header n={fn} k={fk} size={fsize} for {len(ids)} elements"
            else:
                file_problem = witness_problem(n, k, ids, None)
        except (OSError, KeyError, ValueError) as exc:
            ids = []
            file_problem = f"unreadable set file: {exc}"
        problem = file_problem
        if code != 0:
            problem = f"exit {code}"
        elif problem is None and f.get("size") != str(len(ids)):
            problem = f"reported size {f.get('size')}, file has {len(ids)}"
        self.record(f"construct P({n},{k})", problem)
        stats.elements += len(ids)

        code, out, seconds = self.invoke("verify", ["verify", str(path)])
        stats.seconds += seconds
        f = output_fields(out)
        if code != 0 or f.get("dominating") != "yes":
            problem = f"exit {code}, dominating={f.get('dominating')}"
        elif file_problem is not None:
            problem = f"accepted a file the checker rejects ({file_problem})"
        elif f.get("size") != str(len(ids)):
            problem = f"size {f.get('size')}, file has {len(ids)}"
        elif f.get("rd_total") != str(7 * len(ids) - 5 * n):
            problem = f"rd_total {f.get('rd_total')}, expected {7 * len(ids) - 5 * n}"
        else:
            problem = None
        self.record(f"verify P({n},{k})", problem)


def witness_problem(n: int, k: int, ids, optimum: int | None) -> str | None:
    """Why the set ``ids`` is not a (minimum, when ``optimum`` is given) witness."""
    ids = np.asarray(ids, dtype=np.int64)
    if np.unique(ids).size != ids.size:
        return "witness repeats an element"
    if optimum is not None and ids.size != optimum:
        return f"witness has {ids.size} elements, optimum is {optimum}"
    missed = checker.undominated(n, k, ids)
    if missed.size:
        return f"{missed.size} element(s) undominated, first id {int(missed[0])}"
    return None
