"""Command-line front end.

Subcommands: build, verify, construct, solve, formula, compare, table.
Exit codes: 0 success / dominating, 1 verification failure, 2 invalid
input, 3 solver stopped by budget before proving optimality.

Every input error exits 2 with one ``error:`` line and no traceback: an
invalid instance (n above petersen.MAX_N = 429,496,729 included), a bad
budget, a malformed, unreadable or unwritable set file, or an instance too
large for memory. Commands raise; the group's ``invoke`` is the one place
that turns a MixdomError or MemoryError into that line.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial

import click

from . import constructions, elements, formulas, setfile
from .domination import verify as verify_set
from .errors import MixdomError, OutOfRange
from .petersen import GraphSpec, build_graph, to_dot
from .solver import SolveBudget, solve_exact, solve_exhaustive


class _Main(click.Group):
    """The command group; its invoke is the CLI's one error boundary."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except MixdomError as exc:
            message = str(exc)
        except MemoryError:
            message = "instance too large to fit in memory"
        click.echo(f"error: {message}", err=True)
        sys.exit(2)


@click.group(cls=_Main)
def main():
    """Mixed dominating sets on generalized Petersen graphs P(n,k)."""


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["dot", "setfile-schema"]), default="dot")
@click.option("--highlight", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Set file whose elements are drawn bold/filled (dot only).")
def build(n, k, fmt, highlight):
    """Emit the graph as DOT, or the instance's element universe as a set file."""
    graph = build_graph(GraphSpec(n, k))
    if fmt == "setfile-schema":
        click.echo("# element tags: v=outer vertex, u=inner vertex, "
                   "vv=outer edge, vu=spoke, uu=inner edge; index in [0, n)")
        click.echo(setfile.dumps(n, k, "universe", graph.universe()), nl=False)
        return
    hl = None
    if highlight is not None:
        sf = setfile.load(highlight)
        if (sf.n, sf.k) != (n, k):
            raise MixdomError(f"highlight file is for P({sf.n},{sf.k}), not P({n},{k})")
        hl = sf.elements
    click.echo(to_dot(graph, hl), nl=False)


@main.command("verify")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--n", "n", type=int, default=None, help="Expected n (checked against the file).")
@click.option("--k", "k", type=int, default=None, help="Expected k (checked against the file).")
def verify_cmd(path, n, k):
    """Check that the set in PATH mixed-dominates its P(n,k)."""
    sf = setfile.load(path)
    if n is not None and n != sf.n:
        raise MixdomError(f"file is for n={sf.n}, expected n={n}")
    if k is not None and k != sf.k:
        raise MixdomError(f"file is for k={sf.k}, expected k={k}")
    graph = build_graph(GraphSpec(sf.n, sf.k))
    report = verify_set(graph, sf.elements)
    click.echo(f"instance: P({sf.n},{sf.k})")
    click.echo(f"size: {sf.size}")
    click.echo(f"dominating: {'yes' if report.is_dominating else 'no'}")
    click.echo(f"rd_total: {report.rd_total}")
    if not report.is_dominating:
        labels = [graph.label(e) for e in report.uncovered]
        shown = " ".join(labels[:24]) + (" ..." if len(labels) > 24 else "")
        click.echo(f"uncovered ({len(labels)}): {shown}")
        sys.exit(1)


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--pattern", type=click.Choice(list(constructions.PATTERNS)), default=None,
              help="Defaults to the pattern matching k.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Write the set to a file in the structured-set format.")
def construct(n, k, pattern, output):
    """Build a candidate mixed dominating set from a block pattern."""
    pattern = pattern or constructions.default_pattern(k)
    GraphSpec(n, k).validate()
    out = constructions.construct(n, k, pattern)
    click.echo(f"instance: P({n},{k})")
    click.echo(f"pattern: {out.pattern}")
    click.echo(f"size: {out.size}")
    click.echo(f"predicted_size: {out.predicted_size}")
    click.echo(f"raw_valid: {'yes' if out.raw_valid else 'no'}")
    if out.repaired:
        added = " ".join(elements.label(n, k, e) for e in out.repair_added)
        click.echo(f"repair_added: {added}")
    if out.known_suboptimal:
        click.echo("note: pattern is one above the optimum for this residue")
    if output:
        setfile.dump(output, n, k, f"construct:{out.pattern}", out.elements)
        click.echo(f"wrote {output}")


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--max-time", type=float, default=None, help="Seconds before giving up the proof.")
@click.option("--max-nodes", type=int, default=None)
@click.option("--hint", type=int, default=None, help="Known upper bound on the optimum.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
def solve(n, k, max_time, max_nodes, hint, output):
    """Exact minimum mixed dominating set by branch-and-bound."""
    graph = build_graph(GraphSpec(n, k))
    budget = SolveBudget(max_nodes=max_nodes, max_time=max_time, upper_bound_hint=hint)
    result = solve_exact(graph, budget)  # validates the budget first
    click.echo(f"instance: P({n},{k})")
    click.echo(f"optimum: {result.optimum}" + ("" if result.proved else " (upper bound)"))
    click.echo(f"proved: {'yes' if result.proved else 'no'}")
    click.echo(f"nodes: {result.nodes_explored}")
    click.echo(f"elapsed: {result.elapsed:.3f}s")
    click.echo("set: " + " ".join(graph.label(e) for e in result.witness))
    if output:
        setfile.dump(output, n, k, "solve:branch-and-bound", result.witness)
        click.echo(f"wrote {output}")
    if not result.proved:
        sys.exit(3)


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--remark", is_flag=True, default=False,
              help="For k=2: evaluate the alternate 8-column pattern formula.")
def formula(n, k, remark):
    """Closed-form size (exact for k in {1,2}, upper bound for k >= 3)."""
    if remark and k != 2:
        raise MixdomError("--remark only applies to k=2")
    GraphSpec(n, k).validate()
    res = formulas.formula_for(n, k, remark=remark)
    click.echo(f"value={res.value} kind={res.kind} case={res.source}")


@dataclass
class CompareRow:
    n: int
    k: int
    construction_size: int | None
    formula_value: int
    formula_kind: str
    exact_optimum: int | None
    proved: bool | None
    gap: int | None

    def record(self) -> str:
        return (f"n={self.n} k={self.k} construction={_show(self.construction_size)} "
                f"formula={self.formula_value} kind={self.formula_kind} "
                f"exact={_show(self.exact_optimum)} proved={_show(self.proved)} "
                f"gap={_show(self.gap)}")


def _show(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "no"
    return str(x)


def _default_construction(n: int, k: int) -> constructions.ConstructionOutput | None:
    """The default pattern's construction for P(n,k), or None below its min_n."""
    try:
        return constructions.construct(n, k, constructions.default_pattern(k))
    except OutOfRange:
        return None


def compare_row(n: int, k: int, budget: SolveBudget | None) -> CompareRow:
    """One cross-check row: construction vs formula vs (optional) exact optimum."""
    con = _default_construction(n, k)
    f = formulas.formula_for(n, k)
    exact = proved = gap = None
    if budget is not None:
        graph = build_graph(GraphSpec(n, k))
        result = solve_exact(graph, budget, initial=con.elements if con else None)
        proved = result.proved
        if result.proved:
            exact = result.optimum
            if con is not None:
                gap = con.size - exact
    return CompareRow(n, k, con.size if con else None, f.value, f.kind, exact, proved, gap)


@main.command()
@click.option("--k", "k", type=int, required=True)
@click.option("--n-start", type=int, required=True)
@click.option("--n-end", type=int, required=True)
@click.option("--max-time", type=float, default=60.0,
              help="Solver seconds per instance (0 disables the solver).")
@click.option("--max-nodes", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["table", "records"]), default="table")
def compare(k, n_start, n_end, max_time, max_nodes, fmt):
    """Cross-check constructions, formulas and the exact solver over a range of n."""
    GraphSpec(n_end, k).validate()  # so some n in range is valid, and none too large
    if n_start > n_end:
        raise MixdomError("--n-start must be <= --n-end")
    budget = None if max_time == 0 else SolveBudget(max_nodes=max_nodes, max_time=max_time)
    if budget is not None:
        budget.validate()
    rows = [compare_row(n, k, budget) for n in range(max(n_start, 2 * k + 1), n_end + 1)]
    if fmt == "records":
        for row in rows:
            click.echo(row.record())
        return
    click.echo(f"{'n':>5} {'constr':>7} {'formula':>8} {'kind':>12} {'exact':>6} "
               f"{'proved':>7} {'gap':>4}")
    for r in rows:
        click.echo(f"{r.n:>5} {_show(r.construction_size):>7} {r.formula_value:>8} "
                   f"{r.formula_kind:>12} {_show(r.exact_optimum):>6} {_show(r.proved):>7} "
                   f"{_show(r.gap):>4}")


# reference row for the smallest k=1 instances; the n=1,2 entries presume
# multigraph loops and double edges, outside this package's model
TABLE1_REFERENCE = {1: 1, 2: 2, **formulas.SMALL_K1}


# Each report checks its range, then yields (line, ok) for every line it
# prints; ok is False only on a row whose cells disagree.
def _table_small(lo, hi):
    first, last = min(TABLE1_REFERENCE), max(TABLE1_REFERENCE)
    if lo < first or hi > last:
        raise MixdomError(f"table1 has reference values for n = {first}..{last}, "
                          f"got n = {lo}..{hi}")
    yield f"{'n':>3} {'reference':>10} {'computed':>9} {'agree':>6}", True
    for n in range(lo, hi + 1):
        ref = TABLE1_REFERENCE[n]
        if n < 3:
            yield f"{n:>3} {ref:>10} {'n/a':>9} {'-':>6}", True
            continue
        got = solve_exhaustive(build_graph(GraphSpec(n, 1)), max_size=8).optimum
        ok = got == ref
        yield f"{n:>3} {ref:>10} {got:>9} {'ok' if ok else '!':>6}", ok


def _table_formula_vs_construction(title, k, lo, hi):
    formulas.formula_for(lo, k)  # rejects a start below the formula's domain
    yield f"{title}: formula vs construction size", True
    yield f"{'n':>5} {'formula':>8} {'constr':>7} {'agree':>6}", True
    for n in range(lo, hi + 1):
        con = _default_construction(n, k)
        if con is None:
            yield f"{n:>5} {formulas.formula_for(n, k).value:>8} {'n/a':>7} {'-':>6}", True
            continue
        ok = con.size == con.predicted_size and not con.repaired
        yield f"{n:>5} {con.predicted_size:>8} {con.size:>7} {'ok' if ok else '!':>6}", ok


def _table_k2remark(lo, hi):
    formulas.gamma_k2_remark(lo)  # rejects a start below the formula's domain
    yield "k=2: 4-column formula vs alternate 8-column pattern", True
    yield f"{'n':>5} {'k2':>4} {'8col':>5} {'delta':>6} {'constr':>7} {'agree':>6}", True
    for n in range(lo, hi + 1):
        base = formulas.gamma_k2(n).value
        con = constructions.construct_k2_block8(n)
        alt = con.predicted_size
        ok = alt - base == con.known_suboptimal and con.size == alt
        yield (f"{n:>5} {base:>4} {alt:>5} {alt - base:>6} {con.size:>7} "
               f"{'ok' if ok else '!':>6}"), ok


def _table_general(lo, hi):
    yield "k>=3: upper bound vs construction", True
    yield f"{'k':>3} {'n':>5} {'bound':>6} {'constr':>7} {'raw':>4} {'agree':>6}", True
    for k in range(3, 8):
        for n in range(max(lo, 2 * k + 1), hi + 1):
            con = constructions.construct_general(n, k)
            ok = con.size <= con.predicted_size
            yield (f"{k:>3} {n:>5} {con.predicted_size:>6} {con.size:>7} "
                   f"{'yes' if con.raw_valid else 'no':>4} {'ok' if ok else '!':>6}"), ok


# name: (report, default first n, default last n)
TABLES = {
    "table1": (_table_small, min(TABLE1_REFERENCE), max(TABLE1_REFERENCE)),
    "eq1": (partial(_table_formula_vs_construction, "k=1 closed form", 1), 8, 15),
    "k2": (partial(_table_formula_vs_construction, "k=2 closed form", 2), 5, 12),
    "k2remark": (_table_k2remark, 8, 15),
    "general": (_table_general, 7, 30),
}


@main.command()
@click.option("--name", type=click.Choice(list(TABLES)), required=True)
@click.option("--n-start", type=int, default=None)
@click.option("--n-end", type=int, default=None)
def table(name, n_start, n_end):
    """Reproduce a reference value table, flagging any disagreeing cell."""
    report, lo, hi = TABLES[name]
    lo = lo if n_start is None else n_start
    hi = hi if n_end is None else n_end
    if lo > hi:
        raise MixdomError("--n-start must be <= --n-end")
    mismatches = 0
    for line, ok in report(lo, hi):
        click.echo(line)
        mismatches += not ok
    if mismatches:
        click.echo(f"MISMATCH: {mismatches} cell(s) disagree")
        sys.exit(1)
    click.echo("all cells agree")


if __name__ == "__main__":
    main()
