"""Exact minimum mixed dominating sets by branch-and-bound.

The search state is the set of chosen elements; at each node the lowest-id
uncovered element is picked and the branches try each of its at most 7
possible dominators in ascending id order (dominators already rejected on
earlier branches of the same node stay excluded below, so subtrees are
disjoint). Pruning uses the uniform neighborhood size: a partial set of
size s with q uncovered elements can never beat an incumbent of size
s + ceil(q/7) or smaller.

solve_exhaustive is the independent oracle for tiny instances: it scans
subsets in lexicographic order by increasing cardinality, so the first hit
is both the optimum and the lexicographically smallest witness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .domination import verify
from .elements import ElementSet
from .errors import InvalidBudget, NoSolutionWithin
from .petersen import NEIGHBORHOOD_SIZE, PetersenGraph


@dataclass(frozen=True)
class SolveBudget:
    """Limits for the search; None means unlimited."""

    max_nodes: int | None = None
    max_time: float | None = None
    upper_bound_hint: int | None = None

    def validate(self) -> None:
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise InvalidBudget(f"max_nodes must be positive, got {self.max_nodes}")
        if self.max_time is not None and not self.max_time > 0:  # NaN too
            raise InvalidBudget(f"max_time must be positive, got {self.max_time}")
        if self.upper_bound_hint is not None and self.upper_bound_hint <= 0:
            raise InvalidBudget(f"upper_bound_hint must be positive, got {self.upper_bound_hint}")


@dataclass(frozen=True)
class OptimalResult:
    optimum: int
    witness: ElementSet
    proved: bool
    nodes_explored: int
    elapsed: float


def solve_exact(graph: PetersenGraph, budget: SolveBudget | None = None, *,
                initial: ElementSet | None = None) -> OptimalResult:
    """Minimum mixed dominating set of the graph, proved when budget allows.

    The starting incumbent is the greedy completion of the empty set, or
    ``initial`` (a known dominating set) if smaller. A bare numeric
    ``upper_bound_hint`` in the budget tightens the search's cutoff to
    hint+1 so an optimal witness is still produced. A hint below the true
    optimum leaves that search complete without a witness; a second search
    with the incumbent's size as cutoff then runs under what is left of the
    same limits.

    The budget becomes one absolute deadline and one node cap, shared by
    both searches. On exhaustion ``proved`` is False and ``optimum`` is the
    best incumbent size, an upper bound. The search reads the clock once per
    ``_kernels.CLOCK_EVERY`` nodes, so ``max_time`` is overshot by at most
    that many nodes' work.
    """
    budget = budget or SolveBudget()
    budget.validate()
    t0 = time.monotonic()
    deadline = None if budget.max_time is None else t0 + budget.max_time
    node_cap = math.inf if budget.max_nodes is None else budget.max_nodes

    greedy_ids = _kernels.greedy_fill(graph.nbrs, np.zeros(graph.num_elements, dtype=np.bool_))
    incumbent = ElementSet(graph.n, greedy_ids)
    if initial is not None:
        if not verify(graph, initial).is_dominating:
            raise ValueError("initial incumbent must be a dominating set")
        if len(initial) < len(incumbent):
            incumbent = initial.copy()

    cutoff = len(incumbent)
    if budget.upper_bound_hint is not None:
        cutoff = min(cutoff, budget.upper_bound_hint + 1)
    ids, nodes, completed = _kernels.bb_search(graph.nbrs, cutoff, node_cap, deadline)
    if ids is None and completed and cutoff < len(incumbent):
        # the hint was below the optimum: search again up to the incumbent
        ids, more, completed = _kernels.bb_search(graph.nbrs, len(incumbent),
                                                  node_cap - nodes, deadline)
        nodes += more

    witness = incumbent if ids is None else ElementSet(graph.n, ids)
    return OptimalResult(
        optimum=len(witness),
        witness=witness,
        proved=completed,
        nodes_explored=nodes,
        elapsed=time.monotonic() - t0,
    )


def solve_exhaustive(graph: PetersenGraph, max_size: int) -> OptimalResult:
    """Optimum by lexicographic subset enumeration of increasing cardinality.

    Intended for tiny instances (5n <= 40 or so). Raises NoSolutionWithin
    if no dominating set of size <= max_size exists. The witness is the
    lexicographically smallest optimal set by canonical ids.
    """
    t0 = time.monotonic()
    E = graph.num_elements
    masks = [0] * E
    for e in range(E):
        row = 0
        for t in graph.nbrs[e]:
            row |= 1 << int(t)
        masks[e] = row
    full = (1 << E) - 1
    nodes = 0

    def extend(start: int, remaining: int, cover: int) -> list[int] | None:
        nonlocal nodes
        nodes += 1
        if cover == full:
            return []
        if remaining == 0 or (E - cover.bit_count()) > NEIGHBORHOOD_SIZE * remaining:
            return None
        for e in range(start, E):
            gained = masks[e] & ~cover
            if gained == 0:
                # a dominating set of minimum size never contains an element
                # whose whole neighborhood is covered by earlier picks
                continue
            tail = extend(e + 1, remaining - 1, cover | masks[e])
            if tail is not None:
                return [e] + tail
        return None

    for size in range(1, max_size + 1):
        found = extend(0, size, 0)
        if found is not None:
            return OptimalResult(
                optimum=size,
                witness=ElementSet(graph.n, found),
                proved=True,
                nodes_explored=nodes,
                elapsed=time.monotonic() - t0,
            )
    raise NoSolutionWithin(max_size)
