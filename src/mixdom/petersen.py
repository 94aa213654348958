"""The generalized Petersen graph P(n,k) and its element universe.

P(n,k) has outer cycle v_0..v_{n-1}, inner vertices u_0..u_{n-1} joined by
inner edges u_i u_{i+k mod n}, and spokes v_i u_i. The model requires
n >= 3 and strictly 1 <= k < n/2: at n = 2k the inner edges collapse into
duplicate pairs, the graph stops being cubic and the 5n element count
breaks, so that boundary is rejected rather than special-cased. n is also
capped at MAX_N, so that every element id fits the int32 neighbor table.

Every element of a valid instance has a closed mixed neighborhood of
exactly 7 elements (itself plus 6 adjacent or incident ones); the whole
package leans on that uniformity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import elements
from .elements import ElementSet, _as_id
from .errors import InvalidSpec

NEIGHBORHOOD_SIZE = 7
MAX_N = (2**31 - 1) // 5  # largest n whose 5n element ids are all int32


@dataclass(frozen=True)
class GraphSpec:
    """Parameters of a P(n,k) instance: outer cycle length n, inner skip k."""

    n: int
    k: int

    def validate(self) -> None:
        if self.n < 3:
            raise InvalidSpec(f"n must be >= 3, got {self.n}")
        if self.n > MAX_N:
            raise InvalidSpec(f"n must be <= {MAX_N} (element ids are int32), got {self.n}")
        if self.k < 1:
            raise InvalidSpec(f"k must be >= 1, got {self.k}")
        if 2 * self.k >= self.n:
            raise InvalidSpec(
                f"need k < n/2 (P({self.n},{self.k}) degenerates: duplicate inner edges)"
            )


def _neighbor_table(n: int, k: int) -> np.ndarray:
    """(5n, 7) table of closed mixed neighborhoods, rows sorted ascending."""
    i = np.arange(n)
    ip, im = (i + 1) % n, (i - 1) % n
    ik, imk = (i + k) % n, (i - k) % n
    V, U, OE, SP, IE = (kind * n for kind in range(5))

    tbl = np.empty((5 * n, NEIGHBORHOOD_SIZE), dtype=np.int32)
    tbl[V + i] = np.stack([V + i, V + im, V + ip, U + i, OE + im, OE + i, SP + i], axis=1)
    tbl[U + i] = np.stack([U + i, U + imk, U + ik, V + i, IE + imk, IE + i, SP + i], axis=1)
    tbl[OE + i] = np.stack([OE + i, V + i, V + ip, OE + im, OE + ip, SP + i, SP + ip], axis=1)
    tbl[SP + i] = np.stack([SP + i, V + i, U + i, OE + im, OE + i, IE + imk, IE + i], axis=1)
    tbl[IE + i] = np.stack([IE + i, U + i, U + ik, IE + imk, IE + ik, SP + i, SP + ik], axis=1)
    tbl.sort(axis=1)
    return tbl


class PetersenGraph:
    """Immutable P(n,k) instance with precomputed mixed neighborhoods."""

    def __init__(self, spec: GraphSpec):
        spec.validate()
        self.n = spec.n
        self.k = spec.k
        self.nbrs = _neighbor_table(spec.n, spec.k)
        self.nbrs.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return 2 * self.n

    @property
    def num_edges(self) -> int:
        return 3 * self.n

    @property
    def num_elements(self) -> int:
        return 5 * self.n

    def mixed_neighborhood(self, item) -> ElementSet:
        """Closed mixed neighborhood: the element plus everything adjacent or incident."""
        return ElementSet(self.n, self.nbrs[_as_id(item, self.n)])

    def edge_endpoints(self, item) -> tuple[int, int]:
        """Vertex ids of an edge element's two endpoints."""
        return elements.endpoints(self.n, self.k, item)

    def label(self, item) -> str:
        """Human-readable name: v3, u5, v3v4, v3u3, u3u5."""
        return elements.label(self.n, self.k, item)

    def universe(self) -> ElementSet:
        return ElementSet.from_mask(self.n, np.ones(self.num_elements, dtype=bool))

    def __repr__(self) -> str:
        return f"PetersenGraph(n={self.n}, k={self.k})"


def build_graph(spec: GraphSpec) -> PetersenGraph:
    """Construct P(n,k). Raises InvalidSpec unless 3 <= n <= MAX_N and 1 <= k < n/2."""
    return PetersenGraph(spec)


def build(n: int, k: int) -> PetersenGraph:
    return build_graph(GraphSpec(n, k))


def to_dot(graph: PetersenGraph, highlight: ElementSet | None = None) -> str:
    """Render the graph in DOT, drawing highlighted elements bold/filled."""
    hl = highlight.mask if highlight is not None else np.zeros(graph.num_elements, dtype=bool)
    lines = [f'graph "P({graph.n},{graph.k})" {{']
    for v in range(graph.num_vertices):
        style = " [style=filled, fillcolor=black, fontcolor=white]" if hl[v] else ""
        lines.append(f"  {graph.label(v)}{style};")
    for eid in range(graph.num_vertices, graph.num_elements):
        a, b = graph.edge_endpoints(eid)
        style = " [style=bold, penwidth=3]" if hl[eid] else ""
        lines.append(f"  {graph.label(a)} -- {graph.label(b)}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
