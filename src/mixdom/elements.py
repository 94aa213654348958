"""Elements (vertices and edges) of P(n,k) and dense sets over them.

An element is its canonical integer id in [0, 5n), ``kind * n + i`` with
the column index i reduced mod n. This module is the one place that
decodes an id:

    kind          tag  element        id       label
    outer vertex  v    v_i            i        v3
    inner vertex  u    u_i            n + i    u3
    outer edge    vv   v_i v_{i+1}    2n + i   v3v4
    spoke         vu   v_i u_i        3n + i   v3u3
    inner edge    uu   u_i u_{i+k}    4n + i   u3u5  (k = 2)

Edges are keyed by their lower construction index i. Set files write an
element as ``<tag> <i>``; an edge's label joins its endpoints' labels.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from .errors import UnknownElement


class ElementKind(IntEnum):
    OUTER_VERTEX = 0
    INNER_VERTEX = 1
    OUTER_EDGE = 2
    SPOKE = 3
    INNER_EDGE = 4


TAGS = ("v", "u", "vv", "vu", "uu")


def _as_id(eid, n: int) -> int:
    eid = int(eid)
    if not 0 <= eid < 5 * n:
        raise UnknownElement(f"element id {eid} outside [0, {5 * n})")
    return eid


def endpoints(n: int, k: int, eid) -> tuple[int, int]:
    """Vertex ids of an edge element's two endpoints."""
    eid = _as_id(eid, n)
    kind, i = divmod(eid, n)
    if kind == ElementKind.OUTER_EDGE:
        return i, (i + 1) % n
    if kind == ElementKind.SPOKE:
        return i, n + i
    if kind == ElementKind.INNER_EDGE:
        return n + i, n + (i + k) % n
    raise UnknownElement(f"element id {eid} is a vertex, not an edge")


def label(n: int, k: int, eid) -> str:
    """Human-readable name: v3, u5, v3v4, v3u3, u3u5."""
    eid = _as_id(eid, n)
    if eid < 2 * n:
        return f"{TAGS[eid // n]}{eid % n}"
    return "".join(label(n, k, end) for end in endpoints(n, k, eid))


class ElementSet:
    """Dense, mutable set of canonical element ids over the 5n universe.

    Iteration yields ids in ascending order.
    """

    __slots__ = ("n", "_mask")

    def __init__(self, n: int, ids=()):
        self.n = int(n)
        self._mask = np.zeros(5 * self.n, dtype=bool)
        for eid in ids:
            self._mask[_as_id(eid, self.n)] = True

    @classmethod
    def from_mask(cls, n: int, mask: np.ndarray) -> "ElementSet":
        s = cls(n)
        s._mask[:] = mask
        return s

    @property
    def mask(self) -> np.ndarray:
        """Boolean membership array of length 5n (do not mutate)."""
        return self._mask

    def ids(self) -> np.ndarray:
        return np.flatnonzero(self._mask)

    def add(self, eid) -> None:
        self._mask[_as_id(eid, self.n)] = True

    def discard(self, eid) -> None:
        self._mask[_as_id(eid, self.n)] = False

    def copy(self) -> "ElementSet":
        return ElementSet.from_mask(self.n, self._mask)

    def __contains__(self, eid) -> bool:
        return bool(self._mask[_as_id(eid, self.n)])

    def __len__(self) -> int:
        return int(self._mask.sum())

    def __iter__(self):
        return iter(int(i) for i in np.flatnonzero(self._mask))

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._check_same_universe(other)
        return ElementSet.from_mask(self.n, self._mask | other._mask)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._check_same_universe(other)
        return ElementSet.from_mask(self.n, self._mask & other._mask)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._check_same_universe(other)
        return ElementSet.from_mask(self.n, self._mask & ~other._mask)

    def __le__(self, other: "ElementSet") -> bool:
        self._check_same_universe(other)
        return bool(np.all(other._mask[self._mask]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElementSet):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._mask, other._mask))

    def _check_same_universe(self, other: "ElementSet") -> None:
        if self.n != other.n:
            raise ValueError(f"element sets over different universes: n={self.n} vs n={other.n}")

    def __repr__(self) -> str:
        return f"ElementSet(n={self.n}, size={len(self)})"
