"""Elements (vertices and edges) of P(n,k) and dense sets over them.

Every vertex or edge of P(n,k) has a canonical integer id in [0, 5n):

    outer vertex  v_i            -> i
    inner vertex  u_i            -> n + i
    outer edge    v_i v_{i+1}    -> 2n + i
    spoke         v_i u_i        -> 3n + i
    inner edge    u_i u_{i+k}    -> 4n + i

Edges are keyed by their lower construction index i; indices are always
reduced mod n.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import UnknownElement


class ElementKind(IntEnum):
    OUTER_VERTEX = 0
    INNER_VERTEX = 1
    OUTER_EDGE = 2
    SPOKE = 3
    INNER_EDGE = 4


@dataclass(frozen=True)
class Element:
    """A vertex or edge of P(n,k), tagged by kind and column index."""

    kind: ElementKind
    index: int

    def id(self, n: int) -> int:
        """Canonical id of this element in the 5n universe."""
        if not 0 <= self.index < n:
            raise UnknownElement(f"index {self.index} outside [0, {n})")
        return int(self.kind) * n + self.index

    @staticmethod
    def from_id(eid: int, n: int) -> "Element":
        """Inverse of :meth:`id`."""
        if not 0 <= eid < 5 * n:
            raise UnknownElement(f"element id {eid} outside [0, {5 * n})")
        kind, index = divmod(int(eid), n)
        return Element(ElementKind(kind), index)


def _as_id(item, n: int) -> int:
    if isinstance(item, Element):
        return item.id(n)
    eid = int(item)
    if not 0 <= eid < 5 * n:
        raise UnknownElement(f"element id {eid} outside [0, {5 * n})")
    return eid


class ElementSet:
    """Dense, mutable set of canonical element ids over the 5n universe.

    Accepts either ids or :class:`Element` values everywhere. Iteration
    yields ids in ascending order.
    """

    __slots__ = ("n", "_mask")

    def __init__(self, n: int, items=()):
        self.n = int(n)
        self._mask = np.zeros(5 * self.n, dtype=bool)
        for item in items:
            self._mask[_as_id(item, self.n)] = True

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

    def elements(self) -> list[Element]:
        return [Element.from_id(i, self.n) for i in self.ids()]

    def add(self, item) -> None:
        self._mask[_as_id(item, self.n)] = True

    def discard(self, item) -> None:
        self._mask[_as_id(item, self.n)] = False

    def copy(self) -> "ElementSet":
        return ElementSet.from_mask(self.n, self._mask)

    def __contains__(self, item) -> bool:
        return bool(self._mask[_as_id(item, self.n)])

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
