"""Explicit mixed dominating sets for P(n,k) built from periodic block patterns.

Every pattern is one :class:`Pattern` row of data, and one tiler, :func:`tile`,
turns a row into a raw element set: the block gadget goes into each full
block of ``width`` columns, then the gadget ``remainders[n % width]`` goes
after the last full block. The raw set is verified; when it does not
dominate, greedy repair completes it. Repairs are always recorded on the
output, never applied silently.

A gadget is a tuple of ``(kind, column offset)`` pairs, with kinds named
after the set-file tags (V, U, VV, VU, UU). Offsets count from the start of
the block and are reduced mod n, so a remainder gadget may reach back into
the last full block with a negative offset. An element placed twice is
simply absorbed; the size shortfall then shows up in validation instead of
passing unnoticed.

A row holds the k it applies to, the block width, the block gadget, the
remainder table (one gadget per residue n mod width), the formula giving the
predicted size, the minimum n, and the residues at which the pattern is
known to sit one above the optimum. The k=1 and k=2 rows are literals in
``_ROWS``, keyed by pattern name; the general row is generated from k by
:func:`_general_row`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import formulas
from .domination import greedy_complete, verify
from .elements import ElementKind, ElementSet
from .errors import OutOfRange
from .petersen import build

K1_BLOCK8 = "k1-block8"
K2_BLOCK4 = "k2-block4"
K2_BLOCK8 = "k2-block8"
GENERAL = "general"

PATTERNS = (K1_BLOCK8, K2_BLOCK4, K2_BLOCK8, GENERAL)

V, U, VV, VU, UU = ElementKind

Gadget = tuple[tuple[ElementKind, int], ...]


@dataclass(frozen=True)
class Pattern:
    k: int
    width: int
    block: Gadget
    remainders: tuple[Gadget, ...] | _GeneralRemainders
    formula: Callable[[int], formulas.FormulaResult]
    min_n: int
    suboptimal: tuple[int, ...] = ()


@dataclass(frozen=True)
class ConstructionOutput:
    n: int
    k: int
    pattern: str
    elements: ElementSet
    predicted_size: int
    raw_valid: bool
    repair_added: ElementSet
    known_suboptimal: bool = False

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def repaired(self) -> bool:
        return not self.raw_valid


# Formulas are looked up in the formulas module at call time, so a patched
# formula takes effect here too.
_ROWS = {
    K1_BLOCK8: Pattern(
        k=1, width=8, min_n=8,
        block=((U, 0), (VV, 1), (UU, 2), (V, 4), (UU, 5), (VV, 6)),
        remainders=(
            (),
            ((U, 0), (VV, 0)),
            ((U, 0), (VV, 1)),
            ((U, 0), (VV, 1), (UU, 1)),
            ((U, 0), (VV, 1), (UU, 2), (V, 3)),
            ((U, 0), (VV, 1), (UU, 2), (V, 4)),
            ((U, 0), (VV, 1), (UU, 2), (V, 4), (VU, 5)),
            ((U, 0), (VV, 1), (UU, 2), (V, 4), (UU, 5), (VV, 6)),
        ),
        formula=lambda n: formulas.gamma_k1(n),
    ),
    # Each leftover column gets its own spoke; a spoke one column later
    # would collide with the next block's for some residues.
    K2_BLOCK4: Pattern(
        k=2, width=4, min_n=5,
        block=((VU, 0), (UU, 1), (V, 2)),
        remainders=((), ((VU, 0),), ((VU, 0), (VU, 1)), ((VU, 0), (VU, 1), (VU, 2))),
        formula=lambda n: formulas.gamma_k2(n),
    ),
    # The remainder gadgets were found by exact search and meet the
    # pattern's case formula, which is one above the optimum for n mod 8
    # in {1, 4}.
    K2_BLOCK8: Pattern(
        k=2, width=8, min_n=8, suboptimal=(1, 4),
        block=((U, 0), (VV, 1), (U, 3), (VU, 4), (VV, 5), (VU, 7)),
        remainders=(
            (),
            ((U, 0), (V, 1)),
            ((U, 0), (VU, 1)),
            ((U, 0), (V, 1), (VU, 2)),
            ((V, 0), (U, 0), (UU, 1), (VV, 2)),
            ((U, 0), (VV, 1), (U, 3), (VU, 4)),
            ((U, 0), (VV, 1), (U, 3), (VU, 4), (VU, 5)),
            ((U, 0), (V, 1), (VU, 2), (UU, 3), (V, 4), (VU, 6)),
        ),
        formula=lambda n: formulas.gamma_k2_remark(n),
    ),
}


def _pairs(k: int, count: int) -> Gadget:
    """Inner vertex and spoke on alternate columns, staggered by one for odd k."""
    odd = k % 2
    return tuple(e for i in range(count) for e in ((U, 2 * i + odd), (VU, 2 * i + 1 - odd)))


def _general_block(k: int) -> Gadget:
    """k//2 inner vertices, k//2+1 spokes and k//2 outer edges over 4(k//2)+1 columns."""
    kp = k // 2
    if k % 2:
        return (_pairs(k, kp) + ((VU, 2 * kp),)
                + tuple((VV, c) for c in range(2 * kp + 1, 4 * kp, 2)))
    return _pairs(k, kp) + tuple((VV, c) for c in range(2 * kp, 4 * kp, 2)) + ((VU, 4 * kp),)


@dataclass(frozen=True)
class _GeneralRemainders:
    """The general row's remainder table, one residue built on demand.

    The whole table holds O(k^2) elements, more than tiling a large-k
    instance costs.
    """

    k: int

    def __getitem__(self, r: int) -> Gadget:
        kp = self.k // 2
        if r % 2 == 0:
            return _pairs(self.k, r // 2)
        if r > 2 * kp:
            # the block gadget cut off after r columns
            return tuple(e for e in _general_block(self.k) if e[1] < r)
        # one element short of dominating: the logged repair adds it back
        return (_pairs(self.k, r // 2) + ((VU, r - 1),)
                + tuple((U, -2 * i - 2) for i in range((2 * kp - r - 1) // 2)))


def _general_row(k: int) -> Pattern:
    return Pattern(k=k, width=4 * (k // 2) + 1, min_n=2 * k + 1, block=_general_block(k),
                   remainders=_GeneralRemainders(k),
                   formula=lambda n: formulas.upper_bound_general(n, k))


def tile(n: int, width: int, block: Gadget,
         remainders: tuple[Gadget, ...] | _GeneralRemainders) -> ElementSet:
    """Raw set: ``block`` in each full block of ``width`` columns, then ``remainders[n % width]``."""
    m, r = divmod(n, width)
    starts = width * np.arange(m)
    mask = np.zeros(5 * n, dtype=bool)
    for kind, offset in block:
        mask[kind * n + (starts + offset) % n] = True
    for kind, offset in remainders[r]:
        mask[kind * n + (width * m + offset) % n] = True
    return ElementSet.from_mask(n, mask)


def _row(pattern: str, k: int) -> Pattern:
    if pattern == GENERAL:
        if k < 3:
            raise OutOfRange(f"pattern {GENERAL} needs k >= 3, got k={k}")
        return _general_row(k)
    if pattern not in _ROWS:
        raise OutOfRange(f"unknown pattern {pattern!r}; choose from {', '.join(PATTERNS)}")
    row = _ROWS[pattern]
    if k != row.k:
        raise OutOfRange(f"pattern {pattern} needs k={row.k}, got k={k}")
    return row


def construct(n: int, k: int, pattern: str) -> ConstructionOutput:
    """Run the named pattern, checking it applies to (n, k)."""
    row = _row(pattern, k)
    if n < row.min_n:
        raise OutOfRange(f"pattern {pattern} needs n >= {row.min_n} for k={k}, got n={n}")
    graph = build(n, k)
    raw = tile(n, row.width, row.block, row.remainders)
    raw_valid = verify(graph, raw).is_dominating
    elements = raw if raw_valid else greedy_complete(graph, raw)
    return ConstructionOutput(n, k, pattern, elements, row.formula(n).value,
                              raw_valid=raw_valid, repair_added=elements - raw,
                              known_suboptimal=n % row.width in row.suboptimal)


def construct_k1(n: int) -> ConstructionOutput:
    """Dominating set for P(n,1), n >= 8, of exactly the gamma_k1 size."""
    return construct(n, 1, K1_BLOCK8)


def construct_k2_block4(n: int) -> ConstructionOutput:
    """Dominating set for P(n,2), n >= 5, of exactly the gamma_k2 size."""
    return construct(n, 2, K2_BLOCK4)


def construct_k2_block8(n: int) -> ConstructionOutput:
    """Dominating set for P(n,2), n >= 8, from the alternate 8-column pattern."""
    return construct(n, 2, K2_BLOCK8)


def construct_general(n: int, k: int) -> ConstructionOutput:
    """Dominating set for P(n,k), k >= 3, within the general upper bound.

    The odd-remainder gadgets for r = n mod (4(k//2)+1) <= 2(k//2) are one
    element short of dominating; the greedy repair (a single element,
    logged on the output) brings the size exactly to the bound.
    """
    return construct(n, k, GENERAL)


def default_pattern(k: int) -> str:
    return {1: K1_BLOCK8, 2: K2_BLOCK4}.get(k, GENERAL)
