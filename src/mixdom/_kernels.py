"""Hot numeric kernels: coverage, greedy completion, branch-and-bound search.

Coverage and greedy completion are numpy array operations; the search is a
plain-Python depth-first loop over list copies of the neighbor table.
"""

from __future__ import annotations

import math
import time

import numpy as np

# the search reads the clock once per this many nodes
CLOCK_EVERY = 1 << 12


def cover_from_members(nbrs, members):
    """Boolean cover mask: which elements have a dominator among ``members``."""
    members = np.ascontiguousarray(members, dtype=np.int32)
    cover = np.zeros(nbrs.shape[0], dtype=np.bool_)
    if len(members):
        cover[nbrs[members].ravel()] = True
    return cover


def coverage_counts(nbrs, member_mask):
    """Per-element count of dominators inside the member set."""
    return member_mask[nbrs].sum(axis=1, dtype=np.int32)


def greedy_fill(nbrs, cover):
    """Ids added (in order) by the max-new-coverage greedy until everything is covered."""
    added = []
    cover = cover.copy()
    while not cover.all():
        gains = (~cover)[nbrs].sum(axis=1)
        e = int(np.argmax(gains))  # argmax takes the smallest id on ties
        added.append(e)
        cover[nbrs[e]] = True
    return np.asarray(added, dtype=np.int32)


def bb_search(nbrs, cutoff, node_cap=math.inf, deadline=None):
    """Search for a dominating set strictly smaller than ``cutoff``.

    Depth-first, always branching on the lowest-id uncovered element over
    its at most 7 allowed dominators in ascending id order, pruning with
    size + ceil(uncovered / 7) >= best. Candidates already tried at a node
    are forbidden in later siblings' subtrees, which makes the branching a
    partition of the search space. Coverage is a per-element dominator
    count, undone on backtrack.

    The limits are absolute: the search stops after exactly ``node_cap``
    nodes, or at the first clock read at or past ``deadline`` (a
    ``time.monotonic()`` value). Returns ``(ids, nodes, completed)``: the
    sorted ids of the smallest set found, or None if no set beat
    ``cutoff``; the nodes explored; and whether the whole space was
    searched. A completed search's set depends only on the instance and
    ``cutoff``.
    """
    E, W = nbrs.shape
    if (E + W - 1) // W >= cutoff:
        return None, 0, True
    rows = nbrs.tolist()
    cnt = [0] * E
    forbid = [False] * E
    best, best_ids = cutoff, None
    next_check = min(CLOCK_EVERY, node_cap)
    nodes = covered = 0
    # one entry per level: the pending element's allowed dominators and the
    # position of the next one to try; chosen[i] is the dominator that
    # entered level i + 1. Element 0 is uncovered at the root.
    cands = [list(rows[0])]
    pos = [0]
    chosen = []
    completed = False

    while True:
        if not pos:
            completed = True
            break
        if nodes >= next_check:
            if nodes >= node_cap or (deadline is not None and time.monotonic() >= deadline):
                break
            next_check = min(nodes + CLOCK_EVERY, node_cap)
        level = len(pos) - 1
        level_cands = cands[level]
        p = pos[level]
        if p == len(level_cands):
            # node exhausted: lift its sibling forbids, undo the move that entered it
            for c in level_cands:
                forbid[c] = False
            cands.pop()
            pos.pop()
            if chosen:
                for t in rows[chosen.pop()]:
                    cnt[t] -= 1
                    if cnt[t] == 0:
                        covered -= 1
            continue

        c = level_cands[p]
        pos[level] = p + 1
        forbid[c] = True
        nodes += 1
        row = rows[c]
        for t in row:
            if cnt[t] == 0:
                covered += 1
            cnt[t] += 1
        size = level + 1

        if covered == E:
            if size < best:
                best = size
                best_ids = chosen + [c]
            nxt = None
        elif size + (E - covered + W - 1) // W >= best:
            nxt = None
        else:
            nxt = [d for d in rows[cnt.index(0)] if not forbid[d]]
        if nxt:
            chosen.append(c)
            cands.append(nxt)
            pos.append(0)
        else:
            # leaf, pruned or dead end: undo and stay at this level
            for t in row:
                cnt[t] -= 1
                if cnt[t] == 0:
                    covered -= 1

    ids = None if best_ids is None else np.sort(np.asarray(best_ids, dtype=np.int32))
    return ids, nodes, completed
