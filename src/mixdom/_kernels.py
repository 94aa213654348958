"""Hot numeric kernels: coverage, greedy completion, branch-and-bound search.

Every kernel comes in two flavors: a numba @njit build (default when numba
imports) and a pure numpy/python fallback. Set MIXDOM_NO_NUMBA=1 to force
the fallback; benchmarks/bench.py times one against the other.
"""

from __future__ import annotations

import os
import time

import numpy as np

from .errors import MixdomError

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    njit = None
    HAVE_NUMBA = False

ENV_FLAG = "MIXDOM_NO_NUMBA"


def numba_enabled() -> bool:
    return HAVE_NUMBA and os.environ.get(ENV_FLAG, "").lower() not in ("1", "true", "yes")


def _pick(flag):
    if flag is None:
        return numba_enabled()
    if flag and not HAVE_NUMBA:
        raise MixdomError("use_numba=True needs numba: pip install 'mixdom[numba]'")
    return bool(flag)


# ---------------------------------------------------------------------------
# coverage


def _cover_from_members_np(nbrs, members):
    cover = np.zeros(nbrs.shape[0], dtype=np.bool_)
    if len(members):
        cover[nbrs[members].ravel()] = True
    return cover


def _cover_from_members_loop(nbrs, members):
    cover = np.zeros(nbrs.shape[0], dtype=np.bool_)
    for idx in range(members.shape[0]):
        row = nbrs[members[idx]]
        for j in range(row.shape[0]):
            cover[row[j]] = True
    return cover


def _coverage_counts_np(nbrs, member_mask):
    return member_mask[nbrs].sum(axis=1, dtype=np.int32)


def _coverage_counts_loop(nbrs, member_mask):
    counts = np.zeros(nbrs.shape[0], dtype=np.int32)
    for e in range(nbrs.shape[0]):
        c = 0
        for j in range(nbrs.shape[1]):
            if member_mask[nbrs[e, j]]:
                c += 1
        counts[e] = c
    return counts


def _greedy_fill_np(nbrs, cover):
    added = []
    cover = cover.copy()
    while not cover.all():
        gains = (~cover)[nbrs].sum(axis=1)
        e = int(np.argmax(gains))  # argmax takes the smallest id on ties
        added.append(e)
        cover[nbrs[e]] = True
    return np.asarray(added, dtype=np.int32)


def _greedy_fill_loop(nbrs, cover):
    E = nbrs.shape[0]
    cover = cover.copy()
    remaining = E - int(cover.sum())
    added = np.empty(E, dtype=np.int32)
    count = 0
    while remaining > 0:
        best_gain = 0
        best_e = -1
        for e in range(E):
            g = 0
            for j in range(nbrs.shape[1]):
                if not cover[nbrs[e, j]]:
                    g += 1
            if g > best_gain:
                best_gain = g
                best_e = e
        for j in range(nbrs.shape[1]):
            t = nbrs[best_e, j]
            if not cover[t]:
                cover[t] = True
                remaining -= 1
        added[count] = best_e
        count += 1
    return added[:count]


# ---------------------------------------------------------------------------
# branch and bound
#
# Iterative DFS over an explicit stack so a numba kernel can suspend on a
# node budget and resume (the wrapper interleaves wall-clock checks).
# State per level: candidate list for the pending uncovered element,
# position of the next candidate, and the element chosen to enter the
# level. Coverage is a per-element dominator count, undone on backtrack.
# Candidates already tried at a node are forbidden in later siblings'
# subtrees, which makes the branching a partition of the search space.

ST_LEVEL, ST_NODES, ST_BEST, ST_FOUND, ST_COVERED, ST_INIT = 0, 1, 2, 3, 4, 5

RUNNING, DONE = 0, 1


def _bb_step(nbrs, cnt, forbid, cand_ids, cand_cnt, cand_pos, chosen, best_ids, st, budget):
    E = nbrs.shape[0]
    W = nbrs.shape[1]
    nodes = st[ST_NODES]
    level = st[ST_LEVEL]
    covered = st[ST_COVERED]
    best = st[ST_BEST]

    if st[ST_INIT] == 0:
        st[ST_INIT] = 1
        # root: nothing chosen; universe uncovered unless cnt was preloaded
        if covered == E:
            st[ST_BEST] = 0
            st[ST_FOUND] = 1
            st[ST_LEVEL] = -1
            return DONE
        if (E - covered + W - 1) // W >= best:
            st[ST_LEVEL] = -1
            return DONE
        xi = 0
        while cnt[xi] > 0:
            xi += 1
        m = 0
        for j in range(W):
            c = nbrs[xi, j]
            if not forbid[c]:
                cand_ids[0, m] = c
                m += 1
        cand_cnt[0] = m
        cand_pos[0] = 0
        level = 0

    while True:
        if level < 0:
            st[ST_LEVEL] = level
            st[ST_NODES] = nodes
            st[ST_COVERED] = covered
            return DONE
        if nodes >= budget:
            st[ST_LEVEL] = level
            st[ST_NODES] = nodes
            st[ST_COVERED] = covered
            return RUNNING
        if cand_pos[level] >= cand_cnt[level]:
            # node exhausted: lift its sibling forbids, undo the move that entered it
            for j in range(cand_cnt[level]):
                forbid[cand_ids[level, j]] = False
            level -= 1
            if level >= 0:
                c = chosen[level]
                for j in range(W):
                    t = nbrs[c, j]
                    cnt[t] -= 1
                    if cnt[t] == 0:
                        covered -= 1
            continue

        c = cand_ids[level, cand_pos[level]]
        cand_pos[level] += 1
        forbid[c] = True
        nodes += 1
        chosen[level] = c
        for j in range(W):
            t = nbrs[c, j]
            if cnt[t] == 0:
                covered += 1
            cnt[t] += 1
        size = level + 1

        if covered == E:
            if size < best:
                best = size
                st[ST_BEST] = best
                st[ST_FOUND] = 1
                for d in range(size):
                    best_ids[d] = chosen[d]
            # leaf: undo and stay at this level
            for j in range(W):
                t = nbrs[c, j]
                cnt[t] -= 1
                if cnt[t] == 0:
                    covered -= 1
            continue

        if size + (E - covered + W - 1) // W >= best:
            for j in range(W):
                t = nbrs[c, j]
                cnt[t] -= 1
                if cnt[t] == 0:
                    covered -= 1
            continue

        xi = 0
        while cnt[xi] > 0:
            xi += 1
        m = 0
        for j in range(W):
            cc = nbrs[xi, j]
            if not forbid[cc]:
                cand_ids[level + 1, m] = cc
                m += 1
        if m == 0:
            for j in range(W):
                t = nbrs[c, j]
                cnt[t] -= 1
                if cnt[t] == 0:
                    covered -= 1
            continue
        cand_cnt[level + 1] = m
        cand_pos[level + 1] = 0
        level += 1


_cover_from_members_jit = None
_coverage_counts_jit = None
_greedy_fill_jit = None
_bb_step_jit = None


def _compiled(name):
    """Lazily njit-compile the loop kernels (cached on disk by numba)."""
    global _cover_from_members_jit, _coverage_counts_jit, _greedy_fill_jit, _bb_step_jit
    if name == "cover":
        if _cover_from_members_jit is None:
            _cover_from_members_jit = njit(cache=True, nogil=True)(_cover_from_members_loop)
        return _cover_from_members_jit
    if name == "counts":
        if _coverage_counts_jit is None:
            _coverage_counts_jit = njit(cache=True, nogil=True)(_coverage_counts_loop)
        return _coverage_counts_jit
    if name == "greedy":
        if _greedy_fill_jit is None:
            _greedy_fill_jit = njit(cache=True, nogil=True)(_greedy_fill_loop)
        return _greedy_fill_jit
    if _bb_step_jit is None:
        globals()["_bb_step_jit"] = njit(cache=True, nogil=True)(_bb_step)
    return _bb_step_jit


def cover_from_members(nbrs, members, use_numba=None):
    """Boolean cover mask: which elements have a dominator among ``members``."""
    members = np.ascontiguousarray(members, dtype=np.int32)
    if _pick(use_numba):
        return _compiled("cover")(nbrs, members)
    return _cover_from_members_np(nbrs, members)


def coverage_counts(nbrs, member_mask, use_numba=None):
    """Per-element count of dominators inside the member set."""
    if _pick(use_numba):
        return _compiled("counts")(nbrs, member_mask)
    return _coverage_counts_np(nbrs, member_mask)


def greedy_fill(nbrs, cover, use_numba=None):
    """Ids added (in order) by the max-new-coverage greedy until everything is covered."""
    if _pick(use_numba):
        return _compiled("greedy")(nbrs, cover)
    return _greedy_fill_np(nbrs, cover)


class BBResult:
    __slots__ = ("found", "best_size", "best_ids", "nodes", "completed")

    def __init__(self, found, best_size, best_ids, nodes, completed):
        self.found = found
        self.best_size = best_size
        self.best_ids = best_ids
        self.nodes = nodes
        self.completed = completed


def bb_search(nbrs, cutoff, max_nodes=None, max_time=None, use_numba=None, chunk=1 << 17):
    """Search for a dominating set strictly smaller than ``cutoff``.

    Depth-first, always branching on the lowest-id uncovered element over
    its at most 7 allowed dominators in ascending id order, pruning with
    size + ceil(uncovered / 7) >= best. Deterministic: the reported set
    only depends on the instance and cutoff, never on budget slicing.
    """
    E = nbrs.shape[0]
    depth = cutoff + 2
    cnt = np.zeros(E, dtype=np.int32)
    forbid = np.zeros(E, dtype=np.bool_)
    cand_ids = np.zeros((depth, nbrs.shape[1]), dtype=np.int32)
    cand_cnt = np.zeros(depth, dtype=np.int32)
    cand_pos = np.zeros(depth, dtype=np.int32)
    chosen = np.zeros(depth, dtype=np.int32)
    best_ids = np.zeros(depth, dtype=np.int32)
    st = np.zeros(6, dtype=np.int64)
    st[ST_BEST] = cutoff

    step = _compiled("bb") if _pick(use_numba) else _bb_step
    deadline = None if max_time is None else time.monotonic() + max_time
    node_cap = np.iinfo(np.int64).max if max_nodes is None else int(max_nodes)

    completed = False
    while True:
        budget = min(st[ST_NODES] + chunk, node_cap)
        status = step(nbrs, cnt, forbid, cand_ids, cand_cnt, cand_pos, chosen, best_ids, st, budget)
        if status == DONE:
            completed = True
            break
        if st[ST_NODES] >= node_cap:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break

    found = bool(st[ST_FOUND])
    best_size = int(st[ST_BEST])
    ids = np.sort(best_ids[:best_size]).copy() if found else None
    return BBResult(found, best_size, ids, int(st[ST_NODES]), completed)
