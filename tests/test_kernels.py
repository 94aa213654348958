import time

import numpy as np

import mixdom as md
from mixdom import _kernels


def _greedy_fill_reference(nbrs, cover):
    """Loop form of the max-new-coverage greedy, smallest id on ties."""
    cover = cover.copy()
    added = []
    while not cover.all():
        gains = [sum(not cover[t] for t in row) for row in nbrs]
        e = gains.index(max(gains))
        added.append(e)
        cover[nbrs[e]] = True
    return added


def test_cover_from_members_matches_loop():
    g = md.build(11, 4)
    members = np.array([0, 5, 30, 54], dtype=np.int32)
    got = _kernels.cover_from_members(g.nbrs, members)
    want = np.zeros(55, dtype=bool)
    for m in members:
        want[g.nbrs[m]] = True
    assert (got == want).all()


def test_coverage_counts_matches_loop():
    rng = np.random.default_rng(3)
    g = md.build(13, 5)
    mask = rng.random(65) < 0.3
    got = _kernels.coverage_counts(g.nbrs, mask)
    want = [sum(bool(mask[t]) for t in row) for row in g.nbrs]
    assert got.tolist() == want


def test_greedy_fill_paths_identical():
    for n, k in ((9, 2), (14, 3), (20, 1)):
        g = md.build(n, k)
        empty = np.zeros(5 * n, dtype=bool)
        got = _kernels.greedy_fill(g.nbrs, empty)
        assert got.tolist() == _greedy_fill_reference(g.nbrs, empty), (n, k)


def test_bb_search_finds_optimum():
    g = md.build(8, 1)
    ids, _, completed = _kernels.bb_search(g.nbrs, cutoff=10)
    assert completed and ids is not None
    assert len(ids) == 6 and ids.tolist() == sorted(ids.tolist())
    assert md.verify(g, md.ElementSet(8, ids)).is_dominating


def test_bb_search_cutoff_at_optimum_finds_nothing():
    g = md.build(8, 1)
    ids, _, completed = _kernels.bb_search(g.nbrs, cutoff=6)
    assert completed and ids is None


def test_bb_search_node_budget():
    g = md.build(12, 1)
    _, nodes, completed = _kernels.bb_search(g.nbrs, cutoff=11, node_cap=40)
    assert not completed
    assert nodes == 40


def test_bb_search_deadline_is_absolute():
    g = md.build(40, 1)
    _, nodes, completed = _kernels.bb_search(g.nbrs, cutoff=31, deadline=time.monotonic())
    assert not completed
    assert nodes == _kernels.CLOCK_EVERY  # stopped at the first clock read
