import os
import subprocess
import sys

import numpy as np
import pytest

import mixdom as md
from mixdom import _kernels


@pytest.fixture(params=[False, True], ids=["numpy", "numba"])
def path_flag(request):
    if request.param and not _kernels.HAVE_NUMBA:
        pytest.skip("numba not installed")
    return request.param


def test_cover_from_members_paths_agree(path_flag):
    g = md.build(11, 4)
    members = np.array([0, 5, 30, 54], dtype=np.int32)
    got = _kernels.cover_from_members(g.nbrs, members, use_numba=path_flag)
    want = np.zeros(55, dtype=bool)
    for m in members:
        want[g.nbrs[m]] = True
    assert (got == want).all()


def test_coverage_counts_paths_agree(path_flag):
    rng = np.random.default_rng(3)
    g = md.build(13, 5)
    mask = rng.random(65) < 0.3
    got = _kernels.coverage_counts(g.nbrs, mask, use_numba=path_flag)
    want = mask[g.nbrs].sum(axis=1)
    assert (got == want).all()


def test_greedy_fill_paths_identical():
    for n, k in ((9, 2), (14, 3), (20, 1)):
        g = md.build(n, k)
        empty = np.zeros(5 * n, dtype=bool)
        a = _kernels.greedy_fill(g.nbrs, empty, use_numba=False)
        if _kernels.HAVE_NUMBA:
            b = _kernels.greedy_fill(g.nbrs, empty, use_numba=True)
            assert (a == b).all(), (n, k)


def test_bb_search_finds_optimum(path_flag):
    g = md.build(8, 1)
    res = _kernels.bb_search(g.nbrs, cutoff=10, use_numba=path_flag)
    assert res.completed and res.found
    assert res.best_size == 6


def test_bb_search_cutoff_at_optimum_finds_nothing(path_flag):
    g = md.build(8, 1)
    res = _kernels.bb_search(g.nbrs, cutoff=6, use_numba=path_flag)
    assert res.completed and not res.found


def test_bb_search_resumes_across_chunks(path_flag):
    g = md.build(11, 1)
    whole = _kernels.bb_search(g.nbrs, cutoff=12, use_numba=path_flag)
    sliced = _kernels.bb_search(g.nbrs, cutoff=12, use_numba=path_flag, chunk=97)
    assert sliced.completed
    assert sliced.best_size == whole.best_size == 9
    assert sliced.nodes == whole.nodes
    assert (sliced.best_ids == whole.best_ids).all()


def test_bb_search_node_budget(path_flag):
    g = md.build(12, 1)
    res = _kernels.bb_search(g.nbrs, cutoff=11, max_nodes=40, use_numba=path_flag, chunk=16)
    assert not res.completed
    assert res.nodes <= 48  # can overshoot by at most one chunk


def test_numba_requested_without_numba_names_the_extra(monkeypatch):
    monkeypatch.setattr(_kernels, "HAVE_NUMBA", False)
    g = md.build(9, 2)
    with pytest.raises(md.MixdomError, match=r"mixdom\[numba\]"):
        _kernels.greedy_fill(g.nbrs, np.zeros(45, dtype=bool), use_numba=True)
    with pytest.raises(md.MixdomError, match="numba"):
        md.solve_exact(g, use_numba=True)
    assert md.solve_exact(g, use_numba=False).optimum == 7


def test_env_flag_disables_numba():
    code = "import mixdom._kernels as k; print(k.numba_enabled())"
    env = dict(os.environ, MIXDOM_NO_NUMBA="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_numba_enabled_by_default_when_installed():
    if not _kernels.HAVE_NUMBA:
        pytest.skip("numba not installed")
    env = {key: value for key, value in os.environ.items() if key != "MIXDOM_NO_NUMBA"}
    code = "import mixdom._kernels as k; print(k.numba_enabled())"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"
