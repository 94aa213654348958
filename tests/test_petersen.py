import numpy as np
import pytest

import mixdom as md
from mixdom import ElementKind, ElementSet, GraphSpec, InvalidSpec

from oracles import ref_elements, ref_id, ref_neighborhood


def test_build_p10_3():
    g = md.build(10, 3)
    assert g.num_vertices == 20
    assert g.num_edges == 30
    # cubic: every vertex appears in exactly 3 edge neighborhoods
    degree = np.zeros(20, dtype=int)
    for eid in range(2 * 10, 5 * 10):
        a, b = g.edge_endpoints(eid)
        degree[a] += 1
        degree[b] += 1
    assert (degree == 3).all()


def test_build_rejects_degenerate_boundary():
    with pytest.raises(InvalidSpec):
        md.build(4, 2)
    with pytest.raises(InvalidSpec):
        md.build(2, 1)
    with pytest.raises(InvalidSpec):
        md.build(9, 0)


def test_build_petersen_graph_itself():
    g = md.build(5, 2)
    assert g.num_vertices == 10
    assert g.num_edges == 15


def test_neighborhood_p5_1_outer_vertex():
    g = md.build(5, 1)
    nb = g.mixed_neighborhood(ElementKind.OUTER_VERTEX * 5 + 0)
    labels = {g.label(e) for e in nb}
    assert labels == {"v0", "v1", "v4", "u0", "v0v1", "v4v0", "v0u0"}
    assert len(nb) == 7


def test_neighborhood_p8_2_inner_edge():
    g = md.build(8, 2)
    nb = g.mixed_neighborhood(ElementKind.INNER_EDGE * 8 + 0)
    labels = {g.label(e) for e in nb}
    assert labels == {"u0u2", "u0", "u2", "v0u0", "v2u2", "u6u0", "u2u4"}


def test_neighborhood_p10_3_spoke():
    g = md.build(10, 3)
    nb = g.mixed_neighborhood(ElementKind.SPOKE * 10 + 0)
    assert len(nb) == 7
    assert ElementKind.OUTER_VERTEX * 10 + 0 in nb
    assert ElementKind.INNER_VERTEX * 10 + 0 in nb


def test_neighborhoods_match_incidence_oracle():
    for n, k in ((5, 1), (8, 2), (9, 4), (11, 3), (7, 3)):
        g = md.build(n, k)
        for element in ref_elements(n, k):
            want = {ref_id(e, n) for e in ref_neighborhood(element, n, k)}
            got = set(g.mixed_neighborhood(ref_id(element, n)))
            assert got == want, (n, k, element)


def test_neighborhood_size_always_seven():
    for n in range(5, 40):
        for k in range(1, (n - 1) // 2 + 1):
            g = md.build(n, k)
            assert g.nbrs.shape == (5 * n, 7)
            # rows sorted strictly ascending means 7 distinct entries
            assert (np.diff(g.nbrs, axis=1) > 0).all(), (n, k)


def test_neighborhood_symmetry():
    for n, k in ((6, 1), (9, 2), (13, 5)):
        g = md.build(n, k)
        member = np.zeros((5 * n, 5 * n), dtype=bool)
        rows = np.repeat(np.arange(5 * n), 7)
        member[rows, g.nbrs.ravel()] = True
        assert (member == member.T).all(), (n, k)


def test_unknown_element_rejected():
    g = md.build(6, 2)
    with pytest.raises(md.UnknownElement):
        g.mixed_neighborhood(30)
    with pytest.raises(md.UnknownElement):
        g.edge_endpoints(0)  # a vertex


def test_dot_export_plain():
    g = md.build(10, 3)
    dot = md.to_dot(g)
    assert dot.count(" -- ") == 30
    for i in range(10):
        assert f"v{i}" in dot and f"u{i}" in dot


def test_dot_export_highlight():
    g = md.build(8, 1)
    s = ElementSet(8, [8, 17])  # u0 and the outer edge v1v2
    dot = md.to_dot(g, s)
    assert "u0 [style=filled" in dot
    assert "v1 -- v2 [style=bold" in dot
    assert "v0 [style=filled" not in dot


def test_graph_spec_validation_direct():
    GraphSpec(9, 4).validate()
    with pytest.raises(InvalidSpec):
        GraphSpec(9, 5).validate()
    GraphSpec(429_496_729, 1).validate()  # 5n - 1 still fits int32
    with pytest.raises(InvalidSpec):
        GraphSpec(429_496_730, 1).validate()
