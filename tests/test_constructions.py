import pytest

import mixdom as md
from mixdom import ElementKind, ElementSet, OutOfRange
from mixdom.constructions import GENERAL, K1_BLOCK8, K2_BLOCK4, K2_BLOCK8, construct, default_pattern


def kinds_histogram(out):
    hist = {kind: 0 for kind in ElementKind}
    for eid in out.elements:
        hist[eid // out.n] += 1
    return hist


def check_output(out, graph=None):
    graph = graph or md.build(out.n, out.k)
    rep = md.verify(graph, out.elements)
    assert rep.is_dominating
    if out.raw_valid:
        assert not out.repaired and len(out.repair_added) == 0
    if out.repaired:
        assert len(out.repair_added) > 0
        assert out.repair_added <= out.elements
    return rep


def test_k1_n8_exact_reference_set():
    out = md.construct_k1(8)
    assert out.elements == ElementSet(8, [8, 17, 34, 4, 37, 22])
    assert out.size == 6 and out.raw_valid
    check_output(out)


def test_k1_n10_extension():
    g = md.build(10, 1)
    out = md.construct_k1(10)
    labels = {g.label(e) for e in out.elements}
    assert labels == {"u0", "v1v2", "u2u3", "v4", "u5u6", "v6v7", "u8", "v9v0"}
    assert out.size == 8
    check_output(out, g)


def test_k1_n16_two_full_blocks():
    out = md.construct_k1(16)
    assert out.size == 12 == md.gamma_k1(16).value
    check_output(out)


def test_k1_rejects_small_n():
    with pytest.raises(OutOfRange):
        md.construct_k1(7)


def test_k1_sweep_matches_formula():
    for n in range(8, 400):
        out = md.construct_k1(n)
        assert out.raw_valid, n
        assert out.size == out.predicted_size == md.gamma_k1(n).value, n
        assert md.verify(md.build(n, 1), out.elements).is_dominating, n


def test_k2_block4_n8_exact_reference_set():
    g = md.build(8, 2)
    out = md.construct_k2_block4(8)
    labels = {g.label(e) for e in out.elements}
    assert labels == {"v0u0", "u1u3", "v2", "v4u4", "u5u7", "v6"}
    assert out.size == 6
    check_output(out, g)


def test_k2_block4_n9_shape():
    out = md.construct_k2_block4(9)
    assert out.size == 7 == md.gamma_k2(9).value
    hist = kinds_histogram(out)
    assert hist[ElementKind.OUTER_VERTEX] == 2
    assert hist[ElementKind.SPOKE] == 3
    assert hist[ElementKind.INNER_EDGE] == 2
    check_output(out)


def test_k2_block4_n12():
    out = md.construct_k2_block4(12)
    assert out.size == 9
    check_output(out)


def test_k2_block4_sweep_matches_formula():
    for n in range(5, 400):
        out = md.construct_k2_block4(n)
        assert out.raw_valid and out.size == md.gamma_k2(n).value, n


def test_k2_block8_n16():
    out = md.construct_k2_block8(16)
    assert out.size == 12
    assert not out.known_suboptimal
    check_output(out)


def test_k2_block8_n9_one_above_optimum():
    out = md.construct_k2_block8(9)
    assert out.size == 8 == md.gamma_k2(9).value + 1
    assert out.known_suboptimal
    check_output(out)


def test_k2_block8_n11_matches_4col_optimum():
    out = md.construct_k2_block8(11)
    assert out.size == 9 == md.gamma_k2(11).value
    assert not out.known_suboptimal
    check_output(out)


def test_k2_block8_sweep_matches_remark_formula():
    for n in range(8, 400):
        out = md.construct_k2_block8(n)
        assert out.size == md.gamma_k2_remark(n).value, n
        assert out.raw_valid, n
        assert out.known_suboptimal == (n % 8 in (1, 4)), n


def test_block8_vs_block4_size_gap():
    for n in range(8, 260):
        gap = md.construct_k2_block8(n).size - md.construct_k2_block4(n).size
        assert gap == (1 if n % 8 in (1, 4) else 0), n


def test_general_p27_4_composition():
    out = md.construct_general(27, 4)
    assert out.size == 21 and out.raw_valid
    hist = kinds_histogram(out)
    assert hist[ElementKind.INNER_VERTEX] == 6
    assert hist[ElementKind.SPOKE] == 9
    assert hist[ElementKind.OUTER_EDGE] == 6
    check_output(out)


def test_general_p27_5_composition():
    out = md.construct_general(27, 5)
    assert out.size == 21 and out.raw_valid
    hist = kinds_histogram(out)
    assert hist[ElementKind.INNER_VERTEX] == 6
    assert hist[ElementKind.SPOKE] == 9
    assert hist[ElementKind.OUTER_EDGE] == 6
    check_output(out)


def test_general_p13_3_within_bound():
    out = md.construct_general(13, 3)
    assert out.size <= 11 == md.upper_bound_general(13, 3).value
    check_output(out)


def test_general_rejects_bad_input():
    with pytest.raises(OutOfRange):
        md.construct_general(13, 2)
    with pytest.raises(OutOfRange):
        md.construct_general(8, 4)


def test_general_sweep_within_bound_and_repairs_logged():
    repaired_cases = 0
    for k in range(3, 8):
        for n in range(2 * k + 1, 120):
            out = md.construct_general(n, k)
            bound = md.upper_bound_general(n, k).value
            # raw gadgets land on the bound; the short odd-remainder ones
            # land one under and are repaired back up to it exactly
            assert out.size == bound, (n, k, out.size, bound)
            assert out.predicted_size == bound
            assert md.verify(md.build(n, k), out.elements).is_dominating, (n, k)
            if out.repaired:
                repaired_cases += 1
                assert not out.raw_valid
                assert len(out.repair_added) == 1
    # the odd-remainder short gadgets do get repaired somewhere in this range
    assert repaired_cases > 0


def test_general_even_remainder_raw_valid():
    # even leftover columns: the literal gadget dominates without repair
    for k, n in ((3, 12), (4, 11), (5, 20), (6, 15), (7, 32)):
        out = md.construct_general(n, k)
        assert out.raw_valid, (n, k)
        assert out.size == md.upper_bound_general(n, k).value


def test_construct_dispatch_and_defaults():
    assert construct(9, 1, K1_BLOCK8).pattern == K1_BLOCK8
    assert construct(9, 2, K2_BLOCK4).pattern == K2_BLOCK4
    assert construct(9, 2, K2_BLOCK8).pattern == K2_BLOCK8
    assert construct(13, 3, GENERAL).pattern == GENERAL
    with pytest.raises(OutOfRange):
        construct(9, 2, K1_BLOCK8)
    with pytest.raises(OutOfRange):
        construct(9, 1, "no-such-pattern")
    assert default_pattern(1) == K1_BLOCK8
    assert default_pattern(2) == K2_BLOCK4
    assert default_pattern(6) == GENERAL


def test_predicted_size_matches_formula_module():
    assert md.construct_k1(19).predicted_size == md.gamma_k1(19).value
    assert md.construct_k2_block4(19).predicted_size == md.gamma_k2(19).value
    assert md.construct_k2_block8(19).predicted_size == md.gamma_k2_remark(19).value
    assert md.construct_general(19, 3).predicted_size == md.upper_bound_general(19, 3).value
