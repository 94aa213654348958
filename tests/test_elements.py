import numpy as np
import pytest

from mixdom import ElementKind, ElementSet, UnknownElement
from mixdom.elements import label


def test_id_layout_matches_kind_blocks():
    n, k = 9, 2
    assert ElementKind.OUTER_VERTEX * n + 4 == 4
    assert ElementKind.INNER_VERTEX * n + 4 == n + 4
    assert ElementKind.OUTER_EDGE * n + 4 == 2 * n + 4
    assert ElementKind.SPOKE * n + 4 == 3 * n + 4
    assert ElementKind.INNER_EDGE * n + 4 == 4 * n + 4
    for i in range(n):
        j, jk = (i + 1) % n, (i + k) % n
        assert [label(n, k, kind * n + i) for kind in ElementKind] == [
            f"v{i}", f"u{i}", f"v{i}v{j}", f"v{i}u{i}", f"u{i}u{jk}"]


def test_out_of_range_ids_rejected():
    with pytest.raises(UnknownElement):
        ElementSet(8, [40])
    with pytest.raises(UnknownElement):
        ElementSet(8, [-1])
    with pytest.raises(UnknownElement):
        label(8, 1, 40)


def test_set_membership_consistent_with_cardinality():
    s = ElementSet(8, [0, 5, 39])
    assert len(s) == 3
    assert 5 in s and 39 in s and 1 not in s
    assert list(s) == [0, 5, 39]
    s.add(ElementKind.INNER_EDGE * 8 + 7)  # id 39 again
    assert len(s) == 3
    s.discard(0)
    assert len(s) == 2 and 0 not in s


def test_set_algebra():
    a = ElementSet(6, [0, 1, 2])
    b = ElementSet(6, [2, 3])
    assert sorted(a | b) == [0, 1, 2, 3]
    assert sorted(a & b) == [2]
    assert sorted(a - b) == [0, 1]
    assert ElementSet(6, [1, 2]) <= a
    assert not a <= b
    assert a != b
    assert a == ElementSet(6, [2, 1, 0])


def test_set_universe_mismatch_rejected():
    with pytest.raises(ValueError):
        ElementSet(6, [0]) | ElementSet(7, [0])


def test_from_mask_and_elements():
    mask = np.zeros(30, dtype=bool)
    mask[[3, 14]] = True
    s = ElementSet.from_mask(6, mask)
    assert s.ids().tolist() == [3, 14]
    assert [divmod(eid, 6) for eid in s] == [(ElementKind.OUTER_VERTEX, 3), (ElementKind.OUTER_EDGE, 2)]
