"""Property tests: every pattern, at random valid n, against its formula and the oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

import mixdom as md
from mixdom.constructions import GENERAL, K1_BLOCK8, K2_BLOCK4, K2_BLOCK8, PATTERNS, construct

from oracles import ref_is_dominating

# pattern -> (k, minimum n, block width, formula), written out independently of the rows
FIXED = {
    K1_BLOCK8: (1, 8, 8, md.gamma_k1),
    K2_BLOCK4: (2, 5, 4, md.gamma_k2),
    K2_BLOCK8: (2, 8, 8, md.gamma_k2_remark),
}

TAGS = ("v", "u", "vv", "vu", "uu")

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def instances(draw, max_n):
    pattern = draw(st.sampled_from(PATTERNS))
    if pattern == GENERAL:
        k = draw(st.integers(3, 12))
        return pattern, k, draw(st.integers(2 * k + 1, max_n))
    k, min_n, _, _ = FIXED[pattern]
    return pattern, k, draw(st.integers(min_n, max_n))


@SETTINGS
@given(instances(max_n=10**4))
def test_construction_dominates_at_its_formula_size(instance):
    pattern, k, n = instance
    out = construct(n, k, pattern)
    assert md.verify(md.build(n, k), out.elements).is_dominating
    raw = out.elements - out.repair_added
    if pattern == GENERAL:
        width, bound = 4 * (k // 2) + 1, md.upper_bound_general(n, k).value
        assert out.predicted_size == bound
        assert out.size <= bound
        if out.raw_valid:
            assert len(raw) <= bound
    else:
        _, _, width, formula = FIXED[pattern]
        assert out.size == out.predicted_size == formula(n).value
    r = n % width
    if out.repaired:
        assert pattern == GENERAL and r % 2 == 1 and r <= 2 * (k // 2), (r, k)
        assert not out.raw_valid
        assert len(out.repair_added) == 1
        assert len(raw) == out.size - 1
    else:
        assert out.raw_valid and len(out.repair_added) == 0


@SETTINGS
@given(instances(max_n=40))
def test_construction_dominates_under_the_oracle(instance):
    pattern, k, n = instance
    out = construct(n, k, pattern)
    members = {(TAGS[e // n], e % n) for e in out.elements}
    assert ref_is_dominating(members, n, k)
