"""Property tests: every pattern against its formula and the oracle, set files
against round-trips and fuzzing, and verify against the oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

import mixdom as md
from mixdom import ElementSet, SetFileError, setfile
from mixdom.constructions import GENERAL, K1_BLOCK8, K2_BLOCK4, K2_BLOCK8, PATTERNS, construct

from oracles import ref_is_dominating, ref_rd_total

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


@st.composite
def member_sets(draw, max_n):
    """A valid (n, k) and an arbitrary set of element ids of P(n,k)."""
    n = draw(st.integers(3, max_n))
    k = draw(st.integers(1, (n - 1) // 2))
    ids = draw(st.sets(st.integers(0, 5 * n - 1), max_size=5 * n))
    return n, k, ElementSet(n, sorted(ids))


@SETTINGS
@given(member_sets(max_n=60), st.from_regex(r"[A-Za-z0-9:_.-]{1,20}", fullmatch=True))
def test_setfile_roundtrip(instance, source):
    n, k, members = instance
    sf = setfile.loads(setfile.dumps(n, k, source, members))
    assert (sf.n, sf.k, sf.source) == (n, k, source)
    assert sf.elements == members


_junk_lines = st.one_of(
    st.builds("n={} k={} size={}".format, st.integers(-1, 8), st.integers(-1, 3), st.integers(-1, 3)),
    st.builds("{} {}".format, st.sampled_from(TAGS + ("w",)), st.integers(-1, 8)),
    st.text(max_size=12),
)


@st.composite
def setfile_texts(draw):
    """A valid set file with up to three lines overwritten or inserted."""
    n, k, members = draw(member_sets(max_n=8))
    lines = setfile.dumps(n, k, "x", members).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        if i < len(lines) and draw(st.booleans()):
            lines[i] = draw(_junk_lines)
        else:
            lines.insert(i, draw(_junk_lines))
    return "\n".join(lines)


@SETTINGS
@given(st.one_of(st.text(), setfile_texts()))
def test_setfile_loads_parses_or_raises_setfile_error(text):
    try:
        sf = setfile.loads(text)
    except SetFileError:
        return
    assert sf.n >= 3 and sf.k >= 1
    assert sf.size == len(sf.elements)


@SETTINGS
@given(member_sets(max_n=10))
def test_verify_agrees_with_the_oracle(instance):
    n, k, members = instance
    report = md.verify(md.build(n, k), members)
    ref = {(TAGS[e // n], e % n) for e in members}
    assert report.is_dominating == ref_is_dominating(ref, n, k)
    assert report.rd_total == ref_rd_total(ref, n, k)


@SETTINGS
@given(member_sets(max_n=200))
def test_rd_total_identity_on_dominating_sets(instance):
    n, k, members = instance
    graph = md.build(n, k)
    dominating = md.greedy_complete(graph, members)
    report = md.verify(graph, dominating)
    assert report.is_dominating
    assert report.rd_total == 7 * len(dominating) - 5 * n
