import pytest

import mixdom as md
from mixdom import ElementSet, SetFileError
from mixdom import setfile


def test_roundtrip():
    s = md.construct_k2_block4(9).elements
    text = setfile.dumps(9, 2, "construct:k2-block4", s)
    sf = setfile.loads(text)
    assert sf.n == 9 and sf.k == 2
    assert sf.source == "construct:k2-block4"
    assert sf.elements == s
    assert sf.size == 7


def test_roundtrip_via_files(tmp_path):
    path = tmp_path / "set.txt"
    s = ElementSet(8, [0, 9, 18, 27, 36])
    setfile.dump(path, 8, 1, "user", s)
    assert setfile.load(path).elements == s


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\nn=5 k=2 source=user size=1\n# another\nv 3\n"
    assert sorted(setfile.loads(text).elements) == [3]


def test_all_tags_parse():
    text = "n=7 k=3 source=user size=5\nv 0\nu 1\nvv 2\nvu 3\nuu 4\n"
    sf = setfile.loads(text)
    assert sorted(sf.elements) == [0, 7 + 1, 14 + 2, 21 + 3, 28 + 4]


@pytest.mark.parametrize("text", [
    "v 0\n",                                        # no header
    "n=5 k=2 size=1\nw 0\n",                        # unknown tag
    "n=5 k=2 size=1\nv x\n",                        # bad index
    "n=5 k=2 size=1\nv 5\n",                        # index out of range
    "n=5 k=2 size=2\nv 1\nv 1\n",                   # duplicate
    "n=5 k=2 size=3\nv 1\n",                        # size mismatch
    "n=abc k=2 size=0\n",                           # bad n
    "n=2 k=1 size=0\n",                             # invalid instance
    "n=5 k=2 source=x size=1\nv 1 2\n",             # too many fields
])
def test_malformed_inputs_rejected(text):
    with pytest.raises(SetFileError):
        setfile.loads(text)


def test_header_source_defaults_to_unknown():
    sf = setfile.loads("n=5 k=2 size=0\n")
    assert sf.source == "unknown"
    assert len(sf.elements) == 0


def test_load_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "binary.set"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(SetFileError, match="UTF-8"):
        setfile.load(path)
