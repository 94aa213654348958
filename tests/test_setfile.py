import re

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
    "n=4 k=2 size=0\n",                             # k not below n/2
    "n=5 k=2 source=x size=1\nv 1 2\n",             # too many fields
])
def test_malformed_inputs_rejected(text):
    with pytest.raises(SetFileError):
        setfile.loads(text)


def test_io_errors_name_the_path(tmp_path):
    missing = tmp_path / "missing" / "x.set"
    with pytest.raises(SetFileError, match=f"^cannot read {re.escape(str(missing))}: "):
        setfile.load(missing)
    with pytest.raises(SetFileError, match=f"^cannot write {re.escape(str(missing))}: "):
        setfile.dump(missing, 5, 2, "x", md.build(5, 2).universe())


def test_header_source_defaults_to_unknown():
    sf = setfile.loads("n=5 k=2 size=0\n")
    assert sf.source == "unknown"
    assert len(sf.elements) == 0


def test_load_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "binary.set"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(SetFileError, match="UTF-8"):
        setfile.load(path)


# Exact bytes of two set files. The format is read by other programs, so a
# change to how dumps writes an element must show up here.
GENERAL_40_5 = (
    "n=40 k=5 source=construct:general size=32\n"
    "u 1\nu 3\nu 10\nu 12\nu 19\nu 21\nu 28\nu 30\nu 37\nu 39\n"
    "vv 5\nvv 7\nvv 14\nvv 16\nvv 23\nvv 25\nvv 32\nvv 34\n"
    "vu 0\nvu 2\nvu 4\nvu 9\nvu 11\nvu 13\nvu 18\nvu 20\nvu 22\nvu 27\nvu 29\nvu 31\nvu 36\nvu 38\n"
)
UNIVERSE_7_3 = (
    "n=7 k=3 source=universe size=35\n"
    "v 0\nv 1\nv 2\nv 3\nv 4\nv 5\nv 6\n"
    "u 0\nu 1\nu 2\nu 3\nu 4\nu 5\nu 6\n"
    "vv 0\nvv 1\nvv 2\nvv 3\nvv 4\nvv 5\nvv 6\n"
    "vu 0\nvu 1\nvu 2\nvu 3\nvu 4\nvu 5\nvu 6\n"
    "uu 0\nuu 1\nuu 2\nuu 3\nuu 4\nuu 5\nuu 6\n"
)


def test_dumps_text_is_pinned():
    out = md.construct_general(40, 5)
    assert setfile.dumps(40, 5, "construct:general", out.elements) == GENERAL_40_5
    assert setfile.dumps(7, 3, "universe", md.build(7, 3).universe()) == UNIVERSE_7_3
    assert setfile.loads(GENERAL_40_5).elements == out.elements


@pytest.mark.parametrize("body, message", [
    ("v 1\nv 1\nu 9\n", "duplicate element v 1"),
    ("u 9\nv 1\nv 1\n", "index 9 outside [0, 9)"),
    ("v 0\nu 0\nv 9\n", "index 9 outside [0, 9)"),
    ("v 9\nv 0\nu 0\n", "index 9 outside [0, 9)"),
    ("vu -1\nv 1\nv 1\n", "index -1 outside [0, 9)"),
    ("v 1\nv 1\nuu 10000000000000000000000\n", "duplicate element v 1"),
    ("v 1\nuu 10000000000000000000000\nv 1\n", "index 10000000000000000000000 outside [0, 9)"),
])
def test_loads_reports_the_first_offending_line(body, message):
    with pytest.raises(SetFileError) as exc:
        setfile.loads(f"n=9 k=2 source=x size=3\n{body}")
    assert str(exc.value) == message
