"""Line-oriented file format for element sets.

Layout::

    # optional comments
    n=9 k=2 source=construct:k2-block4 size=7
    vu 0
    uu 1
    v 2
    ...

The header carries the instance and provenance; each following line is an
element as ``<tag> <index>`` with tags v, u (vertices), vv (outer edge),
vu (spoke), uu (inner edge) and index in [0, n), decoded by
:mod:`mixdom.elements`. Files round-trip losslessly; duplicate elements and
out-of-range indices are rejected, naming the first such line in the file,
and so is a header that :meth:`GraphSpec.validate` rejects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import TAGS, ElementSet
from .errors import InvalidSpec, SetFileError
from .petersen import GraphSpec

KIND_OF_TAG = {tag: kind for kind, tag in enumerate(TAGS)}


@dataclass(frozen=True)
class SetFile:
    n: int
    k: int
    source: str
    elements: ElementSet

    @property
    def size(self) -> int:
        return len(self.elements)


def dumps(n: int, k: int, source: str, elements: ElementSet) -> str:
    kinds, indices = np.divmod(elements.ids(), n)
    lines = [f"n={n} k={k} source={source} size={len(kinds)}"]
    lines += [f"{TAGS[kind]} {i}" for kind, i in zip(kinds.tolist(), indices.tolist())]
    return "\n".join(lines) + "\n"


def loads(text: str) -> SetFile:
    header = None
    kinds: list[int] = []
    indices: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = _parse_header(line, lineno)
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in KIND_OF_TAG:
            raise SetFileError(f"line {lineno}: expected '<tag> <index>', got {line!r}")
        try:
            indices.append(int(parts[1]))
        except ValueError:
            raise SetFileError(f"line {lineno}: bad index {parts[1]!r}") from None
        kinds.append(KIND_OF_TAG[parts[0]])
    if header is None:
        raise SetFileError("missing header line 'n=.. k=.. source=.. size=..'")

    n, k, source, size = header
    mask = np.zeros(5 * n, dtype=bool)
    # an index beyond int64 makes this an object or float array; the range test stays exact
    index = np.array(indices)
    outside = (index < 0) | (index >= n)
    # Outside indices become 0, so their ids may alias real elements. The
    # false repeats this makes all come after an outside line, reported first.
    ids = np.array(kinds, dtype=np.int64) * n + np.where(outside, 0, index).astype(np.int64)
    order = np.argsort(ids, kind="stable")
    repeated = np.zeros(len(ids), dtype=bool)
    repeated[order[1:]] = ids[order[1:]] == ids[order[:-1]]
    offending = np.flatnonzero(outside | repeated)
    if len(offending):
        first = offending[0]
        if outside[first]:
            raise SetFileError(f"index {indices[first]} outside [0, {n})")
        raise SetFileError(f"duplicate element {TAGS[kinds[first]]} {indices[first]}")
    if len(ids) != size:
        raise SetFileError(f"header says size={size} but file lists {len(ids)} elements")
    mask[ids] = True
    return SetFile(n=n, k=k, source=source, elements=ElementSet.from_mask(n, mask))


def _parse_header(line: str, lineno: int) -> tuple[int, int, str, int]:
    fields = {}
    for part in line.split():
        if "=" not in part:
            raise SetFileError(f"line {lineno}: bad header field {part!r}")
        key, value = part.split("=", 1)
        fields[key] = value
    try:
        n = int(fields["n"])
        k = int(fields["k"])
        size = int(fields["size"])
        source = fields.get("source", "unknown")
    except (KeyError, ValueError) as exc:
        raise SetFileError(f"line {lineno}: bad header {line!r} ({exc})") from None
    try:
        GraphSpec(n, k).validate()
    except InvalidSpec as exc:
        raise SetFileError(f"line {lineno}: invalid instance: {exc}") from None
    return n, k, source, size


def load(path) -> SetFile:
    """Read a set file. Every failure is a SetFileError that names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return loads(text)
    except OSError as exc:
        raise SetFileError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SetFileError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except SetFileError as exc:
        raise SetFileError(f"{path}: {exc}") from None


def dump(path, n: int, k: int, source: str, elements: ElementSet) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(n, k, source, elements))
    except OSError as exc:
        raise SetFileError(f"cannot write {path}: {exc.strerror}") from None
