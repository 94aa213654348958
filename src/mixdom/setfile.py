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
vu (spoke), uu (inner edge) and index in [0, n). Files round-trip
losslessly; duplicate elements and out-of-range indices are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elements import Element, ElementKind, ElementSet
from .errors import SetFileError

TAG_OF_KIND = {
    ElementKind.OUTER_VERTEX: "v",
    ElementKind.INNER_VERTEX: "u",
    ElementKind.OUTER_EDGE: "vv",
    ElementKind.SPOKE: "vu",
    ElementKind.INNER_EDGE: "uu",
}
KIND_OF_TAG = {tag: kind for kind, tag in TAG_OF_KIND.items()}


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
    lines = [f"n={n} k={k} source={source} size={len(elements)}"]
    for eid in elements:
        el = Element.from_id(eid, n)
        lines.append(f"{TAG_OF_KIND[el.kind]} {el.index}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> SetFile:
    header = None
    body: list[tuple[str, int]] = []
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
            idx = int(parts[1])
        except ValueError:
            raise SetFileError(f"line {lineno}: bad index {parts[1]!r}") from None
        body.append((parts[0], idx))
    if header is None:
        raise SetFileError("missing header line 'n=.. k=.. source=.. size=..'")

    n, k, source, size = header
    elements = ElementSet(n)
    for tag, idx in body:
        if not 0 <= idx < n:
            raise SetFileError(f"index {idx} outside [0, {n})")
        el = Element(KIND_OF_TAG[tag], idx)
        if el in elements:
            raise SetFileError(f"duplicate element {tag} {idx}")
        elements.add(el)
    if len(elements) != size:
        raise SetFileError(f"header says size={size} but file lists {len(elements)} elements")
    return SetFile(n=n, k=k, source=source, elements=elements)


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
    if n < 3 or k < 1:
        raise SetFileError(f"line {lineno}: invalid instance n={n} k={k}")
    return n, k, source, size


def load(path) -> SetFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SetFileError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return loads(text)


def dump(path, n: int, k: int, source: str, elements: ElementSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(n, k, source, elements))
