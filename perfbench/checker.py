"""Independent correctness checker for the benchmark.

Everything here is derived from the definition of P(n,k) alone: outer cycle
v_0..v_{n-1}, inner vertices u_0..u_{n-1}, outer edges v_i v_{i+1}, spokes
v_i u_i and inner edges u_i u_{i+k}. It shares no code with ``mixdom`` (no
neighbour table, no set-file parser, no label printer), so a fast but wrong
``verify`` or a corrupted set file cannot pass the benchmark unnoticed.

Element ids follow the documented set-file layout: kind * n + index with
kinds v=0, u=1, vv=2, vu=3, uu=4.
"""

from __future__ import annotations

import re

import numpy as np

KIND_OF_TAG = {"v": 0, "u": 1, "vv": 2, "vu": 3, "uu": 4}

# Optima of the instances the prove workload solves. k=1 and k=2 follow the
# closed forms; the k=3 values were proved by the package's branch-and-bound
# and confirmed by an ILP over this module's neighbourhoods
# (test_perfbench.py re-derives them when scipy is available).
OPTIMA = {
    (14, 1): 11,
    (12, 2): 9,
    (8, 3): 7,
    (9, 3): 7,
    (10, 3): 8,
    (11, 3): 9,
    (12, 3): 10,
    (13, 3): 11,
}


def edge_endpoints(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex endpoints (a, b) of the 3n edges, in id order vv, vu, uu.

    Vertex v_i is i and u_i is n + i.
    """
    i = np.arange(n, dtype=np.int64)
    a = np.concatenate([i, i, n + i])
    b = np.concatenate([(i + 1) % n, n + i, n + (i + k) % n])
    return a, b


def undominated(n: int, k: int, ids) -> np.ndarray:
    """Ids of elements of P(n,k) that no member of ``ids`` dominates.

    A vertex is dominated by itself, an adjacent vertex or an incident edge;
    an edge by itself, either endpoint or an edge sharing an endpoint.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= 5 * n):
        raise ValueError(f"element id outside [0, {5 * n})")
    member = np.zeros(5 * n, dtype=bool)
    member[ids] = True
    in_v, in_e = member[: 2 * n], member[2 * n:]
    a, b = edge_endpoints(n, k)

    # a vertex touched by a member edge, or adjacent to a member vertex
    touched = np.zeros(2 * n, dtype=bool)
    touched[a[in_e]] = True
    touched[b[in_e]] = True
    near_member_vertex = np.zeros(2 * n, dtype=bool)
    near_member_vertex[a[in_v[b]]] = True
    near_member_vertex[b[in_v[a]]] = True
    vertex_ok = in_v | touched | near_member_vertex
    edge_ok = in_e | in_v[a] | in_v[b] | touched[a] | touched[b]
    return np.flatnonzero(~np.concatenate([vertex_ok, edge_ok]))


_LABEL = re.compile(r"^(?:v(\d+)u(\d+)|v(\d+)v(\d+)|u(\d+)u(\d+)|v(\d+)|u(\d+))$")


def parse_label(label: str, n: int, k: int) -> int:
    """Element id of a printed label such as v3, u5, v3v4, v3u3 or u3u6."""
    m = _LABEL.match(label)
    if m is None:
        raise ValueError(f"bad element label {label!r}")
    g = [None if x is None else int(x) for x in m.groups()]
    if g[0] is not None:
        i, j, kind = g[0], g[1], 3
        ok = i == j
    elif g[2] is not None:
        i, j, kind = g[2], g[3], 2
        ok = j == (i + 1) % n
    elif g[4] is not None:
        i, j, kind = g[4], g[5], 4
        ok = j == (i + k) % n
    else:
        i = g[6] if g[6] is not None else g[7]
        kind = 0 if g[6] is not None else 1
        ok = True
    if not ok or not 0 <= i < n:
        raise ValueError(f"label {label!r} is not an element of P({n},{k})")
    return kind * n + i


def parse_set_file(text: str) -> tuple[int, int, int, np.ndarray]:
    """(n, k, header size, ids) of a set file; raises ValueError when malformed."""
    header = None
    tags, idx = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = dict(part.split("=", 1) for part in line.split())
            continue
        tag, index = line.split()
        tags.append(KIND_OF_TAG[tag])
        idx.append(int(index))
    if header is None:
        raise ValueError("set file has no header")
    n, k, size = int(header["n"]), int(header["k"]), int(header["size"])
    idx_arr = np.asarray(idx, dtype=np.int64)
    if idx_arr.size and (idx_arr.min() < 0 or idx_arr.max() >= n):
        raise ValueError("set file index out of range")
    ids = np.asarray(tags, dtype=np.int64) * n + idx_arr
    if np.unique(ids).size != ids.size:
        raise ValueError("set file lists an element twice")
    return n, k, size, ids
