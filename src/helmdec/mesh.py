"""Tetrahedral meshes of the catalog block complexes.

Bricks are meshed by the 6-tet Kuhn subdivision of each lattice cell, the
pyramid by its canonical 4-tet split refined red (octasection).  All vertex
coordinates are kept as integers on a dyadic lattice (`coords_int / denom`),
so node identification across blocks and refinement levels is exact.
"""

from __future__ import annotations

import ctypes
import threading
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

import numpy as np
import scipy.sparse as sp

from .geometry import (BlockComplex, Brick, GeometryError, GeometryInfo,
                       Pyramid, catalog_info)

__all__ = ["TetMesh", "MeshSizeError", "build_complex", "write_mesh", "read_mesh"]

# local vertex pairs of a tet, in lexicographic order
TET_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
TET_FACES = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
# position in TET_EDGES of the local vertex pair (a, b), a < b
_LOCAL_EDGE = np.zeros((4, 4), dtype=np.int64)
_LOCAL_EDGE[tuple(np.array(TET_EDGES).T)] = np.arange(6)

# Index tables are int32, as scipy's sparse indices: a mesh with INDEX_LIMIT
# tets, edges or faces is refused, and one with VERTEX_LIMIT vertices, as its
# face keys (`_pack_triples`, below nv^3) would pass the int64 range, 2^63.
INDEX_LIMIT = np.iinfo(np.int32).max
VERTEX_LIMIT = 2**21 + 1


class MeshSizeError(ValueError):
    """A mesh has too many entities of one kind for its index tables or keys."""

# guards every build of per-mesh derived data (`TetMesh.cached`)
_LOCK = threading.RLock()
_MISSING = object()

# A mesh's memo holds most of a process's memory (operators, factorizations).
# No memo value refers back to its mesh (`TetMesh.cached`), so a mesh is freed
# by reference count.  Then glibc keeps the freed pages in its heap and the
# next meshes' arrays fragment around them, so a process that builds meshes
# generation after generation grew with each one (perfbench's catalog sweep
# on a 2-vCPU VM: 660 MB peak RSS after one round, 800 MB after two).  So
# the first mesh built after one is freed hands the freed pages back to the
# system.  The finalizer only marks the trim as due: it runs before the memo
# is freed.  Without glibc's malloc_trim this does nothing.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError, TypeError):
    _malloc_trim = None
_trim_due = False


def _mesh_freed():
    global _trim_due
    _trim_due = True


def _release_freed_memory():
    global _trim_due
    if _trim_due and _malloc_trim is not None:
        _trim_due = False
        _malloc_trim(0)


def _signed_volumes(verts: np.ndarray, tets: np.ndarray) -> np.ndarray:
    a = verts[tets[:, 1]] - verts[tets[:, 0]]
    b = verts[tets[:, 2]] - verts[tets[:, 0]]
    c = verts[tets[:, 3]] - verts[tets[:, 0]]
    return np.einsum("ij,ij->i", a, np.cross(b, c))


def _canonical_tets(verts_int: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Sort vertex ids ascending, then swap the last two where needed so the
    signed volume is positive (exact integer arithmetic); int32."""
    t = tets.astype(np.int32)
    t.sort(axis=1)
    vol = _signed_volumes(verts_int, t)
    if np.any(vol == 0):
        raise ValueError("degenerate tet")
    flip = vol < 0
    t[flip, 2], t[flip, 3] = t[flip, 3].copy(), t[flip, 2].copy()
    return t


def _lattice_keys(points: np.ndarray, lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    """int64 keys (x*span_y + y)*span_z + z of (m, d) integer points (d = 3:
    lattice points) taken relative to `lo`, one mixed-radix digit per
    column; for points in the box [lo, lo + span) they are distinct and
    ordered as the points are lexicographically."""
    x = points - lo
    keys = x[:, 0]
    for d in range(1, x.shape[1]):
        keys = keys * span[d] + x[:, d]
    return keys


def _compact(m) -> None:
    """Give a CSR/CSC matrix arrays that hold exactly its entries: COO
    summing and `eliminate_zeros` leave views into longer buffers, which
    are copied, keeping their read-only flag.  A view of a buffer of its
    own size is kept, so a transpose shares the arrays of its matrix."""
    for name, n in (("data", m.nnz), ("indices", m.nnz), ("indptr", len(m.indptr))):
        a = getattr(m, name)
        if len(a) != n or getattr(a.base, "nbytes", a.nbytes) != a.nbytes:
            b = a[:n].copy()
            b.setflags(write=a.flags.writeable)
            setattr(m, name, b)


def _pack_pairs(pairs: np.ndarray, nv: int) -> np.ndarray:
    return pairs[:, 0].astype(np.int64) * nv + pairs[:, 1]


def _pack_triples(tri: np.ndarray, nv: int) -> np.ndarray:
    return (tri[:, 0].astype(np.int64) * nv + tri[:, 1]) * nv + tri[:, 2]


@dataclass
class TetMesh:
    """Conforming tetrahedral mesh with full entity enumeration.

    vertices are `verts_int / denom` in block units; `h` is the dyadic grid
    spacing 1/2^level (`edge_lengths` gives the realized ones).  Edges
    are globally oriented low id -> high id.  The index tables are int32.
    """

    name: str
    verts_int: np.ndarray  # (nv,3) int64 lattice coords
    denom: int             # power of two: coords = verts_int/denom
    tets: np.ndarray       # (nt,4) canonical order, positive volume
    block_of_tet: np.ndarray
    level: int
    edges: np.ndarray = field(init=False)   # (ne,2) v0<v1, lexsorted
    faces: np.ndarray = field(init=False)   # (nf,3) sorted triples, lexsorted
    tet_edges: np.ndarray = field(init=False)      # (nt,6) edge ids
    tet_edge_sign: np.ndarray = field(init=False)  # (nt,6) +-1
    tet_faces: np.ndarray = field(init=False)      # (nt,4) face ids
    face_tets: np.ndarray = field(init=False)      # (nf,2) tet ids, -1 pad

    def __post_init__(self):
        _release_freed_memory()
        weakref.finalize(self, _mesh_freed)
        nv = self.nv
        self._fits(vertices=nv, tets=len(self.tets))
        self.tets = _canonical_tets(self.verts_int, np.asarray(self.tets))
        self.block_of_tet = np.asarray(self.block_of_tet, dtype=np.int32)
        # edges
        raw = self.tets[:, TET_EDGES]                      # (nt,6,2)
        keys = (raw.min(axis=2).astype(np.int64) * nv + raw.max(axis=2)).ravel()
        ekeys, inv = np.unique(keys, return_inverse=True)
        self._fits(edges=len(ekeys))
        self.edges = np.column_stack([ekeys // nv, ekeys % nv]).astype(np.int32)
        self.tet_edges = inv.astype(np.int32).reshape(-1, 6)
        self.tet_edge_sign = np.where(raw[:, :, 0] < raw[:, :, 1], 1, -1).astype(np.int8)
        # faces
        rawf = np.sort(self.tets[:, TET_FACES], axis=2)     # (nt,4,3) sorted
        fkeys = _pack_triples(rawf.reshape(-1, 3), nv)
        ufk, finv, counts = np.unique(fkeys, return_inverse=True, return_counts=True)
        self._fits(faces=len(ufk))
        self.faces = np.column_stack([ufk // nv**2, ufk // nv % nv, ufk % nv]).astype(np.int32)
        self.tet_faces = finv.astype(np.int32).reshape(-1, 4)
        if counts.max(initial=0) > 2:
            raise ValueError("non-conforming mesh: face shared by >2 tets")
        # two slots per face, filled in tet order: the rank of each face
        # occurrence within its group of the face-sorted occurrences
        order = np.argsort(finv, kind="stable")
        sf = finv[order]
        slot = np.arange(len(order)) - (np.cumsum(counts) - counts)[sf]
        self.face_tets = np.full((len(ufk), 2), -1, dtype=np.int32)
        self.face_tets[sf, slot] = order // 4
        for arr in (self.verts_int, self.tets, self.edges, self.faces, self.tet_edges,
                    self.tet_edge_sign, self.tet_faces, self.face_tets, self.block_of_tet):
            arr.setflags(write=False)
        self._cache = {}

    def _fits(self, **counts):
        for what, n in counts.items():
            if n >= (VERTEX_LIMIT if what == "vertices" else INDEX_LIMIT):
                raise MeshSizeError(f"mesh {self.name} has {n} {what}, too many for its "
                                    "int32 tables and int64 face keys")

    # -- basic counts ----------------------------------------------------
    @property
    def nv(self) -> int:
        return len(self.verts_int)

    @property
    def ne(self) -> int:
        return len(self.edges)

    @property
    def nf(self) -> int:
        return len(self.faces)

    @property
    def nt(self) -> int:
        return len(self.tets)

    @property
    def h(self) -> float:
        return 1.0 / self.denom

    def cached(self, key, build):
        """The derived value stored under `key`, made by `build()` on first
        use.  Builds run under one process-wide lock, so threads sharing a
        mesh get the same object; ndarray results (also inside a returned
        tuple) are frozen read-only, and sparse CSR/CSC ones are compacted
        (`_compact`): an array is copied only when it views a longer
        buffer, so every buffer is held once.  No value refers to this mesh,
        directly or through another object (it may hold child meshes), so
        the mesh and each dropped entry are freed by reference count."""
        out = self._cache.get(key, _MISSING)
        if out is _MISSING:
            with _LOCK:
                out = self._cache.get(key, _MISSING)
                if out is _MISSING:
                    out = build()
                    for a in out if isinstance(out, tuple) else (out,):
                        if isinstance(a, np.ndarray):
                            a.setflags(write=False)
                        elif sp.issparse(a) and a.format in ("csr", "csc"):
                            _compact(a)
                    self._cache[key] = out
        return out

    @property
    def verts(self) -> np.ndarray:
        """Float coordinates in block units (exact dyadic values)."""
        return self.cached("verts", lambda: self.verts_int / float(self.denom))

    def edge_vectors(self) -> np.ndarray:
        """(ne, 3) head minus tail, computed on each call: only cold
        builders read it."""
        return self.verts[self.edges[:, 1]] - self.verts[self.edges[:, 0]]

    def edge_lengths(self) -> np.ndarray:
        return self.cached("edge_lengths",
                           lambda: np.linalg.norm(self.edge_vectors(), axis=1))

    # -- adjacency maps --------------------------------------------------
    def boundary_face_mask(self) -> np.ndarray:
        return self.cached("bface", lambda: self.face_tets[:, 1] < 0)

    def boundary_node_mask(self) -> np.ndarray:
        def build():
            m = np.zeros(self.nv, dtype=bool)
            m[self.faces[self.boundary_face_mask()].ravel()] = True
            return m

        return self.cached("bnode", build)

    def boundary_edge_mask(self) -> np.ndarray:
        def build():
            m = np.zeros(self.ne, dtype=bool)
            m[self.face_edges()[self.boundary_face_mask()].ravel()] = True
            return m

        return self.cached("bedge", build)

    def edge_ids(self, packed_keys: np.ndarray) -> np.ndarray:
        """Edge ids for packed (lo*nv+hi) vertex-pair keys."""
        ekeys = self.cached("edge_keys", lambda: _pack_pairs(self.edges, self.nv))
        idx = np.searchsorted(ekeys, packed_keys)
        if np.any(ekeys[idx] != packed_keys):
            raise KeyError("unknown edge")
        return idx

    def face_edges(self) -> np.ndarray:
        """(nf, 3) edge ids of each face, for its vertex pairs 01, 12, 02."""
        def build():
            # tets ascend but for a swap of the last two (`_canonical_tets`),
            # so a face's vertices ascend in tet-local order unless it holds
            # both swapped ones; then its pairs 01 and 02 trade places
            loc = np.array(TET_FACES)
            e = self.tet_edges[:, _LOCAL_EDGE[loc[:, [0, 1, 0]], loc[:, [1, 2, 2]]]]
            swap = (self.tets[:, 2] > self.tets[:, 3])[:, None] & (loc[:, 1] == 2)
            e[swap] = e[swap][:, ::-1]
            out = np.empty((self.nf, 3), dtype=np.int32)
            out[self.tet_faces] = e
            return out

        return self.cached("face_edges", build)

    def patch_boundary(self, fids: np.ndarray) -> np.ndarray:
        """Sorted ids of the edges on the boundary curve of the face patch
        `fids`: those lying on exactly one of its faces."""
        counts = np.bincount(self.face_edges()[fids].ravel(), minlength=self.ne)
        return np.nonzero(counts == 1)[0]

    def node_ids(self, points) -> np.ndarray:
        """Node ids of (m, 3) lattice points in `verts_int` units.  A point
        that is not a node raises a GeometryError naming the first one."""
        def build():
            lo = self.verts_int.min(axis=0)
            span = self.verts_int.max(axis=0) - lo + 1
            keys = _lattice_keys(self.verts_int, lo, span)
            order = np.argsort(keys, kind="stable")
            return lo, span, keys[order], order

        lo, span, keys, order = self.cached("node_keys", build)
        points = np.asarray(points, dtype=np.int64).reshape(-1, 3)
        pos = np.searchsorted(keys, _lattice_keys(points, lo, span))
        ids = order[pos.clip(max=self.nv - 1)]
        missing = np.any(self.verts_int[ids] != points, axis=1)
        if missing.any():
            p = ",".join(str(Fraction(int(x), self.denom)) for x in points[missing.argmax()])
            raise GeometryError(f"no node of {self.name} at ({p})")
        return ids

    def coarser(self):
        """`(coarse, P, vids)` for `coarse = build_complex(name, 2h)`: the
        exact P1 prolongation P (nv x coarse.nv) and the fine node id of
        each coarse vertex.  Every row of P is one coarse vertex (value 1)
        or the midpoint of one coarse edge (1/2, 1/2).  None at h = 1/2,
        for a name outside the catalog, and when the coarse vertices and
        edge midpoints are not exactly the fine nodes."""
        return self.cached("coarser", lambda: _coarser(self))


# --------------------------------------------------------------------------
# meshing of blocks
# --------------------------------------------------------------------------

def _kuhn_pattern() -> np.ndarray:
    """(6,4,3) corner offsets of the Kuhn subdivision of the unit cell."""
    pats = []
    for perm in sorted(permutations(range(3))):
        p = np.zeros((4, 3), dtype=np.int64)
        for k, axis in enumerate(perm):
            p[k + 1] = p[k]
            p[k + 1, axis] += 1
        pats.append(p)
    return np.array(pats)


_KUHN = _kuhn_pattern()


def _mesh_brick(b: Brick, n: int) -> np.ndarray:
    """All tets of the Kuhn mesh of brick b at n cells per block unit,
    as (nt,4,3) integer corner coordinates on the n-lattice."""
    lo = np.array(b.lo, dtype=np.int64) * n
    hi = np.array(b.hi, dtype=np.int64) * n
    axes = [np.arange(lo[d], hi[d]) for d in range(3)]
    ox, oy, oz = np.meshgrid(*axes, indexing="ij")
    origins = np.column_stack([ox.ravel(), oy.ravel(), oz.ravel()])  # (nc,3)
    # (nc,6,4,3)
    tets = origins[:, None, None, :] + _KUHN[None, :, :, :]
    return tets.reshape(-1, 4, 3)


def _mesh_pyramid(p: Pyramid, level: int) -> np.ndarray:
    """Canonical 4-tet split red-refined `level` times; (nt,4,3) coords on
    the 2^level lattice."""
    apex = np.array(p.apex, dtype=np.int64)
    bc = p.base_center()
    corners = p.base_corners()
    verts = [apex, bc] + [c for c in corners]
    tets = np.array([[0, 1, 2 + k, 2 + (k + 1) % 4] for k in range(4)])
    coords = np.array(verts, dtype=np.int64)
    for _ in range(level):
        coords, tets = _red_refine_arrays(coords, tets)
    return coords[tets]


def _octahedron_ring(diag: tuple, others: list) -> list:
    """Order the four non-diagonal midpoints so consecutive ones share a
    parent vertex (midpoints are frozensets of parent indices)."""
    ring = [others[0]]
    rest = others[1:]
    while rest:
        cur = ring[-1]
        for k, cand in enumerate(rest):
            if cur & cand:
                ring.append(cand)
                del rest[k]
                break
        else:  # pragma: no cover - cannot happen for an octahedron
            raise RuntimeError("broken octahedron ring")
    return ring


_MIDS = [frozenset(p) for p in TET_EDGES]
_DIAG_PRIORITY = [
    (frozenset((0, 2)), frozenset((1, 3))),
    (frozenset((0, 3)), frozenset((1, 2))),
    (frozenset((0, 1)), frozenset((2, 3))),
]


def _red_refine_arrays(verts_int: np.ndarray, tets: np.ndarray):
    """Red (octasection) refinement; returns coords on the doubled lattice.

    The interior diagonal is the shortest one (exact integer comparison),
    ties broken by a fixed priority that reproduces the Kuhn subdivision.
    """
    nv = len(verts_int)
    coords = verts_int.astype(np.int64) * 2
    raw = tets[:, TET_EDGES]
    keys = (raw.min(axis=2).astype(np.int64) * nv + raw.max(axis=2)).ravel()
    ukeys, inv = np.unique(keys, return_inverse=True)
    mid_ids = nv + inv.reshape(-1, 6)  # (nt,6)
    mid_coords = coords[ukeys // nv] + coords[ukeys % nv]
    mid_coords //= 2
    new_coords = np.vstack([coords, mid_coords])

    # corner children (vectorized)
    corner_children = np.empty((len(tets), 4, 4), dtype=np.int64)
    for c in range(4):
        incident = [k for k, pr in enumerate(TET_EDGES) if c in pr]
        corner_children[:, c, 0] = tets[:, c]
        for j, k in enumerate(incident):
            corner_children[:, c, 1 + j] = mid_ids[:, k]

    # octahedron children: diagonal chosen per tet by exact squared length
    diag_pairs = [tuple(sorted((_MIDS.index(a), _MIDS.index(b)))) for a, b in _DIAG_PRIORITY]
    dvec = np.empty((len(tets), 3), dtype=np.int64)
    dlen = np.empty((len(tets), 3), dtype=np.int64)
    for j, (ka, kb) in enumerate(diag_pairs):
        d = new_coords[mid_ids[:, ka]] - new_coords[mid_ids[:, kb]]
        dlen[:, j] = np.einsum("ij,ij->i", d, d)
    choice = np.argmin(dlen, axis=1)  # argmin takes the first minimum: priority order

    oct_children = np.empty((len(tets), 4, 4), dtype=np.int64)
    for j, (ka, kb) in enumerate(diag_pairs):
        sel = choice == j
        if not np.any(sel):
            continue
        a, b = _DIAG_PRIORITY[j]
        ring_sets = _octahedron_ring(a, [m for m in _MIDS if m not in (a, b)])
        ring = [_MIDS.index(m) for m in ring_sets]
        for r in range(4):
            oct_children[sel, r, 0] = mid_ids[sel, _MIDS.index(a)]
            oct_children[sel, r, 1] = mid_ids[sel, _MIDS.index(b)]
            oct_children[sel, r, 2] = mid_ids[sel, ring[r]]
            oct_children[sel, r, 3] = mid_ids[sel, ring[(r + 1) % 4]]

    children = np.concatenate([corner_children, oct_children], axis=1).reshape(-1, 4)
    return new_coords, children


def _assemble_mesh(name: str, tet_coords: list[np.ndarray], labels: list[int],
                   denom: int, level: int) -> TetMesh:
    """Merge per-block (nt,4,3) coord tets, identifying nodes exactly."""
    allc = np.concatenate([tc.reshape(-1, 3) for tc in tet_coords])
    lo = allc.min(axis=0)
    keys = _lattice_keys(allc, lo, allc.max(axis=0) - lo + 1)
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    uverts = allc[first]
    tets = inv.reshape(-1, 4)
    block = np.repeat(np.array(labels, dtype=np.int32), [len(tc) for tc in tet_coords])
    return TetMesh(name, uverts, denom, tets, block, level)


def build_complex(name: str, h: float | Fraction) -> TetMesh:
    """Mesh a catalog geometry at dyadic grid spacing h = 1/2^k.

    Bricks get the Kuhn subdivision of each h-cell; the pyramid its
    canonical 4-tet split refined k times.  Conforming across blocks by
    exact lattice-node identification.
    """
    info = catalog_info(name)
    frac = Fraction(h).limit_denominator(1 << 40) if not isinstance(h, Fraction) else h
    if frac != h or frac.numerator != 1 or frac.denominator & (frac.denominator - 1):
        raise GeometryError(f"h must be 1/2^k, got {h}")
    denom = frac.denominator
    level = denom.bit_length() - 1
    tet_coords = []
    labels = []
    for bid, blk in enumerate(info.complex.blocks):
        if isinstance(blk, Brick):
            tet_coords.append(_mesh_brick(blk, denom))
        else:
            tet_coords.append(_mesh_pyramid(blk, level))
        labels.append(bid)
    return _assemble_mesh(name, tet_coords, labels, denom, level)


def _coarser(fine: TetMesh):
    if fine.level <= 1:
        return None
    try:
        coarse = build_complex(fine.name, Fraction(2, fine.denom))
    except GeometryError:
        return None
    if coarse.nv + coarse.ne != fine.nv:
        return None
    # the coarse points on the fine lattice: vertices, then edge midpoints
    try:
        ids = fine.node_ids(np.vstack([2 * coarse.verts_int,
                                       coarse.verts_int[coarse.edges].sum(axis=1)]))
    except GeometryError:
        return None
    nc = coarse.nv
    rows = np.concatenate([ids[:nc], np.repeat(ids[nc:], 2)])
    cols = np.concatenate([np.arange(nc), coarse.edges.ravel()])
    vals = np.concatenate([np.ones(nc), np.full(2 * coarse.ne, 0.5)])
    P = sp.csr_matrix((vals, (rows, cols)), shape=(fine.nv, nc))
    return coarse, P, ids[:nc]


# --------------------------------------------------------------------------
# text export / import
# --------------------------------------------------------------------------

def write_mesh(mesh: TetMesh, stream, trace_tags: list[str] | None = None) -> None:
    """Line-based text format; coordinates are dyadic and printed exactly
    (shortest round-tripping decimal of the exact binary value)."""
    w = stream.write
    w(f"helmdec-mesh 1 {mesh.name} level={mesh.level} denom={mesh.denom}\n")
    w(f"counts {mesh.nv} {mesh.nt} {mesh.ne} {mesh.nf} h={mesh.h!r}\n")
    verts = mesh.verts
    for i in range(mesh.nv):
        w(f"v {i} {float(verts[i,0])!r} {float(verts[i,1])!r} {float(verts[i,2])!r}\n")
    for i in range(mesh.nt):
        t = mesh.tets[i]
        w(f"t {i} {t[0]} {t[1]} {t[2]} {t[3]} {mesh.block_of_tet[i]}\n")
    for tag in trace_tags or []:
        w(f"g {tag}\n")


def _parse(convert, text: str, where: str):
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{where}: bad value {text!r}") from None


def read_mesh(stream) -> tuple[TetMesh, list[str]]:
    """Parse the `write_mesh` format.  Input that does not describe one
    whole mesh (bad header or counts, a missing, duplicate or out-of-range
    vertex or tet) raises a ValueError naming the line or entity.  `#`
    comment lines before the header are skipped."""
    line, hl = stream.readline(), 1
    while line.startswith("#"):
        line, hl = stream.readline(), hl + 1
    header = line.split()
    if not header or header[0] != "helmdec-mesh":
        raise ValueError("not a helmdec mesh file")
    if (len(header) != 5 or header[1] != "1" or not header[3].startswith("level=")
            or not header[4].startswith("denom=")):
        raise ValueError(f"line {hl}: malformed header {' '.join(header)!r}")
    name = header[2]
    level = _parse(int, header[3][6:], f"line {hl}")
    denom = _parse(int, header[4][6:], f"line {hl}")
    if level < 0 or denom != 1 << level:
        raise ValueError(f"line {hl}: denom={denom} is not 2^level with level={level}")
    counts = stream.readline().split()
    if len(counts) != 6 or counts[0] != "counts":
        raise ValueError(f"line {hl + 1}: malformed counts {' '.join(counts)!r}")
    nv, nt, ne, nf = (_parse(int, x, f"line {hl + 1}") for x in counts[1:5])
    if min(nv, nt, ne, nf) < 1:
        raise ValueError(f"line {hl + 1}: counts must be positive, got {counts[1:5]}")
    verts = np.zeros((nv, 3), dtype=np.int64)
    tets = np.zeros((nt, 4), dtype=np.int64)
    block = np.zeros(nt, dtype=np.int64)
    seen = {"v": np.zeros(nv, dtype=bool), "t": np.zeros(nt, dtype=bool)}
    tags = []
    for ln, line in enumerate(stream, start=hl + 2):
        parts = line.split()
        if not parts:
            continue
        kind, where = parts[0], f"line {ln}"
        if kind == "g":
            tags.append(line[2:].strip())
            continue
        if kind not in seen or len(parts) != (5 if kind == "v" else 7):
            raise ValueError(f"{where}: malformed record {line.strip()!r}")
        i = _parse(int, parts[1], where)
        if not 0 <= i < len(seen[kind]):
            raise ValueError(f"{where}: {kind} id {i} outside [0, {len(seen[kind])})")
        if seen[kind][i]:
            raise ValueError(f"{where}: duplicate {kind} id {i}")
        seen[kind][i] = True
        if kind == "v":
            for d in range(3):
                x = _parse(float, parts[2 + d], where) * denom
                if not (np.isfinite(x) and x == int(x)):
                    raise ValueError(f"{where}: non-dyadic coordinate in vertex {i}")
                verts[i, d] = int(x)
        else:
            ids = [_parse(int, x, where) for x in parts[2:6]]
            if min(ids) < 0 or max(ids) >= nv:
                raise ValueError(f"{where}: tet {i} has a vertex id outside [0, {nv})")
            tets[i] = ids
            block[i] = _parse(int, parts[6], where)
    for kind, what in (("v", "vertex"), ("t", "tet")):
        missing = np.nonzero(~seen[kind])[0]
        if len(missing):
            raise ValueError(f"{what} {missing[0]} missing: {len(missing)} of "
                             f"{len(seen[kind])} {kind} lines absent")
    mesh = TetMesh(name, verts, denom, tets, block, level)
    if (mesh.ne, mesh.nf) != (ne, nf):
        raise ValueError(f"line {hl + 1}: counts give ne={ne} nf={nf}, the tets "
                         f"give ne={mesh.ne} nf={mesh.nf}")
    return mesh, tags


# --------------------------------------------------------------------------
# submeshes
# --------------------------------------------------------------------------

@dataclass
class Submesh:
    """A TetMesh over a tet subset plus entity maps back to the parent."""

    mesh: TetMesh
    vert_map: np.ndarray  # sub vertex id -> parent vertex id
    edge_map: np.ndarray  # sub edge id -> parent edge id

    def restrict_edge(self, values: np.ndarray) -> np.ndarray:
        return values[self.edge_map].copy()

    def node_mask(self, nv: int) -> np.ndarray:
        m = np.zeros(nv, dtype=bool)
        m[self.vert_map] = True
        return m


def extract_tets(mesh: TetMesh, tet_mask: np.ndarray, name: str) -> Submesh:
    """Submesh over the masked tets; vertex order inherited from the parent
    so fields map back deterministically."""
    tids = np.nonzero(tet_mask)[0]
    if len(tids) == 0:
        raise ValueError("empty submesh")
    tets = mesh.tets[tids]
    vmap = np.unique(tets.ravel())
    renum = np.full(mesh.nv, -1, dtype=np.int32)
    renum[vmap] = np.arange(len(vmap))
    sub = TetMesh(name, mesh.verts_int[vmap], mesh.denom, renum[tets],
                  mesh.block_of_tet[tids], mesh.level)
    # sub edge -> parent edge via parent vertex pairs
    pedges = vmap[sub.edges]
    keys = _pack_pairs(np.sort(pedges, axis=1), mesh.nv)
    emap = mesh.edge_ids(keys)
    return Submesh(sub, vmap, emap)


def extract_block(mesh: TetMesh, block: int) -> Submesh:
    def build():
        sub = extract_tets(mesh, mesh.block_of_tet == block, f"{mesh.name}[{block}]")
        try:
            blk = catalog_info(mesh.name).complex.blocks[block]
        except GeometryError:
            return sub
        sub.mesh.cached("geometry_info", lambda: GeometryInfo(
            BlockComplex(sub.mesh.name, (blk,)), convex=True))
        return sub

    return mesh.cached(("block_submesh", block), build)
