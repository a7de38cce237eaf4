"""Coarse boundary entities and trace sets.

The complex boundary is decomposed into complete coarse faces (maximal
connected coplanar unions of boundary triangles with a common outward
normal), coarse edges (maximal collinear crease chains) and coarse
vertices.  All grouping is exact: plane and line keys are integer-reduced
lattice data.  A TraceSet is a pair of fine node/edge masks and its
closure-normal form (the covered coarse faces, the covered coarse edges
outside their closure, the nodes left over as vertices), plus the
topological facts the decomposition dispatcher routes on: the number of
connected components and whether each is Lipschitz.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .geometry import CATALOG, GeometryInfo, catalog_info
from .mesh import TetMesh


def geometry_info(mesh: TetMesh) -> GeometryInfo:
    """Catalog entry of a mesh, or the synthetic entry attached to a
    submesh (single convex block, no junctions)."""
    return mesh.cached("geometry_info", lambda: catalog_info(mesh.name))

__all__ = [
    "CoarseFace",
    "CoarseEdge",
    "Surface",
    "surface",
    "TraceSet",
    "tag_trace",
    "linked_components",
    "TraceError",
]


class TraceError(ValueError):
    """Entity name not on the boundary / invalid trace spec."""


def _reduce_vec(v):
    g = gcd(gcd(abs(int(v[0])), abs(int(v[1]))), abs(int(v[2])))
    return tuple(int(x) // g for x in v) if g else tuple(int(x) for x in v)


def _canon_sign(v):
    for x in v:
        if x != 0:
            return v if x > 0 else tuple(-y for y in v)
    return v


@dataclass
class CoarseFace:
    id: int
    name: str
    plane: tuple          # (normal, offset) outward-oriented, lattice units
    fine_faces: np.ndarray
    fine_edges: np.ndarray
    fine_nodes: np.ndarray
    boundary_edges: np.ndarray  # fine edges of the patch boundary curve
    concave: bool
    outward_sign: np.ndarray    # +-1 per fine face vs canonical face normal
    edges: tuple = ()     # ascending ids of the coarse edges on the boundary curve
    block: int = -1       # the block whose tets hold every fine face; -1 if several


@dataclass
class CoarseEdge:
    id: int
    name: str
    fine_edges: np.ndarray  # ordered along the line
    fine_nodes: np.ndarray  # ordered along the line
    block: int = -1         # the block whose tets hold every fine edge; -1 if several


@dataclass
class Surface:
    """All coarse boundary entities of a meshed complex, which carry their
    incidence (face edges, blocks), and the coarse edge of each fine edge."""

    name: str                      # the mesh's name
    faces: list[CoarseFace]
    edges: list[CoarseEdge]
    vertices: dict[str, int]       # name -> node id
    aliases: dict[str, str]
    edge_of: np.ndarray = None     # fine edge -> coarse edge id, -1 off the creases

    def face_by_name(self, name: str) -> CoarseFace:
        name = self.aliases.get(name, name)
        for f in self.faces:
            if f.name == name:
                return f
        raise TraceError(f"no coarse face {name!r} on {self.name}; "
                         f"have {[f.name for f in self.faces]}")

    def edge_by_name(self, name: str) -> CoarseEdge:
        name = self.aliases.get(name, name)
        for e in self.edges:
            if e.name == name:
                return e
        raise TraceError(f"no coarse edge {name!r} on {self.name}; "
                         f"have {[e.name for e in self.edges]}")


def _row_ranks(rows: np.ndarray):
    """The distinct rows of an integer array in lexicographic order, and
    the rank of each row among them."""
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    new = np.ones(len(srt), dtype=bool)
    new[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    rank = np.empty(len(rows), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return srt[new], rank


def _reduce_rows(n: np.ndarray) -> np.ndarray:
    """Integer rows divided by the gcd of their components."""
    g = np.gcd.reduce(np.abs(n), axis=1)
    return n // np.where(g == 0, 1, g)[:, None]


def _fmt_block_val(num: int, denom: int) -> str:
    return str(Fraction(num, denom))


def _face_name(plane, denom: int) -> str:
    (n, c) = plane
    axes = "xyz"
    for a in range(3):
        unit = tuple(1 if d == a else 0 for d in range(3))
        if n == unit:
            return f"{axes[a]}={_fmt_block_val(c, denom)}"
        if n == tuple(-u for u in unit):
            return f"{axes[a]}={_fmt_block_val(-c, denom)}"
    cb = Fraction(c, denom)
    return f"p:{n[0]},{n[1]},{n[2]}:{cb}"


def _edge_name(mesh: TetMesh, nodes: np.ndarray) -> str:
    v = mesh.verts_int
    d = v[nodes[-1]] - v[nodes[0]]
    dr = _canon_sign(_reduce_vec(d))
    axes = "xyz"
    unit_axes = [a for a in range(3) if dr == tuple(1 if d2 == a else 0 for d2 in range(3))]
    if unit_axes:
        a = unit_axes[0]
        fixed = [b for b in range(3) if b != a]
        vals = [_fmt_block_val(int(v[nodes[0], b]), mesh.denom) for b in fixed]
        return f"e:{axes[fixed[0]]}={vals[0]},{axes[fixed[1]]}={vals[1]}"
    p0 = tuple(Fraction(int(x), mesh.denom) for x in v[nodes[0]])
    p1 = tuple(Fraction(int(x), mesh.denom) for x in v[nodes[-1]])
    if p1 < p0:
        p0, p1 = p1, p0
    fmt = lambda p: "(" + ",".join(str(x) for x in p) + ")"
    return f"e:{fmt(p0)}-{fmt(p1)}"


def linked_components(keysets) -> list[np.ndarray]:
    """Connected components of items linked by common keys: item i holds the
    integer keys keysets[i] (a sequence of 1-D arrays, or the rows of a 2-D
    array).  Each component is the ascending array of its item indices; the
    components come in the order of their smallest items."""
    n = len(keysets)
    # a csgraph call costs ~0.2 ms whatever its size, and routes rebuild
    # single-entity traces on every call
    if n <= 1:
        return [np.arange(n)] if n else []
    owner = np.repeat(np.arange(n), [len(k) for k in keysets])
    keys, key = np.unique(np.concatenate(keysets), return_inverse=True)
    m = n + len(keys)
    # bipartite item-key graph: two items share a component iff a chain of
    # common keys joins them
    graph = sp.coo_matrix((np.ones(len(owner)), (owner, n + key)), shape=(m, m))
    label = connected_components(graph, directed=False)[1][:n]
    order = np.argsort(label, kind="stable")
    comps = np.split(order, np.flatnonzero(np.diff(label[order])) + 1)
    return sorted(comps, key=lambda c: c[0])


def surface(mesh: TetMesh) -> Surface:
    """Coarse entities of the mesh boundary (cached on the mesh)."""
    return mesh.cached("surface", lambda: _build_surface(mesh))


def _number(ents: list) -> None:
    """Suffix `#i` to names shared by several entities, ordered by their
    lowest fine node, then sort the entities by name and assign their ids."""
    named: dict[str, list] = {}
    for x in ents:
        named.setdefault(x.name, []).append(x)
    for name, group in named.items():
        if len(group) > 1:
            group.sort(key=lambda x: int(x.fine_nodes.min()))
            for i, x in enumerate(group):
                x.name = f"{name}#{i}"
    ents.sort(key=lambda x: x.name)
    for i, x in enumerate(ents):
        x.id = i


def _sole(labels: np.ndarray) -> int:
    """The one value of `labels`, or -1 when it holds several."""
    u = np.unique(labels)
    return int(u[0]) if len(u) == 1 else -1


def _build_surface(mesh: TetMesh) -> Surface:
    bmask = mesh.boundary_face_mask()
    bfids = np.nonzero(bmask)[0]
    face_edge_ids = mesh.face_edges()[bfids]
    v = mesh.verts_int

    # outward-oriented reduced plane (n, n . x) of every boundary face: its
    # canonical normal, flipped where it points into the owning tet, whose
    # fourth vertex is the id sum minus the face's
    tri = mesh.faces[bfids]
    n = np.cross(v[tri[:, 1]] - v[tri[:, 0]], v[tri[:, 2]] - v[tri[:, 0]])
    opp = mesh.tets[mesh.face_tets[bfids, 0]].sum(axis=1) - tri.sum(axis=1)
    sign = np.where(np.einsum("ij,ij->i", n, v[opp] - v[tri[:, 0]]) > 0, -1, 1)
    n = _reduce_rows(n * sign[:, None])
    planes, pid = _row_ranks(np.column_stack([n, np.einsum("ij,ij->i", n, v[tri[:, 0]])]))
    # a boundary plane is concave where an interior face lies in it
    on = v @ planes[:, :3].T == planes[:, 3]
    itri = mesh.faces[~bmask]
    concave = (on[itri[:, 0]] & on[itri[:, 1]] & on[itri[:, 2]]).any(axis=0)

    # boundary faces linked by a common edge on a common oriented plane,
    # taken in plane-key order
    faces: list[CoarseFace] = []
    patches = linked_components(pid[:, None] * mesh.ne + face_edge_ids)
    for comp in sorted(patches, key=lambda c: pid[c[0]]):
        a, b, c, d = planes[pid[comp[0]]].tolist()
        key = ((a, b, c), d)
        ffaces = bfids[comp]
        faces.append(CoarseFace(
            id=-1,
            name=_face_name(key, mesh.denom),
            plane=key,
            fine_faces=ffaces,
            fine_edges=np.unique(face_edge_ids[comp].ravel()),
            fine_nodes=np.unique(tri[comp].ravel()),
            boundary_edges=mesh.patch_boundary(ffaces),
            concave=bool(concave[pid[comp[0]]]),
            # the canonical fine-face normal against the outward one
            outward_sign=sign[comp].astype(np.int8),
            block=_sole(mesh.block_of_tet[mesh.face_tets[ffaces, 0]]),
        ))
    _number(faces)

    # crease fine edges (on two or more boundary planes) -> coarse edges;
    # each with its ascending plane ranks, padded with -1
    nplanes = len(planes)
    inc = np.unique(face_edge_ids.astype(np.int64) * nplanes + pid[:, None])
    inc_edge, inc_plane = np.divmod(inc, nplanes)
    bedges, first, count = np.unique(inc_edge, return_index=True, return_counts=True)
    edge_planes = np.full((len(bedges), count.max(initial=0)), -1, dtype=np.int64)
    edge_planes[np.repeat(np.arange(len(bedges)), count),
                np.arange(len(inc)) - np.repeat(first, count)] = inc_plane
    is_crease = count >= 2
    crease = bedges[is_crease]

    # crease edges linked by a common node on a common line key; chains
    # split where the incident boundary planes change: collinear crease
    # edges of different dihedral structure (e.g. two blocks meeting at a
    # junction vertex) stay distinct coarse edges.  The line key is the
    # reduced direction with its first nonzero component positive, the
    # moment x0 x d and the plane ranks.
    ends = mesh.edges[crease]
    d = _reduce_rows(v[ends[:, 1]] - v[ends[:, 0]])
    d *= np.sign(d[np.arange(len(d)), np.argmax(d != 0, axis=1)])[:, None]
    lid = _row_ranks(np.column_stack([d, np.cross(v[ends[:, 0]], d),
                                      edge_planes[is_crease]]))[1]

    # the lowest and highest block label among the tets of each fine edge
    lab = np.repeat(mesh.block_of_tet, 6)
    lo, hi = np.full(mesh.ne, lab.max(initial=0)), np.zeros(mesh.ne, dtype=lab.dtype)
    np.minimum.at(lo, mesh.tet_edges.ravel(), lab)
    np.maximum.at(hi, mesh.tet_edges.ravel(), lab)

    edges: list[CoarseEdge] = []
    chains = linked_components(lid[:, None] * mesh.nv + ends)
    for comp in sorted(chains, key=lambda c: lid[c[0]]):
        fe = crease[comp]
        nodes = np.unique(ends[comp].ravel())
        nodes = nodes[np.argsort(v[nodes] @ d[comp[0]], kind="stable")]
        fe = fe[np.argsort(v[ends[comp]].min(axis=1) @ d[comp[0]], kind="stable")]
        edges.append(
            CoarseEdge(
                id=-1,
                name=_edge_name(mesh, nodes),
                fine_edges=fe,
                fine_nodes=nodes,
                block=_sole(np.concatenate([lo[fe], hi[fe]])),
            )
        )
    _number(edges)

    # the coarse edges of a face: those whose fine edges all lie on its
    # boundary curve (the trailing 0 sizes the fine edges off the creases)
    edge_of = np.full(mesh.ne, -1, dtype=np.int64)
    for e in edges:
        edge_of[e.fine_edges] = e.id
    size = np.array([len(e.fine_edges) for e in edges] + [0])
    for f in faces:
        ids, count = np.unique(edge_of[f.boundary_edges], return_counts=True)
        f.edges = tuple(ids[count == size[ids]].tolist())

    # coarse vertices: block corners present on the boundary
    info = CATALOG.get(mesh.name)
    vertices: dict[str, int] = {}
    if info is not None:
        corners = sorted({tuple(int(x) * mesh.denom for x in c)
                          for blk in info.complex.blocks for c in blk.corners()})
        nids = mesh.node_ids(corners)
        bn = mesh.boundary_node_mask()
        for c, nid in zip(corners, nids.tolist()):
            if bn[nid]:
                bu = tuple(Fraction(x, mesh.denom) for x in c)
                vertices[f"v:({bu[0]},{bu[1]},{bu[2]})"] = nid

    aliases = dict(info.aliases) if info is not None else {}
    return Surface(mesh.name, faces, edges, vertices, aliases, edge_of)


# --------------------------------------------------------------------------
# trace sets
# --------------------------------------------------------------------------

@dataclass
class TraceSet:
    """Fine trace masks and their coarse entities in closure-normal form;
    made by `trace_from_fine`.  `spec` names the trace in messages.  `J`
    counts the components of the tagged entities linked by common fine
    nodes; `lipschitz` holds when the faces of every component are linked
    by common fine edges (no two faces meet only at a vertex)."""

    mesh: TetMesh
    spec: tuple[str, ...]
    coarse_faces: list[CoarseFace]
    coarse_edges: list[CoarseEdge]
    vertex_nodes: list[int]
    node_mask: np.ndarray
    edge_mask: np.ndarray
    J: int
    lipschitz: bool
    contains_concave: bool

    @property
    def empty(self) -> bool:
        return not (self.coarse_faces or self.coarse_edges or self.vertex_nodes)


def _fine_closure(mesh: TetMesh, faces, edges, vnodes):
    """Node and edge masks of the union of the given coarse entities."""
    nmask = np.zeros(mesh.nv, dtype=bool)
    emask = np.zeros(mesh.ne, dtype=bool)
    for f in faces:
        emask[f.fine_edges] = True
        nmask[f.fine_nodes] = True
    for e in edges:
        emask[e.fine_edges] = True
        nmask[e.fine_nodes] = True
    for nd in vnodes:
        nmask[nd] = True
    return nmask, emask


def trace_from_fine(mesh: TetMesh, node_mask: np.ndarray, edge_mask: np.ndarray,
                    spec=None) -> TraceSet:
    """The TraceSet of fine masks, in closure-normal form: the tagged faces
    are the fully covered coarse faces, the tagged edges the covered coarse
    edges outside every tagged face's closure, and the vertex entries the
    masked nodes left over.  So traces with equal masks have equal
    entities.  `spec` names the trace in messages; it defaults to the
    entity names.  Raises if the masks do not decompose into whole coarse
    entities (partial coverage)."""
    surf = surface(mesh)
    faces = [f for f in surf.faces if edge_mask[f.fine_edges].all() and node_mask[f.fine_nodes].all()]
    covered_n, covered_e = _fine_closure(mesh, faces, (), ())
    edges = [e for e in surf.edges
             if edge_mask[e.fine_edges].all() and not covered_e[e.fine_edges].all()]
    for e in edges:
        covered_e[e.fine_edges] = True
        covered_n[e.fine_nodes] = True
    if np.any(edge_mask & ~covered_e):
        bad = int(np.nonzero(edge_mask & ~covered_e)[0][0])
        raise TraceError(f"fine edge {bad} not covered by whole coarse entities")
    vnodes = np.nonzero(node_mask & ~covered_n)[0].tolist()
    if spec is None:
        spec = [f.name for f in faces] + [e.name for e in edges] + [f"@node{n}" for n in vnodes]

    # components of the tagged entities (faces first) linked by common fine
    # nodes; a component is Lipschitz when its faces are linked by common
    # fine edges
    comps = linked_components([f.fine_nodes for f in faces] + [e.fine_nodes for e in edges]
                              + [[n] for n in vnodes])
    nf = len(faces)
    lipschitz = all(len(linked_components([faces[i].fine_edges for i in c if i < nf])) <= 1
                    for c in comps)

    concave_all = {f.id for f in surf.faces if f.concave}
    return TraceSet(
        mesh=mesh,
        spec=tuple(spec),
        coarse_faces=faces,
        coarse_edges=edges,
        vertex_nodes=vnodes,
        node_mask=node_mask | covered_n,
        edge_mask=covered_e,
        J=len(comps),
        lipschitz=lipschitz,
        contains_concave=bool(concave_all) and concave_all <= {f.id for f in faces},
    )


def tag_trace(mesh: TetMesh, spec) -> TraceSet:
    """Resolve coarse entity names into the TraceSet of their fine closure
    (`trace_from_fine`).  Names: face names / aliases, ``e:...`` edges,
    ``v:(...)`` vertices, groups ``boundary`` and ``concave``."""
    surf = surface(mesh)
    if isinstance(spec, str):
        spec = [s.strip() for s in spec.split(";") if s.strip()]
    faces: list[CoarseFace] = []
    edges: list[CoarseEdge] = []
    vnodes: list[int] = []
    for raw in spec:
        name = surf.aliases.get(raw, raw)
        if name == "boundary":
            faces.extend(surf.faces)
        elif name == "concave":
            faces.extend(f for f in surf.faces if f.concave)
        elif name.startswith("e:"):
            edges.append(surf.edge_by_name(name))
        elif name.startswith("v:"):
            if name not in surf.vertices:
                raise TraceError(f"no coarse vertex {name!r} on {mesh.name}")
            vnodes.append(surf.vertices[name])
        else:
            faces.append(surf.face_by_name(name))
    return trace_from_fine(mesh, *_fine_closure(mesh, faces, edges, vnodes), spec=spec)


@dataclass
class InterfaceFace:
    """A coarse face shared by two blocks (not part of the boundary)."""

    blocks: tuple[int, int]
    fine_nodes: np.ndarray
    boundary_nodes: np.ndarray    # nodes of the interface boundary curve
    plane: tuple                  # unoriented reduced plane key


def interface_faces(mesh: TetMesh) -> list[InterfaceFace]:
    """Coarse block-interface faces (fine faces whose two tets carry
    different block labels), grouped per block pair."""
    return mesh.cached("interfaces", lambda: _build_interfaces(mesh))


def _build_interfaces(mesh: TetMesh) -> list[InterfaceFace]:
    ft = mesh.face_tets
    inner = ft[:, 1] >= 0
    lab = mesh.block_of_tet
    diff = inner & (lab[ft[:, 0]] != lab[np.where(inner, ft[:, 1], 0)])
    fids = np.nonzero(diff)[0]
    groups: dict[tuple, list[int]] = {}
    for f in fids:
        a, b = sorted((int(lab[ft[f, 0]]), int(lab[ft[f, 1]])))
        groups.setdefault((a, b), []).append(int(f))
    out = []
    v = mesh.verts_int
    for pair in sorted(groups):
        ff = np.array(groups[pair])
        tri = mesh.faces[ff]
        n = _canon_sign(_reduce_vec(np.cross(v[tri[0, 1]] - v[tri[0, 0]], v[tri[0, 2]] - v[tri[0, 0]])))
        out.append(
            InterfaceFace(
                blocks=pair,
                fine_nodes=np.unique(tri.ravel()),
                boundary_nodes=np.unique(mesh.edges[mesh.patch_boundary(ff)].ravel()),
                plane=(n, int(np.dot(n, v[tri[0, 0]]))),
            )
        )
    return out

