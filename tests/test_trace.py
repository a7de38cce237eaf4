import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import helmdec.decompose as dc
import helmdec.trace as trace_mod
from helmdec.geometry import catalog_names
from helmdec.mesh import build_complex
from helmdec.operators import PreconditionError
from helmdec.trace import TraceError, interface_faces, surface, tag_trace, trace_from_fine

_spec = importlib.util.spec_from_file_location(
    "route_census", Path(__file__).resolve().parents[1] / "scripts" / "route_census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


def test_single_face_component(cube4):
    t = tag_trace(cube4, ["z=0"])
    assert t.J == 1 and t.lipschitz


def test_two_disjoint_faces(cube4):
    t = tag_trace(cube4, ["z=0", "z=1"])
    assert t.J == 2


def test_pyramid_isolated_vertex(pyramid4):
    t = tag_trace(pyramid4, ["lat:x-", "lat:x+"])
    assert t.J == 1
    assert not t.lipschitz


def test_adjacent_faces_are_lipschitz(cube4):
    t = tag_trace(cube4, ["z=0", "y=0"])
    assert t.J == 1 and t.lipschitz


# Assumption 3.1 (Lipschitz extension blocks) is the kernel planner's to
# check: the forced kernel plan claims the L2 right-hand side on a convex
# extension, and refuses a trace without extension blocks


def test_assumption31_cube_face(cube4):
    assert dc._plan("kernel", tag_trace(cube4, ["z=0"])).claims["rhs2"] == "l2"


def test_assumption31_pyramid_opposite(pyramid4):
    with pytest.raises(PreconditionError, match="trace component with isolated vertex"):
        dc._plan("kernel", tag_trace(pyramid4, ["lat:x-", "lat:x+"]))


def test_assumption31_l_concave(lshape4):
    t = tag_trace(lshape4, ["concave"])
    assert t.contains_concave
    plan = dc._plan("auto", t)
    assert (plan.path, plan.claims["rhs2"]) == ("kernel", "l2")
    t2 = tag_trace(lshape4, ["x=0"])
    assert dc._plan("auto", t2).path == "face-chain"
    assert dc._plan("kernel", t2).claims["rhs2"] == "curl"


def test_concave_classification(lshape4):
    surf = surface(lshape4)
    concave = sorted(f.name for f in surf.faces if f.concave)
    assert concave == ["x=1", "y=1"]


def test_unknown_entity_rejected(cube4):
    with pytest.raises(TraceError):
        tag_trace(cube4, ["z=7"])
    with pytest.raises(TraceError):
        tag_trace(cube4, ["e:x=9,y=9"])


def test_fine_sets_closed_and_idempotent(cube4):
    t = tag_trace(cube4, ["z=0"])
    # closure: every fine edge of a tagged face has both endpoints tagged
    for e in np.nonzero(t.edge_mask)[0]:
        assert t.node_mask[cube4.edges[e]].all()
    t2 = tag_trace(cube4, ["z=0"])
    assert np.array_equal(t.node_mask, t2.node_mask)
    assert np.array_equal(t.edge_mask, t2.edge_mask)


def test_trace_from_fine_reconstructs(cube4):
    t = tag_trace(cube4, ["z=0", "e:x=1,y=1"])
    r = trace_from_fine(cube4, t.node_mask, t.edge_mask)
    assert np.array_equal(r.node_mask, t.node_mask)
    assert np.array_equal(r.edge_mask, t.edge_mask)
    assert {f.name for f in r.coarse_faces} == {"z=0"}
    assert {e.name for e in r.coarse_edges} == {"e:x=1,y=1"}


def _entities(t):
    return ([f.id for f in t.coarse_faces], [e.id for e in t.coarse_edges], t.vertex_nodes)


# the per-component dicts J and lipschitz were once derived from
def _reference_J_lipschitz(t):
    faces, edges, vnodes = t.coarse_faces, t.coarse_edges, t.vertex_nodes
    linked_components = trace_mod.linked_components
    # connected components over tagged coarse entities via shared fine nodes
    ents = [("f", f) for f in faces] + [("e", e) for e in edges] + [("v", n) for n in vnodes]
    comps = linked_components([f.fine_nodes for f in faces] + [e.fine_nodes for e in edges]
                              + [[n] for n in vnodes])
    components = []
    for comp in comps:
        cf = [ents[i][1] for i in comp if ents[i][0] == "f"]
        ce = [ents[i][1] for i in comp if ents[i][0] == "e"]
        cv = [ents[i][1] for i in comp if ents[i][0] == "v"]
        # Lipschitz: the faces of the component are connected through shared
        # coarse-face *edges*; false iff two faces meet only at a vertex.
        lip = len(linked_components([f.fine_edges for f in cf])) <= 1
        components.append({"faces": cf, "edges": ce, "vertices": cv, "lipschitz": lip})
    return len(components), all(c["lipschitz"] for c in components)


@pytest.mark.parametrize("geometry", catalog_names(include_internal=True))
def test_census_traces_are_in_closure_normal_form(geometry):
    """On every trace of both route-census families, `tag_trace` has the
    entities `trace_from_fine` gives its masks; its masks are the closure of
    those entities; no tagged edge lies in a tagged face's closure and no
    vertex entry in a tagged face or edge.  `J` and `lipschitz` are those
    of the per-component computation they replace."""
    mesh = build_complex(geometry, census.H)
    for specs in census.FAMILIES.values():
        for spec in specs(mesh):
            t = tag_trace(mesh, spec)
            assert _entities(t) == _entities(trace_from_fine(mesh, t.node_mask, t.edge_mask))
            nmask, emask = trace_mod._fine_closure(mesh, t.coarse_faces, t.coarse_edges,
                                                   t.vertex_nodes)
            assert np.array_equal(nmask, t.node_mask) and np.array_equal(emask, t.edge_mask)
            fe = trace_mod._fine_closure(mesh, t.coarse_faces, (), ())[1]
            assert not any(fe[e.fine_edges].all() for e in t.coarse_edges), spec
            en = trace_mod._fine_closure(mesh, t.coarse_faces, t.coarse_edges, ())[0]
            assert not en[t.vertex_nodes].any(), spec
            assert (t.J, t.lipschitz) == _reference_J_lipschitz(t), spec


def test_interfaces_of_l(lshape4):
    ifs = interface_faces(lshape4)
    assert [i.blocks for i in ifs] == [(0, 1), (0, 2)]
    for i in ifs:
        # a full unit face: (1/h+1)^2 nodes
        assert len(i.fine_nodes) == 25


def test_coarse_edges_cube(cube4):
    surf = surface(cube4)
    assert len(surf.faces) == 6
    assert len(surf.edges) == 12
    assert len(surf.vertices) == 8


def test_group_aliases(cube4):
    t = tag_trace(cube4, ["boundary"])
    assert len(t.coarse_faces) == 6
    assert t.node_mask.sum() == cube4.boundary_node_mask().sum()


# the per-face loops the plane keys were once computed with
def _reference_face_plane_keys(mesh, fids):
    tri = mesh.faces[fids]
    v = mesh.verts_int
    n = np.cross(v[tri[:, 1]] - v[tri[:, 0]], v[tri[:, 2]] - v[tri[:, 0]])
    own = mesh.face_tets[fids, 0]
    opp = np.empty(len(fids), dtype=np.int64)
    tv = mesh.tets[own]
    for k in range(len(fids)):
        s = set(tv[k]) - set(tri[k])
        opp[k] = s.pop()
    inward = np.einsum("ij,ij->i", n, v[opp] - v[tri[:, 0]])
    n = np.where((inward > 0)[:, None], -n, n)
    keys = []
    for k in range(len(fids)):
        nr = trace_mod._reduce_vec(n[k])
        keys.append((nr, int(np.dot(nr, v[tri[k, 0]]))))
    return keys


def _reference_interior_plane_set(mesh):
    ifids = np.nonzero(~mesh.boundary_face_mask())[0]
    tri = mesh.faces[ifids]
    v = mesh.verts_int
    n = np.cross(v[tri[:, 1]] - v[tri[:, 0]], v[tri[:, 2]] - v[tri[:, 0]])
    out = set()
    for k in range(len(ifids)):
        nr = trace_mod._canon_sign(trace_mod._reduce_vec(n[k]))
        out.add((nr, int(np.dot(nr, v[tri[k, 0]]))))
    return out


# the hand-rolled walk the entity groupings were once computed with: depth
# first over items sharing a key, components in the order of their first item
def _reference_linked_components(keysets):
    holders = {}
    for i, ks in enumerate(keysets):
        for k in np.ravel(ks).tolist():
            holders.setdefault(k, []).append(i)
    seen, comps = set(), []
    for start in range(len(keysets)):
        if start in seen:
            continue
        comp, stack = [start], [start]
        seen.add(start)
        while stack:
            for k in np.ravel(keysets[stack.pop()]).tolist():
                for j in holders[k]:
                    if j not in seen:
                        seen.add(j)
                        comp.append(j)
                        stack.append(j)
        comps.append(np.array(sorted(comp), dtype=np.int64))
    return comps


# the per-face and per-edge loops the surface was once built with, on the
# reference plane keys and groupings above
def _reference_surface(mesh):
    bfids = np.nonzero(mesh.boundary_face_mask())[0]
    keys = _reference_face_plane_keys(mesh, bfids)
    interior_planes = _reference_interior_plane_set(mesh)
    face_edge_ids = mesh.face_edges()[bfids]
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    pid = np.array([rank[key] for key in keys], dtype=np.int64)
    faces = []
    patches = _reference_linked_components(pid[:, None] * mesh.ne + face_edge_ids)
    for comp in sorted(patches, key=lambda c: pid[c[0]]):
        key = keys[comp[0]]
        ffaces = bfids[comp]
        canon = trace_mod._canon_sign(key[0])
        faces.append(trace_mod.CoarseFace(
            id=-1, name=trace_mod._face_name(key, mesh.denom), plane=key,
            fine_faces=ffaces,
            fine_edges=np.unique(face_edge_ids[comp].ravel()),
            fine_nodes=np.unique(mesh.faces[ffaces].ravel()),
            boundary_edges=mesh.patch_boundary(ffaces),
            concave=(canon, key[1] if key[0] == canon else -key[1]) in interior_planes,
            outward_sign=None))
    trace_mod._number(faces)
    v = mesh.verts_int
    for f in faces:
        tri = mesh.faces[f.fine_faces]
        n = np.cross(v[tri[:, 1]] - v[tri[:, 0]], v[tri[:, 2]] - v[tri[:, 0]])
        f.outward_sign = np.sign(n @ np.array(f.plane[0], dtype=np.int64)).astype(np.int8)

    edge_planes = {}
    for k, key in enumerate(keys):
        for e in face_edge_ids[k]:
            edge_planes.setdefault(int(e), set()).add(key)
    crease = np.array(sorted(e for e, ps in edge_planes.items() if len(ps) >= 2),
                      dtype=np.int64)
    lines = []
    for e in crease:
        a, b = mesh.edges[e]
        d = trace_mod._canon_sign(trace_mod._reduce_vec(v[b] - v[a]))
        m = tuple(int(x) for x in np.cross(v[a], np.array(d, dtype=np.int64)))
        lines.append((d, m, tuple(sorted(edge_planes[e]))))
    rank = {key: i for i, key in enumerate(sorted(set(lines)))}
    lid = np.array([rank[key] for key in lines], dtype=np.int64)
    edges = []
    chains = _reference_linked_components(lid[:, None] * mesh.nv + mesh.edges[crease])
    for comp in sorted(chains, key=lambda c: lid[c[0]]):
        d = np.array(lines[comp[0]][0], dtype=np.int64)
        fe = crease[comp]
        nodes = np.unique(mesh.edges[fe].ravel())
        nodes = nodes[np.argsort(v[nodes] @ d, kind="stable")]
        fe = np.array(sorted(fe, key=lambda e: int(v[mesh.edges[e]].min(axis=0) @ d)))
        edges.append(trace_mod.CoarseEdge(id=-1, name=trace_mod._edge_name(mesh, nodes),
                                          fine_edges=fe, fine_nodes=nodes))
    trace_mod._number(edges)

    info = trace_mod.CATALOG.get(mesh.name)
    vertices = {}
    if info is not None:
        idx = {tuple(p): i for i, p in enumerate(v.tolist())}
        bn = mesh.boundary_node_mask()
        cset = {tuple(int(x) * mesh.denom for x in c)
                for blk in info.complex.blocks for c in blk.corners()}
        for c in sorted(cset):
            nid = idx.get(c)
            if nid is not None and bn[nid]:
                bu = tuple(Fraction(x, mesh.denom) for x in c)
                vertices[f"v:({bu[0]},{bu[1]},{bu[2]})"] = nid
    aliases = dict(info.aliases) if info is not None else {}
    return trace_mod.Surface(mesh.name, faces, edges, vertices, aliases)


def _trace_specs(surf):
    faces = [f.name for f in surf.faces]
    pairs = [[a, b] for i, a in enumerate(faces) for b in faces[i + 1:]]
    return ([["boundary"], [e.name for e in surf.edges], list(surf.vertices)]
            + [[f] for f in faces] + pairs)


def _components(mesh, specs):
    """Per trace: its entities grouped by common fine nodes, J and lipschitz."""
    out = []
    for spec in specs:
        t = tag_trace(mesh, spec)
        names = [f.name for f in t.coarse_faces] + [e.name for e in t.coarse_edges] + t.vertex_nodes
        groups = trace_mod.linked_components(
            [f.fine_nodes for f in t.coarse_faces] + [e.fine_nodes for e in t.coarse_edges]
            + [[n] for n in t.vertex_nodes])
        out.append(([[names[i] for i in g] for g in groups], t.J, t.lipschitz))
    return out


@pytest.mark.parametrize("geometry", catalog_names(include_internal=True))
def test_plane_keys_match_reference_loop(geometry, monkeypatch):
    for h in (0.5, 0.25, 0.125):
        mesh = build_complex(geometry, h)
        new = surface(mesh)
        specs = _trace_specs(new)
        new_components = _components(mesh, specs)
        with monkeypatch.context() as mp:
            mp.setattr(trace_mod, "linked_components", _reference_linked_components)
            old = _reference_surface(mesh)
            mp.setitem(mesh._cache, "surface", old)
            assert _components(mesh, specs) == new_components
        assert [f.name for f in new.faces] == [f.name for f in old.faces]
        assert [f.concave for f in new.faces] == [f.concave for f in old.faces]
        for a, b in zip(new.faces, old.faces):
            assert (a.id, a.plane) == (b.id, b.plane)
            for field in ("fine_faces", "fine_edges", "fine_nodes", "boundary_edges",
                          "outward_sign"):
                x, y = getattr(a, field), getattr(b, field)
                assert x.dtype == y.dtype and np.array_equal(x, y), field
        assert [e.name for e in new.edges] == [e.name for e in old.edges]
        for a, b in zip(new.edges, old.edges):
            assert a.id == b.id
            assert np.array_equal(a.fine_edges, b.fine_edges)
            assert np.array_equal(a.fine_nodes, b.fine_nodes)
        assert new.vertices == old.vertices


@pytest.mark.parametrize("geometry", catalog_names(include_internal=True))
def test_incidence_table_matches_fine_sets(geometry):
    for h in (0.5, 0.25):
        mesh = build_complex(geometry, h)
        surf = surface(mesh)
        covered = np.zeros(mesh.ne, dtype=bool)
        for e in surf.edges:
            assert np.all(surf.edge_of[e.fine_edges] == e.id)
            covered[e.fine_edges] = True
            held = np.isin(mesh.tet_edges, e.fine_edges).any(axis=1)
            blocks = np.unique(mesh.block_of_tet[held])
            assert e.block == (blocks[0] if len(blocks) == 1 else -1), e.name
        assert np.all(surf.edge_of[~covered] == -1)
        for f in surf.faces:
            assert np.all(surf.edge_of[f.boundary_edges] >= 0), f.name
            ref = tuple(e.id for e in surf.edges
                        if np.isin(e.fine_edges, f.boundary_edges).all())
            assert f.edges == ref, f.name
            tets = mesh.face_tets[f.fine_faces]
            blocks = np.unique(mesh.block_of_tet[tets[tets >= 0]])
            assert f.block == (blocks[0] if len(blocks) == 1 else -1), f.name
    if geometry == "three_cube_L":
        assert surf.face_by_name("z=0").block == -1
    if geometry == "vertex_junction_star3":
        # every face lies on one pyramid
        for f in surf.faces:
            assert f.block >= 0
            assert f.block == mesh.block_of_tet[mesh.face_tets[f.fine_faces[0], 0]]
