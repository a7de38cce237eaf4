import dataclasses
import gc
import io
import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import helmdec
from helmdec import fem
from helmdec import mesh as hmesh
from helmdec.geometry import (BlockComplex, Brick, GeometryError, Pyramid,
                              catalog_info, catalog_names)
from helmdec.mesh import (build_complex, extract_block, extract_tets, read_mesh,
                          write_mesh)
from helmdec.operators import rh_matrix
from helmdec.trace import interface_faces, surface

CATALOG_8 = [
    "unit_cube", "three_cube_L", "pyramid", "cube_in_box", "four_edge_cube",
    "edge_junction_pair", "vertex_junction_pair", "vertex_junction_star3",
]


def brute_force_kuhn_counts(n):
    """Independent enumeration of the n x n x n Kuhn subdivision."""
    verts = {(i, j, k) for i in range(n + 1) for j in range(n + 1) for k in range(n + 1)}
    tets = 6 * n**3
    return len(verts), tets


def test_unit_cube_half():
    m = build_complex("unit_cube", 0.5)
    nv, nt = brute_force_kuhn_counts(2)
    assert (m.nv, m.nt) == (nv, nt) == (27, 48)


def test_unit_cube_single_cell():
    m = build_complex("unit_cube", 1)
    assert (m.nv, m.nt, m.ne) == (8, 6, 19)


def test_three_cube_block_labels():
    m = build_complex("three_cube_L", 0.5)
    assert sorted(set(m.block_of_tet.tolist())) == [0, 1, 2]
    # union connected: every block shares nodes with another
    masks = [extract_block(m, b).node_mask(m.nv) for b in range(3)]
    assert (masks[0] & masks[1]).any() and (masks[0] & masks[2]).any()


@pytest.mark.parametrize("name", ["unit_cube", "three_cube_L", "pyramid",
                                  "vertex_junction_star3"])
def test_build_complex_levels_nest(name):
    """Every tet at h = 1/4 lies in one tet at h = 1/2 of the same block, and
    each coarse tet holds eight: integer barycentrics on the lattice 1/16."""
    coarse, fine = build_complex(name, 0.5), build_complex(name, 0.25)
    assert fine.h == coarse.h / 2
    P = coarse.verts_int[coarse.tets] * 8
    c = P[:, 1:] - P[:, :1]
    adj = np.stack([np.cross(c[:, 1], c[:, 2]), np.cross(c[:, 2], c[:, 0]),
                    np.cross(c[:, 0], c[:, 1])], axis=1)
    det = np.einsum("cd,cd->c", adj[:, 0], c[:, 0])
    assert (det > 0).all()

    def bary(x):  # (m,3) lattice points -> (m, nt_coarse, 4) numerators
        lam = np.einsum("cid,mcd->mci", adj, x[:, None, :] - P[None, :, 0])
        return np.concatenate([(det - lam.sum(axis=2))[..., None], lam], axis=2)

    corners = fine.verts_int[fine.tets] * 4
    inside = (bary(corners.sum(axis=1) // 4) > 0).all(axis=2)  # centroids
    assert (inside.sum(axis=1) == 1).all()
    parent = inside.argmax(axis=1)
    for k in range(4):
        assert (bary(corners[:, k])[np.arange(fine.nt), parent] >= 0).all()
    assert np.array_equal(np.bincount(parent, minlength=coarse.nt),
                          np.full(coarse.nt, 8))
    assert np.array_equal(fine.block_of_tet, coarse.block_of_tet[parent])


@pytest.mark.parametrize("name", catalog_names())
def test_coarser_prolongation_is_exact(name):
    """From 2h to h, P interpolates the coordinate functions exactly, and
    the fine nodes are the coarse vertices plus one midpoint per coarse edge."""
    for h in (0.25, 0.125):
        fine = build_complex(name, h)
        coarse, P, vids = fine.coarser()
        assert coarse.h == 2 * fine.h
        assert coarse.nv + coarse.ne == fine.nv
        assert np.array_equal(fine.verts_int[vids], 2 * coarse.verts_int)
        for d in range(3):
            assert np.array_equal(P @ coarse.verts[:, d], fine.verts[:, d])


@pytest.mark.parametrize("name", catalog_names(include_internal=True))
def test_vertex_merge_and_node_ids(name):
    """Vertices come in lexicographic order, the tets match a row-sort merge
    of the block meshes, and node_ids inverts verts_int."""
    blocks = catalog_info(name).complex.blocks
    for k in (1, 2, 3):
        mesh = build_complex(name, 1.0 / (1 << k))
        v = mesh.verts_int
        assert (np.lexsort(v.T[::-1]) == np.arange(mesh.nv)).all()
        allc = np.concatenate([
            (hmesh._mesh_brick(b, 1 << k) if isinstance(b, Brick)
             else hmesh._mesh_pyramid(b, k)).reshape(-1, 3) for b in blocks])
        uverts, inv = np.unique(allc, axis=0, return_inverse=True)
        assert np.array_equal(v, uverts)
        assert np.array_equal(mesh.tets, hmesh._canonical_tets(uverts, inv.reshape(-1, 4)))
        assert np.array_equal(mesh.node_ids(v), np.arange(mesh.nv))
        off = v.max(axis=0) + [0, 0, 1]
        with pytest.raises(GeometryError, match=re.escape(
                "(" + ",".join(str(Fraction(int(x), 1 << k)) for x in off) + ")")):
            mesh.node_ids(np.vstack([v[:3], off]))


def test_coarser_ends_the_hierarchy():
    fine = build_complex("three_cube_L", 0.25)
    assert fine.coarser()[0].coarser() is None  # h = 1/2
    assert extract_block(fine, 0).mesh.coarser() is None  # not in the catalog
    cube = build_complex("unit_cube", 0.25)
    part = extract_tets(cube, cube.verts[cube.tets[:, 0], 0] < 0.5, "unit_cube")
    assert part.mesh.coarser() is None  # a catalog name, but not nested


def _quasi_uniformity_ratio(m):
    ln = m.edge_lengths()
    return float(ln.max() / ln.min())


def test_refined_mesh_is_conforming_and_quasi_uniform():
    for name in ("unit_cube", "pyramid", "three_cube_L"):
        for h in (0.25, 0.125):
            # the TetMesh constructor rejects non-conforming input
            m = build_complex(name, h)
            assert _quasi_uniformity_ratio(m) <= 4.0, (name, h)


def test_refine_preserves_ratio():
    # Kuhn cells: the ratio is the same on every level
    for name in ("unit_cube", "three_cube_L"):
        ratio = _quasi_uniformity_ratio(build_complex(name, 0.5))
        for h in (0.25, 0.125):
            assert _quasi_uniformity_ratio(build_complex(name, h)) == pytest.approx(ratio)


@pytest.mark.parametrize("name", ["three_cube_L", "pyramid", "vertex_junction_star3"])
def test_face_tets_match_reference_loop(name):
    m = build_complex(name, 0.25)
    finv = m.tet_faces.ravel()
    ref = np.full((m.nf, 2), -1, dtype=np.int64)
    for k in np.argsort(finv, kind="stable"):
        f = finv[k]
        ref[f, int(ref[f, 0] >= 0)] = k // 4
    assert np.array_equal(m.face_tets, ref)


def test_face_edges_and_patch_boundary(cube4):
    fe = cube4.face_edges()
    for f in (0, 7, cube4.nf - 1):
        a, b, c = cube4.faces[f]
        for k, (u, w) in enumerate([(a, b), (b, c), (a, c)]):
            assert tuple(cube4.edges[fe[f, k]]) == (u, w)
    fids = np.nonzero(cube4.boundary_face_mask())[0]
    ref = [e for e in range(cube4.ne) if np.count_nonzero(fe[fids] == e) == 1]
    assert cube4.patch_boundary(fids).tolist() == ref == []
    one = cube4.patch_boundary(fids[:1])
    assert sorted(one.tolist()) == sorted(fe[fids[0]].tolist())


@pytest.mark.parametrize("name", catalog_names(include_internal=True))
def test_face_edges_match_edge_key_search(name):
    """The edges read from the tet tables equal the searchsorted lookup of
    the faces' packed vertex pairs, for meshes with swapped tets too."""
    for h in (0.5, 0.25):
        m = build_complex(name, h)
        f = m.faces
        keys = f[:, [0, 1, 0]].astype(np.int64) * m.nv + f[:, [1, 2, 2]]
        assert np.array_equal(m.face_edges(), m.edge_ids(keys.ravel()).reshape(-1, 3))


INDEX_TABLES = ("tets", "edges", "faces", "tet_edges", "tet_faces", "face_tets", "block_of_tet")


@pytest.mark.parametrize("name", CATALOG_8)
def test_index_tables_are_int32(name):
    """Every index table and the memoized face edges are int32, on built,
    extracted and read meshes alike; coordinates and packed keys stay int64."""
    m = build_complex(name, 0.25)
    text = io.StringIO()
    write_mesh(m, text)
    text.seek(0)
    for mesh in (m, extract_block(m, 0).mesh, read_mesh(text)[0]):
        for table in INDEX_TABLES:
            assert getattr(mesh, table).dtype == np.int32, (mesh.name, table)
        assert mesh.face_edges().dtype == np.int32
        assert mesh.verts_int.dtype == np.int64
        mesh.edge_ids(hmesh._pack_pairs(mesh.edges[:1], mesh.nv))
        mesh.node_ids(mesh.verts_int[:1])
        assert mesh._cache["edge_keys"].dtype == mesh._cache["node_keys"][2].dtype == np.int64


def test_packed_keys_are_exact_past_int32():
    """From int32 ids, the packed pair and triple keys and the keys behind
    edge_ids and node_ids are exact int64 values past 2^31: a 70,000-node
    mesh whose one tet uses ids near the top, on lattice points 100 apart."""
    nv = 70_000
    ids = np.array([[69_997, 69_998, 69_999]], dtype=np.int32)
    assert hmesh._pack_pairs(ids[:, 1:], nv).tolist() == [69_998 * nv + 69_999]
    assert hmesh._pack_triples(ids, nv).tolist() == [(69_997 * nv + 69_998) * nv + 69_999]
    grid = np.stack(np.meshgrid(*[np.arange(42)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    corners = [(38, 27, 26), (39, 27, 26), (39, 28, 26), (39, 28, 27)]
    tet = [x * 42 * 42 + y * 42 + z for x, y, z in corners]
    m = hmesh.TetMesh("far", 100 * grid[:nv], 1, np.array([tet]), np.zeros(1, dtype=int), 0)
    assert m.nv == nv and m.edges.dtype == np.int32 and m.edges.min() > 46_341
    keys = hmesh._pack_pairs(m.edges, nv)
    assert keys.dtype == np.int64 and keys.min() > 2**31
    assert keys.tolist() == [int(a) * nv + int(b) for a, b in m.edges]
    assert m.edge_ids(keys).tolist() == list(range(6))
    assert m.node_ids(m.verts_int[tet].astype(np.int32)).tolist() == sorted(tet)
    assert m._cache["node_keys"][2].max() > 2**31


def test_mesh_size_limit_names_the_mesh(monkeypatch):
    """A mesh with VERTEX_LIMIT or more vertices, or INDEX_LIMIT or more tets,
    edges or faces, raises a MeshSizeError naming the mesh and the count;
    one below passes.  VERTEX_LIMIT is the first vertex count whose largest
    face key, nv^3 - 1, does not fit in int64."""
    top = hmesh.VERTEX_LIMIT - 1
    assert hmesh._pack_triples(np.full((1, 3), top - 1), top).tolist() == [top**3 - 1]
    assert hmesh.VERTEX_LIMIT**3 - 1 > np.iinfo(np.int64).max
    m = build_complex("unit_cube", 0.5)
    counts = (("vertices", m.nv), ("tets", m.nt), ("edges", m.ne), ("faces", m.nf))
    assert [n for _, n in counts] == sorted(n for _, n in counts)
    for what, n in counts:
        limit = "VERTEX_LIMIT" if what == "vertices" else "INDEX_LIMIT"
        monkeypatch.setattr(hmesh, limit, n)
        with pytest.raises(hmesh.MeshSizeError, match=f"mesh unit_cube has {n} {what}, too many"):
            build_complex("unit_cube", 0.5)
        monkeypatch.setattr(hmesh, limit, n + 1)
    assert build_complex("unit_cube", 0.5).nf == m.nf


def test_euler_characteristic_catalog():
    for name in CATALOG_8:
        m = build_complex(name, 0.5)
        assert m.nv - m.ne + m.nf - m.nt == 1, name


def test_quasi_uniformity_all_catalog():
    for name in CATALOG_8:
        m = build_complex(name, 0.5)
        assert _quasi_uniformity_ratio(m) <= 4.0, name


def test_bad_geometry_and_bad_h():
    with pytest.raises(GeometryError):
        build_complex("dodecahedron", 0.5)
    with pytest.raises(GeometryError):
        build_complex("unit_cube", 0.3)
    with pytest.raises(GeometryError):
        build_complex("unit_cube", Fraction(2, 3))


def test_vertex_junction_blocks_share_one_node():
    m = build_complex("vertex_junction_pair", 0.25)
    shared = extract_block(m, 0).node_mask(m.nv) & extract_block(m, 1).node_mask(m.nv)
    assert shared.sum() == 1
    s3 = build_complex("vertex_junction_star3", 0.25)
    for a in range(3):
        for b in range(a + 1, 3):
            shared = (extract_block(s3, a).node_mask(s3.nv)
                      & extract_block(s3, b).node_mask(s3.nv))
            assert shared.sum() == 1


def test_edge_junction_blocks_share_edge_nodes():
    m = build_complex("edge_junction_pair", 0.25)
    shared = extract_block(m, 0).node_mask(m.nv) & extract_block(m, 1).node_mask(m.nv)
    # the common edge has 1/h + 1 lattice nodes
    assert shared.sum() == 5


def test_disconnected_union_rejected():
    bad = BlockComplex(
        "bad2",
        (Brick((0, 0, 0), (1, 1, 1)), Brick((3, 3, 3), (4, 4, 4))),
    )
    with pytest.raises(GeometryError):
        bad.validate()


def test_pyramid_shape_is_catalogued():
    info = catalog_info("pyramid")
    pyr = info.complex.blocks[0]
    assert isinstance(pyr, Pyramid)
    assert pyr.base_corners().min() == 0 and pyr.base_corners().max() == 2


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(CATALOG_8))
def test_export_import_roundtrip(name):
    m = build_complex(name, 0.5)
    buf = io.StringIO()
    write_mesh(m, buf, ["z=0"])
    buf.seek(0)
    m2, tags = read_mesh(buf)
    assert tags == ["z=0"]
    assert np.array_equal(m.verts_int, m2.verts_int)
    assert np.array_equal(m.tets, m2.tets)
    assert np.array_equal(m.block_of_tet, m2.block_of_tet)
    assert (m.nv, m.ne, m.nf, m.nt) == (m2.nv, m2.ne, m2.nf, m2.nt)


def test_catalog_is_closed():
    assert set(CATALOG_8) <= set(catalog_names())


def _drop_line(text, prefix):
    lines = text.splitlines(keepends=True)
    k = max(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    return "".join(lines[:k] + lines[k + 1:])


def _bad_tet_index(text):
    lines = text.splitlines(keepends=True)
    k = next(i for i, ln in enumerate(lines) if ln.startswith("t "))
    parts = lines[k].split()
    parts[3] = str(10**6)
    lines[k] = " ".join(parts) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("corrupt, message", [
    (lambda t: _drop_line(t, "v "), r"vertex \d+ missing"),
    (lambda t: _drop_line(t, "t "), r"tet \d+ missing"),
    (_bad_tet_index, r"line \d+: tet 0 has a vertex id outside"),
    # comment lines before the header are skipped and counted
    (lambda t: "# a\n# b\n" + t.replace("counts", "count", 1), r"line 4: malformed counts"),
], ids=["missing-vertex", "missing-tet", "tet-index-out-of-range", "commented-bad-counts"])
def test_read_mesh_rejects_bad_files(corrupt, message):
    buf = io.StringIO()
    write_mesh(build_complex("unit_cube", 0.5), buf)
    with pytest.raises(ValueError, match=message):
        read_mesh(io.StringIO(corrupt(buf.getvalue())))


def test_memo_is_shared_across_threads():
    """Threads asking a fresh mesh for the same derived data get the same
    objects: every build runs once."""
    calls = [surface, interface_faces, rh_matrix,
             lambda m: fem.assemble(m, "V", "stiffness")]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            mesh = build_complex("three_cube_L", 0.125)
            start = threading.Barrier(4)
            got = [None] * 4

            def work(k):
                start.wait()
                got[k] = [f(mesh) for f in calls]

            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
            assert all(all(a is b for a, b in zip(got[0], g)) for g in got[1:])
    finally:
        sys.setswitchinterval(switch)


def test_memoized_arrays_are_read_only(cube2):
    """Memoized arrays are frozen: the shape-class table, the per-tet
    volumes and the curl matrix's arrays after their compaction."""
    C = fem._curl_matrix(cube2)
    for a in (cube2.verts, cube2.edge_lengths(), cube2.boundary_edge_mask(),
              cube2.face_edges(), *fem.shape_table(cube2), fem.tet_volumes(cube2),
              C.data, C.indices, C.indptr):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 0
    assert all(a.flags.owndata for a in (C.data, C.indices, C.indptr))


def _memo_values(mesh, seen):
    """Every value in the memo of `mesh` and of the meshes reachable from it
    (block submeshes, extended meshes), with the items of tuples, lists,
    dicts and dataclasses."""
    if id(mesh) in seen:
        return
    seen.add(id(mesh))
    stack = list(mesh._cache.values())
    while stack:
        x = stack.pop()
        if isinstance(x, hmesh.TetMesh):
            yield from _memo_values(x, seen)
            continue
        yield mesh, x
        if isinstance(x, (tuple, list)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif dataclasses.is_dataclass(x):
            stack.extend(vars(x).values())


def _buffer_nbytes(a):
    """Bytes of the buffer an array holds or views."""
    return a.nbytes if a.base is None else a.base.nbytes


def test_memoized_sparse_arrays_are_compact(monkeypatch):
    """After a four-edge decomposition and a face-chain one (block
    submeshes), no sparse matrix in a reachable memo sits on a data or
    indices buffer longer than its nnz entries, the kernel's cached
    transposes share the arrays of G, r_h and C, no memo holds a per-tet
    gradient or gram table, and each mesh builds its shape classes once."""
    from helmdec.decompose import decompose, random_admissible_field
    from helmdec.trace import tag_trace

    built = []
    classes = fem._shape_classes
    monkeypatch.setattr(fem, "_shape_classes", lambda m: built.append(m) or classes(m))
    seen, values = set(), []
    for name, spec in (("four_edge_cube", ["e:x=0,y=0", "e:x=1,y=0", "e:x=1,y=1", "e:x=0,y=1"]),
                       ("three_cube_L", ["x=0"])):
        mesh = build_complex(name, 0.25)
        trace = tag_trace(mesh, spec)
        decompose(random_admissible_field(mesh, trace, 3), trace)
        values += _memo_values(mesh, seen)
    blocks = {id(x.mesh) for _, x in values if isinstance(x, hmesh.Submesh)}
    assert blocks and len({id(m) for m, _ in values}) > 2
    mats = [x for _, x in values if sp.issparse(x)]
    assert len(mats) > 20
    for A in mats:
        for a in (A.data, A.indices):
            assert len(a) == A.nnz and _buffer_nbytes(a) == a.nbytes
    for m, x in values:
        if isinstance(x, np.ndarray):
            assert x.shape not in ((m.nt, 4, 3), (m.nt, 4, 4))
    assert built and len({id(m) for m in built}) == len(built)
    meshes = {id(m): m for m, _ in values if "kernel_rhs_transposes" in m._cache}
    assert meshes
    for m in meshes.values():
        for A, At in zip((fem.gradient_map(m), rh_matrix(m), fem._curl_matrix(m)),
                         m._cache["kernel_rhs_transposes"]):
            for name in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(A, name), getattr(At, name))


def test_next_build_releases_a_collected_mesh(monkeypatch):
    """After a mesh is collected, the next mesh built trims the heap once;
    a build with no collection since does not."""
    trims = []
    monkeypatch.setattr(hmesh, "_malloc_trim", trims.append)
    first = build_complex("unit_cube", 0.5)   # settles a trim left due
    trims.clear()
    second = build_complex("unit_cube", 0.5)
    assert trims == []
    del first
    gc.collect()
    third = build_complex("unit_cube", 0.5)
    build_complex("unit_cube", 0.5)
    assert trims == [0]
    assert second.nt == third.nt


def test_only_mesh_module_touches_the_memo():
    """Only mesh.py reads the memo, locks it or holds weak references (its
    trim finalizer); and no module calls the cyclic collector, since meshes
    are freed by reference count."""
    src = Path(helmdec.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert not re.search(r"\bgc\.collect\b", text), path.name
        if path.name != "mesh.py":
            assert not re.search(r"\._cache\b|\bthreading\b|\bweakref\b", text), path.name


def test_no_environment_knob_or_thread_pool():
    """No module reads the environment, and only mesh.py names threading or
    concurrent (the memo lock): a sweep runs its levels in turn, and the
    same config gives the same run whatever the shell exports."""
    src = Path(helmdec.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert not re.search(r"\bos\.(environ|getenv)\b", text), path.name
        if path.name != "mesh.py":
            assert not re.search(r"\b(threading|concurrent)\b", text), path.name
