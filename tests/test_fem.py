import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from helmdec import fem
from helmdec.geometry import catalog_names
from helmdec.mesh import TET_EDGES, TetMesh, _signed_volumes, build_complex
from helmdec.operators import rh_matrix


def assembled(mesh, space, kind, weight=None):
    """fem.assemble, with the vector nodal space Z3 as the Kronecker product
    of the scalar Z form with the 3x3 identity."""
    if space == "Z3":
        return sp.kron(fem.assemble(mesh, "Z", kind, weight), sp.eye(3), format="csr")
    return fem.assemble(mesh, space, kind, weight)


def test_curl_grad_is_zero_integer_identity(cube4):
    G = fem.gradient_map(cube4)
    C = fem.curl_map(cube4)
    assert abs(C @ G).max() == 0.0


def test_gradient_map_examples(cube4):
    G = fem.gradient_map(cube4)
    p = np.ones(cube4.nv)
    assert abs(G @ p).max() == 0.0
    px = cube4.verts[:, 0].copy()
    lam = G @ px
    d = cube4.edge_vectors()
    assert np.allclose(lam, d[:, 0])  # lambda_e = h on x-aligned unit-h edges


def test_constant_mass_is_volume(cube4, lshape4):
    for mesh, vol in ((cube4, 1.0), (lshape4, 3.0)):
        one = np.ones(mesh.nv)
        M = fem.assemble(mesh, "Z", "mass")
        K = fem.assemble(mesh, "Z", "stiffness")
        assert float(one @ (M @ one)) == pytest.approx(vol, rel=1e-12)
        assert abs(float(one @ (K @ one))) < 1e-12


def test_unit_circulation_single_face_flux(cube2):
    C = fem.curl_map(cube2)
    f = 7
    tri = cube2.faces[f]
    v = np.zeros(cube2.ne)
    # circulate around face f following its canonical boundary orientation
    pairs = [(tri[0], tri[1], 1.0), (tri[1], tri[2], 1.0), (tri[0], tri[2], -1.0)]
    for a, b, s in pairs:
        e = cube2.edge_ids(np.array([int(a) * cube2.nv + int(b)]))[0]
        v[e] = s
    flux = C @ v
    assert flux[f] == pytest.approx(3.0)  # each edge contributes its moment
    # gradients map to zero
    G = fem.gradient_map(cube2)
    rng = np.random.default_rng(3)
    assert abs(C @ (G @ rng.uniform(-1, 1, cube2.nv))).max() == 0.0


# -- independent quadrature oracle ----------------------------------------------

_QP_A = 0.5854101966249685
_QP_B = 0.1381966011250105
_QPTS = np.array(
    [
        [_QP_A, _QP_B, _QP_B, _QP_B],
        [_QP_B, _QP_A, _QP_B, _QP_B],
        [_QP_B, _QP_B, _QP_A, _QP_B],
        [_QP_B, _QP_B, _QP_B, _QP_A],
    ]
)
_QW = np.full(4, 0.25)


def per_tet_geometry(mesh):
    """(volumes, gradients, grams, signed Whitney curls) of every tet by the
    cofactor formula: grad(lam_k) is the cross product of the other two
    edge vectors from vertex 0 over their triple product.  The reference of
    the shape-class table."""
    v, t = mesh.verts, mesh.tets
    e1, e2, e3 = (v[t[:, k]] - v[t[:, 0]] for k in (1, 2, 3))
    cof = np.stack([np.cross(e2, e3), np.cross(e3, e1), np.cross(e1, e2)], axis=1)
    det = np.einsum("td,td->t", e1, cof[:, 0])
    g = np.empty((len(t), 4, 3))
    g[:, 1:, :] = cof / det[:, None, None]
    g[:, 0, :] = -g[:, 1:, :].sum(axis=1)
    curl = np.stack([2.0 * np.cross(g[:, i, :], g[:, j, :]) for (i, j) in TET_EDGES],
                    axis=2) * mesh.tet_edge_sign[:, None, :]
    return det / 6.0, g, np.einsum("tad,tbd->tab", g, g), curl


def _whitney_values(mesh, coefs, lam):
    """(nt,3) Whitney field values at one barycentric point."""
    g = per_tet_geometry(mesh)[1]
    sc = coefs[mesh.tet_edges] * mesh.tet_edge_sign
    out = np.zeros((mesh.nt, 3))
    for k, (i, j) in enumerate(TET_EDGES):
        out += sc[:, k, None] * (lam[i] * g[:, j, :] - lam[j] * g[:, i, :])
    return out


def _whitney_curls(mesh, coefs):
    """(nt,3) per-tet curls by the cross-product loop over the local Whitney
    functions, independent of the curl matrix."""
    g = per_tet_geometry(mesh)[1]
    sc = coefs[mesh.tet_edges] * mesh.tet_edge_sign
    out = np.zeros((mesh.nt, 3))
    for k, (i, j) in enumerate(TET_EDGES):
        out += sc[:, k, None] * 2.0 * np.cross(g[:, i, :], g[:, j, :])
    return out


def quadrature_form(u, v, kind):
    """Second-order Gauss evaluation of the mass/stiffness bilinear forms.

    Integrands are polynomial of degree <= 2, so the rule is exact up to
    roundoff; the evaluation path (pointwise basis values) is independent
    of the closed-form assembly.
    """
    mesh = u.mesh
    vol, g, _, _ = per_tet_geometry(mesh)
    if kind == "stiffness" and isinstance(u, fem.EdgeField):
        cu = _whitney_curls(mesh, u.values)
        cv = _whitney_curls(mesh, v.values)
        return float(np.sum(vol * np.einsum("td,td->t", cu, cv)))
    if kind == "stiffness":
        ut = u.values[mesh.tets]
        vt = v.values[mesh.tets]
        if ut.ndim == 2:
            gu = np.einsum("tad,ta->td", g, ut)
            gv = np.einsum("tad,ta->td", g, vt)
            return float(np.sum(vol * np.einsum("td,td->t", gu, gv)))
        gu = np.einsum("tad,tac->tdc", g, ut)
        gv = np.einsum("tad,tac->tdc", g, vt)
        return float(np.sum(vol * np.einsum("tdc,tdc->t", gu, gv)))
    # mass forms by quadrature
    total = np.zeros(mesh.nt)
    for q in range(len(_QW)):
        lam = _QPTS[q]
        if isinstance(u, fem.EdgeField):
            uu = _whitney_values(mesh, u.values, lam)
            vv = _whitney_values(mesh, v.values, lam)
            total += _QW[q] * np.einsum("td,td->t", uu, vv)
        elif isinstance(u, fem.NodalField):
            uu = np.einsum("a,ta->t", lam, u.values[mesh.tets])
            vv = np.einsum("a,ta->t", lam, v.values[mesh.tets])
            total += _QW[q] * uu * vv
        else:
            uu = np.einsum("a,tac->tc", lam, u.values[mesh.tets])
            vv = np.einsum("a,tac->tc", lam, v.values[mesh.tets])
            total += _QW[q] * np.einsum("tc,tc->t", uu, vv)
    return float(np.sum(vol * total))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_quadratic_forms_match_quadrature_oracle(seed):
    mesh = build_complex("unit_cube", 0.25)
    rng = np.random.default_rng(seed)
    checks = [
        (fem.EdgeField(mesh, rng.uniform(-1, 1, mesh.ne)),
         fem.EdgeField(mesh, rng.uniform(-1, 1, mesh.ne)), "V"),
        (fem.NodalField(mesh, rng.uniform(-1, 1, mesh.nv)),
         fem.NodalField(mesh, rng.uniform(-1, 1, mesh.nv)), "Z"),
        (fem.NodalVectorField(mesh, rng.uniform(-1, 1, (mesh.nv, 3))),
         fem.NodalVectorField(mesh, rng.uniform(-1, 1, (mesh.nv, 3))), "Z3"),
    ]
    for u, v, space in checks:
        for kind in ("mass", "stiffness"):
            A = assembled(mesh, space, kind)
            lhs = float(u.values.ravel() @ (A @ v.values.ravel()))
            rhs = quadrature_form(u, v, kind)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_norms(cube4, rng):
    d = cube4.edge_vectors()
    const = fem.EdgeField(cube4, d[:, 0].copy())
    assert fem.norm(const, "L2") == pytest.approx(1.0, rel=1e-12)
    assert fem.norm(const, "curl_semi") < 1e-12
    G = fem.gradient_map(cube4)
    gv = fem.EdgeField(cube4, G @ rng.uniform(-1, 1, cube4.nv))
    assert fem.norm(gv, "curl_semi") < 1e-12
    z = fem.EdgeField(cube4, np.zeros(cube4.ne))
    for which in ("L2", "curl", "curl_semi"):
        assert fem.norm(z, which) == 0.0
    with pytest.raises(ValueError):
        fem.norm(const, "H1")
    with pytest.raises(ValueError):
        fem.norm(fem.NodalField(cube4, np.zeros(cube4.nv)), "curl")


def test_moment_sign_flips_with_orientation(cube4, rng):
    w = fem.NodalVectorField(cube4, rng.uniform(-1, 1, (cube4.nv, 3)))
    from helmdec.operators import edge_interpolate_rh

    lam = edge_interpolate_rh(w).values
    a, b = cube4.edges[5]
    flipped = 0.5 * (w.values[a] + w.values[b]) @ (cube4.verts[a] - cube4.verts[b])
    assert flipped == pytest.approx(-lam[5], rel=1e-12)


def test_zero_extension_preserves_norms():
    g = build_complex("cube_in_box", 0.25)
    from helmdec.decompose import _extended_mesh

    B = _extended_mesh(g, "cube_in_box_B")
    nmap = B.node_ids(g.verts_int)
    rng = np.random.default_rng(4)
    w = np.zeros((g.nv, 3))
    inner = ~g.boundary_node_mask()
    w[inner] = rng.uniform(-1, 1, (int(inner.sum()), 3))
    wg = fem.NodalVectorField(g, w)
    wb = np.zeros((B.nv, 3))
    wb[nmap] = w
    wB = fem.NodalVectorField(B, wb)
    for which in ("L2", "H1"):
        assert fem.norm(wB, which) == pytest.approx(fem.norm(wg, which), rel=1e-13)


def test_symmetry_flags(cube4, rng):
    for space in ("Z", "Z3", "V"):
        for kind in ("mass", "stiffness"):
            A = assembled(cube4, space, kind)
            assert abs(A - A.T).max() <= 1e-13 * max(abs(A).max(), 1.0)
    # no operator stores a coupling that sums to exactly zero, so no
    # factor carries fill for one
    for mesh in (cube4, build_complex("pyramid", 0.25)):
        ops = [fem._curl_matrix(mesh), fem.gradient_map(mesh), fem.curl_map(mesh),
               rh_matrix(mesh)]
        for weight in (None, rng.uniform(0.5, 2.0, mesh.nt)):
            ops += [fem.assemble(mesh, space, kind, weight)
                    for space in ("Z", "V") for kind in ("mass", "stiffness")]
        for A in ops:
            assert A.nnz and np.all(A.data != 0.0)


def _table_mesh(name):
    """A catalog mesh at h = 1/4, a block submesh ("block:<geometry>[b]") or
    the extended mesh of cube_in_box ("extension:cube_in_box_B")."""
    if name.startswith("block:"):
        from helmdec.mesh import extract_block

        geometry, b = name[6:-1].split("[")
        return extract_block(build_complex(geometry, 0.25), int(b)).mesh
    if name.startswith("extension:"):
        from helmdec.decompose import _extended_mesh

        return _extended_mesh(build_complex("cube_in_box", 0.25), name[10:])
    return build_complex(name, 0.25)


@pytest.mark.parametrize("name", catalog_names(include_internal=True)
                         + ["block:three_cube_L[1]", "extension:cube_in_box_B"])
def test_tet_geometry_is_exact(name):
    """The shape-class table, gathered per tet, reproduces the per-tet
    cofactor formula bit for bit: volumes, gradients, grams and signed
    curls.  Volumes are the exact integer triple products over 6 denom^3,
    and the cofactor gradients equal the inverse-matrix ones."""
    mesh = _table_mesh(name)
    tab = fem.shape_table(mesh)
    assert tab.cls.dtype == np.int32 and len(tab.cls) == mesh.nt
    ref = per_tet_geometry(mesh)
    for got, want in zip((tab.vol, tab.grad, tab.gram, tab.curl), ref):
        assert np.array_equal(got[tab.cls], want)
    assert np.array_equal(fem.tet_volumes(mesh), ref[0])
    assert np.array_equal(ref[0], _signed_volumes(mesh.verts_int, mesh.tets)
                          / (6 * mesh.denom ** 3))
    v, t = mesh.verts, mesh.tets
    e = np.stack([v[t[:, k]] - v[t[:, 0]] for k in (1, 2, 3)], axis=1)
    g = np.empty((mesh.nt, 4, 3))
    g[:, 1:, :] = np.transpose(np.linalg.inv(e), (0, 2, 1))
    g[:, 0, :] = -g[:, 1:, :].sum(axis=1)
    assert np.array_equal(g, ref[1])


@pytest.mark.parametrize("name", ["unit_cube", "pyramid", "three_cube_L"])
def test_vector_norms_match_kronecker_reference(name, rng):
    """Norms of a nodal vector field apply the scalar forms to its (nv, 3)
    array, bit-equal to the Kronecker-product matvec."""
    mesh = build_complex(name, 0.25)
    w = fem.NodalVectorField(mesh, rng.uniform(-1, 1, (mesh.nv, 3)))
    x = w.values.ravel()
    M, K = (float(x @ (assembled(mesh, "Z3", kind) @ x)) for kind in ("mass", "stiffness"))
    assert fem.norm(w, "L2") == float(np.sqrt(M))
    assert fem.norm(w, "H1") == float(np.sqrt(K + M))


def test_circulation_leaves_far_faces_untouched(cube4, rng):
    C = fem.curl_map(cube4)
    f = 3
    tri = cube4.faces[f]
    v = np.zeros(cube4.ne)
    for a, b, s in [(tri[0], tri[1], 1.0), (tri[1], tri[2], 1.0), (tri[0], tri[2], -1.0)]:
        e = cube4.edge_ids(np.array([int(a) * cube4.nv + int(b)]))[0]
        v[e] = s
    flux = C @ v
    touched = set(cube4.tet_faces[np.unique(cube4.face_tets[f])].ravel().tolist())
    far = [g for g in range(cube4.nf) if not set(cube4.faces[g]) & set(tri)]
    assert flux[f] == 3.0
    assert np.abs(flux[far]).max() == 0.0


def test_curl_map_matches_analytic_tet_curls(cube4, rng):
    v = fem.EdgeField(cube4, rng.uniform(-1, 1, cube4.ne))
    flux = fem.curl_map(cube4) @ v.values
    ct = fem.curl_of_edge_field(v)
    verts = cube4.verts
    tri = cube4.faces
    nvec = 0.5 * np.cross(verts[tri[:, 1]] - verts[tri[:, 0]],
                          verts[tri[:, 2]] - verts[tri[:, 0]])
    own = cube4.face_tets[:, 0]
    direct = np.einsum("fd,fd->f", nvec, ct[own])
    assert np.abs(flux - direct).max() < 1e-12


def test_curl_of_edge_field_matches_cross_product_loop(lshape4, rng):
    v = fem.EdgeField(lshape4, rng.uniform(-1, 1, lshape4.ne))
    g = per_tet_geometry(lshape4)[1]
    coef = v.values[lshape4.tet_edges] * lshape4.tet_edge_sign
    ref = np.zeros((lshape4.nt, 3))
    for k, (i, j) in enumerate(TET_EDGES):
        ref += coef[:, k, None] * 2.0 * np.cross(g[:, i, :], g[:, j, :])
    assert np.array_equal(fem.curl_of_edge_field(v), ref)


def _per_tet_edge_mass(mesh, weight):
    """The V mass from one local 6x6 matrix per tet, the reference of the
    shape-class gather."""
    vol, _, gg, _ = per_tet_geometry(mesh)
    w = vol if weight is None else vol * weight
    S4 = (1.0 + np.eye(4)) / 20.0
    loc = np.empty((mesh.nt, 6, 6))
    k, l = np.array(TET_EDGES).T
    for a, (i, j) in enumerate(TET_EDGES):
        loc[:, a] = (S4[i, k] * gg[:, j, l] - S4[i, l] * gg[:, j, k]
                     - S4[j, k] * gg[:, i, l] + S4[j, l] * gg[:, i, k])
    sign = mesh.tet_edge_sign.astype(float)
    loc *= w[:, None, None] * sign[:, :, None] * sign[:, None, :]
    te = mesh.tet_edges
    M = sp.coo_matrix((loc.ravel(), (np.repeat(te, 6, axis=1).ravel(), np.tile(te, (1, 6)).ravel())),
                      shape=(mesh.ne, mesh.ne)).tocsr()
    M.eliminate_zeros()
    return M


@pytest.mark.parametrize("name", catalog_names(include_internal=True))
def test_edge_mass_by_shape_class_equals_per_tet_formula(name, rng):
    """The V mass gathers one local matrix per tet shape class; with and
    without a tet weight it is bit-equal to the per-tet formula."""
    mesh = build_complex(name, 0.25)
    if name == "unit_cube":
        assert len(fem.shape_table(mesh).first) == 6  # the Kuhn tets
    for weight in (None, rng.uniform(0.5, 2.0, mesh.nt)):
        A, ref = fem.assemble(mesh, "V", "mass", weight), _per_tet_edge_mass(mesh, weight)
        for a, b in ((A.indptr, ref.indptr), (A.indices, ref.indices), (A.data, ref.data)):
            assert np.array_equal(a, b)


def test_edge_mass_refuses_shapes_too_varied_to_pack(cube4):
    """Tet shapes whose integer keys would overflow int64 raise a
    PreconditionError naming the mesh."""
    big = TetMesh("unit_cube", cube4.verts_int * 2**20, cube4.denom, cube4.tets,
                  cube4.block_of_tet, cube4.level)
    with pytest.raises(fem.PreconditionError, match="unit_cube") as exc:
        fem.assemble(big, "V", "mass")
    assert exc.value.entity == "unit_cube"


def _assert_same_csr(A, B):
    """Array-equal CSR matrices, index dtypes included."""
    assert A.format == B.format == "csr" and A.shape == B.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _nodal_coo_reference(mesh, stiffness_weight, mass_weight):
    """The nodal matrix K_a + M_b summed from int64 COO indices of the
    (nt, 4, 4) local matrices, in scipy's per-row sort, less its exact
    zeros."""
    vol = fem.tet_volumes(mesh)
    tab = fem.shape_table(mesh)
    loc = np.zeros((mesh.nt, 4, 4))
    if stiffness_weight is not None:
        loc += tab.gram[tab.cls] * (vol * stiffness_weight)[:, None, None]
    if mass_weight is not None:
        loc += (vol * mass_weight)[:, None, None] * fem._S4
    t = mesh.tets.astype(np.int64)
    ref = sp.coo_matrix((loc.ravel(), (np.repeat(t, 4, axis=1).ravel(), np.tile(t, (1, 4)).ravel())),
                        shape=(mesh.nv, mesh.nv)).tocsr()
    ref.eliminate_zeros()
    return ref


@pytest.mark.parametrize("name", ["unit_cube", "pyramid", "vertex_junction_pair"])
def test_assembly_equals_int64_coo_reference(name, rng, monkeypatch):
    """The edge mass scatters int32 indices and gives the CSR matrix of the
    same local entries summed from int64 COO indices, array-equal with its
    dtypes; the V stiffness equals C^T W C on a curl matrix built from
    int64 indices.  Every nodal operator, weighted or not and K_a + M_b
    too, is summed from edge and node sums with no scatter: it has the
    pattern and dtypes of the COO reference, values within 1e-15 of its
    largest entry (the sums run in tet order per edge, not in scipy's
    per-row sort), is exactly symmetric and stores no exact zero, and its
    restriction to free nodes is the full matrix sliced, array-equal."""
    mesh = build_complex(name, 0.25)
    scattered = []
    scatter = fem._scatter
    monkeypatch.setattr(fem, "_scatter", lambda r, c, v, s: (
        scattered.append((r, c, v, s)) or scatter(r, c, v, s)))
    tab = fem.shape_table(mesh)
    C = sp.csr_matrix((tab.curl[tab.cls].ravel(), np.repeat(mesh.tet_edges, 3, axis=0).ravel(),
                       np.arange(0, 18 * mesh.nt + 1, 6)), shape=(3 * mesh.nt, mesh.ne))
    C.eliminate_zeros()
    _assert_same_csr(fem._curl_matrix(mesh), C)
    free = rng.uniform(size=mesh.nv) < 0.7

    def assert_nodal(A, stiffness_weight, mass_weight):
        ref = _nodal_coo_reference(mesh, stiffness_weight, mass_weight)
        assert A.format == "csr" and A.shape == ref.shape
        for arr in ("data", "indices", "indptr"):
            a, b = getattr(A, arr), getattr(ref, arr)
            assert a.dtype == b.dtype and (arr == "data" or np.array_equal(a, b)), arr
        assert np.abs(A.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()
        assert (A != A.T).nnz == 0 and np.all(A.data != 0.0)
        [F] = fem._nodal_matrices(mesh, [(stiffness_weight, mass_weight)], free)
        _assert_same_csr(F, A[free][:, free])

    for weight in (None, rng.uniform(0.5, 2.0, mesh.nt)):
        w = fem.tet_volumes(mesh) * (1.0 if weight is None else weight)
        a = 1.0 if weight is None else weight
        for space in ("Z", "V"):
            for kind in ("mass", "stiffness"):
                scattered.clear()
                A = fem.assemble(mesh, space, kind, weight)
                if space == "Z":
                    assert scattered == []
                    assert_nodal(A, *((a, None) if kind == "stiffness" else (None, a)))
                elif kind == "stiffness":
                    _assert_same_csr(A, (C.T @ (sp.diags(np.repeat(w, 3)) @ C)).tocsr())
                else:
                    [(r, c, v, shape)] = scattered
                    assert r.dtype == c.dtype == np.int32
                    ref = sp.coo_matrix((v.ravel(), (r.ravel().astype(np.int64),
                                                      c.ravel().astype(np.int64))),
                                        shape=shape).tocsr()
                    ref.eliminate_zeros()
                    _assert_same_csr(A, ref)
        b = 1.0 if weight is None else weight[::-1]
        assert_nodal(fem._nodal_matrices(mesh, [(a, b)])[0], a, b)


def test_edge_mass_transient_is_bounded():
    """The edge mass of three_cube_L at h = 1/8 allocates at most 5 times
    the bytes of its result while it is assembled (6.7 times with int64
    index temporaries)."""
    import tracemalloc

    mesh = build_complex("three_cube_L", 0.125)
    fem.tet_volumes(mesh)
    tracemalloc.start()
    try:
        M = fem._assemble_edge(mesh, "mass", None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * (M.data.nbytes + M.indices.nbytes + M.indptr.nbytes)
