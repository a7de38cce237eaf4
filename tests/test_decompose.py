import dataclasses
import gc
import inspect
import itertools
import re
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from helmdec import fem, mesh as hmesh, operators as ops
import helmdec.decompose as dc
from helmdec.geometry import GeometryInfo, catalog_info
from helmdec.mesh import TetMesh, build_complex, extract_block
from helmdec.operators import PreconditionError
from helmdec.trace import interface_faces, surface, tag_trace, trace_from_fine
from test_operators import _ref_loop_decompose


def assert_contract(split, v, trace, extra_edge_names=()):
    """Exact DOF identity (1e-10 relative) and exact trace zeros."""
    mesh = v.mesh
    assert split.identity_residual(v) <= 1e-10
    assert np.all(split.p.values[trace.node_mask] == 0.0)
    assert np.all(split.w.values[trace.node_mask] == 0.0)
    assert np.all(split.R.values[trace.edge_mask] == 0.0)
    surf = surface(mesh)
    for name in extra_edge_names:
        e = surf.edge_by_name(name)
        assert np.all(split.p.values[e.fine_nodes] == 0.0)
        assert np.all(split.w.values[e.fine_nodes] == 0.0)
        assert np.all(split.R.values[e.fine_edges] == 0.0)


def split_of(v, p, w):
    """A HelmholtzSplit of route fields, R their residual (no norm battery)."""
    mesh = v.mesh
    R = dc._residual(mesh, v.values, p, w)
    return dc.HelmholtzSplit(mesh, fem.NodalField(mesh, p), fem.NodalVectorField(mesh, w),
                             fem.EdgeField(mesh, R), "", {})


def loop_split(v, face):
    mesh = v.mesh
    no_nodes = np.zeros(mesh.nv, dtype=bool)
    loop_edges = np.zeros(mesh.ne, dtype=bool)
    loop_edges[ops.build_loop(mesh, [face]).edges] = True
    dc._check_zero_moments(v, loop_edges, "the patch boundary")
    return split_of(v, *dc._curl_harmonic_splits(
        mesh, [v.values], [dc._split_plan(mesh, [face], no_nodes, no_nodes)])[0])


def assert_absorbs_gradient(call, mesh, trace, seed=3):
    gv, q = dc.gradient_field(mesh, trace, seed)
    split = call(gv, trace)
    qn = max(fem.norm(q, "H1"), 1e-300)
    assert fem.norm(split.w, "H1") <= 1e-10 * qn
    assert fem.norm(split.R, "L2") <= 1e-10 * qn * mesh.h


# -- kernel ------------------------------------------------------------------

def test_kernel_gradient_reproduction(cube4, rng):
    t = tag_trace(cube4, ["z=0"])
    q = rng.uniform(-1, 1, cube4.nv)
    q[t.node_mask] = 0.0
    v = fem.EdgeField(cube4, fem.gradient_map(cube4) @ q)
    s = dc.decompose(v, t, route="kernel")
    assert np.abs(s.p.values - q).max() < 1e-10
    assert fem.norm(s.w, "H1") < 1e-12
    assert fem.norm(s.R, "L2") < 1e-12


@pytest.mark.parametrize("geometry", ["unit_cube", "pyramid", "three_cube_L"])
def test_kernel_rhs_pairs_curls_through_rh(geometry, rng):
    """The kernel's w right-hand side r_h^T (K_V v) is the pairing (curl v,
    curl u) with nodal vector fields u, by curl r_h u = curl u."""
    mesh = build_complex(geometry, 0.25)
    u = rng.uniform(-1, 1, (mesh.nv, 3))
    v = fem.EdgeField(mesh, rng.uniform(-1, 1, mesh.ne))
    lhs = u.ravel() @ (ops.rh_matrix(mesh).T @ (fem.assemble(mesh, "V", "stiffness") @ v.values))
    ref = np.sum(fem.tet_volumes(mesh)[:, None] * fem.curl_of_nodal_field(fem.NodalVectorField(mesh, u))
                 * fem.curl_of_edge_field(v))
    assert abs(lhs - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("geometry", ["unit_cube", "pyramid", "three_cube_L"])
def test_kernel_pass_on_gradient_gives_exact_zero_w(geometry, rng):
    """K_V applied in factored form keeps the exact zero curl of G q: with
    q on a dyadic grid the per-tet curls cancel exactly (also on the
    pyramid's non-Kuhn tets), and the kernel pass returns w == 0."""
    mesh = build_complex(geometry, 0.25)
    q = rng.integers(-2**30, 2**30, mesh.nv) / 2.0**30
    v = fem.gradient_map(mesh) @ q
    assert np.all(fem.curl_of_edge_field(fem.EdgeField(mesh, v)) == 0.0)
    for pins in (mesh.boundary_node_mask(), np.zeros(mesh.nv, dtype=bool)):
        p, w = dc._kernel_fields(mesh, v, pins)
        assert np.all(w == 0.0)


def test_kernel_zero_field(cube4):
    t = tag_trace(cube4, ["z=0"])
    s = dc.decompose(fem.EdgeField(cube4, np.zeros(cube4.ne)), t, route="kernel")
    assert np.abs(s.p.values).max() == 0.0
    assert np.abs(s.w.values).max() == 0.0
    assert np.abs(s.R.values).max() == 0.0


def test_kernel_random(cube4):
    t = tag_trace(cube4, ["z=0"])
    v = dc.random_admissible_field(cube4, t, 10)
    s = dc.decompose(v, t, route="kernel")
    assert_contract(s, v, t)
    assert s.claims == {"rhs1": "curl_semi", "rhs2": "l2", "log": False}


def test_kernel_rejects_unsatisfiable(pyramid4):
    t = tag_trace(pyramid4, ["lat:x-", "lat:x+"])
    v = dc.random_admissible_field(pyramid4, t, 1)
    with pytest.raises(PreconditionError):
        dc.decompose(v, t, route="kernel")


def test_kernel_empty_trace_gauge(cube4):
    t = tag_trace(cube4, [])
    v = dc.random_admissible_field(cube4, t, 2)
    s = dc.decompose(v, t, route="kernel")
    assert_contract(s, v, t)
    # mean-zero gauge on p
    M = fem.assemble(cube4, "Z", "mass")
    assert abs(np.ones(cube4.nv) @ (M @ s.p.values)) < 1e-10


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble has no extra precision here")
def test_empty_trace_kernel_matches_refined_reference():
    """With no trace nodes the kernel pass solves the stiffness bordered by
    the mean-value row on a partial-pivoting LU.  Against the solution of
    that system refined with long-double residuals, p and each component
    of w are within 5e-14 relative (a node-0 pin plus a mass-mean shift is
    off by 2.7e-13 on this mesh and field, so the border stays)."""
    mesh = build_complex("unit_cube", 0.125)
    t = tag_trace(mesh, [])
    assert not t.node_mask.any()
    v = np.random.default_rng(1).uniform(-1, 1, mesh.ne)
    p, w = dc._kernel_fields(mesh, v, t.node_mask)
    # the kernel pass's right-hand sides, made as it makes them
    C = fem._curl_matrix(mesh)
    wcurl = fem.tet_volumes(mesh)[:, None] * (C @ v).reshape(-1, 3)
    rhs = np.column_stack([fem.gradient_map(mesh).T @ (fem.assemble(mesh, "V", "mass") @ v),
                           (ops.rh_matrix(mesh).T @ (C.T @ wcurl.ravel())).reshape(-1, 3)])
    mz = fem.assemble(mesh, "Z", "mass") @ np.ones(mesh.nv)
    A = sp.bmat([[fem.assemble(mesh, "Z", "stiffness"), mz[:, None]], [mz[None, :], None]],
                format="csc")
    lu = spla.splu(A)
    b = np.vstack([rhs, np.zeros((1, 4))]).astype(np.longdouble)
    x = lu.solve(np.asarray(b, dtype=float)).astype(np.longdouble)
    A = A.astype(np.longdouble)
    for _ in range(4):
        x += lu.solve(np.asarray(b - A @ x, dtype=float))
    ref = np.asarray(x[:-1], dtype=float)
    for got, want in zip(np.column_stack([p, w]).T, ref.T):
        assert np.abs(got - want).max() <= 5e-14 * np.abs(want).max()


# -- dispatcher routing -------------------------------------------------------

# traces and the path "auto" plans for each; a parametrization that appends
# cases of its own takes ROUTING_PATHS, so their ids stay put
ROUTING_PATHS = [
    ("unit_cube", ["boundary"], "kernel"),
    ("unit_cube", ["z=0", "z=1"], "kernel-multi"),
    ("unit_cube", ["e:x=0,y=0"], "edge-cut"),
    ("unit_cube", ["z=0", "e:y=1,z=1"], "faces-plus-edge/clear-face"),
    ("unit_cube", ["z=0", "e:x=0,z=1"], "faces-plus-edge/clear-face"),
    ("three_cube_L", ["concave"], "kernel"),
    ("three_cube_L", ["x=0"], "face-chain"),
    ("pyramid", ["lat:x-", "lat:x+"], "corner-pair-faces"),
    ("cube_in_box", ["z=0", "y=1", "e:y=0,z=1"], "faces-plus-edge/extension"),
    ("edge_junction_pair", ["x=0"], "edge-junction/chained"),
    ("vertex_junction_pair", ["x=1#0", "x=1#1"], "vertex-junction"),
]
ROUTING = ROUTING_PATHS + [
    # a face trace plus two disjoint edges (the dispatcher's mixed branch)
    ("three_cube_L", ["x=0", "e:x=1,y=1", "e:x=2,y=0"], "disjoint-edges/simple"),
    # junctions with free blocks: kinds [anchored, free], [free, free, anchored]
    ("vertex_junction_pair", ["x=0"], "vertex-junction"),
    ("vertex_junction_star3", ["x=2"], "vertex-junction"),
    # chains whose block 0 plan is not the kernel: edge-cut, and
    # faces-plus-edge/endpoint (`test_chain_with_a_loop_routed_block_is_linear`)
    ("three_cube_L", ["x=1"], "face-chain"),
    ("three_cube_L", ["x=1", "z=0"], "face-chain"),
]


@pytest.mark.parametrize("geometry,spec,path", ROUTING)
def test_dispatch_routes_and_contract(geometry, spec, path):
    mesh = build_complex(geometry, 0.25)
    t = tag_trace(mesh, spec)
    v = dc.random_admissible_field(mesh, t, 77)
    s = dc.decompose(v, t)
    assert s.path == path
    assert_contract(s, v, t)


@pytest.mark.parametrize("geometry,spec,path", ROUTING)
def test_every_route_absorbs_gradients(geometry, spec, path):
    mesh = build_complex(geometry, 0.25)
    t = tag_trace(mesh, spec)
    assert_absorbs_gradient(dc.decompose, mesh, t)


@pytest.mark.parametrize("route", dc.ROUTES)
def test_dispatcher_rejects_nonzero_moment(cube4, rng, route):
    t = tag_trace(cube4, ["z=0"])
    v = fem.EdgeField(cube4, rng.uniform(0.5, 1.0, cube4.ne))
    with pytest.raises(PreconditionError) as exc:
        dc.decompose(v, t, route=route)
    assert exc.value.entity is not None
    assert t.edge_mask[exc.value.entity]


@pytest.mark.parametrize("geometry,spec,path", [
    ("unit_cube", ["e:x=0,y=0"], "edge-cut"),
    ("unit_cube", ["z=0", "e:y=1,z=1"], "faces-plus-edge/clear-face"),
    ("pyramid", ["lat:x-", "lat:x+"], "corner-pair-faces"),
])
def test_loop_cut_plans_refuse_nonzero_trace_moments(geometry, spec, path, rng):
    """A loop-cut plan applied without `_routed`'s entry check still
    refuses a field with nonzero trace moments, naming a fine trace edge:
    the loop potential ignores the cut edges' moments, so the subtraction
    leaves them on the loop for its loop check.  Through `decompose` the
    entry check names the edge first."""
    mesh = build_complex(geometry, 0.25)
    t = tag_trace(mesh, spec)
    plan = dc._plan("auto", t)
    assert plan.path == path
    v = fem.EdgeField(mesh, rng.uniform(0.5, 1.0, mesh.ne))
    with pytest.raises(PreconditionError, match="on the patch boundary") as exc:
        plan.apply(v)
    assert t.edge_mask[exc.value.entity]
    with pytest.raises(PreconditionError, match="on the trace") as exc:
        dc.decompose(v, t)
    assert t.edge_mask[exc.value.entity]


def test_trace_entry_and_exit_only_in_routed():
    # the trace-moment check and the trace-zero placement are the shared
    # entry and exit passes of every route, written once
    routed = inspect.getsource(dc._routed)
    rest = inspect.getsource(dc).replace(routed, "")
    for pattern in (r'trace\.edge_mask, "the trace"',
                    r"\b(p|w|p_t|w_t)\[trace\.node_mask\] = 0\.0"):
        assert re.search(pattern, routed), pattern
        assert not re.search(pattern, rest), pattern


def test_no_log_claims():
    # trace covering every concave part: log factor droppable
    L = build_complex("three_cube_L", 0.25)
    t = tag_trace(L, ["concave"])
    v = dc.random_admissible_field(L, t, 5)
    assert dc.decompose(v, t).claims["log"] is False
    # full boundary (ball-like extension)
    cube = build_complex("unit_cube", 0.25)
    tb = tag_trace(cube, ["boundary"])
    vb = dc.random_admissible_field(cube, tb, 5)
    s = dc.decompose(vb, tb)
    assert s.claims == {"rhs1": "curl_semi", "rhs2": "l2", "log": False}
    # the chained route keeps the log
    tx = tag_trace(L, ["x=0"])
    vx = dc.random_admissible_field(L, tx, 5)
    assert dc.decompose(vx, tx).claims["log"] is True


# -- loop route ---------------------------------------------------------------

def test_decompose_loop_examples(cube4, rng):
    surf = surface(cube4)
    top = surf.face_by_name("z=1")
    z = fem.EdgeField(cube4, np.zeros(cube4.ne))
    s = loop_split(z, top)
    assert np.abs(s.p.values).max() == 0.0 and np.abs(s.R.values).max() == 0.0
    # admissible random: invariants
    v = fem.EdgeField(cube4, rng.uniform(-1, 1, cube4.ne))
    loop_nodes = np.unique(cube4.edges[top.boundary_edges].ravel())
    v.values[top.boundary_edges] = 0.0
    s = loop_split(v, top)
    assert s.identity_residual(v) <= 1e-10
    assert np.all(s.p.values[loop_nodes] == 0.0)
    assert np.all(s.w.values[loop_nodes] == 0.0)
    with pytest.raises(PreconditionError):
        loop_split(fem.EdgeField(cube4, rng.uniform(0.5, 1, cube4.ne)), top)


# -- edge routes ---------------------------------------------------------------

def test_edge_route_stokes_record(cube4):
    t = tag_trace(cube4, ["e:x=0,y=0"])
    v = dc.random_admissible_field(cube4, t, 12)
    s = dc.decompose(v, t)
    assert s.meta["loops"]
    for C, l0, flux in s.meta["loops"]:
        assert abs(C - flux / l0) <= 1e-12 * (1 + abs(C))


def test_disjoint_edges_simple_case(cube4):
    # two opposite edges admit non-interfering faces
    t = tag_trace(cube4, ["e:x=0,y=0", "e:x=1,y=1"])
    v = dc.random_admissible_field(cube4, t, 14)
    s = dc.decompose(v, t)
    assert s.path == "disjoint-edges/simple"
    assert_contract(s, v, t)


def test_four_edge_hard_case(monkeypatch):
    mesh = build_complex("four_edge_cube", 0.25)
    spec = ["e:x=0,y=0", "e:x=1,y=0", "e:x=1,y=1", "e:x=0,y=1"]
    t = tag_trace(mesh, spec)
    v = dc.random_admissible_field(mesh, t, 15)
    s = dc.decompose(v, t)
    assert s.path == "disjoint-edges/subdomains"
    assert_contract(s, v, t)
    # a warm call reuses the subdomain split, its core kernel factor and its
    # cotree factor
    factorizations = []
    splu, cholesky = spla.splu, fem.Cholesky
    monkeypatch.setattr(spla, "splu", lambda *a, **k: factorizations.append(1) or splu(*a, **k))
    monkeypatch.setattr(fem, "Cholesky", lambda *a: factorizations.append(1) or cholesky(*a))
    v2 = dc.random_admissible_field(mesh, t, 16)
    assert_contract(dc.decompose(v2, t), v2, t)
    assert factorizations == []
    # no element-aligned split at h=1/2
    coarse = build_complex("four_edge_cube", 0.5)
    tc = tag_trace(coarse, spec)
    vc = dc.random_admissible_field(coarse, tc, 15)
    with pytest.raises(PreconditionError):
        dc.decompose(vc, tc)


def test_overlapping_edges_rejected(cube4):
    t = tag_trace(cube4, ["e:x=0,y=0", "e:x=0,z=0"])  # share a corner
    v = dc.random_admissible_field(cube4, t, 16)
    s = dc.decompose(v, t)  # connected union: single edge-cut
    assert s.path == "edge-cut"
    assert_contract(s, v, t)


def test_interfering_edges_with_face_trace_name_the_edge(cube4):
    # each edge's one face clear of the trace face x=0 holds the other edge
    t = tag_trace(cube4, ["x=0", "e:x=1,y=0", "e:x=1,y=1"])
    v = dc.random_admissible_field(cube4, t, 16)
    with pytest.raises(PreconditionError, match="interfering disjoint edges") as exc:
        dc.decompose(v, t)
    assert exc.value.entity == "e:x=1,y=0"


@pytest.mark.parametrize("geometry,spec", [
    ("unit_cube", ["z=0", "e:x=0,z=0", "v:(0,0,0)"]),     # kernel
    ("three_cube_L", ["x=0", "e:x=0,y=2"]),               # face-chain
    ("edge_junction_pair", ["x=1#0", "e:x=1,y=0"]),       # edge-junction/shared
])
def test_face_plus_entities_of_its_closure_is_the_face(geometry, spec):
    """A face and an edge or vertex of its own boundary have the fine masks
    of the face alone, so they are the face's trace and get its plan."""
    mesh = build_complex(geometry, 0.25)
    t = tag_trace(mesh, spec)
    assert [f.name for f in t.coarse_faces] == spec[:1]
    assert not t.coarse_edges and not t.vertex_nodes
    assert t.spec == tuple(spec)
    assert dc._plan("auto", t) is dc._plan("auto", tag_trace(mesh, spec[:1]))


# -- junctions -------------------------------------------------------------------

def test_edge_junction_shared_no_log():
    mesh = build_complex("edge_junction_pair", 0.25)
    t = tag_trace(mesh, ["x=1#0", "y=1#1"])
    v = dc.random_admissible_field(mesh, t, 17)
    s = dc.decompose(v, t)
    assert s.path == "edge-junction/shared"
    assert s.claims["log"] is False
    assert_contract(s, v, t)


def test_edge_junction_shared_is_per_block_decompose():
    """With the junction edge in the trace, each block of the shared split
    is `decompose` on that block with the restricted trace, to the byte."""
    mesh = build_complex("edge_junction_pair", 0.25)
    t = tag_trace(mesh, ["x=1#0", "y=1#1"])
    v = dc.random_admissible_field(mesh, t, 17)
    s = dc.decompose(v, t)
    assert s.path == "edge-junction/shared"
    for b in (0, 1):
        sub = extract_block(mesh, b)
        tb = trace_from_fine(sub.mesh, t.node_mask[sub.vert_map], t.edge_mask[sub.edge_map])
        sb = dc.decompose(fem.EdgeField(sub.mesh, sub.restrict_edge(v.values)), tb)
        assert s.p.values[sub.vert_map].tobytes() == sb.p.values.tobytes()
        assert s.w.values[sub.vert_map].tobytes() == sb.w.values.tobytes()


def test_edge_junction_partial_contact_rejected():
    """A trace that touches the junction edge in a proper subset is refused
    naming the touching trace entity (a face or a coarse vertex); a block
    plan's refusal names the trace."""
    mesh = build_complex("edge_junction_pair", 0.25)
    t = tag_trace(mesh, ["z=0#0"])  # touches the junction edge endpoint
    v = dc.random_admissible_field(mesh, t, 18)
    with pytest.raises(PreconditionError) as exc:
        dc.decompose(v, t)
    assert exc.value.entity == "z=0#0"
    for spec, entity in ((["x=0", "v:(1,1,0)"], "v:(1,1,0)"), (["x=2", "y=2"], "x=2;y=2")):
        t = tag_trace(mesh, spec)
        with pytest.raises(PreconditionError) as exc:
            dc.decompose(fem.EdgeField(mesh, np.zeros(mesh.ne)), t)
        assert exc.value.entity == entity


# -- block chain -------------------------------------------------------------

# the block splits the catalog recorded for the two routes the block chain
# replaced (`GeometryInfo.sigma1`/`.sigma2` and `.junction_edge`), read by
# their references below
REF_SIGMA = {"three_cube_L": ((0,), (1, 2))}
REF_JUNCTION_EDGE = {"edge_junction_pair": "e:x=1,y=1"}


def _ref_face_chain(mesh, trace):
    """The face-chain route the block chain replaced, kept verbatim but for
    the recorded split: kernel on the first block set, cut-off interface
    extensions of w, harmonic extension of p, zero extension of R, then
    residual kernels on the second set."""
    sigma1, sigma2 = REF_SIGMA[mesh.name]
    ifaces = interface_faces(mesh)
    first = []
    for b1 in sigma1:
        sub = extract_block(mesh, b1)
        exts = []
        for iface in ifaces:
            if b1 not in iface.blocks:
                continue
            k = iface.blocks[0] if iface.blocks[1] == b1 else iface.blocks[1]
            subk = extract_block(mesh, k)
            on_iface = np.isin(subk.vert_map, iface.fine_nodes)
            nodes, src = dc._layer_extension(mesh, iface.fine_nodes, subk.vert_map[~on_iface],
                                             iface.plane)
            exts.append((nodes, src, np.isin(src, iface.boundary_nodes), subk, on_iface,
                         ~np.isin(subk.vert_map, sub.vert_map)))
        first.append((sub, trace.node_mask[sub.vert_map], exts))
    second = []
    for k in sigma2:
        subk = extract_block(mesh, k)
        gk = trace.node_mask[subk.vert_map].copy()
        for iface in ifaces:
            if k in iface.blocks and (iface.blocks[0] in sigma1 or iface.blocks[1] in sigma1):
                gk |= np.isin(subk.vert_map, iface.fine_nodes)
        second.append((subk, gk))
    claims = {"rhs1": "curl_semi", "rhs2": "l2", "log": True}

    def apply(v):
        mesh = v.mesh
        p_t = np.zeros(mesh.nv)
        w_t = np.zeros((mesh.nv, 3))
        R_t = np.zeros(mesh.ne)
        for sub, pins, exts in first:
            p1, w1 = dc._block_kernel(sub, v.values, pins, p_t, w_t, R_t)
            gp = np.zeros(mesh.nv)
            gp[sub.vert_map] = p1
            gw = np.zeros((mesh.nv, 3))
            gw[sub.vert_map] = w1
            for nodes, src, on_curve, subk, on_iface, addmask in exts:
                vals = gw[src] * 0.5
                vals[on_curve] = 0.0
                w_t[nodes] += vals
                bdata = np.zeros(subk.mesh.nv)
                bdata[on_iface] = gp[subk.vert_map[on_iface]]
                pk = ops.harmonic_extend(subk.mesh, bdata).values
                sel = addmask & (np.abs(pk) > 0)
                p_t[subk.vert_map[sel]] += pk[sel]

        v_res = dc._residual(mesh, v.values, p_t, w_t) - R_t
        for subk, gk in second:
            dc._block_kernel(subk, v_res, gk, p_t, w_t, R_t)
        return p_t, w_t, {}

    return dc._Route("face-chain", claims, apply)


def _ref_block_split(block, v):
    """The replaced `_block_split`, which restricted the whole-mesh v."""
    sub, trace, plan = block
    return dc._routed(plan, fem.EdgeField(sub.mesh, sub.restrict_edge(v)), trace)


def _ref_edge_junction(mesh, trace):
    """The edge-junction route the block chain replaced, kept verbatim but
    for the recorded junction edge E: decompose block 0, extend with zero
    data off E, and decompose what is left of v on block 1 with E added to
    its trace; v itself when E is in the trace."""
    surf = surface(mesh)
    E = surf.edge_by_name(REF_JUNCTION_EDGE[mesh.name])
    shared = trace.edge_mask[E.fine_edges].all()
    if trace.node_mask[E.fine_nodes].any() and not shared:
        touching = [x.name for x in trace.coarse_faces + trace.coarse_edges
                    if np.isin(x.fine_nodes, E.fine_nodes).any()]
        touching += [n for n, i in surf.vertices.items()
                     if i in trace.vertex_nodes and i in E.fine_nodes]
        raise PreconditionError(
            "the junction edge meets the trace in a proper subset; "
            "not a catalog case", entity=touching[0])
    sub0 = extract_block(mesh, 0)
    sub1 = extract_block(mesh, 1)
    em1 = trace.edge_mask.copy()
    em1[E.fine_edges] = True
    nm1 = trace.node_mask.copy()
    nm1[E.fine_nodes] = True
    block0 = dc._block_plan(sub0, trace.node_mask, trace.edge_mask, trace.spec)
    block1 = dc._block_plan(sub1, nm1, em1, trace.spec)
    log = not shared or trace.coarse_edges or not trace.lipschitz
    claims = {"rhs1": "curl_semi" if trace.J <= 1 else "curl", "rhs2": "curl",
              "log": bool(log)}

    def apply(v):
        mesh = v.mesh
        p = np.zeros(mesh.nv)
        w = np.zeros((mesh.nv, 3))
        p0, w0, meta0 = _ref_block_split(block0, v.values)
        p[sub0.vert_map] = p0
        w[sub0.vert_map] = w0
        v1 = v.values
        if not shared:
            R0 = np.zeros(mesh.ne)
            R0[sub0.edge_map] = dc._residual(sub0.mesh, sub0.restrict_edge(v.values), p0, w0)
            v1 = dc._residual(mesh, v.values, p, w) - R0
        p1, w1, meta1 = _ref_block_split(block1, v1)
        p[sub1.vert_map] += p1
        w[sub1.vert_map] += w1
        return p, w, {"loops": meta0.get("loops", []) + meta1.get("loops", [])}

    return dc._Route("edge-junction/shared" if shared else "edge-junction/chained", claims, apply)


def _face_family(mesh):
    """The census's face family: every coarse face, every pair of them,
    `boundary` and `concave`."""
    names = [f.name for f in surface(mesh).faces]
    return ([[n] for n in names] + [list(pair) for pair in itertools.combinations(names, 2)]
            + [["boundary"], ["concave"]])


def _block_plan_paths(mesh, trace):
    """The path of each block plan of the chain in its default order: the
    block trace is the trace plus the block's contact with those before."""
    seen_n = np.zeros(mesh.nv, dtype=bool)
    seen_e = np.zeros(mesh.ne, dtype=bool)
    paths = []
    for b in dc._chain_order(catalog_info(mesh.name).complex.blocks):
        sub = extract_block(mesh, b)
        block = dc._block_plan(sub, trace.node_mask | seen_n, trace.edge_mask | seen_e,
                               trace.spec)
        paths.append(block[2].path)
        seen_n[sub.vert_map] = True
        seen_e[sub.edge_map] = True
    return paths


# the face-chain traces whose block 0 trace holds the edge x=1,y=1: their
# block 0 plan is an edge route, not the kernel the reference pins there
CHAIN_CHANGED = ["x=1", "y=1", "x=1;y=2", "x=1;z=0", "x=1;z=1", "x=2;y=1", "y=1;z=0",
                 "y=1;z=1"]


@pytest.mark.parametrize("geometry,reference,count", [
    ("three_cube_L", _ref_face_chain, 25),
    ("edge_junction_pair", _ref_edge_junction, 53),
])
def test_block_chain_matches_the_routes_it_replaces(geometry, reference, count):
    """Over the census's face family at h = 1/4, the chain's p and w are
    array-equal to the replaced route's on every edge-junction trace and on
    every face-chain trace whose block plans are all one kernel pass
    (`kernel`, or `kernel-multi` on the two faces x=1 and x=2 of block 1
    under the trace x=2); the face-chain traces that differ are exactly
    those with another block plan.  The loop records of the edge junction
    are equal too."""
    mesh = build_complex(geometry, 0.25)
    seen, differ = 0, []
    for spec in _face_family(mesh):
        t = tag_trace(mesh, spec)
        try:
            plan = dc._plan("auto", t)
        except PreconditionError:
            continue
        if plan.path != "face-chain" and not plan.path.startswith("edge-junction"):
            continue
        ref = reference(mesh, t)
        assert (plan.path, plan.claims) == (ref.path, ref.claims)
        v = dc.random_admissible_field(mesh, t, 45)
        p, w, meta = dc._routed(plan, v, t)
        p_ref, w_ref, meta_ref = dc._routed(ref, v, t)
        same = np.array_equal(p, p_ref) and np.array_equal(w, w_ref)
        kernels = set(_block_plan_paths(mesh, t)) <= {"kernel", "kernel-multi"}
        if plan.path == "face-chain":
            assert same == kernels, spec
            if not same:
                differ.append(";".join(spec))
        else:
            assert same and meta == meta_ref, spec
        seen += 1
    assert seen == count
    assert differ == (CHAIN_CHANGED if geometry == "three_cube_L" else [])


@pytest.mark.parametrize("spec,block0", [(["x=1"], "edge-cut"),
                                         (["x=1", "z=0"], "faces-plus-edge/endpoint")])
def test_chain_with_a_loop_routed_block_is_linear(spec, block0):
    """A chain whose block 0 plan is a loop route is still one linear map:
    the split of 2 v1 - 3 v2 is 2 times the split of v1 minus 3 times that
    of v2, to 1e-10 of their largest entry."""
    mesh = build_complex("three_cube_L", 0.25)
    t = tag_trace(mesh, spec)
    assert _block_plan_paths(mesh, t) == [block0, "kernel", "kernel"]
    v1, v2 = (dc.random_admissible_field(mesh, t, s) for s in (46, 47))
    s1, s2 = dc.decompose(v1, t), dc.decompose(v2, t)
    s = dc.decompose(fem.EdgeField(mesh, 2.0 * v1.values - 3.0 * v2.values), t)
    for name in ("p", "w", "R"):
        a, a1, a2 = (getattr(x, name).values for x in (s, s1, s2))
        scale = max(np.abs(a1).max(), np.abs(a2).max())
        assert np.abs(a - (2.0 * a1 - 3.0 * a2)).max() <= 1e-10 * scale, name


def test_chain_order_is_derived_not_recorded():
    """The chain visits first the blocks that share a face with every other
    block, then the rest in index order; the catalog records no block
    split and no junction edge."""
    assert dc._chain_order(catalog_info("three_cube_L").complex.blocks) == (0, 1, 2)
    assert dc._chain_order(catalog_info("edge_junction_pair").complex.blocks) == (0, 1)
    fields = {f.name for f in dataclasses.fields(GeometryInfo)}
    assert not fields & {"sigma1", "sigma2", "junction_edge"}


def test_vertex_junction_gate_refusal():
    mesh = build_complex("vertex_junction_pair", 0.25)
    t = tag_trace(mesh, ["x=0", "x=2"])
    bad = dc.incompatible_field(mesh, t, 19, magnitude=1.0)
    out = dc.decompose(bad, t)
    assert isinstance(out, dc.CompatibilityViolation)
    assert abs(out.functionals).max() > 1e-3
    assert "functionals" in out.message


def test_vertex_junction_gradient_passes_gate():
    mesh = build_complex("vertex_junction_pair", 0.25)
    t = tag_trace(mesh, ["x=0", "x=2"])
    gv, q = dc.gradient_field(mesh, t, 20)
    s = dc.decompose(gv, t)
    assert isinstance(s, dc.HelmholtzSplit)
    assert np.abs(np.array(s.meta["functionals"])).max() <= 1e-10
    assert fem.norm(s.w, "H1") <= 1e-9 * max(fem.norm(q, "H1"), 1e-300)


def test_vertex_junction_star_kinds():
    mesh = build_complex("vertex_junction_star3", 0.25)
    t = tag_trace(mesh, [])
    v = dc.random_admissible_field(mesh, t, 21)
    s = dc.decompose(v, t)
    assert s.meta["block_kinds"] == ["free", "free", "free"]
    assert_contract(s, v, t)


# the vertex-junction configurations of the acceptance gate, and the empty
# trace, whose blocks are all free
JUNCTIONS = [
    ("vertex_junction_pair", ["x=1#0", "x=1#1"]),
    ("vertex_junction_pair", ["x=0", "x=2"]),
    ("vertex_junction_star3", ["p:-2,0,-1:0", "p:-2,0,1:0", "p:-1,-2,0:0"]),
    ("vertex_junction_star3", ["x=2", "z=-2", "z=2"]),
    ("vertex_junction_star3", []),
]


@pytest.mark.parametrize("h", [0.25, 0.125])
@pytest.mark.parametrize("geometry,spec", JUNCTIONS)
def test_gate_rows_are_the_loop_potentials(geometry, spec, h):
    """Row b of the gate is block b's normalized loop potential at the
    vertex (anchored: the scalar reference's, and row v0 of the block
    operator times the loop signs), the first anchored row (free) or 0
    (pinned); the functionals of a `random_admissible_field` vanish to
    roundoff."""
    mesh = build_complex(geometry, h)
    t = tag_trace(mesh, spec)
    gate = dc._gate_plan(mesh, t)
    anchored = [b for b, k in enumerate(gate.kinds) if k == "anchored"]
    for b in anchored:
        _, loop, _, pot, _ = gate.setups[b]
        row = np.zeros(mesh.ne)
        row[loop.edges] = pot.Phi[loop.node_pos(gate.v0)] * loop.signs
        assert np.array_equal(gate.rows[b].toarray().ravel(), row)
    rng = np.random.default_rng(8)
    for _ in range(3):
        v = fem.EdgeField(mesh, rng.uniform(-1, 1, mesh.ne))
        vals = gate.rows @ v.values
        for b, kind in enumerate(gate.kinds):
            if kind == "anchored":
                _, loop, E, _, _ = gate.setups[b]
                _, phi, _ = _ref_loop_decompose(v, loop, zero_mean_edge=E)
                assert abs(vals[b] - phi[loop.node_pos(gate.v0)]) <= 1e-13 * np.abs(phi).max()
            else:
                assert vals[b] == (vals[anchored[0]] if kind == "free" and anchored else 0.0)
    v = dc.random_admissible_field(mesh, t, 9)
    assert np.abs(np.diff(gate.rows @ v.values)).max() <= 1e-13 * fem.norm(v, "curl")


@pytest.mark.parametrize("geometry,spec,kinds", [
    ("vertex_junction_pair", ["x=0"], ["anchored", "free"]),
    ("vertex_junction_star3", ["x=2"], ["free", "free", "anchored"]),
])
def test_free_blocks_copy_the_anchored_row(geometry, spec, kinds):
    """A free block's gate row is the anchored block's row, entry for entry."""
    mesh = build_complex(geometry, 0.25)
    gate = dc._gate_plan(mesh, tag_trace(mesh, spec))
    assert gate.kinds == kinds
    rows = gate.rows.toarray()
    anchored = rows[kinds.index("anchored")]
    assert anchored.any()
    for b, kind in enumerate(kinds):
        if kind == "free":
            assert np.array_equal(rows[b], anchored)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_kernel_invariants_random_seeds(seed):
    mesh = build_complex("unit_cube", 0.25)
    t = tag_trace(mesh, ["z=0"])
    v = dc.random_admissible_field(mesh, t, seed)
    s = dc.decompose(v, t, route="kernel")
    assert s.identity_residual(v) <= 1e-10
    assert np.all(s.p.values[t.node_mask] == 0.0)
    assert np.all(s.R.values[t.edge_mask] == 0.0)


def test_ratios_recorded(cube4):
    t = tag_trace(cube4, ["z=0"])
    v = dc.random_admissible_field(cube4, t, 22)
    s = dc.decompose(v, t)
    assert {"w_h1", "R_scaled", "w_l2_p_h1"} <= set(s.ratios)
    # both open-question quotients present
    assert "w_h1_vs_curl_full" in s.ratios
    assert "w_l2_p_h1_vs_l2" in s.ratios


@pytest.mark.parametrize("spec", [["base"], ["lat:x-", "lat:x+"]])
def test_gradient_ratios_skip_roundoff_curl(pyramid4, spec):
    """|v|_curl_semi of a gradient is roundoff on the pyramid, not 0: the
    two ratios against it are left out, and the norms keep the value."""
    t = tag_trace(pyramid4, spec)
    gv, _ = dc.gradient_field(pyramid4, t, 23)
    s = dc.decompose(gv, t)
    assert s.claims["rhs1"] == "curl_semi"
    assert 0.0 < s.norms["v_curl_semi"] <= 1e-12 * s.norms["v_l2"] / pyramid4.h
    assert "w_h1" not in s.ratios and "R_scaled" not in s.ratios
    assert {"w_l2_p_h1", "w_h1_vs_curl_full", "w_l2_p_h1_vs_l2"} <= set(s.ratios)


def test_dispatcher_matches_direct_constructor(cube4):
    t = tag_trace(cube4, ["e:x=0,y=0"])
    v = dc.random_admissible_field(cube4, t, 30)
    via_dispatch = dc.decompose(v, t)
    direct = split_of(v, *dc._edge_route(cube4, t.coarse_edges).apply(v)[:2])
    assert np.array_equal(via_dispatch.p.values, direct.p.values)
    assert np.array_equal(via_dispatch.w.values, direct.w.values)
    assert np.array_equal(via_dispatch.R.values, direct.R.values)


def test_edge_route_degenerates_to_loop_split(cube4, rng):
    surf = surface(cube4)
    F = surf.face_by_name("z=1")
    E = surf.edge_by_name("e:y=0,z=1")
    v = fem.EdgeField(cube4, rng.uniform(-1, 1, cube4.ne))
    v.values[F.fine_edges] = 0.0  # zero trace on the whole face closure
    no_pins = np.zeros(cube4.nv, dtype=bool)
    p, w, meta = dc._loop_cuts(cube4, [([E], F)], no_pins, no_pins, "edge-cut", {}).apply(v)
    via_loop = loop_split(v, F)
    assert np.abs(p - via_loop.p.values).max() < 1e-12
    assert np.abs(w - via_loop.w.values).max() < 1e-12
    # the loop average and the constant extension vanish with the trace
    C, l0, flux = meta["loops"][0]
    assert abs(C) < 1e-14 and abs(flux) < 1e-12


@pytest.mark.parametrize("geometry,spec,path", ROUTING)
def test_zero_field_gives_zero_split(geometry, spec, path):
    mesh = build_complex(geometry, 0.25)
    t = tag_trace(mesh, spec)
    z = fem.EdgeField(mesh, np.zeros(mesh.ne))
    s = dc.decompose(z, t)
    assert isinstance(s, dc.HelmholtzSplit)
    assert np.abs(s.p.values).max() < 1e-12
    assert np.abs(s.w.values).max() < 1e-12
    assert np.abs(s.R.values).max() < 1e-12
    assert s.ratios == {} or all(v == 0 for v in s.ratios.values())


# -- one norm battery per decomposition ------------------------------------------

from test_acceptance import VALID_CONFIGS  # noqa: E402


@pytest.mark.parametrize("geometry,spec", [(g, s) for g, s, _ in VALID_CONFIGS],
                         ids=[f"{g}-{'+'.join(s)}" for g, s, _ in VALID_CONFIGS])
def test_one_norm_battery_per_decompose(geometry, spec, monkeypatch):
    """Nested routes hand fields up, so `decompose` runs the norm battery
    once: five `fem.norm` calls, w's H1 and L2 norms in one call that
    forms its mass product once; the vertex gate adds |v|_curl."""
    mesh = build_complex(geometry, 0.25)
    t = tag_trace(mesh, spec)
    v = dc.random_admissible_field(mesh, t, 31)
    calls = []
    norm = fem.norm

    def counting_norm(field, which):
        calls.append(which)
        return norm(field, which)

    monkeypatch.setattr(fem, "norm", counting_norm)
    s = dc.decompose(v, t)
    assert isinstance(s, dc.HelmholtzSplit)
    gated = geometry.startswith("vertex_junction")
    assert len(calls) == (6 if gated else 5), (s.path, calls)
    assert calls.count(("H1", "L2")) == 1


def _reference_layer_extension(mesh, face_nodes, source, target_nodes, plane, layers=2):
    a, c = dc._axis_of_plane(plane)
    fset = {tuple(mesh.verts_int[n]): n for n in face_nodes}
    nodes, vals = [], []
    for n in target_nodes:
        p = mesh.verts_int[n]
        layer = abs(int(p[a]) - c)
        key = list(p)
        key[a] = c
        src = fset.get(tuple(key))
        if 0 < layer < layers and src is not None:
            nodes.append(n)
            vals.append(source[src] * (1.0 - layer / layers))
    return np.array(nodes, dtype=np.int64), np.array(vals)


@pytest.mark.parametrize("geometry", ["three_cube_L", "cube_in_box_B"])
def test_layer_extension_matches_reference_loop(geometry, rng):
    mesh = build_complex(geometry, 0.125)
    source = rng.uniform(-1, 1, (mesh.nv, 3))
    assert interface_faces(mesh)
    for iface in interface_faces(mesh):
        for k in iface.blocks:
            vmap = extract_block(mesh, k).vert_map
            targets = vmap[~np.isin(vmap, iface.fine_nodes)]
            nodes, src = dc._layer_extension(mesh, iface.fine_nodes, targets, iface.plane)
            vals = source[src] * 0.5
            ref_nodes, ref_vals = _reference_layer_extension(
                mesh, iface.fine_nodes, source, targets, iface.plane)
            assert len(nodes) and np.array_equal(nodes, ref_nodes)
            assert np.array_equal(vals, ref_vals)


# -- route plans ---------------------------------------------------------------

FOUR_EDGES = ["e:x=0,y=0", "e:x=1,y=0", "e:x=1,y=1", "e:x=0,y=1"]

# one configuration per route path
WARM_PATHS = [
    ("unit_cube", ["boundary"], "kernel"),
    ("three_cube_L", ["x=0"], "face-chain"),
    ("unit_cube", ["e:x=0,y=0"], "edge-cut"),
    ("pyramid", ["lat:x-", "lat:x+"], "corner-pair-faces"),
    ("unit_cube", ["z=0", "e:x=0,y=0"], "faces-plus-edge/endpoint"),
    ("unit_cube", ["z=0", "e:y=1,z=1"], "faces-plus-edge/clear-face"),
    ("cube_in_box", ["z=0", "y=1", "e:y=0,z=1"], "faces-plus-edge/extension"),
    ("unit_cube", ["e:x=0,y=0", "e:x=1,y=1"], "disjoint-edges/simple"),
    ("four_edge_cube", FOUR_EDGES, "disjoint-edges/subdomains"),
    ("edge_junction_pair", ["x=1#0", "y=1#1"], "edge-junction/shared"),
    ("edge_junction_pair", ["x=0"], "edge-junction/chained"),
    ("vertex_junction_pair", ["x=0", "x=2"], "vertex-junction"),
]


class _CountingLU:
    """A factorization that counts its solves."""

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts

    def solve(self, rhs, *args):
        self._counts["solve"] += 1
        return self._lu.solve(rhs, *args)

    def __getattr__(self, name):
        return getattr(self._lu, name)


@pytest.mark.parametrize("geometry,spec,path", WARM_PATHS)
def test_warm_call_factors_nothing_and_builds_no_loop(geometry, spec, path, monkeypatch):
    """A second call on the same (mesh, trace) only applies its plan: no
    loop, no loop potential, no factorization, no dense solve, no loop
    geometry, and one triangular solve per kernel pass."""
    counts = dict.fromkeys(["splu", "cholesky", "solve", "build_loop", "dense", "epsilon",
                            "arc", "potential"], 0)
    passes = []

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: _CountingLU(
        counted("splu", splu)(*a, **k), counts))
    cholesky = fem.Cholesky
    monkeypatch.setattr(fem, "Cholesky", lambda *a: _CountingLU(
        counted("cholesky", cholesky)(*a), counts))
    monkeypatch.setattr(ops, "build_loop", counted("build_loop", ops.build_loop))
    monkeypatch.setattr(np.linalg, "solve", counted("dense", np.linalg.solve))
    monkeypatch.setattr(np.linalg, "pinv", counted("dense", np.linalg.pinv))
    monkeypatch.setattr(ops, "epsilon_correction",
                        counted("epsilon", ops.epsilon_correction))
    monkeypatch.setattr(ops, "_edge_arc_positions", counted("arc", ops._edge_arc_positions))
    monkeypatch.setattr(ops, "loop_potential", counted("potential", ops.loop_potential))
    kernel_fields = dc._kernel_fields

    def kernel_pass(*args):
        before = counts["solve"]
        out = kernel_fields(*args)
        passes.append(counts["solve"] - before)
        return out

    monkeypatch.setattr(dc, "_kernel_fields", kernel_pass)

    h = 0.125 if geometry == "four_edge_cube" else 0.25
    mesh = build_complex(geometry, h)
    t = tag_trace(mesh, spec)
    cold, warm = (dc.random_admissible_field(mesh, t, s) for s in (41, 42))
    assert dc.decompose(cold, t).path == path
    assert counts["splu"] and counts["solve"]
    counts.update(dict.fromkeys(counts, 0))
    passes.clear()
    s = dc.decompose(warm, t)
    assert s.path == path
    assert_contract(s, warm, t)
    assert (counts["splu"] == counts["cholesky"] == counts["build_loop"] == counts["dense"]
            == counts["epsilon"] == counts["arc"] == counts["potential"] == 0), counts
    assert passes and passes == [1] * len(passes)


def test_warm_four_edge_call_is_one_cotree_solve(monkeypatch):
    """The four column routes run in lockstep: a warm call extends the four
    columns by one solve on the cotree curl-curl factor."""
    counts = {"solve": 0}
    cholesky = fem.Cholesky
    monkeypatch.setattr(fem, "Cholesky", lambda *a: _CountingLU(cholesky(*a), counts))
    mesh = build_complex("four_edge_cube", 0.25)
    t = tag_trace(mesh, FOUR_EDGES)
    dc.decompose(dc.random_admissible_field(mesh, t, 41), t)
    counts["solve"] = 0
    s = dc.decompose(dc.random_admissible_field(mesh, t, 42), t)
    assert s.path == "disjoint-edges/subdomains"
    assert counts["solve"] == 1


@pytest.mark.parametrize("geometry,spec,route", [(g, s, "auto") for g, s, _ in ROUTING_PATHS]
                         + [("unit_cube", ["z=0"], "kernel")])
def test_plan_records_path_and_claims(geometry, spec, route):
    """The plan is built before any apply and fixes the split's path and
    claims; the call applies that same plan."""
    mesh = build_complex(geometry, 0.25)
    t = tag_trace(mesh, spec)
    plan = dc._plan(route, t)
    assert isinstance(plan, dc._Route)
    s = dc.decompose(dc.random_admissible_field(mesh, t, 44), t, route=route)
    assert dc._plan(route, t) is plan
    assert (plan.path, plan.claims) == (s.path, s.claims)


def _fingerprint(mesh, spec, route, seed):
    t = tag_trace(mesh, spec)
    v = dc.random_admissible_field(mesh, t, seed)
    try:
        s = dc.decompose(v, t, route=route)
    except PreconditionError as exc:
        return str(exc)
    return (s.path, s.p.values.tobytes(), s.w.values.tobytes(), s.R.values.tobytes())


@pytest.mark.parametrize("geometry,calls", [
    ("unit_cube", [(["z=0"], "auto"), (["z=1"], "auto")]),
    ("three_cube_L", [(["x=0"], "kernel"), (["x=0"], "auto")]),
    # a face, then the face and an edge of its closure: equal fine masks,
    # so one normal form and one plan
    ("unit_cube", [(["z=0"], "auto"), (["z=0", "e:x=0,z=0"], "auto")]),
])
def test_plan_memo_keys(geometry, calls):
    """Plans memoized on a mesh for one trace and route never serve
    another: each call matches the same call on a fresh mesh."""
    mesh = build_complex(geometry, 0.25)
    for spec, route in calls:
        shared = _fingerprint(mesh, spec, route, 43)
        assert shared == _fingerprint(build_complex(geometry, 0.25), spec, route, 43)


@pytest.mark.parametrize("geometry,spec,h", [(g, s, 0.25) for g, s, _ in ROUTING_PATHS] + [
    ("vertex_junction_star3", ["p:-2,0,-1:0", "p:-2,0,1:0", "p:-1,-2,0:0"], 0.25),
    ("vertex_junction_star3", ["x=2", "z=-2", "z=2"], 0.25),
    ("vertex_junction_pair", ["x=0", "x=2"], 0.25),
    ("four_edge_cube", FOUR_EDGES, 0.125),
])
def test_dropped_mesh_is_freed_by_reference_count(geometry, spec, h, monkeypatch):
    """No memo value refers back to its mesh: with the cyclic collector
    off, dropping a decomposed mesh frees it and every mesh its plans built
    (block and core submeshes, extension meshes), and the next mesh built
    trims the heap."""
    trims = []
    monkeypatch.setattr(hmesh, "_malloc_trim", trims.append)
    alive = [m for m in gc.get_objects() if isinstance(m, TetMesh)]
    gc.disable()
    try:
        mesh = build_complex(geometry, h)
        ref = weakref.ref(mesh)
        trace = tag_trace(mesh, spec)
        for seed in (1, 2):
            v = dc.random_admissible_field(mesh, trace, seed)
            split = dc.decompose(v, trace)
        trims.clear()
        monkeypatch.setattr(hmesh, "_trim_due", False)
        del mesh, trace, v, split
        known = {id(m) for m in alive}
        assert [m.name for m in gc.get_objects()
                if isinstance(m, TetMesh) and id(m) not in known] == []
        assert ref() is None
        build_complex("unit_cube", 0.5)
        assert trims == [0]
    finally:
        gc.enable()
