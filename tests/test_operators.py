import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import helmdec.decompose as dc
from helmdec import fem, operators as ops
from helmdec.mesh import build_complex, extract_block
from helmdec.trace import interface_faces, surface, tag_trace


def loop_of(mesh, name):
    return ops.build_loop(mesh, [surface(mesh).face_by_name(name)])


# -- r_h -------------------------------------------------------------------

def test_rh_constant_field(cube4):
    w = fem.NodalVectorField(cube4, np.tile([1.0, 0.0, 0.0], (cube4.nv, 1)))
    lam = ops.edge_interpolate_rh(w).values
    assert np.allclose(lam, cube4.edge_vectors()[:, 0])


def test_rh_reproduces_nodal_gradients(cube4, rng):
    q = rng.uniform(-1, 1, cube4.nv)
    G = fem.gradient_map(cube4)
    # nodal gradient sampled as a piecewise-linear vector field has the same
    # moments as the algebraic gradient on every straight lattice edge where
    # the field is linear; the operator identity is the curl commutation
    w = fem.NodalVectorField(cube4, rng.uniform(-1, 1, (cube4.nv, 3)))
    ce = fem.curl_of_edge_field(ops.edge_interpolate_rh(w))
    cw = fem.curl_of_nodal_field(w)
    assert np.abs(ce - cw).max() < 1e-12


# -- graph cut-off ------------------------------------------------------------

def test_face_cutoff_values(lshape4):
    # cut-off of an interface face inside its block: seeded on the interior
    # face nodes, walking only through block nodes off the block boundary
    # (the face boundary curve and the other interfaces stay 0)
    iface = interface_faces(lshape4)[0]  # blocks (0,1)
    sub = extract_block(lshape4, 0)
    interior = np.setdiff1d(iface.fine_nodes, iface.boundary_nodes)
    seed = np.zeros(lshape4.nv, dtype=bool)
    seed[interior] = True
    hard_zero = sub.node_mask() & lshape4.boundary_node_mask() | _iface_mask(lshape4, 0)
    theta = ops.graph_cutoff(lshape4, seed, within=sub.node_mask() & ~hard_zero)
    assert np.all(theta[interior] == 1.0)
    assert np.all(theta[iface.boundary_nodes] == 0.0)
    assert theta.min() >= 0.0 and theta.max() <= 1.0
    # one mesh edge away from the seed: 1/2; beyond the block: 0
    assert np.any(theta == 0.5)
    assert np.all(theta[~sub.node_mask()] == 0.0)
    # unrestricted, it is the two-layer graph-distance decay
    free = ops.graph_cutoff(lshape4, seed)
    edges = lshape4.edges
    near = np.unique(edges[np.isin(edges, interior).any(axis=1)])
    assert np.all(free[np.setdiff1d(near, interior)] == 0.5)
    assert np.count_nonzero(free) == len(near)


def _iface_mask(mesh, block):
    m = np.zeros(mesh.nv, dtype=bool)
    for i in interface_faces(mesh):
        if block in i.blocks:
            m[i.fine_nodes] = True
    return m


# -- harmonic extension -------------------------------------------------------

def test_harmonic_extension_constants_and_linears(cube4):
    one = ops.harmonic_extend(cube4, np.ones(cube4.nv))
    assert np.abs(one.values - 1.0).max() < 1e-12
    x = ops.harmonic_extend(cube4, cube4.verts[:, 0].copy())
    assert np.abs(x.values - cube4.verts[:, 0]).max() < 1e-12


def test_harmonic_extension_energy_minimality(cube4, rng):
    bn = cube4.boundary_node_mask()
    data = np.zeros(cube4.nv)
    data[bn] = rng.uniform(-1, 1, int(bn.sum()))
    ext = ops.harmonic_extend(cube4, data)
    K = fem.assemble(cube4, "Z", "stiffness")
    zero_ext = data.copy()  # interior zero competitor
    x = ext.values
    assert float(x @ (K @ x)) <= float(zero_ext @ (K @ zero_ext)) + 1e-12


# -- curl-harmonic extension --------------------------------------------------

def test_curl_harmonic_gradient_data(cube4, rng):
    G = fem.gradient_map(cube4)
    be = cube4.boundary_edge_mask()
    data = np.zeros(cube4.ne)
    data[be] = (G @ rng.uniform(-1, 1, cube4.nv))[be]
    ext = ops.curl_harmonic_extend(cube4, data)
    assert fem.norm(ext, "curl_semi") < 1e-10
    z = ops.curl_harmonic_extend(cube4, np.zeros(cube4.ne))
    assert np.abs(z.values).max() == 0.0


def test_curl_harmonic_minimality(cube4, rng):
    v = fem.EdgeField(cube4, rng.uniform(-1, 1, cube4.ne))
    be = cube4.boundary_edge_mask()
    data = np.zeros(cube4.ne)
    data[be] = v.values[be]
    ext = ops.curl_harmonic_extend(cube4, data)
    assert fem.norm(ext, "curl_semi") <= fem.norm(v, "curl_semi") + 1e-12


# every distinct mesh the decomposition routes send to the curl-harmonic
# extension at h = 1/4: (geometry, block or None for the whole complex)
CURLHARM_MESHES = [("unit_cube", None), ("pyramid", None), ("cube_in_box_B", None)] + [
    ("vertex_junction_star3", b) for b in range(3)
]


def _saddle_point_reference(mesh, data):
    """The extension from the augmented system [[K_ii, (MG)_i], [(MG)_i^T, 0]]."""
    K = fem.assemble(mesh, "V", "stiffness")
    M = fem.assemble(mesh, "V", "mass")
    G = fem.gradient_map(mesh)
    be = mesh.boundary_edge_mask()
    ie, bidx = np.nonzero(~be)[0], np.nonzero(be)[0]
    B = (M @ G[:, np.nonzero(~mesh.boundary_node_mask())[0]]).tocsr()
    system = sp.bmat([[K[ie][:, ie], B[ie]], [B[ie].T, None]], format="csc")
    rhs = np.concatenate([-(K[ie][:, bidx] @ data[bidx]), -(B[bidx].T @ data[bidx])])
    out = data.copy()
    out[ie] = spla.spsolve(system, rhs)[: len(ie)]
    return out


@pytest.mark.parametrize("geometry,block", CURLHARM_MESHES)
def test_curl_harmonic_matches_saddle_point(geometry, block, monkeypatch):
    mesh = build_complex(geometry, 0.25)
    if block is not None:
        mesh = extract_block(mesh, block).mesh
    rng = np.random.default_rng(7)
    be = mesh.boundary_edge_mask()
    data = np.zeros(mesh.ne)
    data[be] = rng.uniform(-1, 1, int(be.sum()))
    factorizations = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        factorizations.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    ext = ops.curl_harmonic_extend(mesh, data).values
    assert factorizations
    ref = _saddle_point_reference(mesh, data)
    assert np.abs(ext - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(ext[be], data[be])
    # L2 gauge: orthogonal to the gradients of the interior hat functions
    Gi = fem.gradient_map(mesh)[:, np.nonzero(~mesh.boundary_node_mask())[0]]
    Mv = fem.assemble(mesh, "V", "mass") @ ext
    assert np.abs(Gi.T @ Mv).max() <= 1e-12 * (abs(Gi.T) @ np.abs(Mv)).max()
    # warm call: cached factors only
    n = len(factorizations)
    again = ops.curl_harmonic_extend(mesh, data).values
    assert len(factorizations) == n
    assert np.array_equal(again, ext)


# -- loops ---------------------------------------------------------------------

def test_loop_zero_field(cube4):
    loop = loop_of(cube4, "z=1")
    dec = ops.loop_decompose(fem.EdgeField(cube4, np.zeros(cube4.ne)), loop)
    assert dec.C == 0.0 and np.abs(dec.phi).max() == 0.0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_loop_reconstruction_and_stokes(seed):
    mesh = build_complex("unit_cube", 0.25)
    loop = loop_of(mesh, "z=1")
    rng = np.random.default_rng(seed)
    v = fem.EdgeField(mesh, rng.uniform(-1, 1, mesh.ne))
    dec = ops.loop_decompose(v, loop)
    lam = v.values[loop.edges] * loop.signs
    rec = (np.roll(dec.phi, -1) - dec.phi) + dec.C * loop.lengths
    scale = max(1.0, np.abs(lam).max())
    assert np.abs(lam - rec).max() <= 1e-13 * scale
    # Stokes: the loop average equals the face flux over the length
    face = surface(mesh).face_by_name("z=1")
    flux = fem.curl_map(mesh) @ v.values
    tot = float((flux[face.fine_faces] * face.outward_sign).sum())
    assert abs(dec.C - tot / loop.total_length) <= 1e-12 * (1 + abs(dec.C))


def test_loop_gradient_trace(cube4, rng):
    loop = loop_of(cube4, "z=1")
    q = rng.uniform(-1, 1, cube4.nv)
    gv = fem.EdgeField(cube4, fem.gradient_map(cube4) @ q)
    dec = ops.loop_decompose(gv, loop)
    assert abs(dec.C) < 1e-14
    diff = (dec.phi - dec.phi[0]) - (q[loop.nodes] - q[loop.nodes[0]])
    assert np.abs(diff).max() < 1e-12


def test_loop_zero_edge_mode(cube4, rng):
    surf = surface(cube4)
    loop = loop_of(cube4, "z=1")
    E = surf.edge_by_name("e:y=0,z=1")
    v = fem.EdgeField(cube4, rng.uniform(-1, 1, cube4.ne))
    v.values[E.fine_edges] = 0.0
    dec = ops.loop_decompose(v, loop, zero_edge=E)
    for n in E.fine_nodes:
        assert dec.phi[loop.node_pos(int(n))] == 0.0
    assert dec.l0 == pytest.approx(3.0)
    with pytest.raises(ops.PreconditionError):
        bad = fem.EdgeField(cube4, rng.uniform(0.5, 1.0, cube4.ne))
        ops.loop_decompose(bad, loop, zero_edge=E)


def test_loop_zero_mean_edge(cube4, rng):
    surf = surface(cube4)
    loop = loop_of(cube4, "z=1")
    E = surf.edge_by_name("e:y=0,z=1")
    v = fem.EdgeField(cube4, rng.uniform(-1, 1, cube4.ne))
    dec = ops.loop_decompose(v, loop, zero_mean_edge=E)
    pos = loop.edge_positions(E.fine_edges)
    ln = loop.lengths[pos]
    mean = float(np.sum(ln * 0.5 * (dec.phi[pos] + dec.phi[(pos + 1) % loop.n])) / ln.sum())
    assert abs(mean) < 1e-13
    assert dec.phi[0] == pytest.approx(dec.c_shift) or abs(dec.phi[0] - dec.c_shift) < 1e-13


# -- constant extension ---------------------------------------------------------

def test_constant_extension_zero(cube4):
    loop = loop_of(cube4, "z=1")
    E = surface(cube4).edge_by_name("e:y=0,z=1")
    per_edge = np.zeros(loop.n)
    out = ops.loop_constant_extension(0.0, loop, E.fine_nodes, per_edge)
    assert np.abs(out.values).max() == 0.0


def test_constant_extension_straight_complement(cube4):
    # E = three sides of the bottom face; the complement is the straight
    # edge along x, where the constant field (C,0,0) is feasible
    surf = surface(cube4)
    loop = loop_of(cube4, "z=0")
    E = [surf.edge_by_name(n) for n in ("e:x=0,z=0", "e:y=1,z=0", "e:x=1,z=0")]
    fine = np.concatenate([e.fine_edges for e in E])
    C = 1.3
    per_edge = np.full(loop.n, C)
    pos = loop.edge_positions(fine)
    per_edge[pos] = 0.0
    pins = np.unique(np.concatenate([e.fine_nodes for e in E]))
    out = ops.loop_constant_extension(C, loop, pins, per_edge)
    rh = ops.edge_interpolate_rh(out)
    resid = rh.values[loop.edges] * loop.signs - per_edge * loop.lengths
    assert np.abs(resid).max() < 1e-12
    free = [int(n) for n in loop.nodes if n not in set(int(p) for p in pins)]
    mid = [n for n in free if 0.25 <= cube4.verts[n, 0] <= 0.75]
    # minimality against feasible competitors (constraint-nullspace bumps)
    rng = np.random.default_rng(0)
    base = _path_l2(cube4, loop, pos, out.values)
    for _ in range(5):
        comp = out.values.copy()
        bump = rng.uniform(-1, 1, (len(free), 3))
        comp[free] += bump
        rhc = ops.edge_interpolate_rh(fem.NodalVectorField(cube4, comp))
        rc = rhc.values[loop.edges] * loop.signs - per_edge * loop.lengths
        if np.abs(rc).max() > 1e-10:
            # project the bump onto the feasible set by re-solving with the
            # bumped field as an offset: instead just skip infeasible bumps
            continue
        assert base <= _path_l2(cube4, loop, pos, comp) + 1e-12
    # analytic feasible competitor: minimizer plus a vector field normal to
    # the path direction at a single interior node (keeps all moments)
    comp = out.values.copy()
    comp[mid[0]] += np.array([0.0, 0.0, 0.7])
    rhc = ops.edge_interpolate_rh(fem.NodalVectorField(cube4, comp))
    rc = rhc.values[loop.edges] * loop.signs - per_edge * loop.lengths
    assert np.abs(rc).max() < 1e-12  # orthogonal bump is feasible
    assert base <= _path_l2(cube4, loop, pos, comp) + 1e-12


def _path_l2(mesh, loop, zero_pos, values):
    total = 0.0
    for k in range(loop.n):
        if k in set(zero_pos.tolist()):
            continue
        a = int(loop.nodes[k])
        b = int(loop.nodes[(k + 1) % loop.n])
        L = loop.lengths[k]
        ua, ub = values[a], values[b]
        total += L / 3.0 * (ua @ ua + ua @ ub + ub @ ub)
    return total


# -- epsilon correction -----------------------------------------------------------

def test_epsilon_correction_values_and_integral(cube4):
    surf = surface(cube4)
    loop = loop_of(cube4, "z=1")
    E = surf.edge_by_name("e:y=0,z=1")
    C = 0.9
    names = ["e:x=0,z=1", "e:x=1,z=1"]
    try:
        eps = ops.epsilon_correction(loop, E, surf.edge_by_name(names[0]),
                                     surf.edge_by_name(names[1]), C)
    except ops.PreconditionError:
        eps = ops.epsilon_correction(loop, E, surf.edge_by_name(names[1]),
                                     surf.edge_by_name(names[0]), C)
    pos = loop.edge_positions(E.fine_edges)
    assert np.all(eps[pos] == -C)
    others = eps[np.abs(eps) > 0]
    assert np.isclose(sorted(set(np.round(others, 12))), [-C, C / 2]).all()
    assert abs((eps * loop.lengths).sum()) < 1e-14
    try:
        zero = ops.epsilon_correction(loop, E, surf.edge_by_name(names[0]),
                                      surf.edge_by_name(names[1]), 0.0)
    except ops.PreconditionError:
        zero = ops.epsilon_correction(loop, E, surf.edge_by_name(names[1]),
                                      surf.edge_by_name(names[0]), 0.0)
    assert np.abs(zero).max() == 0.0


# -- junction functionals -----------------------------------------------------------

def test_junction_functionals_zero_and_gradient():
    # the vertex-junction gate on the trace x=0, x=2: both blocks are
    # anchored, with loops around y=1#0 and y=1#1 normalized on their trace
    # edges e:x=0,y=1 and e:x=2,y=1
    mesh = build_complex("vertex_junction_pair", 0.25)
    surf = surface(mesh)
    trace = tag_trace(mesh, ["x=0", "x=2"])
    v0 = mesh.node_index()[(mesh.denom, mesh.denom, mesh.denom)]
    zed = [surf.edge_by_name("e:x=0,y=1"), surf.edge_by_name("e:x=2,y=1")]

    def functionals(v):
        node, kinds, setups, vals, _, _ = dc._vertex_gate(v, trace)
        assert node == v0 and kinds == ["anchored", "anchored"]
        assert [s[0].name for s in setups] == ["y=1#0", "y=1#1"]
        assert [s[2].name for s in setups] == [e.name for e in zed]
        return vals[1:] - vals[:-1]

    z = fem.EdgeField(mesh, np.zeros(mesh.ne))
    F = functionals(z)
    assert np.abs(F).max() == 0.0
    rng = np.random.default_rng(5)
    q = rng.uniform(-1, 1, mesh.nv)
    q[zed[0].fine_nodes] = 0.0
    q[zed[1].fine_nodes] = 0.0
    gv = fem.EdgeField(mesh, fem.gradient_map(mesh) @ q)
    F = functionals(gv)
    # phi values equal q-differences anchored at the zero-mean edges
    assert np.abs(F).max() < 1e-12


def test_rh_of_constant_gradient_equals_gradient_map(cube4):
    # p linear => grad p constant; its interpolation reproduces the
    # algebraic gradient of the nodal values exactly
    coef = np.array([0.3, -1.2, 0.7])
    p = cube4.verts @ coef
    w = fem.NodalVectorField(cube4, np.tile(coef, (cube4.nv, 1)))
    lhs = ops.edge_interpolate_rh(w).values
    rhs = fem.gradient_map(cube4) @ p
    assert np.abs(lhs - rhs).max() < 1e-13
