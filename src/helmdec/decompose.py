"""Discrete regular Helmholtz decompositions v = grad p + r_h w + R.

`decompose` is the one entry point.  It routes the field to a construction
and returns a HelmholtzSplit with an exact DOF identity and exact zero
coefficients of p, w on the trace entities (zeros are placed, never
rounded).  The routes mirror the constructions the stability theory is
built on: a two-Poisson kernel on traces with a convex extension, the
block chain (blocks in order, each on its own block plan) for non-convex
face traces and the edge junction, curl-harmonic face/edge splittings,
the boundary-loop subtraction for edges, and the vertex-junction pipeline
with its compatibility gate.

Every route is split into a plan and an apply.  For a fixed mesh and trace
the route is a linear map v -> (p, w), so a route is a private planner
`(mesh, trace) -> _Route(path, claims, apply)`: it fixes the path and the
claims, derives once what depends on the mesh and the trace alone (the
branch taken, the cut faces, the boundary loops and their arc positions,
the kernel pin masks, the block plans and interface extensions of a block
chain, the vertex-junction gate), and holds `apply`, a function
of v that does only matvecs and solves on cached factors and returns (p, w,
meta) or a CompatibilityViolation.  The gate is linear in v, one sparse
matrix of the loop potentials at the junction vertex (`_gate_plan`): a
refusal is one matvec.  `_plan` memoizes one plan per (mesh, route, coarse
trace entities) on the mesh, so a second call on the same (mesh, trace)
builds no loop or loop operator and factors nothing; each kernel pass is
one 4-column solve [p | w_x w_y w_z].  Routes are built from shared passes: `_routed` applies
every top-level plan (and every block plan) between one entry
check, zero trace moments of v, and one exit placement, exact zeros of p
and w on the trace nodes; `_loop_cut_columns` is the one boundary-loop
subtraction and curl-harmonic split behind every edge route, run for k pass
plans in lockstep (k = 1 on one edge route, k = 4 on the four-edge
subdomain split, whose column extensions are one 4-column solve);
`_block_kernel` is the one block-kernel pass.  A pinned kernel pass solves
on the nodal factor of its pin mask (`fem.cached_solver`).  The residual R
and the norm battery are computed once, in `_finish`.  Stability is
measured (norm quotients against the claimed bound), not assumed.

The planners read which coarse faces, edges and blocks meet from the
incidence `trace.surface` records once (`CoarseFace.edges`, `.block`,
`Surface.edge_of`); only contact at a single node (a corner pair's apex,
disjoint edges) and a chain block's contact with the blocks before it are
read from the fine node sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem, operators as ops
from .fem import EdgeField, NodalField, NodalVectorField
from .geometry import GeometryError, _block_intersection_kind
from .mesh import Submesh, TetMesh, _pack_pairs, build_complex, extract_block, extract_tets
from .operators import PreconditionError
from .trace import (CoarseEdge, CoarseFace, TraceSet, _fine_closure, geometry_info,
                    interface_faces, linked_components, surface, trace_from_fine)

__all__ = [
    "HelmholtzSplit",
    "CompatibilityViolation",
    "ROUTES",
    "decompose",
    "random_admissible_field",
    "gradient_field",
    "incompatible_field",
]

# vertex-junction gate: the compatibility functionals must vanish to this
# tolerance relative to |v|_curl
VERTEX_GATE_TOL = 1e-10


@dataclass
class HelmholtzSplit:
    """The triple (p, w, R) with provenance and measured stability data.

    claims: {"rhs1": "curl_semi"|"curl", "rhs2": "l2"|"curl", "log": bool}
    ratios: quotients of the split norms against the claimed right-hand
    sides (empty for v = 0); norms: the raw ingredients; meta: route data
    such as recorded loop averages (C, l0, face flux) and functionals.
    """

    mesh: TetMesh
    p: NodalField
    w: NodalVectorField
    R: EdgeField
    path: str
    claims: dict
    norms: dict = field(default_factory=dict)
    ratios: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def identity_residual(self, v: EdgeField) -> float:
        # summed as grad p + r_h w + R, not through `_residual`, so the
        # check measures the identity instead of reading R's own rounding
        lhs = v.values
        rhs = (
            fem.gradient_map(self.mesh) @ self.p.values
            + ops.edge_interpolate_rh(self.w).values
            + self.R.values
        )
        scale = max(np.abs(lhs).max(), 1.0e-300)
        return float(np.abs(lhs - rhs).max() / scale)


@dataclass
class CompatibilityViolation:
    """Typed refusal of a vertex-junction decomposition: the compatibility
    functionals do not vanish for the given field."""

    geometry: str
    functionals: np.ndarray
    tol: float

    @property
    def message(self) -> str:
        vals = ", ".join(f"{x:.3e}" for x in self.functionals)
        return (
            f"vertex-junction compatibility violated on {self.geometry}: "
            f"functionals [{vals}] exceed tol {self.tol:.3e}"
        )


# --------------------------------------------------------------------------
# shared machinery
# --------------------------------------------------------------------------

def _check_zero_moments(v: EdgeField, edge_mask: np.ndarray, what: str):
    if not edge_mask.any():
        return
    scale = max(1.0, float(np.abs(v.values).max()))
    bad = np.nonzero(edge_mask & (np.abs(v.values) > 1e-12 * scale))[0]
    if len(bad):
        raise PreconditionError(
            f"nonzero tangential moment on {what}: fine edge {int(bad[0])} "
            f"(|moment| = {abs(v.values[bad[0]]):.3e})",
            entity=int(bad[0]),
        )


def _kernel_fields(mesh: TetMesh, v: np.ndarray, gamma_nodes: np.ndarray):
    """Two constrained Poisson solves on one factor, made as one 4-column
    solve: p from (grad p, grad q) = (v, grad q) and w from (grad w, grad
    phi) = (curl v, curl phi), both over the nodal space vanishing at
    gamma_nodes (mean-zero gauge when empty).  The right-hand sides come
    from the cached edge operators: G^T (M_V v) for p, and r_h^T (K_V v)
    for w, exact because curl r_h phi = curl phi for every nodal vector
    hat function phi.  K_V is applied in factored form C^T (W (C v)), so a
    field whose per-tet curls are exact zeros gets w == 0 exactly.  The
    transposes G^T, r_h^T and C^T are CSC views that share the arrays of
    the cached CSR matrices, kept on the mesh so that a pass builds none."""
    C = fem._curl_matrix(mesh)
    Gt, Rt, Ct = mesh.cached("kernel_rhs_transposes", lambda: (
        fem.gradient_map(mesh).T, ops.rh_matrix(mesh).T, C.T))
    wcurl = fem.tet_volumes(mesh)[:, None] * (C @ v).reshape(-1, 3)  # W (C v)
    rhs = np.empty((mesh.nv, 4))
    rhs[:, 0] = Gt @ (fem.assemble(mesh, "V", "mass") @ v)
    rhs[:, 1:] = (Rt @ (Ct @ wcurl.ravel())).reshape(mesh.nv, 3)
    if not gamma_nodes.any():
        # the stiffness bordered by the mean-value row: a saddle point with
        # a zero diagonal entry, so it keeps SuperLU's partial pivoting
        def gauge():
            mz = fem.assemble(mesh, "Z", "mass") @ np.ones(mesh.nv)
            K = fem.assemble(mesh, "Z", "stiffness")
            return spla.splu(sp.bmat([[K, mz[:, None]], [mz[None, :], None]], format="csc"))

        out = mesh.cached(("splu", "gauge"), gauge).solve(
            np.vstack([rhs, np.zeros((1, 4))]))[:-1]
    else:
        free = np.nonzero(~gamma_nodes)[0]
        out = np.zeros((mesh.nv, 4))
        out[free] = fem.cached_solver(mesh, gamma_nodes).solve(rhs[free])
    return np.ascontiguousarray(out[:, 0]), np.ascontiguousarray(out[:, 1:])


def _residual(mesh: TetMesh, v: np.ndarray, p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Edge moments of v - grad p - r_h w."""
    return (v - fem.gradient_map(mesh) @ p
            - ops.edge_interpolate_rh(NodalVectorField(mesh, w)).values)


def _block_kernel(sub: Submesh, v: np.ndarray, pins: np.ndarray, p, w, R):
    """Block-kernel pass: the kernel of v restricted to the block,
    its residual there, all three added into the parent accumulators.
    Returns the block's p and w."""
    vb = sub.restrict_edge(v)
    pb, wb = _kernel_fields(sub.mesh, vb, pins)
    p[sub.vert_map] += pb
    w[sub.vert_map] += wb
    R[sub.edge_map] += _residual(sub.mesh, vb, pb, wb)
    return pb, wb


def _finish(v: EdgeField, p: np.ndarray, w: np.ndarray, path: str,
            claims: dict, meta: dict) -> HelmholtzSplit:
    mesh = v.mesh
    pf = NodalField(mesh, p)
    wf = NodalVectorField(mesh, w)
    R = EdgeField(mesh, _residual(mesh, v.values, p, w))
    norms = {
        "h": mesh.h,
        "v_l2": fem.norm(v, "L2"),
        "v_curl_semi": fem.norm(v, "curl_semi"),
        "w_h1": fem.norm(wf, "H1"),
        "w_l2": fem.norm(wf, "L2"),
        "p_h1": fem.norm(pf, "H1"),
        "R_l2": fem.norm(R, "L2"),
    }
    norms["v_curl"] = float(np.hypot(norms["v_l2"], norms["v_curl_semi"]))
    ratios = {}
    # |v|_curl_semi of a gradient is roundoff on a non-Kuhn mesh; a quotient
    # against it measures nothing, so it counts as 0 there
    semi = norms["v_curl_semi"]
    if semi <= 1e-12 * norms["v_l2"] / mesh.h:
        semi = 0.0
    rhs1 = semi if claims.get("rhs1") == "curl_semi" else norms["v_curl"]
    rhs2 = norms["v_l2"] if claims.get("rhs2") == "l2" else norms["v_curl"]
    if rhs1 > 0:
        ratios["w_h1"] = norms["w_h1"] / rhs1
        ratios["R_scaled"] = norms["R_l2"] / mesh.h / rhs1
    if rhs2 > 0:
        ratios["w_l2_p_h1"] = (norms["w_l2"] + norms["p_h1"]) / rhs2
    # both quotients of the open question: recorded, never gated
    if norms["v_curl"] > 0:
        ratios["w_h1_vs_curl_full"] = norms["w_h1"] / norms["v_curl"]
    if norms["v_l2"] > 0:
        ratios["w_l2_p_h1_vs_l2"] = (norms["w_l2"] + norms["p_h1"]) / norms["v_l2"]
    return HelmholtzSplit(mesh, pf, wf, R, path, dict(claims), norms, ratios, meta)


def _loop_flux(mesh: TetMesh, v: EdgeField, faces: Sequence[CoarseFace]) -> float:
    """Outward flux of curl v through a face patch (exact Stokes mate of the
    loop average)."""
    flux = fem.curl_map(mesh) @ v.values
    tot = 0.0
    for f in faces:
        tot += float((flux[f.fine_faces] * f.outward_sign).sum())
    return tot


def _mask_from_ids(n, ids):
    m = np.zeros(n, dtype=bool)
    m[ids] = True
    return m


class _Route(NamedTuple):
    """A route's plan on one (mesh, trace): its path and claims, and
    `apply(v) -> (p, w, meta)` or a CompatibilityViolation."""

    path: str
    claims: dict
    apply: Callable


# --------------------------------------------------------------------------
# kernel route (convex / extension traces)
# --------------------------------------------------------------------------

def _kernel_pass(pins: np.ndarray, path: str, claims: dict) -> _Route:
    """Plan of a route that is one kernel pass pinned at `pins`."""
    return _Route(path, claims, lambda v: _kernel_fields(v.mesh, v.values, pins) + ({},))


def _kernel_route(mesh: TetMesh, trace: TraceSet) -> _Route:
    """Computable decomposition kernel: constrained Poisson projection for
    p, constrained vector Poisson solve with curl data for w, exact
    residual R.  Valid whenever every trace component admits a Lipschitz
    extension block (Assumption 3.1, decided by catalog lookup): a
    Lipschitz domain and a trace of faces only whose components are
    Lipschitz.  The extended domain is convex when the domain is or the
    trace covers every concave face."""
    info = geometry_info(mesh)
    need = "kernel route needs extension blocks"
    if not trace.empty and not info.lipschitz:
        raise PreconditionError(f"{need}: domain itself is not Lipschitz")
    if trace.coarse_edges or trace.vertex_nodes:
        raise PreconditionError(f"{need}: trace contains edges/vertices")
    if not trace.lipschitz:
        raise PreconditionError(f"{need}: trace component with isolated vertex")
    convex_b = info.convex or trace.contains_concave
    if trace.J <= 1:
        claims = {"rhs1": "curl_semi", "rhs2": "l2" if convex_b else "curl", "log": False}
    else:
        claims = {"rhs1": "curl", "rhs2": "l2", "log": False}
    return _kernel_pass(trace.node_mask, "kernel", claims)


# --------------------------------------------------------------------------
# block chains: the face chain and the edge junction
# --------------------------------------------------------------------------

def _axis_of_plane(plane) -> tuple[int, int]:
    n, c = plane
    for a in range(3):
        if tuple(abs(x) for x in n) == tuple(1 if d == a else 0 for d in range(3)):
            return a, c * (1 if n[a] > 0 else -1)
    raise GeometryError("interface plane is not axis-aligned")


def _layer_extension(mesh: TetMesh, face_nodes: np.ndarray, target_nodes: np.ndarray,
                     plane) -> tuple[np.ndarray, np.ndarray]:
    """Support of the two-layer decay of nodal data given on an
    axis-aligned interface into a block: the target nodes one lattice layer
    off the interface, which take half the value of their source face node
    (returned alongside), with exact zeros beyond."""
    a, c = _axis_of_plane(plane)
    nodes = target_nodes[np.abs(mesh.verts_int[target_nodes, a] - c) == 1]
    # a target's source is its projection onto the plane, a node of the
    # block (a lattice-meshed brick with the plane as a face); keep the
    # targets whose source lies on the interface face
    points = mesh.verts_int[nodes]
    points[:, a] = c
    src = mesh.node_ids(points)
    hit = np.isin(src, face_nodes)
    return nodes[hit], src[hit]


def _chain_order(blocks) -> tuple[int, ...]:
    """The default visiting order of a block chain: first the blocks that
    share a face with every other block, then the rest, in index order."""
    n = len(blocks)
    hubs = [a for a in range(n) if all(_block_intersection_kind(blocks[a], blocks[b]) == "face"
                                       for b in range(n) if b != a)]
    return tuple(hubs + [b for b in range(n) if b not in hubs])


def _block_plan(sub: Submesh, node_mask: np.ndarray, edge_mask: np.ndarray, spec):
    """A block, the trace masks restricted to it as a trace of the block
    mesh, and that trace's plan.  The block trace is named by the outer
    trace's `spec`, so a block refusal names the trace, not the block."""
    trace = trace_from_fine(sub.mesh, node_mask[sub.vert_map], edge_mask[sub.edge_map], spec)
    return sub, trace, _plan("auto", trace)


def _block_split(block, vb: np.ndarray):
    """The routed (p, w, meta) of the edge moments vb of a block.  A block
    is one convex block, so its route is never a vertex junction and never
    refuses."""
    sub, trace, plan = block
    return _routed(plan, EdgeField(sub.mesh, vb), trace)


def _block_chain(mesh: TetMesh, trace: TraceSet, order: Sequence[int]) -> _Route:
    """The blocks visited in `order`, each decomposed by the plan of its
    block trace: the outer trace plus its contact with the blocks visited
    before it (the fine nodes and edges it shares with them).  A block's
    input is the residual v - grad p - r_h w - R left by those blocks, read
    on its edges.  Across a face contact into a block not yet visited, the
    block's p extends harmonically and its w by the two-layer cut-off (0 on
    the interface boundary curve); across an edge contact the extension is
    zero.  When every contact is a face, the chain is the face-trace
    construction on a non-convex union; an edge contact makes it the edge
    junction, refused when the trace meets the junction edge in a proper
    subset, and `shared` when the trace holds the edge: then the blocks
    before it vanish on the edge, and its input is v on the block."""
    blocks = geometry_info(mesh).complex.blocks
    subs = [extract_block(mesh, b) for b in order]
    seen_n = np.zeros(mesh.nv, dtype=bool)
    seen_e = np.zeros(mesh.ne, dtype=bool)
    # the block trace masks, and the junction refusal, checked before any
    # block plan so that it names the entity touching the edge
    masks, edge_contacts = [], []
    for i, (b, sub) in enumerate(zip(order, subs)):
        masks.append((trace.node_mask | seen_n, trace.edge_mask | seen_e))
        if i and "face" not in {_block_intersection_kind(blocks[a], blocks[b]) for a in order[:i]}:
            E_nodes = sub.vert_map[seen_n[sub.vert_map]]
            held = trace.edge_mask[sub.edge_map[seen_e[sub.edge_map]]].all()
            if trace.node_mask[E_nodes].any() and not held:
                touching = [x.name for x in trace.coarse_faces + trace.coarse_edges
                            if np.isin(x.fine_nodes, E_nodes).any()]
                touching += [n for n, nd in surface(mesh).vertices.items()
                             if nd in trace.vertex_nodes and nd in E_nodes]
                raise PreconditionError(
                    "the junction edge meets the trace in a proper subset; "
                    "not a catalog case", entity=touching[0])
            edge_contacts.append(held)
        seen_n[sub.vert_map] = True
        seen_e[sub.edge_map] = True

    ifaces = interface_faces(mesh)
    steps = []
    for i, (b, sub, (node_mask, edge_mask)) in enumerate(zip(order, subs, masks)):
        # per face contact into a block k not yet visited: the layer
        # support of w off the interface curve with its source nodes in
        # this block, and for the p data the interface nodes in k and in
        # this block, and the nodes of k that p is extended to
        exts = []
        for iface in ifaces:
            if b not in iface.blocks:
                continue
            k = iface.blocks[1] if iface.blocks[0] == b else iface.blocks[0]
            if k not in order[i + 1:]:
                continue
            subk = extract_block(mesh, k)
            on_iface = np.isin(subk.vert_map, iface.fine_nodes)
            nodes, src = _layer_extension(mesh, iface.fine_nodes, subk.vert_map[~on_iface],
                                          iface.plane)
            inner = ~np.isin(src, iface.boundary_nodes)
            exts.append((nodes[inner], np.searchsorted(sub.vert_map, src[inner]), subk,
                         np.flatnonzero(on_iface),
                         np.searchsorted(sub.vert_map, subk.vert_map[on_iface]),
                         ~np.isin(subk.vert_map, sub.vert_map)))
        steps.append((_block_plan(sub, node_mask, edge_mask, trace.spec), exts))
    if not edge_contacts:
        path, claims = "face-chain", {"rhs1": "curl_semi", "rhs2": "l2", "log": True}
    else:
        shared = all(edge_contacts)
        log = not shared or trace.coarse_edges or not trace.lipschitz
        path = "edge-junction/shared" if shared else "edge-junction/chained"
        claims = {"rhs1": "curl_semi" if trace.J <= 1 else "curl", "rhs2": "curl",
                  "log": bool(log)}

    def apply(v: EdgeField):
        mesh = v.mesh
        p = np.zeros(mesh.nv)
        w = np.zeros((mesh.nv, 3))
        R = np.zeros(mesh.ne)
        records = []
        for block, exts in steps:
            sub = block[0]
            vb = (_residual(sub.mesh, sub.restrict_edge(v.values), p[sub.vert_map],
                            w[sub.vert_map]) - R[sub.edge_map])
            pb, wb, meta = _block_split(block, vb)
            records.extend(meta.get("loops", []))
            p[sub.vert_map] += pb
            w[sub.vert_map] += wb
            R[sub.edge_map] += _residual(sub.mesh, vb, pb, wb)
            for nodes, src, subk, iface_k, iface_b, addmask in exts:
                w[nodes] += wb[src] * 0.5
                bdata = np.zeros(subk.mesh.nv)
                bdata[iface_k] = pb[iface_b]
                pk = ops.harmonic_extend(subk.mesh, bdata).values
                p[subk.vert_map[addmask]] += pk[addmask]
        return p, w, {"loops": records}

    return _Route(path, claims, apply)


# --------------------------------------------------------------------------
# curl-harmonic and loop splits against a face patch
# --------------------------------------------------------------------------

def _split_plan(mesh: TetMesh, faces: Sequence[CoarseFace], extra_a: np.ndarray,
                extra_b: np.ndarray):
    """Plan of the curl-harmonic split against a face patch: the boundary
    edges off the patch closure (the data of the extension), and the pins
    of its two kernels: the patch and `extra_a`; the complement (boundary
    minus the patch), the patch boundary curve and `extra_b`."""
    fn, fe = _fine_closure(mesh, faces, (), ())
    cn = mesh.boundary_node_mask() & ~fn
    for f in faces:
        cn[mesh.edges[f.boundary_edges].ravel()] = True
    return mesh.boundary_edge_mask() & ~fe, fn | extra_a, cn | extra_b


def _curl_harmonic_splits(mesh: TetMesh, fields: Sequence[np.ndarray], plans) -> list:
    """Split each edge field of `fields` into the curl-harmonic extension of
    its boundary moments off its face patch (it vanishes on the patch) and
    the rest (it vanishes off the patch), and run the kernel on each, pinned
    as its `_split_plan` says.  The k extensions are one k-column solve.
    Returns per field the summed p and w; both vanish on the nodes pinned
    in both kernels, the curve among them."""
    bdata = np.zeros((mesh.ne, len(fields)))
    for c, (v, (bmask, _, _)) in enumerate(zip(fields, plans)):
        bdata[bmask, c] = v[bmask]
    parts = ops.curl_harmonic_extend(mesh, bdata).values.T
    out = []
    for v, part, (_, pins_a, pins_b) in zip(fields, parts, plans):
        pa, wa = _kernel_fields(mesh, part, pins_a)
        pb, wb = _kernel_fields(mesh, v - part, pins_b)
        out.append((pa + pb, wa + wb))
    return out


# --------------------------------------------------------------------------
# edge routes
# --------------------------------------------------------------------------

def _edge_nodes(E: Sequence[CoarseEdge]) -> np.ndarray:
    return np.unique(np.concatenate([e.fine_nodes for e in E]))


def _find_face_for_edge(mesh, E: list[CoarseEdge], forbidden_nodes=None) -> CoarseFace:
    """The first face with every edge of E on its boundary, clear of `forbidden_nodes`."""
    ids = {e.id for e in E}
    chain = "+".join(e.name for e in E)
    for f in surface(mesh).faces:
        if not ids.issubset(f.edges):
            continue
        if forbidden_nodes is not None and forbidden_nodes[f.fine_nodes].any():
            continue
        return f
    raise PreconditionError(f"no admissible face has {chain} on its boundary", entity=chain)


def _loop_subtraction(v: EdgeField, loop: ops.BoundaryLoop, pot: ops.LoopPotential,
                      drift: np.ndarray, pins: np.ndarray, lift: float = 0.0):
    """Subtract a loop potential plus `lift` (as p) and the constant
    extension of the per-edge drift C * drift, pinned at `pins` (as w), from
    the edge moments of v.  Returns the subtracted moments, p, w and C."""
    mesh = v.mesh
    lam = v.values[loop.edges] * loop.signs
    C = float(pot.c @ lam)
    p = np.zeros(mesh.nv)
    p[loop.nodes] = pot.Phi @ lam + lift
    w = ops.loop_constant_extension(mesh, C, loop, pins, C * drift).values
    return _residual(mesh, v.values, p, w), p, w, C


def _cut_plan(mesh: TetMesh, cuts, extra_a: np.ndarray, extra_b: np.ndarray):
    """Plan of one loop-cut pass: per cut (edges, face) the face, its loop,
    the loop potential vanishing on the edges, the drift (1 off the edges,
    0 on them), the edge nodes and the loop edge mask; and the
    curl-harmonic split against all the cut faces."""
    steps = []
    for E, F in cuts:
        loop = ops.build_loop(mesh, [F])
        drift = np.ones(loop.n)
        drift[ops._edge_arc_positions(loop, E)] = 0.0
        steps.append((F, loop, ops.loop_potential(loop, zero_edge=E), drift, _edge_nodes(E),
                      _mask_from_ids(mesh.ne, loop.edges)))
    return steps, _split_plan(mesh, [F for _, F in cuts], extra_a, extra_b)


def _cut_loops(mesh: TetMesh, steps, v: EdgeField):
    """The loop cuts of one pass: each cut in turn subtracts, from the
    running field, the potential of its loop (into p) and the constant
    extension of the per-edge drift, pinned on the edges (into w); the
    subtracted field has zero moments on the whole loop, so nonzero
    moments on the edges are refused there.  Returns that field, p, w and
    (C, l0, flux) per loop."""
    p = np.zeros(mesh.nv)
    w = np.zeros((mesh.nv, 3))
    records = []
    for F, loop, pot, drift, pins, on_loop in steps:
        flux = _loop_flux(mesh, v, [F])
        vhat, phi, ctilde, C = _loop_subtraction(v, loop, pot, drift, pins)
        records.append((C, pot.l0, flux))
        v = EdgeField(mesh, vhat)
        _check_zero_moments(v, on_loop, "the patch boundary")
        p += phi
        w += ctilde
    return v.values, p, w, records


def _loop_cut_columns(mesh: TetMesh, plans, v: EdgeField) -> list:
    """The loop-cut pass behind every edge route, for k pass plans on one
    mesh applied to v in lockstep: each plan's loop cuts, then one
    k-column curl-harmonic split of what they leave.  Returns per plan
    (p, w, meta); the meta records (C, l0, flux) per loop."""
    cut = [_cut_loops(mesh, steps, v) for steps, _ in plans]
    splits = _curl_harmonic_splits(mesh, [c[0] for c in cut], [split for _, split in plans])
    return [(p + ps, w + ws, {"loops": records})
            for (_, p, w, records), (ps, ws) in zip(cut, splits)]


def _loop_cuts(mesh: TetMesh, cuts, extra_a: np.ndarray, extra_b: np.ndarray,
               path: str, claims: dict) -> _Route:
    """Plan of a route that is one loop-cut pass (k = 1)."""
    plan = _cut_plan(mesh, cuts, extra_a, extra_b)
    return _Route(path, claims, lambda v: _loop_cut_columns(v.mesh, [plan], v)[0])


def _edge_route(mesh: TetMesh, E: list[CoarseEdge]) -> _Route:
    """Decomposition with zero data on a connected union of coarse edges:
    one loop cut on a containing face."""
    no_pins = np.zeros(mesh.nv, dtype=bool)
    claims = {"rhs1": "curl_semi", "rhs2": "curl", "log": True}
    return _loop_cuts(mesh, [(E, _find_face_for_edge(mesh, E))], no_pins, no_pins,
                      "edge-cut", claims)


def _corner_pair(mesh: TetMesh, trace: TraceSet) -> _Route:
    """Trace = two faces meeting at a single vertex: route the edge pair
    through the shared neighbour face, then split against the face-union
    traces so p, w vanish on the whole union."""
    surf = surface(mesh)
    f1, f2 = trace.coarse_faces[:2]
    shared = np.intersect1d(f1.fine_nodes, f2.fine_nodes)
    if len(shared) != 1:
        raise PreconditionError("faces do not meet at a single vertex")
    apex = int(shared[0])

    def edge_between(fa, fb):
        return next((surf.edges[i] for i in sorted(set(fa.edges) & set(fb.edges))
                     if apex in surf.edges[i].fine_nodes), None)

    for W in surf.faces:
        E1, E2 = edge_between(f1, W), edge_between(f2, W)
        if W.id not in (f1.id, f2.id) and E1 is not None and E2 is not None:
            break
    else:
        raise PreconditionError("no auxiliary face adjoins both trace faces at the vertex")

    # the curl-harmonic split against W: one kernel pinned on W, one on
    # (boundary \ W) + dW + the trace
    claims = {"rhs1": "curl_semi", "rhs2": "curl", "log": True}
    return _loop_cuts(mesh, [([E1, E2], W)], np.zeros(mesh.nv, dtype=bool),
                      trace.node_mask, "corner-pair-faces", claims)


def _face_plus_edge(mesh: TetMesh, trace: TraceSet, E: list[CoarseEdge]) -> _Route:
    """Zero data on a face union plus one coarse edge that either touches
    the union at an endpoint or stays clear of it (possibly demanding the
    recorded extension complex)."""
    surf = surface(mesh)
    enodes = _edge_nodes(E)

    if trace.node_mask[enodes].any():
        # endpoint case: extend the edge by a trace edge through the contact
        contact = enodes[trace.node_mask[enodes]]
        if len(contact) != 1:
            raise PreconditionError("edge meets the face trace in more than a point")
        # the first coarse edge of a trace face through the contact
        traced = sorted({i for f in trace.coarse_faces for i in f.edges})
        eprime = next((surf.edges[i] for i in traced if contact[0] in surf.edges[i].fine_nodes),
                      None)
        if eprime is None:
            raise PreconditionError("no trace edge through the contact vertex")
        union = E + [eprime]
        F = _find_face_for_edge(mesh, union)
        claims = {"rhs1": "curl_semi", "rhs2": "curl", "log": True}
        return _loop_cuts(mesh, [(union, F)], trace.node_mask, trace.node_mask,
                          "faces-plus-edge/endpoint", claims)

    # disjoint case (i): a containing face avoiding the trace
    try:
        F = _find_face_for_edge(mesh, E, forbidden_nodes=trace.node_mask)
    except PreconditionError:
        F = None
    claims = {"rhs1": "curl", "rhs2": "curl", "log": True}
    if F is not None:
        return _loop_cuts(mesh, [(E, F)], trace.node_mask, trace.node_mask,
                          "faces-plus-edge/clear-face", claims)

    # disjoint case (ii): run the edge machinery on the recorded extension
    info = geometry_info(mesh)
    if not info.extension_id:
        raise PreconditionError(
            f"trace/edge combination on {mesh.name} needs an extension complex "
            "that is not in the catalog"
        )
    B = _extended_mesh(mesh, info.extension_id)
    nmap = B.node_ids(mesh.verts_int)
    pairs = np.sort(nmap[mesh.edges], axis=1)
    gmap = B.edge_ids(_pack_pairs(pairs, B.nv))
    surfB = surface(B)
    edge_B = _edge_route(B, [surfB.edge_by_name(e.name) for e in E])
    on_trace = trace.node_mask

    def apply(v: EdgeField):
        vB = EdgeField(B, np.zeros(B.ne))
        vB.values[gmap] = v.values
        pB, wB, metaB = edge_B.apply(vB)
        pw = np.column_stack([pB[nmap], wB[nmap]])
        # subtract the boundary extension of [p | w] on the trace, one
        # 4-column solve, so p, w vanish on the trace as well
        data = np.zeros((v.mesh.nv, 4))
        data[on_trace] = pw[on_trace]
        pw -= ops.harmonic_extend(v.mesh, data).values
        return (np.ascontiguousarray(pw[:, 0]), np.ascontiguousarray(pw[:, 1:]),
                {"loops": metaB["loops"]})

    return _Route("faces-plus-edge/extension", claims, apply)


def _extended_mesh(mesh: TetMesh, ext_id: str) -> TetMesh:
    return mesh.cached(("extension", ext_id), lambda: build_complex(ext_id, mesh.h))


# --------------------------------------------------------------------------
# disjoint edges
# --------------------------------------------------------------------------

def _disjoint_edges(mesh: TetMesh, edges: list[CoarseEdge],
                    trace: Optional[TraceSet] = None) -> _Route:
    """Zero data on two or more coarse edges that share no node (the
    dispatcher's singleton link groups).  Simple case: per-edge
    loop subtractions on non-interfering faces plus one curl-harmonic
    split.  Hard case (every containing face meets another edge): the
    recorded element-aligned subdomain split with cut-off localization."""
    xn = trace.node_mask if trace is not None else np.zeros(mesh.nv, dtype=bool)
    picks = []
    used_nodes = np.zeros(mesh.nv, dtype=bool)
    for e in edges:
        forbidden = xn | used_nodes
        for o in edges:
            if o.id != e.id:
                forbidden[o.fine_nodes] = True
        try:
            F = _find_face_for_edge(mesh, [e], forbidden_nodes=forbidden)
        except PreconditionError:
            break
        picks.append(F)
        used_nodes[F.fine_nodes] = True
    else:
        claims = {"rhs1": "curl", "rhs2": "curl", "log": True}
        return _loop_cuts(mesh, [([e], F) for e, F in zip(edges, picks)], xn, xn,
                          "disjoint-edges/simple", claims)

    if trace is not None and not trace.empty:
        raise PreconditionError("interfering disjoint edges with a face trace "
                                "are outside the catalog", entity=e.name)
    return _disjoint_edges_hard(mesh, edges)


def _disjoint_edges_hard(mesh: TetMesh, edges: list[CoarseEdge]) -> _Route:
    """The recorded element-aligned subdomain split: per edge a column, its
    edge route localized by a cut-off (1 on the column, 2-layer
    graph-distance decay beyond), then one block-kernel pass on the core
    left between the columns, pinned on its interface.  The column routes
    run in lockstep, so their curl-harmonic extensions are one solve."""
    info = geometry_info(mesh)
    if info.split_width is None:
        raise PreconditionError(f"no subdomain split recorded for {mesh.name}")
    wdt = info.split_width
    if mesh.denom * wdt.numerator % wdt.denominator or mesh.denom * wdt < 1:
        raise PreconditionError(
            f"no element-aligned subdomain split at h=1/{mesh.denom} "
            f"(needs h <= {wdt / 2})"
        )
    wdt_f = float(wdt)  # dyadic, so exact; a Fraction would compare per element
    cent = mesh.verts[mesh.tets].mean(axis=1)
    col_masks = []
    for e in edges:
        lo = mesh.verts[e.fine_nodes[0]]
        hi = mesh.verts[e.fine_nodes[-1]]
        d = np.argmax(np.abs(hi - lo))
        m = np.ones(mesh.nt, dtype=bool)
        for a in range(3):
            if a == d:
                continue
            m &= np.abs(cent[:, a] - lo[a]) <= wdt_f
        col_masks.append(m)
    g0 = ~np.logical_or.reduce(col_masks)
    if not g0.any():
        raise PreconditionError("subdomain split leaves no interior subdomain")
    core = extract_tets(mesh, g0, "core")
    core_nodes = core.node_mask(mesh.nv)
    iface = np.zeros(mesh.nv, dtype=bool)
    no_pins = np.zeros(mesh.nv, dtype=bool)
    plans, columns = [], []
    for e, m in zip(edges, col_masks):
        cn = _mask_from_ids(mesh.nv, mesh.tets[m].ravel())
        iface |= cn & core_nodes
        plans.append(_cut_plan(mesh, [([e], _find_face_for_edge(mesh, [e]))], no_pins,
                               no_pins))
        columns.append((np.unique(mesh.tet_edges[m]), ops.graph_cutoff(mesh, cn)))
    core_pins = iface[core.vert_map]
    claims = {"rhs1": "curl", "rhs2": "curl", "log": True}

    def apply(v: EdgeField):
        mesh = v.mesh
        p = np.zeros(mesh.nv)
        w = np.zeros((mesh.nv, 3))
        R = np.zeros(mesh.ne)
        records = []
        for (pe, we, meta), (col_edges, theta) in zip(_loop_cut_columns(mesh, plans, v),
                                                      columns):
            records.extend(meta["loops"])
            p += theta * pe
            w += theta[:, None] * we
            R[col_edges] += _residual(mesh, v.values, pe, we)[col_edges]

        _block_kernel(core, _residual(mesh, v.values, p, w) - R, core_pins, p, w, R)
        return p, w, {"loops": records}

    return _Route("disjoint-edges/subdomains", claims, apply)


# --------------------------------------------------------------------------
# the dispatcher
# --------------------------------------------------------------------------

def _route(mesh: TetMesh, trace: TraceSet) -> _Route:
    """Route by the trace metadata: a vertex junction through its gated
    pipeline, any other non-Lipschitz complex through the block chain, face
    traces through the kernel or the block chain, edge traces through the
    loop machinery, and mixed traces through the face-plus-edge
    composition."""
    info = geometry_info(mesh)

    if info.junction_vertex is not None:
        return _vertex_junction(mesh, trace)
    if not info.lipschitz:
        return _block_chain(mesh, trace, _chain_order(info.complex.blocks))
    if trace.vertex_nodes:
        raise PreconditionError("standalone vertex traces are not a catalog route")

    if trace.empty:
        return _kernel_route(mesh, trace)

    if trace.coarse_faces and not trace.coarse_edges:
        if trace.J == 1:
            if not trace.lipschitz:
                return _corner_pair(mesh, trace)
            if info.convex or trace.contains_concave:
                return _kernel_route(mesh, trace)
            return _block_chain(mesh, trace, _chain_order(info.complex.blocks))
        # J >= 2 faces only: multi-component kernel; the curl-semi-norm bound
        # is known to fail here, so the claim references the full norm
        claims = {"rhs1": "curl", "rhs2": "l2", "log": not trace.lipschitz}
        return _kernel_pass(trace.node_mask, "kernel-multi", claims)

    # connected unions of coarse edges (shared endpoints)
    groups = [[trace.coarse_edges[i] for i in comp]
              for comp in linked_components([e.fine_nodes for e in trace.coarse_edges])]
    if trace.coarse_edges and not trace.coarse_faces:
        if len(groups) == 1:
            return _edge_route(mesh, groups[0])
        if all(len(g) == 1 for g in groups):
            return _disjoint_edges(mesh, [g[0] for g in groups])
        raise PreconditionError("disjoint unions of edge chains are outside the catalog")

    # mixed faces + edges
    face_trace = _faces_only_trace(trace)
    if len(groups) == 1:
        return _face_plus_edge(mesh, face_trace, groups[0])
    singles = [g[0] for g in groups if len(g) == 1]
    if len(singles) == len(groups):
        return _disjoint_edges(mesh, singles, trace=face_trace)
    raise PreconditionError("mixed trace outside the catalog routes")


_ROUTES = {"auto": _route, "kernel": _kernel_route}
ROUTES = tuple(_ROUTES)


def decompose(v: EdgeField, trace: TraceSet,
              route: str = "auto") -> Union[HelmholtzSplit, CompatibilityViolation]:
    """Decompose v with zero data on the trace.  `route` is one of
    `ROUTES`: "auto" picks the construction from the trace metadata, and
    every other value forces the route of that name.  Claims (which
    right-hand side, log factor present or droppable) are recorded on the
    result."""
    if route not in _ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {', '.join(ROUTES)}")
    plan = _plan(route, trace)
    out = _routed(plan, v, trace)
    if isinstance(out, CompatibilityViolation):
        return out
    p, w, meta = out
    return _finish(v, p, w, plan.path, plan.claims, meta)


def _trace_key(trace: TraceSet) -> tuple:
    """The ids of the trace's coarse entities.  A trace is in
    closure-normal form (`trace_from_fine`), so they are a compact key of
    its fine masks: traces with equal masks share their plans."""
    return (tuple(f.id for f in trace.coarse_faces), tuple(e.id for e in trace.coarse_edges),
            tuple(trace.vertex_nodes))


def _plan(route: str, trace: TraceSet) -> _Route:
    """The route's plan on (mesh, trace), made once per mesh: its path and
    claims, and everything it derives from the mesh and the trace alone
    (branch, faces, loops, masks, sub-traces), held by a function of v that
    does only matvecs and cached solves.  A refusal that names no entity
    names the trace."""
    mesh = trace.mesh
    try:
        return mesh.cached(("plan", route) + _trace_key(trace),
                           lambda: _ROUTES[route](mesh, trace))
    except PreconditionError as ex:
        if ex.entity is None:
            ex.entity = ";".join(trace.spec)
        raise


def _routed(plan: _Route, v: EdgeField, trace: TraceSet):
    """Apply a plan between the shared entry and exit passes: the trace
    moments of v must vanish, and p, w get exact zeros on the trace nodes."""
    _check_zero_moments(v, trace.edge_mask, "the trace")
    out = plan.apply(v)
    if isinstance(out, CompatibilityViolation):
        return out
    p, w, _ = out
    p[trace.node_mask] = 0.0
    w[trace.node_mask] = 0.0
    return out


def _faces_only_trace(trace: TraceSet) -> TraceSet:
    return trace_from_fine(trace.mesh, *_fine_closure(trace.mesh, trace.coarse_faces, (), ()))


# --------------------------------------------------------------------------
# vertex junction (blocks sharing one vertex)
# --------------------------------------------------------------------------

def _block_kind(trace: TraceSet, b: int, v0: int) -> str:
    """The kind of block b, read from the block labels of the trace's faces
    and edges.  pinned: the block's trace part contains the vertex; free:
    the block carries no trace entity (its potential constant is a gauge);
    anchored: trace present but clear of the vertex (gate participant)."""
    if v0 in trace.vertex_nodes:
        return "pinned"
    held = [x for x in trace.coarse_faces + trace.coarse_edges if x.block == b]
    if any(v0 in x.fine_nodes for x in held):
        return "pinned"
    return "anchored" if held else "free"


def _anchored_setup(mesh, surf, block_faces, v0, trace: TraceSet, b: int):
    """Loop face + normalization edge for a trace-anchored block: a face
    through the vertex whose contact with the trace is exactly one whole
    coarse boundary edge (the anchor E), clear of the vertex."""
    for f in block_faces:
        if v0 not in f.fine_nodes:
            continue
        traced = [surf.edges[i] for i in f.edges
                  if trace.edge_mask[surf.edges[i].fine_edges].all()]
        if len(traced) != 1 or v0 in traced[0].fine_nodes:
            continue
        bnodes = np.unique(mesh.edges[f.boundary_edges].ravel())
        inner_nodes = np.setdiff1d(f.fine_nodes, bnodes)
        if trace.node_mask[inner_nodes].any():
            continue
        return f, ops.build_loop(mesh, [f]), traced[0]
    raise PreconditionError(
        "no loop face at the junction vertex meets the block trace in a "
        "single whole edge", entity=b)


def _free_setup(mesh, block_faces, v0):
    for f in block_faces:
        if v0 in f.fine_nodes:
            return f, ops.build_loop(mesh, [f]), None
    raise PreconditionError("no block face through the junction vertex")


def _adjacent_coarse_edges(surf, loop, E):
    """Coarse edges of the loop immediately before and after E."""
    first, last = ops._cyclic_arc(loop.n, ops._edge_arc_positions(loop, E))
    ids = surf.edge_of[loop.edges[[(first - 1) % loop.n, (last + 1) % loop.n]]]
    return tuple(surf.edges[i] if i >= 0 else None for i in ids)


class _Gate(NamedTuple):
    """The vertex-junction gate on one (mesh, trace): its vertex v0, and per
    block its kind, loop setup and shift; and the gate as one sparse matrix."""

    v0: int
    kinds: list
    setups: list  # (face, loop, anchor edge or None, block operator, drift); None if pinned
    rows: sp.csr_matrix  # (nblocks x ne): block b's loop potential at v0
    shifts: list  # (fine edge, its coefficient) of an anchored block; else None


def _gate_plan(mesh: TetMesh, trace: TraceSet) -> _Gate:
    """The gate of the vertex junction on (mesh, trace), made once.  Each
    block's kind and loop face come from the block labels of the coarse
    entities.  A loop block's operator is its `loop_potential` on the face
    loop, with zero mean on the anchor edge E and the epsilon correction
    folded in (anchored: the potential vanishes on E and keeps its value at
    v0, drift 1 + eps off E, 0 on E), or shifted to 0 at v0 (free: drift
    1).  Row b of the gate is 0 for a pinned block, the first anchored
    block's row for a free block, and row v0 of the block operator for an
    anchored block.  An anchored block's shift is the first loop edge off
    the trace and off E whose coefficient exceeds 1e-12."""

    def build():
        info = geometry_info(mesh)
        surf = surface(mesh)
        v0 = int(mesh.node_ids(np.multiply(info.junction_vertex, mesh.denom))[0])
        nblocks = len(info.complex.blocks)
        kinds, setups, shifts = [], [], []
        entries = [(np.zeros(0, dtype=np.int64), np.zeros(0))] * nblocks  # (edges, coefs)
        for b in range(nblocks):
            kind = _block_kind(trace, b, v0)
            kinds.append(kind)
            shifts.append(None)
            if kind == "pinned":
                setups.append(None)
                continue
            faces = [f for f in surf.faces if f.block == b]
            F, loop, E = (_anchored_setup(mesh, surf, faces, v0, trace, b)
                          if kind == "anchored" else _free_setup(mesh, faces, v0))
            k0 = loop.node_pos(v0)
            pot = ops.loop_potential(loop, zero_mean_edge=E)
            if kind == "free":
                setups.append((F, loop, E, pot._replace(Phi=pot.Phi - pot.Phi[k0]),
                               np.ones(loop.n)))
                continue
            # the unit correction, times C: E's own moments are the trace's
            # zeros, so the potential must vanish on E's nodes
            posE = ops._edge_arc_positions(loop, E)
            eps = ops.epsilon_correction(loop, E, *_adjacent_coarse_edges(surf, loop, E))
            Phi = pot.Phi - np.outer(ops._loop_walk(eps * loop.lengths, k0, loop.n - 1), pot.c)
            ez = np.unique(np.concatenate([posE, (posE + 1) % loop.n]))
            if np.abs(np.delete(Phi[ez], posE, axis=1)).max() > 1e-9 * max(1.0, np.abs(Phi).max()):
                raise PreconditionError("loop correction failed to zero the trace edge")
            Phi[ez] = 0.0
            drift = 1.0 + eps
            drift[posE] = 0.0
            setups.append((F, loop, E, pot._replace(Phi=Phi), drift))
            coef = Phi[k0] * loop.signs
            entries[b] = (loop.edges, coef)
            movable = ((np.abs(coef) > 1e-12) & ~trace.edge_mask[loop.edges]
                       & (surf.edge_of[loop.edges] != E.id))
            if not movable.any():
                raise PreconditionError(
                    f"no loop moment of block {b} moves its potential at the junction "
                    "vertex", entity=b)
            k = int(np.argmax(movable))
            shifts[b] = (int(loop.edges[k]), float(coef[k]))
        if "anchored" in kinds:
            for b in (b for b, k in enumerate(kinds) if k == "free"):
                entries[b] = entries[kinds.index("anchored")]
        # one CSR build: sorted column indices, exact zeros dropped
        edges, coefs = (np.concatenate(x) for x in zip(*entries))
        blocks = np.repeat(np.arange(nblocks), [len(e) for e, _ in entries])
        rows = sp.csr_matrix((coefs, (blocks, edges)), shape=(nblocks, mesh.ne))
        rows.eliminate_zeros()
        return _Gate(v0, kinds, setups, rows, shifts)

    return mesh.cached(("vertex-gate",) + _trace_key(trace), build)


def _vertex_junction(mesh: TetMesh, trace: TraceSet) -> _Route:
    """Blocks meeting at a single vertex.  Blocks whose trace pins the
    vertex decompose independently, blocks with no trace ride along with a
    free potential constant, and trace-anchored blocks go through the
    normalized loop subtraction.  The decomposition is refused (typed
    outcome) unless all gated loop potentials agree at the vertex, which
    is one matvec with the gate's rows."""
    gate = _gate_plan(mesh, trace)
    v0 = gate.v0
    # per block: its submesh, the nodes it writes (the vertex only from
    # block 0), and for a pinned block its block plan, for a loop block
    # (anchored or free) its pinned nodes and the loop split on the block
    # face
    blocks = []
    log = False
    for b, (kind, setup) in enumerate(zip(gate.kinds, gate.setups)):
        sub = extract_block(mesh, b)
        keep = sub.vert_map != v0 if b > 0 else np.ones(len(sub.vert_map), dtype=bool)
        if kind == "pinned":
            block = _block_plan(sub, trace.node_mask, trace.edge_mask, trace.spec)
            blocks.append((sub, keep, block))
            log = log or block[2].claims["log"]  # the claims of the block's plan
            continue
        log = True
        pins = trace.node_mask[sub.vert_map]
        F, loop, E, _, _ = setup
        fsub = next((f for f in surface(sub.mesh).faces if f.plane == F.plane), None)
        if fsub is None:
            raise PreconditionError(
                f"block {b} has no surface face on the plane of {F.name}", entity=F.name)
        split = (np.isin(sub.edge_map, loop.edges),
                 _split_plan(sub.mesh, [fsub], pins, pins))
        pin_nodes = np.concatenate([[v0], E.fine_nodes]) if E is not None else np.array([v0])
        blocks.append((sub, keep, (pin_nodes, split)))
    claims = {"rhs1": "curl_semi" if trace.lipschitz else "curl", "rhs2": "curl",
              "log": bool(log)}

    def apply(v: EdgeField):
        vcurl = fem.norm(v, "curl")
        vals = gate.rows @ v.values
        functionals = vals[1:] - vals[:-1]
        tol = VERTEX_GATE_TOL * max(vcurl, 1e-30)
        if np.abs(functionals).max(initial=0.0) > tol:
            return CompatibilityViolation(v.mesh.name, functionals, tol)

        p = np.zeros(v.mesh.nv)
        w = np.zeros((v.mesh.nv, 3))
        records, block_records = [], []
        for kind, (sub, keep, block), setup, val in zip(gate.kinds, blocks, gate.setups, vals):
            if kind == "pinned":
                pb, wb, meta = _block_split(block, sub.restrict_edge(v.values))
                block_records.extend(meta.get("loops", []))
            else:
                # a free block's potential is pinned at the vertex to its gate value
                pin_nodes, (loop_edges, split) = block
                F, loop, _, pot, drift = setup
                flux = _loop_flux(v.mesh, v, [F])
                vhat, phi_g, ct, C = _loop_subtraction(v, loop, pot, drift, pin_nodes,
                                                       val if kind == "free" else 0.0)
                records.append((C, pot.l0, flux))
                vb = EdgeField(sub.mesh, sub.restrict_edge(vhat))
                _check_zero_moments(vb, loop_edges, "the patch boundary")
                pl, wl = _curl_harmonic_splits(sub.mesh, [vb.values], [split])[0]
                pb = phi_g[sub.vert_map] + pl
                wb = ct[sub.vert_map] + wl
            p[sub.vert_map[keep]] = pb[keep]
            w[sub.vert_map[keep]] = wb[keep]
        meta = {"loops": records + block_records, "functionals": functionals.tolist(),
                "tol": tol, "block_kinds": list(gate.kinds)}
        return p, w, meta

    return _Route("vertex-junction", claims, apply)


# --------------------------------------------------------------------------
# seeded admissible fields
# --------------------------------------------------------------------------

def random_admissible_field(mesh: TetMesh, trace: Optional[TraceSet], seed) -> EdgeField:
    """Uniform edge moments in [-1, 1], projected onto the route's
    preconditions by zeroing the trace moments.  On vertex junctions the
    loop potentials are additionally matched at the vertex by a rank-one
    correction per compatibility functional."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0, mesh.ne)
    if trace is not None:
        vals[trace.edge_mask] = 0.0
    v = EdgeField(mesh, vals)
    try:
        info = geometry_info(mesh)
    except GeometryError:
        info = None
    if info is not None and info.junction_vertex is not None and trace is not None:
        v = _compatibilize(v, trace)
    return v


def gradient_field(mesh: TetMesh, trace: Optional[TraceSet], seed) -> tuple[EdgeField, NodalField]:
    """v = grad q for a random nodal q vanishing on the trace."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(-1.0, 1.0, mesh.nv)
    if trace is not None:
        q[trace.node_mask] = 0.0
    qf = NodalField(mesh, q)
    return EdgeField(mesh, fem.gradient_map(mesh) @ q), qf


def _compatibilize(v: EdgeField, trace: TraceSet) -> EdgeField:
    """Zero the vertex-junction compatibility functionals: the gate is
    linear, so one shift of each anchored block's shift edge moves the
    block's value at the vertex onto the target (trace moments stay
    zero)."""
    gate = _gate_plan(v.mesh, trace)
    out = v.copy()
    anchored = [b for b, k in enumerate(gate.kinds) if k == "anchored"]
    if not anchored:
        return out
    vals = gate.rows @ out.values
    target = 0.0 if "pinned" in gate.kinds else vals[anchored[0]]
    for b in anchored:
        if vals[b] != target:
            edge, coef = gate.shifts[b]
            out.values[edge] += (target - vals[b]) / coef
    return out


def incompatible_field(mesh: TetMesh, trace: TraceSet, seed, magnitude=1.0) -> EdgeField:
    """A compatibilized random field perturbed by a circulation on one gated
    block loop so the first compatibility functional is order `magnitude`."""
    if geometry_info(mesh).junction_vertex is None:
        raise PreconditionError(
            f"incompatible fields need a vertex junction; {mesh.name} has none",
            entity=mesh.name)
    v = random_admissible_field(mesh, trace, seed)
    gate = _gate_plan(mesh, trace)
    anchored = [b for b, k in enumerate(gate.kinds) if k == "anchored"]
    gated = anchored if "pinned" in gate.kinds else anchored[1:]
    if not gated:
        raise PreconditionError(
            "trace leaves no gated block: the vertex-junction decomposition "
            "always succeeds for this configuration"
        )
    edge, coef = gate.shifts[gated[-1]]
    v.values[edge] += magnitude / coef
    return v
