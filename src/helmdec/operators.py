"""Transfer and extension operators used by the decomposition routes.

Covers: the edge-moment interpolation onto the edge element space, the
graph-distance cut-off, discrete harmonic and curl-harmonic extensions,
and the boundary-loop calculus (loop averages, cumulative potentials,
constant extensions and the piecewise-constant loop correction).  Both
extensions solve with the nodal stiffness pinned on the boundary nodes, one
`fem.cached_solver` factor per mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from . import fem
from .fem import EdgeField, NodalField, NodalVectorField, PreconditionError, cached_solver
from .mesh import TetMesh
from .trace import CoarseEdge, CoarseFace

__all__ = [
    "PreconditionError",
    "edge_interpolate_rh",
    "rh_matrix",
    "graph_cutoff",
    "harmonic_extend",
    "curl_harmonic_extend",
    "BoundaryLoop",
    "LoopPotential",
    "build_loop",
    "loop_potential",
    "loop_constant_extension",
    "epsilon_correction",
]


# --------------------------------------------------------------------------
# edge interpolation r_h
# --------------------------------------------------------------------------

def edge_interpolate_rh(w: NodalVectorField) -> EdgeField:
    """Edge moments of a continuous piecewise-linear field (trapezoid of
    the endpoint values; exact for linear integrands): one matvec with
    `rh_matrix`.  Exact zeros where both endpoint values vanish."""
    return EdgeField(w.mesh, rh_matrix(w.mesh) @ w.values.ravel())


def rh_matrix(mesh: TetMesh) -> sp.csr_matrix:
    """Sparse matrix of edge_interpolate_rh: (ne) x (3*nv).  Row e holds
    half the edge vector at both endpoints, less its exact zeros."""

    def build():
        ne = mesh.ne
        cols = 3 * mesh.edges[:, :, None] + np.arange(3, dtype=np.int32)
        vals = np.tile(0.5 * mesh.edge_vectors(), 2)
        indptr = np.arange(0, 6 * ne + 1, 6, dtype=np.int32)
        R = sp.csr_matrix((vals.ravel(), cols.ravel(), indptr), shape=(ne, 3 * mesh.nv))
        R.eliminate_zeros()
        return R

    return mesh.cached("rh_matrix", build)


# --------------------------------------------------------------------------
# graph-distance cut-off
# --------------------------------------------------------------------------

def _node_adjacency(mesh: TetMesh) -> sp.csr_matrix:
    def build():
        i, j = mesh.edges[:, 0], mesh.edges[:, 1]
        ones = np.ones(2 * mesh.ne)
        return sp.csr_matrix((ones, (np.concatenate([i, j]), np.concatenate([j, i]))),
                             shape=(mesh.nv, mesh.nv))

    return mesh.cached("node_adjacency", build)


def graph_cutoff(mesh: TetMesh, seed_mask: np.ndarray) -> np.ndarray:
    """Nodal cut-off two mesh edges wide: 1 on the seed nodes, 1/2 on their
    graph neighbours, 0 beyond."""
    near = (_node_adjacency(mesh) @ seed_mask.astype(float) > 0) & ~seed_mask
    theta = seed_mask.astype(float)
    theta[near] = 0.5
    return theta


# --------------------------------------------------------------------------
# harmonic extension
# --------------------------------------------------------------------------

def harmonic_extend(mesh: TetMesh, boundary_values: np.ndarray) -> NodalField:
    """Discrete harmonic extension of Dirichlet data given at all boundary
    nodes of `mesh` (interior entries of `boundary_values` are ignored).
    The data may be one nodal vector (nv,) or k columns (nv, k), which are
    extended by one k-column solve."""
    bn = mesh.boundary_node_mask()
    iidx = np.nonzero(~bn)[0]
    out = np.zeros(boundary_values.shape)
    out[bn] = boundary_values[bn]
    if len(iidx) == 0:
        return NodalField(mesh, out)
    neg_Kib = mesh.cached(("harm", "-K_ib"), lambda: -fem.assemble(
        mesh, "Z", "stiffness")[iidx][:, np.nonzero(bn)[0]])
    out[iidx] = cached_solver(mesh, bn).solve(neg_Kib @ out[bn])
    return NodalField(mesh, out)


# --------------------------------------------------------------------------
# curl-harmonic extension
# --------------------------------------------------------------------------

class _CotreeGauge(NamedTuple):
    """Per-mesh blocks of the tree-cotree gauged curl-harmonic extension:
    interior and boundary edges, interior nodes, cotree edges, the curl
    stiffness rows K[cotree][:, boundary], the interior gradient G_i, the
    gauge right-hand side map G_i^T M[interior] and the `fem.Cholesky`
    factor of K[cotree][:, cotree] (None without cotree edges).  K itself
    is kept in no memo entry.  A tuple, so that the memo freezes and
    compacts its arrays."""

    ie: np.ndarray
    bidx: np.ndarray
    inodes: np.ndarray
    cotree: np.ndarray
    Kcb: sp.csr_matrix
    Gi: sp.csr_matrix
    GtM: sp.csr_matrix
    solver: Optional[fem.Cholesky]


def _cotree_gauge(mesh: TetMesh) -> _CotreeGauge:
    def build():
        be = mesh.boundary_edge_mask()
        ie = np.nonzero(~be)[0]
        bidx = np.nonzero(be)[0]
        inodes = np.nonzero(~mesh.boundary_node_mask())[0]
        # interior-edge graph with every boundary node merged into root 0;
        # edges joining two boundary nodes are root self-loops (cotree)
        gid = np.zeros(mesh.nv, dtype=np.int64)
        gid[inodes] = np.arange(1, len(inodes) + 1)
        ends = gid[mesh.edges[ie]]
        lo, hi = ends.min(axis=1), ends.max(axis=1)
        ng = len(inodes) + 1
        keep = hi > 0
        graph = sp.csr_matrix((np.ones(int(keep.sum())), (lo[keep], hi[keep])),
                              shape=(ng, ng))
        order, pred = breadth_first_order(graph, 0, directed=False)
        if len(order) != ng:
            raise PreconditionError(
                f"interior edge graph of {mesh.name} misses "
                f"{ng - len(order)} interior node(s)", entity=mesh.name)
        # tree edge of each BFS child: the lowest interior edge joining it
        # to its predecessor
        child = order[1:].astype(np.int64)
        parent = pred[child].astype(np.int64)
        keys = lo * ng + hi
        sort = np.argsort(keys, kind="stable")
        tkeys = np.minimum(parent, child) * ng + np.maximum(parent, child)
        tree = sort[np.searchsorted(keys[sort], tkeys)]
        on_cotree = np.ones(len(ie), dtype=bool)
        on_cotree[tree] = False
        cotree = ie[on_cotree]
        Kc = fem._assemble_edge(mesh, "stiffness", None)[cotree]
        M = fem.assemble(mesh, "V", "mass")
        Gi = fem.gradient_map(mesh)[ie][:, inodes].tocsr()
        solver = fem.Cholesky(Kc[:, cotree], mesh.verts_int[mesh.edges[cotree]].sum(axis=1),
                              mesh.name) if len(cotree) else None
        return _CotreeGauge(ie, bidx, inodes, cotree, Kc[:, bidx],
                            Gi, (Gi.T @ M[ie]).tocsr(), solver)

    return mesh.cached(("curlharm", "cotree"), build)


def curl_harmonic_extend(mesh: TetMesh, boundary_moments: np.ndarray) -> EdgeField:
    """Among edge fields matching the prescribed moments on all boundary
    edges, the one of least curl energy whose gradient gauge is fixed by
    the L2 condition G_i^T M v = 0 (G_i: gradients of the interior nodal
    hat functions).  The data may be one edge vector (ne,) or k columns
    (ne, k), which are extended by one k-column solve on each factor.  Two
    SPD solves give it:

    1. tree-cotree gauge: take a BFS spanning tree of the interior-edge
       graph, with all boundary nodes merged into its root; set u = 0 on
       the tree edges and solve K_cc u_c = -(K_ib v_b)_c on the cotree
       edges (`fem.Cholesky`, dissected on the edge midpoints);
    2. L2 projection: v_i = u - G_i q with (G_i^T M_ii G_i) q = G_i^T (M u)_i.
       Whitney edge fields contain the gradients exactly, so G_i^T M_ii G_i
       is the nodal stiffness pinned on the boundary nodes, whose
       `fem.cached_solver` factor is shared with `harmonic_extend`.

    Both rest on curl-free interior fields being interior gradients (the
    curl kernel of K_ii is range G_i), which holds on simply connected
    domains with a connected boundary; then K_cc is SPD, and the result is
    the solution of the saddle point [[K_ii, M_ii G_i], [G_i^T M_ii, 0]].
    """
    if boundary_moments.ndim not in (1, 2) or len(boundary_moments) != mesh.ne:
        raise PreconditionError(
            f"boundary data must be full edge vectors (ne={mesh.ne}[, k]), "
            f"got {boundary_moments.shape}"
        )
    gauge = _cotree_gauge(mesh)
    out = np.zeros(boundary_moments.shape)
    out[gauge.bidx] = boundary_moments[gauge.bidx]
    if gauge.solver is not None:
        out[gauge.cotree] = gauge.solver.solve(-(gauge.Kcb @ out[gauge.bidx]))
    if len(gauge.inodes):
        q = cached_solver(mesh, mesh.boundary_node_mask()).solve(gauge.GtM @ out)
        out[gauge.ie] -= gauge.Gi @ q
    return EdgeField(mesh, out)


# --------------------------------------------------------------------------
# boundary loops
# --------------------------------------------------------------------------

@dataclass
class BoundaryLoop:
    """Ordered fine-edge cycle along the boundary curve of a coarse face or
    face union, traversed with the surface-induced (Stokes) orientation.

    nodes[k] -> nodes[k+1] is edges[k] (cyclically), starting at the lowest
    node id; signs[k] flips the global edge orientation onto the loop
    direction.
    """

    nodes: np.ndarray
    edges: np.ndarray
    signs: np.ndarray
    lengths: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)

    def node_pos(self, node: int) -> int:
        pos = np.nonzero(self.nodes == node)[0]
        if len(pos) == 0:
            raise PreconditionError(f"node {node} not on loop", entity=node)
        return int(pos[0])

    def edge_positions(self, fine_edges: np.ndarray) -> np.ndarray:
        return np.nonzero(np.isin(self.edges, fine_edges))[0]


# sign of each face-edge slot (vertex pairs 01, 12, 02 of an ascending
# triple a < b < c) in the vertex cycle a -> b -> c -> a
_SLOT_SIGN = np.array([1, 1, -1])


def build_loop(mesh: TetMesh, faces: Sequence[CoarseFace]) -> BoundaryLoop:
    """Boundary loop of a coarse face or a face union with one connected
    boundary curve."""
    fset = np.concatenate([f.fine_faces for f in faces])
    slots = mesh.face_edges()[fset].ravel()
    curve = np.zeros(mesh.ne, dtype=bool)
    curve[mesh.patch_boundary(fset)] = True
    on_curve = np.nonzero(curve[slots])[0]
    if len(on_curve) == 0:
        raise PreconditionError("face union has no boundary curve (it is closed)")
    # each curve edge lies in one patch triangle: direct it as in that
    # triangle's outward-oriented vertex cycle
    edges = slots[on_curve]
    outward = np.concatenate([f.outward_sign for f in faces])
    fwd = _SLOT_SIGN[on_curve % 3] * outward[on_curve // 3] > 0
    ends = mesh.edges[edges]
    tail, head = np.where(fwd[:, None], ends, ends[:, ::-1]).T
    by_tail = np.argsort(tail)
    tails = tail[by_tail]
    if np.any(tails[1:] == tails[:-1]) or not np.array_equal(tails, np.sort(head)):
        raise PreconditionError("face-union boundary is not a single simple curve")
    # the curve is a permutation of its nodes; walk it from the lowest id
    succ = np.searchsorted(tails, head[by_tail]).tolist()
    walk = [0]
    while (k := succ[walk[-1]]) != 0:
        walk.append(k)
    if len(walk) != len(tails):
        raise PreconditionError("face-union boundary is not a single simple curve")
    edges = edges[by_tail[walk]]
    nodes = tails[walk]
    signs = np.where(mesh.edges[edges, 0] == nodes, 1.0, -1.0)
    return BoundaryLoop(nodes, edges, signs, mesh.edge_lengths()[edges])


def _edge_fine_set(E) -> tuple[np.ndarray, str]:
    """Fine edges and a display name of a coarse edge or edge union."""
    if isinstance(E, CoarseEdge):
        return E.fine_edges, E.name
    fine = np.concatenate([e.fine_edges for e in E])
    return fine, "+".join(e.name for e in E)


def _edge_arc_positions(loop: BoundaryLoop, E) -> np.ndarray:
    fine, name = _edge_fine_set(E)
    pos = loop.edge_positions(fine)
    if len(pos) != len(fine):
        raise PreconditionError(f"edge {name} is not part of the loop", entity=name)
    return pos


def _cyclic_arc(n: int, pos: np.ndarray) -> tuple[int, int]:
    """First and last position of the arc `pos` of an n-cycle; the arc must
    be cyclically contiguous and leave at least one position out."""
    mask = np.zeros(n, dtype=bool)
    mask[pos] = True
    first = np.nonzero(mask & ~np.roll(mask, 1))[0]
    last = np.nonzero(mask & ~np.roll(mask, -1))[0]
    if len(first) != 1:
        raise PreconditionError("edge arc is not contiguous on the loop")
    return int(first[0]), int(last[0])


def _loop_walk(steps: np.ndarray, start: int, count: int) -> np.ndarray:
    """Cumulative sums of the per-edge `steps` (entries or matrix rows)
    walking `count` edges from position `start`: the head of each walked
    edge gets the running sum, the other nodes 0.  Adding 0.0 makes the
    sums bit for bit those of a scalar accumulator started at 0.0."""
    n = len(steps)
    k = (start + np.arange(count)) % n
    out = np.zeros(steps.shape)
    out[(k + 1) % n] = np.cumsum(steps[k], axis=0) + 0.0
    return out


class LoopPotential(NamedTuple):
    """The loop calculus as a linear map of the signed loop moments
    lam = v[loop.edges] * loop.signs: the loop average C = c @ lam and the
    cumulative potential phi = Phi @ lam (per loop node), with lam_e =
    phi(head) - phi(tail) + C * |e| on the working part of the loop; l0 is
    the length that C averages over."""

    Phi: np.ndarray
    c: np.ndarray
    l0: float


def loop_potential(
    loop: BoundaryLoop,
    zero_edge: Optional[CoarseEdge] = None,
    zero_mean_edge: Optional[CoarseEdge] = None,
) -> LoopPotential:
    """Loop average and cumulative potential of the tangential moments
    along the loop, as dense operators.

    With `zero_edge` (an edge union where v is to have zero moments) the
    average is taken over the complement only and the rows of the edge's
    nodes are exact zeros, so that the potential is continuous and
    vanishes there; the edge's moments do not enter.  With
    `zero_mean_edge` phi is shifted so its trapezoid mean over that edge
    vanishes.
    """
    if zero_edge is not None and zero_mean_edge is not None:
        raise ValueError("zero_edge and zero_mean_edge are mutually exclusive")
    n, L = loop.n, loop.lengths
    off = np.ones(n, dtype=bool)
    start, count = 0, n - 1
    if zero_edge is not None:
        pos = _edge_arc_positions(loop, zero_edge)
        if len(pos) == n:
            return LoopPotential(np.zeros((n, n)), np.zeros(n), 0.0)
        off[pos] = False
        # walk the complement starting right after the zero arc
        start, count = _cyclic_arc(n, pos)[1] + 1, n - len(pos)
    l0 = float(L[off].sum())
    c = off / l0
    Phi = _loop_walk(np.eye(n) - np.outer(L, c), start, count)
    if zero_edge is not None:
        # exact zeros on the arc nodes (the closure residual is roundoff)
        Phi[pos] = Phi[(pos + 1) % n] = 0.0
    if zero_mean_edge is not None:
        pos = _edge_arc_positions(loop, zero_mean_edge)
        Phi -= (0.5 * L[pos] / L[pos].sum()) @ (Phi[pos] + Phi[(pos + 1) % n])
    return LoopPotential(Phi, c, l0)


# --------------------------------------------------------------------------
# minimum-norm constant extension along a loop
# --------------------------------------------------------------------------

def loop_constant_extension(
    mesh: TetMesh,
    C: float,
    loop: BoundaryLoop,
    pinned_nodes: np.ndarray,
    per_edge_values: np.ndarray,
) -> NodalVectorField:
    """Nodal vector field on the loop nodes whose interpolated moments
    equal `per_edge_values[k] * |e_k|` on every loop edge with a free
    endpoint, minimizing the loop L2 norm; pinned nodes (the excluded edge
    and its endpoints, or the junction vertex) stay exactly zero.
    Minimum-norm tie-break via pseudoinverse with singular values below
    1e-12*sigma_max dropped.  C scales the tolerance of the zero targets
    on edges with both ends pinned.  The dense operators depend only on the
    loop and its free positions and are built once per mesh.
    """
    free_node = np.ones(mesh.nv, dtype=bool)
    free_node[pinned_nodes] = False
    free = np.nonzero(free_node[loop.nodes])[0]
    if len(free) == 0:
        if np.any(np.abs(per_edge_values) > 0):
            raise PreconditionError("all loop nodes pinned with nonzero target")
        return NodalVectorField(mesh, np.zeros((mesh.nv, 3)))
    pinned_edge, rows, Minv_At, pinv_S = mesh.cached(
        ("loop-extension", loop.edges.tobytes(), free.tobytes()),
        lambda: _constant_extension_operator(mesh, loop, free))
    tgt = per_edge_values * loop.lengths
    if np.any(np.abs(tgt[pinned_edge]) > 1e-13 * max(1.0, abs(C))):
        raise PreconditionError("pinned loop edge with nonzero target")
    x = Minv_At @ (pinv_S @ tgt[rows])
    out = np.zeros((mesh.nv, 3))
    out[loop.nodes[free]] = x.reshape(-1, 3)
    return NodalVectorField(mesh, out)


def _constant_extension_operator(mesh: TetMesh, loop: BoundaryLoop, free: np.ndarray):
    """The parts of the constant extension that depend only on the loop and
    its free positions: the mask of edges with both ends pinned, the
    constraint rows (the other edges), M^-1 A^T and pinv(A M^-1 A^T)."""
    # slot of each loop position among the free nodes (-1: pinned), for the
    # tail a and the head b of every loop edge
    slot = np.full(loop.n, -1)
    slot[free] = np.arange(len(free))
    sa, sb = slot, np.roll(slot, -1)
    L = loop.lengths
    pinned_edge = (sa < 0) & (sb < 0)

    # one constraint row per edge with a free end: 0.5*(head - tail) at
    # each free end; a pinned end writes into a spare last column
    rows = np.nonzero(~pinned_edge)[0]
    half_d = 0.5 * (mesh.verts[np.roll(loop.nodes, -1)] - mesh.verts[loop.nodes])[rows]
    A = np.zeros((len(rows), len(free) + 1, 3))
    A[np.arange(len(rows)), sa[rows]] = half_d
    A[np.arange(len(rows)), sb[rows]] = half_d
    A = A[:, :-1].reshape(len(rows), -1)
    # consistent 1D P1 mass on the loop edges (vector-valued): L/3 from
    # each edge at a free node, L/6 between the free ends of an edge
    Ms = np.diag((np.roll(L, 1) / 3.0 + L / 3.0)[free])
    both = np.nonzero((sa >= 0) & (sb >= 0))[0]
    Ms[sa[both], sb[both]] = L[both] / 6.0
    Ms[sb[both], sa[both]] = L[both] / 6.0
    M = np.kron(Ms, np.eye(3))
    Minv_At = np.linalg.solve(M, A.T)
    S = A @ Minv_At
    return pinned_edge, rows, Minv_At, np.linalg.pinv(S, rcond=1e-12)


# --------------------------------------------------------------------------
# piecewise-constant loop correction
# --------------------------------------------------------------------------

def epsilon_correction(
    loop: BoundaryLoop,
    E: CoarseEdge,
    E1: CoarseEdge,
    E2: CoarseEdge,
) -> np.ndarray:
    """Per-loop-edge piecewise-constant unit correction: -1 on E,
    |E|/(2|E1|) on the preceding edge E1, |E|/(2|E2|) on the following edge
    E2, zero elsewhere; its loop integral vanishes.  The correction of a
    loop average C is C times it."""
    posE = _edge_arc_positions(loop, E)
    pos1 = _edge_arc_positions(loop, E1)
    pos2 = _edge_arc_positions(loop, E2)
    lenE = float(loop.lengths[posE].sum())
    len1 = float(loop.lengths[pos1].sum())
    len2 = float(loop.lengths[pos2].sum())
    first, last = _cyclic_arc(loop.n, posE)
    if (first - 1) % loop.n not in pos1 or (last + 1) % loop.n not in pos2:
        raise PreconditionError("E1/E2 must be the loop edges adjacent to E")
    eps = np.zeros(loop.n)
    eps[posE] = -1.0
    eps[pos1] = lenE / (2.0 * len1)
    eps[pos2] = lenE / (2.0 * len2)
    return eps
