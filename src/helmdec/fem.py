"""Lowest-order FEM cores: P1 nodal and Whitney edge elements.

DOF conventions: nodal values per vertex; edge moments lambda_e(v) =
int_e v.t ds with the global low-id -> high-id orientation; the curl
incidence gives face fluxes with the canonical (ascending vertex triple,
right-hand) normal.  Mass and the nodal stiffness use exact barycentric
integral formulas.  Every curl-curl form is built from one cached sparse
(3nt x ne) curl matrix C: the per-tet curl of an edge field is one matvec
C v, and the (weighted) edge stiffness is C^T W C with W the per-tet
weighted volumes, repeated for the three curl components.  A nodal
matrix is its node and edge sums (`_nodal_matrices`) on a CSR pattern
read off the lexsorted edges, with no sort; only the edge mass scatters
COO triplets (`_scatter`).  Assembly casts no mesh table: there is one
index width, int32, set by the `TetMesh` tables.  Sparse SPD factors are
chosen by matrix family: `Cholesky`, a nested-dissection multifrontal
Cholesky, for the cotree curl-curl block, and SuperLU for the smaller
nodal blocks: `cached_solver` holds one symmetric-mode factor of the
nodal stiffness per Dirichlet pin mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dsyrk as _dsyrk, dtrsm as _dtrsm
from scipy.linalg.lapack import dpotrf as _dpotrf

from .mesh import TET_EDGES, TetMesh, _lattice_keys

__all__ = [
    "PreconditionError",
    "Cholesky",
    "NodalField",
    "NodalVectorField",
    "EdgeField",
    "gradient_map",
    "curl_map",
    "assemble",
    "norm",
    "shape_table",
    "tet_volumes",
    "curl_of_edge_field",
    "curl_of_nodal_field",
]


class PreconditionError(ValueError):
    """An operation's precondition failed; `entity` names the offender."""

    def __init__(self, msg, entity=None):
        super().__init__(msg)
        self.entity = entity


# --------------------------------------------------------------------------
# fields
# --------------------------------------------------------------------------

@dataclass
class NodalField:
    mesh: TetMesh
    values: np.ndarray  # (nv,)


@dataclass
class NodalVectorField:
    mesh: TetMesh
    values: np.ndarray  # (nv,3)


@dataclass
class EdgeField:
    mesh: TetMesh
    values: np.ndarray  # (ne,)

    def copy(self):
        return EdgeField(self.mesh, self.values.copy())


Field = NodalField | NodalVectorField | EdgeField


# --------------------------------------------------------------------------
# per-tet geometry by shape class
# --------------------------------------------------------------------------

class ShapeTable(NamedTuple):
    """Per-tet geometry by shape class.  Tets of one class have bit-identical
    cofactors, so each value is computed once per class (a Kuhn lattice has
    6) and gathered by `cls` where a per-tet value is needed."""

    cls: np.ndarray    # (nt,) int32 class of each tet
    first: np.ndarray  # (K,) first tet of each class
    vol: np.ndarray    # (K,) volume
    grad: np.ndarray   # (K,4,3) barycentric gradients
    gram: np.ndarray   # (K,4,4) grad(lam_a).grad(lam_b)
    curl: np.ndarray   # (K,3,6) signed Whitney curls 2 grad(lam_i) x grad(lam_j), TET_EDGES order


def _shape_classes(mesh: TetMesh):
    """(first tet, class of each tet) of the tets' shape classes: equal
    integer edge vectors v1-v0, v2-v0, v3-v0 and equal edge signs, packed
    as int64 keys.  Shapes too varied for the keys to fit in int64 raise a
    PreconditionError naming the mesh."""
    t = mesh.tets
    shape = np.empty((mesh.nt, 15), dtype=np.int64, order="F")
    shape[:, :9] = (mesh.verts_int[t[:, 1:]] - mesh.verts_int[t[:, :1]]).reshape(-1, 9)
    shape[:, 9:] = mesh.tet_edge_sign
    lo = shape.min(axis=0)
    span = shape.max(axis=0) - lo + 1
    if math.prod(span.tolist()) >= 1 << 63:
        raise PreconditionError(f"tet shapes of {mesh.name} are too varied to pack in int64 "
                                f"keys (key spans {span.tolist()})", entity=mesh.name)
    _, first, cls = np.unique(_lattice_keys(shape, lo, span), return_index=True,
                              return_inverse=True)
    return first, cls


def shape_table(mesh: TetMesh) -> ShapeTable:
    """The mesh's shape classes and their geometry: grad(lam_k) is the cross
    product of the other two edge vectors from vertex 0 over their triple
    product, exact on the dyadic lattice."""

    def build():
        first, cls = _shape_classes(mesh)
        v, tf = mesh.verts, mesh.tets[first]
        e1, e2, e3 = (v[tf[:, k]] - v[tf[:, 0]] for k in (1, 2, 3))
        cof = np.stack([np.cross(e2, e3), np.cross(e3, e1), np.cross(e1, e2)], axis=1)
        det = np.einsum("td,td->t", e1, cof[:, 0])
        g = np.empty((len(first), 4, 3))
        g[:, 1:, :] = cof / det[:, None, None]
        g[:, 0, :] = -g[:, 1:, :].sum(axis=1)
        curl = np.stack([2.0 * np.cross(g[:, i, :], g[:, j, :]) for (i, j) in TET_EDGES],
                        axis=2) * mesh.tet_edge_sign[first][:, None, :]
        return ShapeTable(cls.astype(np.int32), first, det / 6.0, g,
                          np.einsum("tad,tbd->tab", g, g), curl)

    return mesh.cached("shape_table", build)


def tet_volumes(mesh: TetMesh) -> np.ndarray:
    """(nt,) tet volumes, the exact integer triple products over 6 denom^3."""
    return mesh.cached("tet_volumes", lambda: shape_table(mesh).vol[shape_table(mesh).cls])


def _curl_matrix(mesh: TetMesh) -> sp.csr_matrix:
    """(3nt x ne) map from edge moments to per-tet curls.  Row 3t+d holds
    the d-components of the signed local Whitney curls of tet t in
    TET_EDGES order, less the exact zeros, so the matvec sums in the order
    of the per-edge loop, bit for bit.  Its arrays are frozen read-only, as
    the memo freezes its ndarrays."""

    def build():
        nt = mesh.nt
        tab = shape_table(mesh)
        indices = np.repeat(mesh.tet_edges, 3, axis=0).ravel()
        indptr = np.arange(0, 18 * nt + 1, 6, dtype=np.int32)
        C = sp.csr_matrix((tab.curl[tab.cls].ravel(), indices, indptr), shape=(3 * nt, mesh.ne))
        C.eliminate_zeros()
        for a in (C.data, C.indices, C.indptr):
            a.setflags(write=False)
        return C

    return mesh.cached("curl_matrix", build)


def curl_of_edge_field(v: EdgeField) -> np.ndarray:
    """Per-tet constant curl of a Whitney edge field, (nt,3)."""
    return (_curl_matrix(v.mesh) @ v.values).reshape(-1, 3)


def curl_of_nodal_field(w: NodalVectorField) -> np.ndarray:
    """Per-tet constant curl of a continuous piecewise-linear vector field."""
    mesh = w.mesh
    tab = shape_table(mesh)
    g = tab.grad[tab.cls]
    wt = w.values[mesh.tets]  # (nt,4,3)
    out = np.zeros((mesh.nt, 3))
    for a in range(4):
        out += np.cross(g[:, a, :], wt[:, a, :])
    return out


# --------------------------------------------------------------------------
# incidence operators
# --------------------------------------------------------------------------

def gradient_map(mesh: TetMesh) -> sp.csr_matrix:
    """Integer incidence Z_h -> V_h: lambda_e(grad p) = p(head) - p(tail)."""

    def build():
        ne = mesh.ne
        return sp.csr_matrix((np.tile([-1.0, 1.0], ne), mesh.edges.ravel(),
                              np.arange(0, 2 * ne + 1, 2, dtype=np.int32)), shape=(ne, mesh.nv))

    return mesh.cached("gradient_map", build)


def curl_map(mesh: TetMesh) -> sp.csr_matrix:
    """Integer incidence from edge moments to face fluxes: the face
    coefficient is the flux of curl v through the face with its canonical
    normal."""

    def build():
        rows = np.repeat(np.arange(mesh.nf, dtype=np.int32), 3)
        data = np.tile(np.array([1.0, 1.0, -1.0]), mesh.nf)  # pairs 01, 12, 02
        return sp.csr_matrix((data, (rows, mesh.face_edges().ravel())),
                             shape=(mesh.nf, mesh.ne))

    return mesh.cached("curl_map", build)


# --------------------------------------------------------------------------
# mass / stiffness assembly
# --------------------------------------------------------------------------

def _scatter(rows, cols, vals, shape) -> sp.csr_matrix:
    """Summed CSR matrix of the local entries of the edge mass, less the
    sums that are exact zeros."""
    m = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()
    m.eliminate_zeros()
    return m


# integrals of lam_a lam_b over a tet of unit volume
_S4 = (1.0 + np.eye(4)) / 20.0
# the local vertex pairs of the tet edges, in TET_EDGES order
_EDGE_I, _EDGE_J = np.array(TET_EDGES).T


def _nodal_pattern(mesh: TetMesh, free=None):
    """CSR (indptr, indices) of the P1 matrices of `mesh` on the nodes of
    the bool mask `free` (every node when None), and the source of each
    stored entry in the node values followed by the edge values: node i is
    i, edge e is nv + e.  Row i holds its lower neighbours, itself, then
    its upper neighbours, each ascending.  As the edges are lexsorted, the
    upper ones come in edge order, and the lower ones in the order of the
    CSC view of the upper triangle, which scipy's conversion gives by a
    counting sort.  O(ne + nv), with no sort."""
    if free is None:
        free = np.ones(mesh.nv, dtype=bool)
    nodes = np.flatnonzero(free).astype(np.int32)
    ids = np.flatnonzero(free[mesh.edges[:, 0]] & free[mesh.edges[:, 1]]).astype(np.int32)
    lo, hi = np.take(np.cumsum(free, dtype=np.int32) - 1, np.take(mesh.edges, ids, axis=0)).T
    n, ne = len(nodes), len(ids)
    seq = np.arange(ne, dtype=np.int32)
    up_ptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(lo, minlength=n), out=up_ptr[1:])
    by_hi = sp.csr_matrix((seq, hi, up_ptr), shape=(n, n)).tocsc()
    n_up, n_low = np.diff(up_ptr), np.diff(by_hi.indptr)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(n_low + n_up + 1, out=indptr[1:])
    diag = indptr[:-1] + n_low
    upper = seq + np.repeat(diag + 1 - up_ptr[:-1], n_up)
    lower = seq + np.repeat(indptr[:-1] - by_hi.indptr[:-1], n_low)
    indices = np.empty(indptr[-1], dtype=np.int32)
    src = np.empty(indptr[-1], dtype=np.int32)
    indices[diag], src[diag] = np.arange(n, dtype=np.int32), nodes
    indices[upper], src[upper] = hi, mesh.nv + ids
    indices[lower], src[lower] = by_hi.indices, mesh.nv + np.take(ids, by_hi.data)
    return indptr, indices, src


def _nodal_matrices(mesh: TetMesh, weights: list, free=None) -> list:
    """The nodal matrices K_a + M_b for each pair of per-tet weights (a, b)
    in `weights` (arrays or scalars; None leaves the term out), on the
    nodes of the bool mask `free` (every node when None).

    A P1 matrix has one value per node and one per edge.  Each is a sum of
    local entries, one `np.bincount` over `tets` and one over `tet_edges`,
    summed in tet order, and the matrices share one `_nodal_pattern`.  An
    edge's one value fills both its entries, so each matrix is exactly
    symmetric; its exact zeros (half the P1 stiffness pattern of a Kuhn
    lattice) are not stored.  The restriction to `free` equals the full
    matrix sliced to the free rows and columns."""
    indptr, indices, src = _nodal_pattern(mesh, free)
    n = len(indptr) - 1
    vol = tet_volumes(mesh)
    tab = shape_table(mesh)
    # (class grams, S4 entry, entity of each local entry, entity count) of
    # the local diagonals, then of the local off-diagonals
    parts = ((np.diagonal(tab.gram, axis1=1, axis2=2), _S4[0, 0], mesh.tets, mesh.nv),
             (tab.gram[:, _EDGE_I, _EDGE_J], _S4[0, 1], mesh.tet_edges, mesh.ne))
    out = []
    for stiffness_weight, mass_weight in weights:
        sums = []
        for gram, s4, entity, size in parts:
            if stiffness_weight is None:
                loc = np.zeros(entity.shape)
            else:  # the class grams, gathered and scaled in place
                loc = np.take(gram, tab.cls, axis=0)
                loc *= (vol * stiffness_weight)[:, None]
            if mass_weight is not None:
                loc += (vol * mass_weight)[:, None] * s4
            sums.append(np.bincount(entity.ravel(), loc.ravel(), size))
        vals = np.concatenate(sums)
        m = sp.csr_matrix((np.take(vals, src), indices.copy(), indptr.copy()),
                          shape=(n, n))
        m.eliminate_zeros()  # in place, hence the copies
        out.append(m)
    return out


def _assemble_nodal(mesh: TetMesh, kind: str, weight) -> sp.csr_matrix:
    w = 1.0 if weight is None else weight
    return _nodal_matrices(mesh, [(w, None) if kind == "stiffness" else (None, w)])[0]


def _assemble_edge(mesh: TetMesh, kind: str, weight) -> sp.csr_matrix:
    vol = tet_volumes(mesh)
    w = vol if weight is None else vol * weight
    if kind == "stiffness":
        C = _curl_matrix(mesh)
        return (C.T @ (sp.diags(np.repeat(w, 3)) @ C)).tocsr()
    # the signed unit-volume local matrix of each shape class, gathered and
    # scaled per tet: w * (s_a s_b) * m_ab in any order, as s = +-1
    tab = shape_table(mesh)
    gg = tab.gram
    loc = np.empty((len(gg), 6, 6))
    k, l = np.array(TET_EDGES).T
    for a, (i, j) in enumerate(TET_EDGES):
        loc[:, a] = (_S4[i, k] * gg[:, j, l] - _S4[i, l] * gg[:, j, k]
                     - _S4[j, k] * gg[:, i, l] + _S4[j, l] * gg[:, i, k])
    sign = mesh.tet_edge_sign[tab.first].astype(float)
    loc *= sign[:, :, None] * sign[:, None, :]
    loc = loc[tab.cls]
    loc *= w[:, None, None]
    te = mesh.tet_edges
    return _scatter(np.repeat(te, 6, axis=1), np.tile(te, (1, 6)), loc, (mesh.ne, mesh.ne))


def assemble(mesh: TetMesh, space: str, kind: str, tet_weight=None) -> sp.csr_matrix:
    """Symmetric mass/stiffness matrix for space in {Z, V}.

    V-stiffness is the curl-curl form C^T W C on the cached curl matrix.
    `tet_weight` is an optional per-tet coefficient (not cached).
    """
    if space not in ("Z", "V") or kind not in ("mass", "stiffness"):
        raise ValueError(f"unknown assembly {space}/{kind}")

    def build():
        return (_assemble_edge if space == "V" else _assemble_nodal)(mesh, kind, tet_weight)

    if tet_weight is not None:
        return build()
    return mesh.cached(("op", space, kind), build)


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------

def norm(field: Field, which: str) -> float:
    """Computable norms: L2 for all spaces; H1 for nodal fields; curl and
    curl_semi for edge fields.  A nodal vector field's forms are the
    scalar Z forms applied to its (nv, 3) array, which sums as the
    Kronecker product with the 3x3 identity would."""
    mesh = field.mesh
    space = "V" if isinstance(field, EdgeField) else "Z"

    def form(kind):
        A = assemble(mesh, space, kind)
        return float(field.values.ravel() @ (A @ field.values).ravel())

    if which == "L2":
        return float(np.sqrt(max(form("mass"), 0.0)))
    if which == "H1":
        if space != "Z":
            raise ValueError("H1 norm requires a nodal field")
        semi = form("stiffness")
        return float(np.sqrt(max(semi + form("mass"), 0.0)))
    if which in ("curl", "curl_semi"):
        if space != "V":
            raise ValueError("curl norms require an edge field")
        # per-tet analytic curls: nonnegative by construction and exactly
        # zero for gradients (the assembled quadratic only cancels to
        # roundoff after sqrt)
        c = curl_of_edge_field(field)
        semi = float(np.sum(tet_volumes(mesh) * np.einsum("td,td->t", c, c)))
        if which == "curl_semi":
            return float(np.sqrt(semi))
        return float(np.sqrt(semi + max(form("mass"), 0.0)))
    raise ValueError(f"unknown norm {which!r}")


# --------------------------------------------------------------------------
# cached sparse factorizations
# --------------------------------------------------------------------------

# SuperLU settings for an SPD matrix: minimum degree on A^T + A and
# diagonal pivots, so the factor keeps the symmetric fill
_SPD_SPLU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                 options=dict(SymmetricMode=True))


def cached_solver(mesh: TetMesh, pins: np.ndarray):
    """SuperLU factor of the nodal stiffness less the rows and columns of
    the `pins` nodes, cached on the mesh per pin mask.  It is SPD, so it
    keeps the symmetric fill, and small enough that SuperLU's compiled
    solve beats the per-front steps of `Cholesky`."""

    def build():
        free = np.nonzero(~pins)[0]
        return spla.splu(assemble(mesh, "Z", "stiffness")[free][:, free].tocsc(), **_SPD_SPLU)

    return mesh.cached(("splu", "dirichlet", pins.tobytes()), build)


# --------------------------------------------------------------------------
# nested-dissection multifrontal Cholesky
# --------------------------------------------------------------------------

_LEAF = 128  # dissection stops at this many unknowns


def _dissection(points: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Nested dissection of the graph with edges (u, v) whose vertices sit
    at the lattice `points` (George 1973).  A set of more than _LEAF
    vertices is cut by the median plane of one axis; the separator is the
    smaller of the two sets of cut-edge ends, and of the three axes the one
    with the smallest separator wins.  Returns the tree in postorder: a
    list of (vertex ids, child node indices); a separator that comes out
    empty leaves no node, its halves join the parent's children."""
    nodes = []

    def split(ids, pts, u, v):
        m = len(ids)
        best, size = None, m
        for x in (pts.T if m > _LEAF else ()):
            left = x < np.partition(x, m // 2)[m // 2]
            if not left.any():
                continue
            cut = left[u] != left[v]
            end = np.zeros(m, dtype=bool)
            end[u[cut]] = True
            end[v[cut]] = True
            sep = min(end & left, end & ~left, key=np.count_nonzero)
            if best is None or np.count_nonzero(sep) < size:
                best, size = (sep, left), np.count_nonzero(sep)
        if best is None:
            nodes.append((ids, []))
            return [len(nodes) - 1]
        sep, left = best
        kids = []
        for side in (left & ~sep, ~left & ~sep):
            sel = np.nonzero(side)[0]
            if len(sel):
                loc = np.full(m, -1)
                loc[sel] = np.arange(len(sel))
                keep = side[u] & side[v]
                kids += split(ids[sel], pts[sel], loc[u[keep]], loc[v[keep]])
        if not size:
            return kids
        nodes.append((ids[sep], kids))
        return [len(nodes) - 1]

    split(np.arange(len(points)), points, u, v)
    return nodes


def _extend_add(P, T, at, upd) -> None:
    """Add a child's update matrix `upd` into the front (pivot columns P,
    trailing block T; `Cholesky`) at the ascending front slots `at` of its
    rows.  Only lower triangles are read, so the add runs over the pairs of
    maximal runs of consecutive slots (split where T begins), a row run at
    or below a column run, each as one slice add."""
    k = P.shape[1]
    cut = np.flatnonzero((np.diff(at) != 1) | (at[1:] == k)) + 1
    runs = list(zip([0] + cut.tolist(), cut.tolist() + [len(at)], at[np.append(0, cut)].tolist()))
    for j, (c0, c1, a) in enumerate(runs):
        X, o = (P, 0) if a < k else (T, k)
        for r0, r1, b in runs[j:]:
            X[b - o:b - o + r1 - r0, a - o:a - o + c1 - c0] += upd[r0:r1, c0:c1]


class Cholesky:
    """A = L L^T of a sparse SPD matrix by the multifrontal method (Liu,
    SIAM Review 1992) on a nested-dissection order of `points`, one
    lattice point per unknown.  Each tree node owns one dense front: its
    own unknowns and the later ones they couple to.  The front sums the
    node's columns of A and its children's update matrices (extend-add),
    then `dpotrf` factors the pivot block, `dtrsm` gives the panel below it
    and `dsyrk` the node's update matrix.  Only L is stored, one dense
    (pivot, panel) pair per node; `nnz` counts its entries.  A pivot block
    that is not positive definite raises a PreconditionError that names
    `name`."""

    def __init__(self, A, points, name: str):
        A = sp.csr_matrix(A)
        A.sum_duplicates()
        A = A.tocoo()
        upper = A.row < A.col
        nodes = _dissection(np.asarray(points), A.row[upper], A.col[upper])
        n = A.shape[0]
        self.perm = np.concatenate([ids for ids, _ in nodes])
        ends = np.cumsum([len(ids) for ids, _ in nodes])
        # the lower triangle of the permuted A, column by column
        new = np.empty(n, dtype=np.int64)
        new[self.perm] = np.arange(n)
        i, j = new[A.row], new[A.col]
        low = i >= j
        by_col = np.argsort(j[low], kind="stable")
        rows, vals = i[low][by_col], A.data[low][by_col]
        ptr = np.concatenate(([0], np.cumsum(np.bincount(j[low], minlength=n))))
        pos = np.empty(n, dtype=np.int64)  # row -> front slot
        self.blocks = []
        update = {}
        for t, (ids, kids) in enumerate(nodes):
            e = int(ends[t])
            s = e - len(ids)
            k = e - s
            # the front's later rows: those of its columns of A and of its
            # children's updates
            below = np.concatenate([rows[ptr[s]:ptr[e]]] + [self.blocks[c][2] for c in kids])
            U = np.unique(below[below >= e])
            m = k + len(U)
            pos[s:e] = np.arange(k)
            pos[U] = np.arange(k, m)
            # the front's lower triangle: its k pivot columns P, and the
            # trailing block T, contiguous so that dsyrk updates it in place
            P = np.zeros((m, k), order="F")
            T = np.zeros((m - k, m - k), order="F")
            cols = np.repeat(np.arange(k), np.diff(ptr[s:e + 1]))
            P.ravel(order="F")[pos[rows[ptr[s]:ptr[e]]] + m * cols] = vals[ptr[s]:ptr[e]]
            for c in kids:
                if c in update:  # a child that couples to no later row sends none
                    _extend_add(P, T, pos[self.blocks[c][2]], update.pop(c))
            L11, info = _dpotrf(P[:k], 1, 1)
            if info:
                raise PreconditionError(
                    f"matrix of {name} is not positive definite (pivot block "
                    f"{t} of {len(nodes)}, column {info} of {k})", entity=name)
            L21 = _dtrsm(1.0, L11, P[k:], 1, 1, 1, 0, 1)
            if len(U):
                update[t] = _dsyrk(-1.0, L21, 1.0, T, 0, 1, 1)
            self.blocks.append((s, e, U, L11, L21))
        self.nnz = sum((e - s) * (e - s + 1) // 2 + L21.size for s, e, _, _, L21 in self.blocks)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b for b of shape (n,) or (n, k)."""
        x = np.ascontiguousarray(b[self.perm], dtype=float)
        work = x.reshape(len(x), -1)
        for s, e, U, L11, L21 in self.blocks:
            y = work[s:e]
            _dtrsm(1.0, L11, y.T, 1, 1, 1, 0, 1)  # y^T <- y^T L11^-T, in place
            work[U] -= L21 @ y
        for s, e, U, L11, L21 in reversed(self.blocks):
            y = work[s:e]
            y -= L21.T @ work[U]
            _dtrsm(1.0, L11, y.T, 1, 1, 0, 0, 1)  # y^T <- y^T L11^-1
        out = np.empty_like(x)
        out[self.perm] = x
        return out
