"""Lowest-order FEM cores: P1 nodal and Whitney edge elements.

DOF conventions: nodal values per vertex; edge moments lambda_e(v) =
int_e v.t ds with the global low-id -> high-id orientation; the curl
incidence gives face fluxes with the canonical (ascending vertex triple,
right-hand) normal.  Mass and the nodal stiffness use exact barycentric
integral formulas.  Every curl-curl form is built from one cached sparse
(3nt x ne) curl matrix C: the per-tet curl of an edge field is one matvec
C v, and the (weighted) edge stiffness is C^T W C with W the per-tet
weighted volumes, repeated for the three curl components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import TET_EDGES, TetMesh

__all__ = [
    "NodalField",
    "NodalVectorField",
    "EdgeField",
    "gradient_map",
    "curl_map",
    "assemble",
    "norm",
    "tet_geometry",
    "curl_of_edge_field",
    "curl_of_nodal_field",
]

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
# per-tet geometry
# --------------------------------------------------------------------------

def tet_geometry(mesh: TetMesh):
    """(volumes (nt,), grads (nt,4,3)) of barycentric coordinates by
    cofactors: grad(lam_k) is the cross product of the other two edge vectors
    from vertex 0 over their triple product, exact on the dyadic lattice."""

    def build():
        v = mesh.verts
        t = mesh.tets
        e1, e2, e3 = (v[t[:, k]] - v[t[:, 0]] for k in (1, 2, 3))
        cof = np.stack([np.cross(e2, e3), np.cross(e3, e1), np.cross(e1, e2)], axis=1)
        det = np.einsum("td,td->t", e1, cof[:, 0])
        g = np.empty((len(t), 4, 3))
        g[:, 1:, :] = cof / det[:, None, None]
        g[:, 0, :] = -g[:, 1:, :].sum(axis=1)
        return det / 6.0, g

    return mesh.cached("tetgeom", build)


def _gradient_gram(mesh: TetMesh) -> np.ndarray:
    """(nt,4,4) dot products grad(lam_a).grad(lam_b) of the barycentric
    gradients, shared by the nodal stiffness and the edge mass."""

    def build():
        _, g = tet_geometry(mesh)
        return np.einsum("tad,tbd->tab", g, g)

    return mesh.cached("gradient_gram", build)


def _curl_matrix(mesh: TetMesh) -> sp.csr_matrix:
    """(3nt x ne) map from edge moments to per-tet curls.  Row 3t+d holds
    the d-components of the signed local Whitney curls 2 grad(lam_i) x
    grad(lam_j) of tet t in TET_EDGES order, less the exact zeros, so the
    matvec sums in the order of the per-edge loop, bit for bit.  Its arrays
    are frozen read-only, as the memo freezes its ndarrays."""

    def build():
        nt = mesh.nt
        _, g = tet_geometry(mesh)
        c = np.stack([2.0 * np.cross(g[:, i, :], g[:, j, :]) for (i, j) in TET_EDGES],
                     axis=2) * mesh.tet_edge_sign[:, None, :]  # (nt,3,6)
        indices = np.repeat(mesh.tet_edges, 3, axis=0).ravel()
        C = sp.csr_matrix((c.ravel(), indices, np.arange(0, 18 * nt + 1, 6)),
                          shape=(3 * nt, mesh.ne))
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
    vol, g = tet_geometry(mesh)
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
                              np.arange(0, 2 * ne + 1, 2)), shape=(ne, mesh.nv))

    return mesh.cached("gradient_map", build)


def curl_map(mesh: TetMesh) -> sp.csr_matrix:
    """Integer incidence from edge moments to face fluxes: the face
    coefficient is the flux of curl v through the face with its canonical
    normal."""

    def build():
        rows = np.repeat(np.arange(mesh.nf), 3)
        data = np.tile(np.array([1.0, 1.0, -1.0]), mesh.nf)  # pairs 01, 12, 02
        return sp.csr_matrix(
            (data, (rows, mesh.face_edges().ravel())), shape=(mesh.nf, mesh.ne))

    return mesh.cached("curl_map", build)


# --------------------------------------------------------------------------
# mass / stiffness assembly
# --------------------------------------------------------------------------

def _scatter(rows, cols, vals, shape) -> sp.csr_matrix:
    """Summed CSR matrix of the local entries, less the sums that are exact
    zeros (half the P1 stiffness pattern of a Kuhn lattice)."""
    m = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()
    m.eliminate_zeros()
    return m


# integrals of lam_a lam_b over a tet of unit volume
_S4 = (1.0 + np.eye(4)) / 20.0


def _assemble_nodal(mesh: TetMesh, kind: str, weight) -> sp.csr_matrix:
    vol, _ = tet_geometry(mesh)
    w = vol if weight is None else vol * weight
    t = mesh.tets
    if kind == "mass":
        loc = w[:, None, None] * _S4[None, :, :]
    else:
        loc = w[:, None, None] * _gradient_gram(mesh)
    rows = np.repeat(t, 4, axis=1)          # position 4a+b -> v_a
    cols = np.tile(t, (1, 4))               # position 4a+b -> v_b
    return _scatter(rows, cols, loc.reshape(len(t), 16), (mesh.nv, mesh.nv))


def _assemble_edge(mesh: TetMesh, kind: str, weight) -> sp.csr_matrix:
    vol, _ = tet_geometry(mesh)
    w = vol if weight is None else vol * weight
    if kind == "stiffness":
        C = _curl_matrix(mesh)
        return (C.T @ (sp.diags(np.repeat(w, 3)) @ C)).tocsr()
    gg = _gradient_gram(mesh)
    # row a = (i, j) against all b = (k, l): (nt, 6), not (nt, 6, 6), temporaries
    loc = np.empty((mesh.nt, 6, 6))
    k, l = np.array(TET_EDGES).T
    for a, (i, j) in enumerate(TET_EDGES):
        loc[:, a] = (_S4[i, k] * gg[:, j, l] - _S4[i, l] * gg[:, j, k]
                     - _S4[j, k] * gg[:, i, l] + _S4[j, l] * gg[:, i, k])
    sign = mesh.tet_edge_sign.astype(float)
    loc *= w[:, None, None] * sign[:, :, None] * sign[:, None, :]
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
        vol, _ = tet_geometry(mesh)
        c = curl_of_edge_field(field)
        semi = float(np.sum(vol * np.einsum("td,td->t", c, c)))
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


def cached_solver(mesh: TetMesh, key, build, spd: bool = False):
    """splu factorization cached on the mesh; `build` returns the csc/csr
    matrix when the key is missing, `spd` selects the symmetric-mode
    settings.  The SPD keys are stiffness blocks with Dirichlet rows
    removed: the pinned kernel factor ("kernel", pin mask), the interior
    Poisson factor ("harm", "interior") and the cotree curl-curl block
    ("curlharm", "cotree").
    The gauge kernel ("kernel", "gauge") is the stiffness bordered by the
    mean-value row, a saddle point with a zero diagonal entry, so it keeps
    the default partial-pivoting settings."""
    return mesh.cached(("splu",) + tuple(key), lambda: spla.splu(
        build().tocsc(), **(_SPD_SPLU if spd else {})))
