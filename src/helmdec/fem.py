"""Lowest-order FEM cores: P1 nodal, Whitney edge, RT0 face elements.

DOF conventions: nodal values per vertex; edge moments lambda_e(v) =
int_e v.t ds with the global low-id -> high-id orientation; face fluxes
with the canonical (ascending vertex triple, right-hand) normal.  Mass and
stiffness use exact barycentric integral formulas; an independent fixed
quadrature oracle is provided for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import TET_EDGES, TetMesh
from .trace import TraceSet

__all__ = [
    "NodalField",
    "NodalVectorField",
    "EdgeField",
    "FaceField",
    "SparseOperator",
    "gradient_map",
    "curl_map",
    "assemble",
    "norm",
    "restrict_zero",
    "tet_geometry",
    "curl_of_edge_field",
    "curl_of_nodal_field",
    "quadrature_form",
]

# --------------------------------------------------------------------------
# fields
# --------------------------------------------------------------------------

@dataclass
class NodalField:
    mesh: TetMesh
    values: np.ndarray  # (nv,)

    def copy(self):
        return NodalField(self.mesh, self.values.copy())


@dataclass
class NodalVectorField:
    mesh: TetMesh
    values: np.ndarray  # (nv,3)

    def copy(self):
        return NodalVectorField(self.mesh, self.values.copy())


@dataclass
class EdgeField:
    mesh: TetMesh
    values: np.ndarray  # (ne,)

    def copy(self):
        return EdgeField(self.mesh, self.values.copy())


@dataclass
class FaceField:
    mesh: TetMesh
    values: np.ndarray  # (nf,)

    def copy(self):
        return FaceField(self.mesh, self.values.copy())


Field = NodalField | NodalVectorField | EdgeField | FaceField


@dataclass
class SparseOperator:
    """Sparse operator with an asserted symmetry flag."""

    mat: sp.csr_matrix
    symmetric: bool = False

    @property
    def shape(self):
        return self.mat.shape

    def __matmul__(self, x):
        return self.mat @ x

    def quadratic(self, u, v=None) -> float:
        v = u if v is None else v
        return float(u.ravel() @ (self.mat @ v.ravel()))

    def check_symmetry(self, rtol=1e-13) -> bool:
        d = self.mat - self.mat.T
        scale = max(abs(self.mat).max(), 1.0)
        return bool(abs(d).max() <= rtol * scale)

    def to_text(self) -> str:
        coo = self.mat.tocoo()
        order = np.lexsort((coo.col, coo.row))
        lines = [f"{coo.row[k]} {coo.col[k]} {coo.data[k]!r}" for k in order]
        return "\n".join([f"{self.mat.shape[0]} {self.mat.shape[1]} {len(order)}"] + lines) + "\n"


# --------------------------------------------------------------------------
# per-tet geometry
# --------------------------------------------------------------------------

def tet_geometry(mesh: TetMesh):
    """(volumes (nt,), grads (nt,4,3)) of barycentric coordinates."""

    def build():
        v = mesh.verts
        t = mesh.tets
        e = np.stack([v[t[:, k]] - v[t[:, 0]] for k in (1, 2, 3)], axis=1)  # (nt,3,3)
        det = np.linalg.det(e)
        vol = det / 6.0
        inv = np.linalg.inv(e)                     # rows of inv.T are grads 1..3
        g = np.empty((len(t), 4, 3))
        g[:, 1:, :] = np.transpose(inv, (0, 2, 1))
        g[:, 0, :] = -g[:, 1:, :].sum(axis=1)
        return vol, g

    return mesh.cached("tetgeom", build)


def _curl_basis(mesh: TetMesh) -> np.ndarray:
    """(nt,6,3) curls 2 grad(lam_i) x grad(lam_j) of the local Whitney
    functions, in TET_EDGES order."""

    def build():
        _, g = tet_geometry(mesh)
        return np.stack(
            [2.0 * np.cross(g[:, i, :], g[:, j, :]) for (i, j) in TET_EDGES], axis=1
        )

    return mesh.cached("curl_basis", build)


def curl_of_edge_field(v: EdgeField) -> np.ndarray:
    """Per-tet constant curl of a Whitney edge field, (nt,3)."""
    mesh = v.mesh
    c = _curl_basis(mesh)
    coef = v.values[mesh.tet_edges] * mesh.tet_edge_sign  # (nt,6)
    out = np.zeros((mesh.nt, 3))
    for k in range(len(TET_EDGES)):
        out += coef[:, k, None] * c[:, k, :]
    return out


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

def gradient_map(mesh: TetMesh) -> SparseOperator:
    """Integer incidence Z_h -> V_h: lambda_e(grad p) = p(head) - p(tail)."""

    def build():
        ne = mesh.ne
        rows = np.repeat(np.arange(ne), 2)
        cols = mesh.edges.ravel()
        data = np.tile(np.array([-1.0, 1.0]), ne)
        return SparseOperator(sp.csr_matrix((data, (rows, cols)), shape=(ne, mesh.nv)))

    return mesh.cached("gradient_map", build)


def curl_map(mesh: TetMesh) -> SparseOperator:
    """Integer incidence V_h -> W_h; the face coefficient is the flux of
    curl v through the face with its canonical normal."""

    def build():
        rows = np.repeat(np.arange(mesh.nf), 3)
        data = np.tile(np.array([1.0, 1.0, -1.0]), mesh.nf)  # pairs 01, 12, 02
        return SparseOperator(sp.csr_matrix(
            (data, (rows, mesh.face_edges().ravel())), shape=(mesh.nf, mesh.ne)))

    return mesh.cached("curl_map", build)


# --------------------------------------------------------------------------
# mass / stiffness assembly
# --------------------------------------------------------------------------

def _scatter(rows, cols, vals, shape) -> sp.csr_matrix:
    m = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    return m.tocsr()


def _bary_mass():
    s = np.full((4, 4), 1.0 / 20.0)
    np.fill_diagonal(s, 2.0 / 20.0)
    return s


_S4 = _bary_mass()


def _assemble_nodal(mesh: TetMesh, kind: str, weight) -> sp.csr_matrix:
    vol, g = tet_geometry(mesh)
    w = vol if weight is None else vol * weight
    t = mesh.tets
    if kind == "mass":
        loc = w[:, None, None] * _S4[None, :, :]
    else:
        loc = w[:, None, None] * np.einsum("tad,tbd->tab", g, g)
    rows = np.repeat(t, 4, axis=1)          # position 4a+b -> v_a
    cols = np.tile(t, (1, 4))               # position 4a+b -> v_b
    return _scatter(rows, cols, loc.reshape(len(t), 16), (mesh.nv, mesh.nv))


def _edge_locals(mesh: TetMesh):
    """Signed local Whitney data shared by V-space assemblies."""
    vol, g = tet_geometry(mesh)
    sign = mesh.tet_edge_sign.astype(float)
    return vol, g, sign


def _assemble_edge(mesh: TetMesh, kind: str, weight) -> sp.csr_matrix:
    vol, g, sign = _edge_locals(mesh)
    w = vol if weight is None else vol * weight
    nt = mesh.nt
    loc = np.zeros((nt, 6, 6))
    if kind == "mass":
        gg = np.einsum("tad,tbd->tab", g, g)  # (nt,4,4)
        for a, (i, j) in enumerate(TET_EDGES):
            for b, (k, l) in enumerate(TET_EDGES):
                loc[:, a, b] = (
                    _S4[i, k] * gg[:, j, l]
                    - _S4[i, l] * gg[:, j, k]
                    - _S4[j, k] * gg[:, i, l]
                    + _S4[j, l] * gg[:, i, k]
                )
        loc *= w[:, None, None]
    else:
        c = _curl_basis(mesh)
        loc = w[:, None, None] * np.einsum("tad,tbd->tab", c, c)
    loc *= sign[:, :, None] * sign[:, None, :]
    te = mesh.tet_edges
    rows = np.repeat(te, 6, axis=1)
    cols = np.tile(te, (1, 6))
    return _scatter(rows, cols, loc.reshape(nt, 36), (mesh.ne, mesh.ne))


def _face_signs(mesh: TetMesh):
    """sigma[t,f] = +1 iff the canonical normal of local face f points out
    of tet t."""

    def build():
        from .mesh import TET_FACES

        v = mesh.verts
        t = mesh.tets
        s = np.empty((mesh.nt, 4), dtype=np.int8)
        for lf, (a, b, c) in enumerate(TET_FACES):
            tri = np.sort(t[:, [a, b, c]], axis=1)
            n = np.cross(v[tri[:, 1]] - v[tri[:, 0]], v[tri[:, 2]] - v[tri[:, 0]])
            opp = t[:, [k for k in range(4) if k not in (a, b, c)][0]]
            s[:, lf] = np.where(
                np.einsum("ij,ij->i", n, v[opp] - v[tri[:, 0]]) < 0, 1, -1
            )
        return s

    return mesh.cached("face_signs", build)


def _assemble_face(mesh: TetMesh, kind: str, weight) -> sp.csr_matrix:
    from .mesh import TET_FACES

    vol, g = tet_geometry(mesh)
    w = vol if weight is None else vol * weight
    v = mesh.verts
    t = mesh.tets
    sigma = _face_signs(mesh).astype(float)
    nt = mesh.nt
    if kind == "stiffness":  # div-div form
        loc = (sigma[:, :, None] * sigma[:, None, :]) / (vol[:, None, None] ** 2)
        loc *= w[:, None, None]
    else:
        # psi_f = sigma_f (x - x_opp) / (3V); expand in barycentric basis
        opp_idx = [
            [k for k in range(4) if k not in fc][0] for fc in TET_FACES
        ]
        coeff = np.zeros((nt, 4, 4, 3))  # face, bary index, xyz
        xt = v[t]  # (nt,4,3)
        for lf in range(4):
            for a in range(4):
                coeff[:, lf, a, :] = xt[:, a, :] - xt[:, opp_idx[lf], :]
        loc = np.einsum("ab,tiad,tjbd->tij", _S4, coeff, coeff)
        loc *= (sigma[:, :, None] * sigma[:, None, :]) * (
            w / (9.0 * vol * vol)
        )[:, None, None]
    tf = mesh.tet_faces
    rows = np.repeat(tf, 4, axis=1)
    cols = np.tile(tf, (1, 4))
    return _scatter(rows, cols, loc.reshape(nt, 16), (mesh.nf, mesh.nf))


def assemble(mesh: TetMesh, space: str, kind: str, tet_weight=None) -> SparseOperator:
    """Mass/stiffness operator for space in {Z, Z3, V, W}.

    V-stiffness is the curl-curl form, W-stiffness the div-div form.
    `tet_weight` is an optional per-tet coefficient (not cached).
    """
    if space not in ("Z", "Z3", "V", "W") or kind not in ("mass", "stiffness"):
        raise ValueError(f"unknown assembly {space}/{kind}")

    def build():
        if space in ("Z", "Z3"):
            m = _assemble_nodal(mesh, kind, tet_weight)
            if space == "Z3":
                m = sp.kron(m, sp.eye(3), format="csr")
        elif space == "V":
            m = _assemble_edge(mesh, kind, tet_weight)
        else:
            m = _assemble_face(mesh, kind, tet_weight)
        return SparseOperator(m.tocsr(), symmetric=True)

    if tet_weight is not None:
        return build()
    return mesh.cached(("op", space, kind), build)


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------

def norm(field: Field, which: str) -> float:
    """Computable norms: L2 for all spaces; H1 for nodal fields; curl and
    curl_semi for edge fields."""
    mesh = field.mesh
    x = field.values.ravel()
    if which == "L2":
        space = {NodalField: "Z", NodalVectorField: "Z3", EdgeField: "V", FaceField: "W"}[
            type(field)
        ]
        q = assemble(mesh, space, "mass").quadratic(x)
        return float(np.sqrt(max(q, 0.0)))
    if which in ("H1", "H1_semi"):
        if not isinstance(field, (NodalField, NodalVectorField)):
            raise ValueError("H1 norm requires a nodal field")
        space = "Z" if isinstance(field, NodalField) else "Z3"
        semi = assemble(mesh, space, "stiffness").quadratic(x)
        if which == "H1_semi":
            return float(np.sqrt(max(semi, 0.0)))
        q = assemble(mesh, space, "mass").quadratic(x)
        return float(np.sqrt(max(semi + q, 0.0)))
    if which in ("curl", "curl_semi"):
        if not isinstance(field, EdgeField):
            raise ValueError("curl norms require an edge field")
        # per-tet analytic curls: nonnegative by construction and exactly
        # zero for gradients (the assembled quadratic only cancels to
        # roundoff after sqrt)
        vol, _ = tet_geometry(mesh)
        c = curl_of_edge_field(field)
        semi = float(np.sum(vol * np.einsum("td,td->t", c, c)))
        if which == "curl_semi":
            return float(np.sqrt(semi))
        q = assemble(mesh, "V", "mass").quadratic(x)
        return float(np.sqrt(semi + max(q, 0.0)))
    raise ValueError(f"unknown norm {which!r}")


def restrict_zero(field: Field, trace: TraceSet) -> Field:
    """Zero the coefficients on the trace entities, exactly."""
    if field.mesh is not trace.mesh:
        raise ValueError("field and trace live on different meshes")
    out = field.copy()
    if isinstance(field, (NodalField, NodalVectorField)):
        out.values[trace.node_mask] = 0.0
    elif isinstance(field, EdgeField):
        out.values[trace.edge_mask] = 0.0
    else:
        out.values[trace.face_mask] = 0.0
    return out


# --------------------------------------------------------------------------
# independent quadrature oracle
# --------------------------------------------------------------------------

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


def _whitney_values(mesh: TetMesh, coefs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """(nt,3) Whitney field values at one barycentric point."""
    vol, g = tet_geometry(mesh)
    sc = coefs[mesh.tet_edges] * mesh.tet_edge_sign
    out = np.zeros((mesh.nt, 3))
    for k, (i, j) in enumerate(TET_EDGES):
        out += sc[:, k, None] * (lam[i] * g[:, j, :] - lam[j] * g[:, i, :])
    return out


def quadrature_form(u: Field, v: Field, kind: str) -> float:
    """Second-order Gauss evaluation of the mass/stiffness bilinear forms.

    Integrands are polynomial of degree <= 2, so the rule is exact up to
    roundoff; the evaluation path (pointwise basis values) is independent
    of the closed-form assembly.
    """
    mesh = u.mesh
    vol, g = tet_geometry(mesh)
    if kind == "stiffness" and isinstance(u, EdgeField):
        cu = curl_of_edge_field(u)
        cv = curl_of_edge_field(v)
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
        if isinstance(u, EdgeField):
            uu = _whitney_values(mesh, u.values, lam)
            vv = _whitney_values(mesh, v.values, lam)
            total += _QW[q] * np.einsum("td,td->t", uu, vv)
        elif isinstance(u, NodalField):
            uu = np.einsum("a,ta->t", lam, u.values[mesh.tets])
            vv = np.einsum("a,ta->t", lam, v.values[mesh.tets])
            total += _QW[q] * uu * vv
        elif isinstance(u, NodalVectorField):
            uu = np.einsum("a,tac->tc", lam, u.values[mesh.tets])
            vv = np.einsum("a,tac->tc", lam, v.values[mesh.tets])
            total += _QW[q] * np.einsum("tc,tc->t", uu, vv)
        else:
            raise ValueError("quadrature oracle: unsupported field")
    return float(np.sum(vol * total))


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
    settings."""
    return mesh.cached(("splu",) + tuple(key), lambda: spla.splu(
        build().tocsc(), **(_SPD_SPLU if spd else {})))
