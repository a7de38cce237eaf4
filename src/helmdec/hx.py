"""Model curl-curl solver with per-block jump coefficients and the
auxiliary-space preconditioner built from the decomposition transfers.

The bilinear form is (alpha curl u, curl v) + (beta u, v) with essential
tangential data on the trace.  The preconditioner combines a point Jacobi
smoother with inexact, spectrally equivalent solves of the two Galerkin
auxiliary problems: the scalar nodal space carried over by the gradient
map and the vector nodal space carried over by the edge-moment
interpolation.  Each auxiliary solve is one geometric multigrid V-cycle on
the nested `build_complex` hierarchy (`TetMesh.coarser`), with a direct
solve on the coarsest level only.  Blocks are resolved on every level, so
coefficient jumps line up with every coarse grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem, operators as ops
from .mesh import TetMesh
from .trace import TraceSet

__all__ = ["ModelProblem", "CurlSystem", "assemble_problem", "HXPreconditioner",
           "pcg_solve", "PCGResult"]


@dataclass
class ModelProblem:
    mesh: TetMesh
    alpha: np.ndarray      # per-block coefficient
    beta: np.ndarray
    trace: Optional[TraceSet]
    rhs: fem.EdgeField

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        if np.any(self.alpha <= 0) or np.any(self.beta <= 0):
            raise ValueError("coefficients must be positive on every block")


@dataclass
class CurlSystem:
    """SPD system on the free edge DOFs."""

    problem: ModelProblem
    A: sp.csr_matrix
    free_edges: np.ndarray
    free_nodes: np.ndarray
    b: np.ndarray

    @property
    def n(self) -> int:
        return len(self.free_edges)


def assemble_problem(problem: ModelProblem) -> CurlSystem:
    mesh = problem.mesh
    aw = problem.alpha[mesh.block_of_tet]
    bw = problem.beta[mesh.block_of_tet]
    K = fem.assemble(mesh, "V", "stiffness", tet_weight=aw)
    M = fem.assemble(mesh, "V", "mass", tet_weight=bw)
    A = (K + M).tocsr()
    if problem.trace is not None:
        free_e = np.nonzero(~problem.trace.edge_mask)[0]
        free_n = np.nonzero(~problem.trace.node_mask)[0]
    else:
        free_e = np.arange(mesh.ne)
        free_n = np.arange(mesh.nv)
    Aff = A[free_e][:, free_e].tocsr()
    b = problem.rhs.values[free_e].copy()
    return CurlSystem(problem, Aff, free_e, free_n, b)


# damped Jacobi weight of the V-cycle smoother; the cycle is SPD while
# _OMEGA * lambda_max(D^-1 A) < 2 on every smoothed level
_OMEGA = 0.6


def _symmetric(A) -> sp.csr_matrix:
    """The symmetric part of a Galerkin product P^T A P, which is symmetric
    in exact arithmetic only: its (i, j) and (j, i) entries are summed in
    different orders.  PCG needs a symmetric cycle."""
    return (0.5 * (A + A.T)).tocsr()


class _VCycle:
    """Symmetric V(2,2)-cycle for the SPD matrix A: damped Jacobi smoothing,
    Galerkin coarse operators P^T A P for the prolongations `transfers`
    (finest first), and one sparse LU on the coarsest level.  With no
    transfers it is that exact solve.  The restrictions P^T are kept as
    CSR, which sums each entry in the order of the CSC view P.T."""

    def __init__(self, A: sp.csr_matrix, transfers: list):
        self.P = transfers
        self.A = [_symmetric(A)]
        for P in transfers:
            self.A.append(_symmetric(P.T @ self.A[-1] @ P))
        self.w = [_OMEGA / a.diagonal() for a in self.A[:-1]]
        self.coarse = spla.splu(self.A[-1].tocsc(), **fem._SPD_SPLU)
        self.R = [P.T.tocsr() for P in transfers]

    def __call__(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.P):
            return self.coarse.solve(b)
        A, w, P = self.A[level], self.w[level], self.P[level]
        x = w * b
        x += w * (b - A @ x)
        x += P @ self(self.R[level] @ (b - A @ x), level + 1)
        x += w * (b - A @ x)
        x += w * (b - A @ x)
        return x


def _transfers(mesh: TetMesh, free_nodes: np.ndarray):
    """Prolongations of the scalar and the vector (3*node + c) nodal spaces
    down the mesh hierarchy, restricted to free nodes; a coarse vertex is
    free where its fine node is."""
    free = np.zeros(mesh.nv, dtype=bool)
    free[free_nodes] = True
    scalar, vector = [], []
    while (step := mesh.coarser()) is not None:
        mesh, P, vids = step
        cfree = free[vids]
        scalar.append(P[free][:, cfree].tocsr())
        P3 = sp.kron(P, sp.identity(3), format="csr")
        vector.append(P3[np.repeat(free, 3)][:, np.repeat(cfree, 3)].tocsr())
        free = cfree
    return scalar, vector


@dataclass
class HXPreconditioner:
    """Additive three-term auxiliary-space correction:
    Jacobi smoother + gradient-space V-cycle + vector-nodal-space V-cycle.
    The vector auxiliary operator is the Galerkin product P^T A P.  The
    gradient one, G^T A G, is assembled as the beta-weighted nodal
    stiffness on the free nodes, which it equals exactly: the curl of a
    gradient is zero, and every edge at a free node is free."""

    system: CurlSystem
    _diag: np.ndarray = field(init=False)
    _G: sp.csr_matrix = field(init=False)
    _P: sp.csr_matrix = field(init=False)
    _Gt: sp.csr_matrix = field(init=False)
    _Pt: sp.csr_matrix = field(init=False)
    _grad_solver: _VCycle = field(init=False)
    _nodal_solver: _VCycle = field(init=False)

    def __post_init__(self):
        sys = self.system
        mesh = sys.problem.mesh
        self._diag = sys.A.diagonal()
        if np.any(self._diag <= 0):
            raise ValueError("system diagonal is not positive")
        G = fem.gradient_map(mesh)
        self._G = G[sys.free_edges][:, sys.free_nodes].tocsr()
        P = ops.rh_matrix(mesh)
        cols = np.concatenate([3 * sys.free_nodes + c for c in range(3)])
        cols.sort()
        self._P = P[sys.free_edges][:, cols].tocsr()
        scalar, vector = _transfers(mesh, sys.free_nodes)
        beta = sys.problem.beta[mesh.block_of_tet]
        K = fem.assemble(mesh, "Z", "stiffness", tet_weight=beta)
        self._grad_solver = _VCycle(K[sys.free_nodes][:, sys.free_nodes], scalar)
        self._nodal_solver = _VCycle(self._P.T @ sys.A @ self._P, vector)
        self._Gt, self._Pt = self._G.T.tocsr(), self._P.T.tocsr()

    def apply(self, r: np.ndarray) -> np.ndarray:
        out = r / self._diag
        out = out + self._G @ self._grad_solver(self._Gt @ r)
        out = out + self._P @ self._nodal_solver(self._Pt @ r)
        return out

    __call__ = apply


@dataclass
class PCGResult:
    x: np.ndarray
    iterations: int
    converged: bool
    residuals: list  # preconditioned residual norms, relative to the first
    true_residual: float  # ||b - A x|| / ||b|| at exit

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else 0.0


def pcg_solve(system: CurlSystem, preconditioner=None, tol: float = 1e-8,
              maxit: int = 2000) -> PCGResult:
    """Preconditioned conjugate gradients on the free-DOF system.

    The stopping norm is the preconditioned one: the iteration stops once
    sqrt(r.Br), relative to its initial value, is below tol (B the
    preconditioner).  The true relative residual ||b - A x|| / ||b|| can
    differ from it by the conditioning of B; it is computed once at exit
    and reported as `true_residual`.  Reaching maxit, and a breakdown
    d.Ad <= 0 of a system that is not SPD, are typed outcomes
    (converged=False), not exceptions."""
    A = system.A
    b = system.b
    apply_m = preconditioner if preconditioner is not None else (lambda r: r)
    x = np.zeros_like(b)
    r = b - A @ x
    z = apply_m(r)
    rz = float(r @ z)
    base = np.sqrt(abs(rz)) if rz != 0 else 0.0
    history = [1.0 if base > 0 else 0.0]

    def result(it, converged):
        bn = float(np.linalg.norm(b))
        rn = float(np.linalg.norm(b - A @ x))
        return PCGResult(x, it, converged, history, rn / bn if bn > 0 else rn)

    if base == 0.0:
        return result(0, True)
    d = z.copy()
    it = 0
    while it < maxit:
        Ad = A @ d
        dAd = float(d @ Ad)
        if dAd <= 0.0:
            return result(it, False)
        alpha = rz / dAd
        x += alpha * d
        r -= alpha * Ad
        z = apply_m(r)
        rz_new = float(r @ z)
        it += 1
        rel = float(np.sqrt(abs(rz_new)) / base)
        history.append(rel)
        if rel <= tol:
            return result(it, True)
        d = z + (rz_new / rz) * d
        rz = rz_new
    return result(it, False)
