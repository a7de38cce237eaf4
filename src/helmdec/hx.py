"""Model curl-curl solver with per-block jump coefficients and the
auxiliary-space preconditioner built from the decomposition transfers.

The bilinear form is (alpha curl u, curl v) + (beta u, v) with essential
tangential data on the trace.  The preconditioner is the HX
preconditioner of Hiptmair & Xu (SIAM J. Numer. Anal. 45, 2007): a point
Jacobi smoother plus inexact, spectrally equivalent solves of two nodal
auxiliary problems.  The scalar space is carried over by the gradient
map, and its operator is the beta-weighted Laplacian.  The vector space
is carried over by the edge-moment interpolation, and its operator is the
alpha-weighted vector Laplacian plus the beta mass, which is the norm in
which the regular decompositions bound w.  That operator is the scalar
K_alpha + M_beta on each of the three components.  Each auxiliary solve
is one geometric multigrid V-cycle on the nested `build_complex`
hierarchy (`TetMesh.coarser`), with a direct solve on the coarsest level
only; the vector solve is the scalar cycle on three columns.  Blocks are
resolved on every level, so coefficient jumps line up with every coarse
grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigvalsh_tridiagonal

from . import fem, operators as ops
from .mesh import TetMesh
from .trace import TraceSet

__all__ = ["ModelProblem", "CurlSystem", "assemble_problem", "HXPreconditioner",
           "pcg_solve", "PCGResult"]


@dataclass
class ModelProblem:
    mesh: TetMesh
    alpha: np.ndarray      # one finite value > 0 per block label
    beta: np.ndarray
    trace: Optional[TraceSet]
    rhs: fem.EdgeField

    def __post_init__(self):
        nb = int(self.mesh.block_of_tet.max()) + 1
        for name in ("alpha", "beta"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != (nb,):
                raise ValueError(f"{name} has shape {a.shape}: each of the {nb} blocks "
                                 "needs one value")
            bad = np.flatnonzero(~(np.isfinite(a) & (a > 0)))
            if len(bad):
                i = int(bad[0])
                raise ValueError(f"{name}[{i}] = {float(a[i])!r}: each of the {nb} blocks "
                                 "needs a finite value > 0")
            setattr(self, name, a)


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
_OMEGA = 0.8


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
    CSR, which sums each entry in the order of the CSC view P.T.  A
    right-hand side of shape (n, k) is k independent cycles."""

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
        if b.ndim == 2:
            w = w[:, None]
        x = w * b
        x += w * (b - A @ x)
        x += P @ self(self.R[level] @ (b - A @ x), level + 1)
        x += w * (b - A @ x)
        x += w * (b - A @ x)
        return x


def _transfers(mesh: TetMesh, free_nodes: np.ndarray) -> list:
    """Prolongations of the scalar nodal space down the mesh hierarchy,
    restricted to free nodes; a coarse vertex is free where its fine node
    is."""
    free = np.zeros(mesh.nv, dtype=bool)
    free[free_nodes] = True
    out = []
    while (step := mesh.coarser()) is not None:
        mesh, P, vids = step
        cfree = free[vids]
        out.append(P[free][:, cfree].tocsr())
        free = cfree
    return out


@dataclass
class HXPreconditioner:
    """Additive three-term auxiliary-space correction of Hiptmair & Xu:
    Jacobi smoother + gradient-space V-cycle + vector-nodal-space V-cycle.

    The gradient operator, G^T A G, is assembled as the beta-weighted
    nodal stiffness on the free nodes, which it equals exactly: the curl
    of a gradient is zero, and every edge at a free node is free.  The
    vector operator is the nodal Laplacian K_alpha + M_beta on the free
    nodes, applied to the three components of P^T r as three columns;
    it is spectrally equivalent to, not equal to, the Galerkin product
    P^T A P.  Both cycles run on the same scalar hierarchy."""

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
        free = sys.free_nodes
        G = fem.gradient_map(mesh)
        self._G = G[sys.free_edges][:, free].tocsr()
        P = ops.rh_matrix(mesh)
        cols = (3 * free[:, None] + np.arange(3)).ravel()  # node-major
        self._P = P[sys.free_edges][:, cols].tocsr()
        transfers = _transfers(mesh, free)
        alpha = sys.problem.alpha[mesh.block_of_tet]
        beta = sys.problem.beta[mesh.block_of_tet]
        K_b = fem.assemble(mesh, "Z", "stiffness", tet_weight=beta)
        self._grad_solver = _VCycle(K_b[free][:, free], transfers)
        K_a = fem.assemble(mesh, "Z", "stiffness", tet_weight=alpha)
        M_b = fem.assemble(mesh, "Z", "mass", tet_weight=beta)
        self._nodal_solver = _VCycle((K_a + M_b)[free][:, free], transfers)
        self._Gt, self._Pt = self._G.T.tocsr(), self._P.T.tocsr()

    def apply(self, r: np.ndarray) -> np.ndarray:
        out = r / self._diag
        out = out + self._G @ self._grad_solver(self._Gt @ r)
        w = self._nodal_solver((self._Pt @ r).reshape(-1, 3))
        out = out + self._P @ w.ravel()
        return out

    __call__ = apply


@dataclass
class PCGResult:
    x: np.ndarray
    iterations: int
    converged: bool
    residuals: list  # preconditioned residual norms, relative to the first
    true_residual: float  # ||b - A x|| / ||b|| at exit
    alphas: list = field(default_factory=list)  # CG step lengths alpha_k
    betas: list = field(default_factory=list)   # CG direction updates beta_k

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else 0.0

    @cached_property
    def _ritz_extremes(self) -> tuple:
        """Smallest and largest eigenvalue of the Lanczos tridiagonal T_m
        that the m CG steps define (Saad, Iterative Methods for Sparse
        Linear Systems, 2nd ed., 6.7.3): diagonal 1/alpha_0 and
        1/alpha_k + beta_{k-1}/alpha_{k-1}, off-diagonal
        sqrt(beta_k)/alpha_k.  Its eigenvalues are Ritz values of the
        preconditioned operator BA, so its extremes approach
        lambda_min(BA) and lambda_max(BA) from inside."""
        m = len(self.alphas)
        if m == 0:
            return (np.nan, np.nan)
        a = np.asarray(self.alphas)
        b = np.asarray(self.betas[:m - 1])
        d = 1.0 / a
        d[1:] += b / a[:-1]
        e = np.sqrt(b) / a[:-1]
        lo = eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 0))[0]
        hi = eigvalsh_tridiagonal(d, e, select="i", select_range=(m - 1, m - 1))[0]
        return (float(lo), float(hi))

    @property
    def lam_min(self) -> float:
        return self._ritz_extremes[0]

    @property
    def lam_max(self) -> float:
        return self._ritz_extremes[1]

    @property
    def kappa(self) -> float:
        """Effective condition number lam_max / lam_min of BA."""
        lo, hi = self._ritz_extremes
        return hi / lo


def pcg_solve(system: CurlSystem, preconditioner=None, tol: float = 1e-8,
              maxit: int = 2000) -> PCGResult:
    """Preconditioned conjugate gradients on the free-DOF system.

    The stopping norm is the preconditioned one: the iteration stops once
    sqrt(r.Br), relative to its initial value, is below tol (B the
    preconditioner).  The true relative residual ||b - A x|| / ||b|| can
    differ from it by the conditioning of B; it is computed once at exit
    and reported as `true_residual`.  The coefficients alpha_k and beta_k
    are kept, and the result reports the spectrum of BA they estimate.
    Reaching maxit, and a breakdown d.Ad <= 0 of a system that is not
    SPD, are typed outcomes (converged=False), not exceptions."""
    A = system.A
    b = system.b
    apply_m = preconditioner if preconditioner is not None else (lambda r: r)
    x = np.zeros_like(b)
    r = b.copy()  # b - A x at x = 0
    z = apply_m(r)
    rz = float(r @ z)
    base = np.sqrt(abs(rz)) if rz != 0 else 0.0
    history = [1.0 if base > 0 else 0.0]
    alphas, betas = [], []

    def result(it, converged):
        bn = float(np.linalg.norm(b))
        rn = float(np.linalg.norm(b - A @ x))
        return PCGResult(x, it, converged, history, rn / bn if bn > 0 else rn,
                         alphas, betas)

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
        alphas.append(alpha)
        x += alpha * d
        r -= alpha * Ad
        z = apply_m(r)
        rz_new = float(r @ z)
        it += 1
        rel = float(np.sqrt(abs(rz_new)) / base)
        history.append(rel)
        if rel <= tol:
            return result(it, True)
        beta = rz_new / rz
        betas.append(beta)
        d = z + beta * d
        rz = rz_new
    return result(it, False)
