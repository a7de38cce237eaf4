"""Model curl-curl solver with per-block jump coefficients and the
auxiliary-space preconditioner built from the decomposition transfers.

The bilinear form is (alpha curl u, curl v) + (beta u, v) with essential
tangential data on the trace.  The preconditioner is the HX
preconditioner of Hiptmair & Xu (SIAM J. Numer. Anal. 45, 2007): a point
Jacobi smoother plus one inexact, spectrally equivalent solve on the
auxiliary space Z^4 of the free nodes, carried over by B = [G | r_h].
Its operator is block-diagonal.  The gradient component has the
beta-weighted Laplacian.  Each vector component has the alpha-weighted
Laplacian plus the beta mass, K_alpha + M_beta, which is the norm in
which the regular decompositions bound w.  The solve is one geometric
multigrid V-cycle over all four components on the nested `build_complex`
hierarchy (`TetMesh.coarser`), with direct solves on the coarsest level
only, as hypre's AMS treats the same space (Kolev & Vassilevski,
J. Comput. Math. 27, 2009).  Blocks are resolved on every level, so
coefficient jumps line up with every coarse grid, and each level's
operators are assembled on that level's own mesh, which equals the
Galerkin product of the level above in exact arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigvalsh_tridiagonal

from . import fem
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
    if problem.trace is not None:
        free = ~problem.trace.edge_mask
        free_e = np.nonzero(free)[0]
        free_n = np.nonzero(~problem.trace.node_mask)[0]
    else:
        free = None
        free_e = np.arange(mesh.ne)
        free_n = np.arange(mesh.nv)
    [A] = fem._edge_matrices(mesh, [(aw, bw)], free)
    b = problem.rhs.values[free_e].copy()
    return CurlSystem(problem, A, free_e, free_n, b)


# damped Jacobi weight of the V-cycle smoother; the cycle is SPD while
# _OMEGA * lambda_max(D^-1 A) < 2 on every smoothed level
_OMEGA = 0.8


def _interleave(blocks: list, counts: list) -> sp.csr_matrix:
    """The block-diagonal operator of a node-major auxiliary space: block b
    is the scalar n x n CSR `blocks[b]` on `counts[b]` components, and
    unknown k i + c is component c of node i (k the total count).  Row
    k i + c holds the scalar row i of its block in the same order, on
    columns k j + c, so a matvec sums each component as the scalar matvec
    does, bit for bit."""
    comps = [A for A, m in zip(blocks, counts) for _ in range(m)]
    k, n = len(comps), comps[0].shape[0]
    lens = np.stack([np.diff(A.indptr) for A in comps], axis=1)
    indptr = np.zeros(k * n + 1, dtype=np.int32)
    np.cumsum(lens.ravel(), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    for c, A in enumerate(comps):
        dest = np.repeat(indptr[c:-1:k] - A.indptr[:-1], lens[:, c]) + np.arange(A.nnz)
        indices[dest] = k * A.indices + c
        data[dest] = A.data
    return sp.csr_matrix((data, indices, indptr), shape=(k * n, k * n))


class _VCycle:
    """Symmetric V(2,2)-cycle on a node-major auxiliary space whose operator
    is block-diagonal with scalar nodal blocks, block b on `counts[b]`
    components, in component order.  `levels` holds the scalar SPD blocks
    of each level, finest first, each assembled on its own mesh, and
    `transfers` the scalar prolongations between consecutive levels, which
    act on the (n, k)-reshaped vector.  Each smoothed level's operator
    interleaves its blocks (`_interleave`); smoothing is damped Jacobi.
    The coarsest level keeps only one sparse LU per block, each solving its
    own columns.  With one level the cycle is those exact solves.  The
    restrictions P^T are kept as CSR, which sums each entry in the order of
    the CSC view P.T."""

    def __init__(self, levels: list, counts: list, transfers: list):
        self.P = transfers
        self.R = [P.T.tocsr() for P in transfers]
        self.counts = counts
        self.k = sum(counts)
        self.A = [_interleave(blocks, counts) for blocks in levels[:-1]]
        self.w = [_OMEGA / a.diagonal() for a in self.A]
        self.coarse = [spla.splu(A.tocsc(), **fem._SPD_SPLU) for A in levels[-1]]

    def solve_coarsest(self, b: np.ndarray) -> np.ndarray:
        """The exact solve on the coarsest level, one factor per block."""
        b = b.reshape(-1, self.k)
        x = np.empty_like(b)
        c = 0
        for lu, m in zip(self.coarse, self.counts):
            x[:, c:c + m] = lu.solve(b[:, c:c + m]).reshape(-1, m)
            c += m
        return x.ravel()

    def __call__(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.P):
            return self.solve_coarsest(b)
        A, w, k = self.A[level], self.w[level], self.k
        x = w * b
        _jacobi(A, w, b, x)
        e = self((self.R[level] @ _residual(A, b, x).reshape(-1, k)).ravel(), level + 1)
        x += (self.P[level] @ e.reshape(-1, k)).ravel()
        _jacobi(A, w, b, x)
        _jacobi(A, w, b, x)
        return x


def _residual(A, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """b - A x, in the buffer of A x."""
    r = A @ x
    np.subtract(b, r, out=r)
    return r


def _jacobi(A, w: np.ndarray, b: np.ndarray, x: np.ndarray) -> None:
    """One damped Jacobi step in place: x += w (b - A x)."""
    r = _residual(A, b, x)
    r *= w
    x += r


def _hierarchy(mesh: TetMesh, free_nodes: np.ndarray):
    """The levels of the nested hierarchy `mesh.coarser()`, finest first, as
    (mesh, free-node mask) pairs, and the prolongations between consecutive
    levels restricted to free nodes by integer index: a coarse vertex is
    free where its fine node is."""
    free = np.zeros(mesh.nv, dtype=bool)
    free[free_nodes] = True
    levels, transfers = [(mesh, free)], []
    while (step := mesh.coarser()) is not None:
        mesh, P, vids = step
        cfree = free[vids]
        transfers.append(P[np.flatnonzero(free)][:, np.flatnonzero(cfree)])
        free = cfree
        levels.append((mesh, free))
    return levels, transfers


def _aux_transfer(mesh: TetMesh, free_edges: np.ndarray, free_nodes: np.ndarray):
    """B = [G | r_h] from the auxiliary space Z^4 on the free nodes, node
    major with components (grad, w_x, w_y, w_z), to the free edges.  The
    row of edge (a, b) holds -1 and +1 in the gradient columns of a and b
    and half the edge vector in the vector columns of both, less its exact
    zeros and the columns of trace nodes.  It is built as CSR directly,
    eight entries per row, which ascend in column as a < b; the entries of
    trace nodes are zeroed, and they leave with the exact zeros."""
    node = np.full(mesh.nv, -1, dtype=np.int32)
    node[free_nodes] = np.arange(len(free_nodes), dtype=np.int32)
    edges = mesh.edges[free_edges]
    ends = node[edges]
    half = 0.5 * (mesh.verts[edges[:, 1]] - mesh.verts[edges[:, 0]])
    n = len(free_edges)
    vals = np.empty((n, 2, 4))
    vals[:, 0, 0], vals[:, 1, 0], vals[:, :, 1:] = -1.0, 1.0, half[:, None]
    vals[ends < 0] = 0.0
    cols = 4 * np.maximum(ends, 0)[:, :, None] + np.arange(4, dtype=np.int32)
    B = sp.csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, 8 * n + 1, 8, dtype=np.int32)),
                      shape=(n, 4 * len(free_nodes)))
    B.eliminate_zeros()
    return B


@dataclass
class HXPreconditioner:
    """The auxiliary-space preconditioner of Hiptmair & Xu as a Jacobi
    smoother plus one auxiliary correction B C B^T, with B = [G | r_h] the
    transfer from Z^4 (`_aux_transfer`) and C one V-cycle on the
    block-diagonal auxiliary operator.

    Its gradient block, G^T A G, is assembled as the beta-weighted nodal
    stiffness on the free nodes, which it equals exactly: the curl of a
    gradient is zero, and every edge at a free node is free.  Its vector
    blocks are the nodal Laplacian K_alpha + M_beta on the free nodes, one
    per component; together they are spectrally equivalent to, not equal
    to, the Galerkin product r_h^T A r_h.  All four components run on the
    same scalar hierarchy (`_hierarchy`), and each level's blocks are
    assembled on its own mesh and free nodes.  On this nested hierarchy,
    with blocks resolved on every level, they equal the Galerkin products
    P^T A P of the level above in exact arithmetic, with no roundoff
    entries where the exact value is zero."""

    system: CurlSystem
    _diag: np.ndarray = field(init=False)
    _B: sp.csr_matrix = field(init=False)
    _Bt: sp.csr_matrix = field(init=False)
    _cycle: _VCycle = field(init=False)

    def __post_init__(self):
        sys = self.system
        mesh = sys.problem.mesh
        self._diag = sys.A.diagonal()
        if np.any(self._diag <= 0):
            raise ValueError("system diagonal is not positive")
        self._B = _aux_transfer(mesh, sys.free_edges, sys.free_nodes)
        self._Bt = self._B.T.tocsr()
        alpha, beta = sys.problem.alpha, sys.problem.beta
        levels, transfers = _hierarchy(mesh, sys.free_nodes)
        blocks = []
        for m, free in levels:
            a, b = alpha[m.block_of_tet], beta[m.block_of_tet]
            blocks.append(fem._nodal_matrices(m, [(b, None), (a, b)], free))
        self._cycle = _VCycle(blocks, [1, 3], transfers)

    def apply(self, r: np.ndarray) -> np.ndarray:
        out = r / self._diag
        out += self._B @ self._cycle(self._Bt @ r)
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
        """lam_max / lam_min of the Ritz extremes: an estimate of the
        condition number of BA from inside, a lower bound that depends on
        the right-hand side."""
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
