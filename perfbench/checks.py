"""Output checks recomputed by the benchmark from mesh arithmetic and scipy,
never from the program's own residual helpers.  Each returns a list of
problems; an empty list means the output holds."""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from helmdec.decompose import HelmholtzSplit

IDENTITY_TOL = 1e-10      # DOF identity, relative to max |v|
STOKES_TOL = 1e-12        # loop average against face flux / length
ABSORB_TOL = 1e-9         # gradient input: max|w| / max|q| and max|R| / max|v|
HX_ENERGY_TOL = 1e-6      # PCG against a direct solve, relative energy norm
HX_RESIDUAL_TOL = 1e-6    # true relative residual where no direct solve is made


def split_problems(mesh, trace, v: np.ndarray, split) -> list[str]:
    """DOF identity v = G p + r_h w + R, exact trace zeros of p, w and R, and
    the Stokes identity of every recorded loop."""
    if not isinstance(split, HelmholtzSplit):
        return [f"no split returned ({type(split).__name__})"]
    out = []
    tail, head = mesh.edges[:, 0], mesh.edges[:, 1]
    p = split.p.values
    w = split.w.values
    d = mesh.verts[head] - mesh.verts[tail]
    grad_p = p[head] - p[tail]
    rh_w = 0.5 * np.einsum("ed,ed->e", w[head] + w[tail], d)
    scale = max(float(np.abs(v).max()), 1e-300)
    res = float(np.abs(v - grad_p - rh_w - split.R.values).max()) / scale
    if not res <= IDENTITY_TOL:
        out.append(f"DOF identity residual {res:.3e}")
    if np.any(p[trace.node_mask] != 0.0):
        out.append("p nonzero on the trace")
    if np.any(w[trace.node_mask] != 0.0):
        out.append("w nonzero on the trace")
    if np.any(split.R.values[trace.edge_mask] != 0.0):
        out.append("R nonzero on the trace")
    for C, l0, flux in split.meta.get("loops", []):
        err = abs(C - flux / l0) / (1.0 + abs(C))
        if not err <= STOKES_TOL:
            out.append(f"Stokes identity error {err:.3e}")
    return out


def absorption_problems(v: np.ndarray, q: np.ndarray, split) -> list[str]:
    """A gradient input v = grad q leaves no w and no R."""
    if not isinstance(split, HelmholtzSplit):
        return []
    out = []
    wq = float(np.abs(split.w.values).max()) / max(float(np.abs(q).max()), 1e-300)
    rv = float(np.abs(split.R.values).max()) / max(float(np.abs(v).max()), 1e-300)
    if not wq <= ABSORB_TOL:
        out.append(f"gradient input leaves max|w|/max|q| = {wq:.3e}")
    if not rv <= ABSORB_TOL:
        out.append(f"gradient input leaves max|R|/max|v| = {rv:.3e}")
    return out


def true_residual(A, b: np.ndarray, x: np.ndarray) -> float:
    return float(np.linalg.norm(b - A @ x) / np.linalg.norm(b))


def energy_errors(A, B: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Relative A-norm error of each column of X against scipy's direct
    solve of A X = B."""
    Xd = spla.spsolve(A.tocsc(), B)
    Xd = Xd.reshape(B.shape)
    E = X - Xd
    return np.sqrt(np.einsum("ij,ij->j", E, A @ E)
                   / np.einsum("ij,ij->j", Xd, A @ Xd))
