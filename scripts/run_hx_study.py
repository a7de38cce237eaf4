#!/usr/bin/env python3
"""Iteration-count study of the auxiliary-space preconditioner: mesh sweep
at unit coefficients plus a jump sweep on the three-cube union, against
plain CG.  Each row reports the HX spectrum estimate (lambda_min,
lambda_max and kappa of the preconditioned operator, from PCG's Lanczos
coefficients) and times the HX setup, the HX solve and the plain-CG solve
separately."""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from helmdec import fem, hx
from helmdec.mesh import build_complex
from helmdec.trace import tag_trace


def solve_one(geometry, k, alpha_first, seed, tol):
    mesh = build_complex(geometry, 1.0 / (1 << k))
    trace = tag_trace(mesh, ["boundary"])
    rng = np.random.default_rng([seed, k])
    rhs = fem.EdgeField(mesh, rng.uniform(-1, 1, mesh.ne))
    rhs.values[trace.edge_mask] = 0.0
    from helmdec.geometry import catalog_info

    nb = len(catalog_info(geometry).complex.blocks)
    alpha = np.ones(nb)
    alpha[0] = alpha_first
    prob = hx.ModelProblem(mesh, alpha, np.ones(nb), trace, rhs)
    system = hx.assemble_problem(prob)
    t0 = time.perf_counter()
    pre = hx.HXPreconditioner(system)
    t1 = time.perf_counter()
    res = hx.pcg_solve(system, pre, tol=tol)
    t2 = time.perf_counter()
    plain = hx.pcg_solve(system, None, tol=tol, maxit=100000)
    t3 = time.perf_counter()
    return {
        "geometry": geometry, "level": k, "n": system.n, "alpha": alpha_first,
        "hx_iterations": res.iterations, "cg_iterations": plain.iterations,
        "hx_lam_min": res.lam_min, "hx_lam_max": res.lam_max, "hx_kappa": res.kappa,
        "hx_setup_s": round(t1 - t0, 3), "hx_solve_s": round(t2 - t1, 3),
        "cg_s": round(t3 - t2, 3),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/hx_study.json")
    ap.add_argument("--levels", default="2,3,4,5")
    ap.add_argument("--jumps", default="1,100,10000,1000000")
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--tol", type=float, default=1e-8)
    args = ap.parse_args()
    rows = []
    for k in (int(x) for x in args.levels.split(",")):
        rows.append(solve_one("unit_cube", k, 1.0, args.seed, args.tol))
        print(rows[-1], file=sys.stderr)
    for a in (float(x) for x in args.jumps.split(",")):
        rows.append(solve_one("three_cube_L", 3, a, args.seed, args.tol))
        print(rows[-1], file=sys.stderr)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"{'geometry':14s} {'k':>2s} {'alpha':>9s} {'hx':>5s} {'kappa':>7s} "
          f"{'cg':>6s} {'setup_s':>8s} {'hx_s':>7s} {'cg_s':>7s}")
    for r in rows:
        print(f"{r['geometry']:14s} {r['level']:2d} {r['alpha']:9g} "
              f"{r['hx_iterations']:5d} {r['hx_kappa']:7.2f} {r['cg_iterations']:6d} "
              f"{r['hx_setup_s']:8.3f} {r['hx_solve_s']:7.3f} {r['cg_s']:7.3f}")


if __name__ == "__main__":
    main()
