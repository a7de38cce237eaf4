"""The benchmark's three workloads.

A workload is a list of meshes (its set-up) and one round of program calls
on them.  Every round builds its meshes afresh, so each round starts with
empty factorization caches, and every round makes the same calls; the
workload seed and the round number only choose the input fields.  The
program receives the generated inputs and nothing else.

Program time is taken with `perf_counter` around each call into helmdec;
the checks in `checks.py` run outside it.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from helmdec import decompose as dc
from helmdec import fem, hx
from helmdec import mesh as hmesh
from helmdec import trace as htrace

import checks

FOUR_EDGES = ["e:x=0,y=0", "e:x=1,y=0", "e:x=1,y=1", "e:x=0,y=1"]
STAR3_LATERALS = ["p:-2,0,-1:0", "p:-2,0,1:0", "p:-1,-2,0:0"]
STAR3_BASES = ["x=2", "z=-2", "z=2"]

# The acceptance gate's configurations: (geometry, trace, levels k), h = 1/2^k.
# The four-edge case has no element-aligned subdomain split at h = 1/2.
CATALOG = [
    ("unit_cube", ["z=0"], (1, 2, 3)),
    ("unit_cube", ["boundary"], (1, 2, 3)),
    ("unit_cube", ["z=0", "z=1"], (1, 2, 3)),
    ("unit_cube", ["e:x=0,y=0"], (1, 2, 3)),
    ("unit_cube", ["z=0", "e:y=1,z=1"], (1, 2, 3)),
    ("unit_cube", ["z=0", "e:x=0,y=0"], (1, 2, 3)),
    ("three_cube_L", ["concave"], (1, 2, 3)),
    ("three_cube_L", ["x=0"], (1, 2, 3)),
    ("pyramid", ["base"], (1, 2, 3)),
    ("pyramid", ["lat:x-", "lat:x+"], (1, 2, 3)),
    ("cube_in_box", ["z=0", "y=1", "e:y=0,z=1"], (1, 2, 3)),
    ("four_edge_cube", FOUR_EDGES, (2, 3)),
    ("edge_junction_pair", ["x=1#0", "y=1#1"], (1, 2, 3)),
    ("edge_junction_pair", ["x=0"], (1, 2, 3)),
    ("vertex_junction_pair", ["x=1#0", "x=1#1"], (1, 2, 3)),
    ("vertex_junction_pair", ["x=0", "x=2"], (1, 2, 3)),
    ("vertex_junction_star3", STAR3_LATERALS, (1, 2, 3)),
    ("vertex_junction_star3", STAR3_BASES, (1, 2, 3)),
]
CATALOG_SAMPLES = 15   # random fields per (config, level), plus one gradient

FINE = [
    ("four_edge_cube", FOUR_EDGES),   # disjoint-edges/subdomains
    ("unit_cube", ["boundary"]),      # kernel, Poisson only
    ("three_cube_L", ["x=0"]),        # face-chain
]
FINE_LEVEL = 4
FINE_SAMPLES = 5       # random fields per config, plus one gradient

# (geometry, k, first-block coefficients alpha); the trace is the boundary
HX_PROBLEMS = [
    ("unit_cube", 2, (1.0,)),
    ("unit_cube", 3, (1.0,)),
    ("unit_cube", 4, (1.0,)),
    ("three_cube_L", 3, (1.0, 1e2, 1e4, 1e6)),
    ("three_cube_L", 4, (1.0,)),
]
# right-hand sides per preconditioner: 9 up to h = 1/8, 3 at h = 1/16 where
# a solve takes seconds; HX_RHS_COARSE is a multiple of HX_RHS_FINE
HX_RHS_COARSE = 9
HX_RHS_FINE = 3
HX_TOL = 1e-8
DIRECT_MAX_N = 12000   # systems checked against a direct solve (h <= 1/8)


class Tally:
    """What one round did: program time, cold call time, warm call times by
    class (a mesh and trace, or an HX system), operations attempted and
    failed, and the problems the checks found."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.setup_s = 0.0
        self.program_s = 0.0
        self.cold_s = 0.0
        self.warm: dict = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []
        self.pcg_iterations = 0
        self.true_residual_max = 0.0

    def call(self, fn, *args, **kwargs):
        """Call into the program; returns (result, seconds)."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.program_s += dt
        return out, dt

    def add_warm(self, key, dt: float):
        self.warm.setdefault(key, []).append(dt)

    def fail(self, what: str, problems: list[str], wrong: bool):
        self.failed += 1
        self.wrong += wrong
        self.problems.append(f"{what}: {'; '.join(problems)}")


def build(items, tally: Tally):
    """Set-up: build_complex + surface + tag_trace for every mesh."""
    out = []
    t0 = time.perf_counter()
    for geometry, k, spec in items:
        mesh = hmesh.build_complex(geometry, 1.0 / (1 << k))
        htrace.surface(mesh)
        out.append((mesh, htrace.tag_trace(mesh, spec)))
    dt = time.perf_counter() - t0
    tally.setup_s += dt
    tally.program_s += dt
    return out


def _decompose_meshes(built, labels, samples, key, tally: Tally):
    """`samples` random admissible fields per (mesh, trace), then one
    gradient field; every split is checked.  Mesh i starts its samples at
    step i mod (samples + 1), so both the cold calls and each mesh's warm
    calls spread over the whole round."""
    steps = samples + 1
    order = sorted((i % steps + s, i, s) for i in range(len(built)) for s in range(steps))
    for _, i, s in order:
        (mesh, trace), label = built[i], labels[i]
        what = f"{label} sample {s}"
        tally.attempted += 1
        try:
            if s < samples:
                v, _ = tally.call(dc.random_admissible_field, mesh, trace,
                                  key + [i, s])
            else:
                (v, q), _ = tally.call(dc.gradient_field, mesh, trace,
                                       key + [i, s])
            split, dt = tally.call(dc.decompose, v, trace)
        except Exception as exc:  # counted as a failed operation
            tally.fail(what, [repr(exc)], wrong=False)
            continue
        if s == 0:
            tally.cold_s += dt
        else:
            tally.add_warm(i, dt)
        problems = checks.split_problems(mesh, trace, v.values, split)
        if s == samples:
            problems += checks.absorption_problems(v.values, q.values, split)
        if problems:
            tally.fail(what, problems, wrong=True)


class CatalogSweep:
    name = "catalog-sweep"
    items = [(g, k, spec) for g, spec, levels in CATALOG for k in levels]
    labels = [f"{g} {';'.join(spec)} k={k}" for g, spec, levels in CATALOG for k in levels]

    def round(self, seed: int, rnd: int, tally: Tally):
        built = build(self.items, tally)
        _decompose_meshes(built, self.labels, CATALOG_SAMPLES, [seed, rnd], tally)


class FineCold:
    name = "fine-cold"
    items = [(g, FINE_LEVEL, spec) for g, spec in FINE]
    labels = [f"{g} {';'.join(spec)} k={FINE_LEVEL}" for g, spec in FINE]

    def round(self, seed: int, rnd: int, tally: Tally):
        built = build(self.items, tally)
        _decompose_meshes(built, self.labels, FINE_SAMPLES, [seed, rnd], tally)


class HXSolve:
    name = "hx-solve"
    items = [(g, k, ["boundary"]) for g, k, _ in HX_PROBLEMS]

    def round(self, seed: int, rnd: int, tally: Tally):
        """Assemble and set up every preconditioner (the cold calls), then
        make HX_RHS_COARSE passes of solves; a fine system solves on every
        third pass, so every system's solves spread over the round."""
        built = build(self.items, tally)
        systems = []
        for i, ((geometry, k, alphas), (mesh, trace)) in enumerate(
                zip(HX_PROBLEMS, built)):
            nb = int(mesh.block_of_tet.max()) + 1
            for j, a in enumerate(alphas):
                rng = np.random.default_rng([seed, rnd, i, j])
                n_rhs = HX_RHS_FINE if k == 4 else HX_RHS_COARSE
                B = rng.uniform(-1.0, 1.0, (n_rhs, mesh.ne))
                B[:, trace.edge_mask] = 0.0
                alpha = np.ones(nb)
                alpha[0] = a
                sol = _HXSystem(f"hx {geometry} k={k} alpha={a:g}", B, tally)
                sol.setup(mesh, trace, alpha, tally)
                systems.append(sol)
        for p in range(HX_RHS_COARSE):
            for sol in systems:
                step = HX_RHS_COARSE // len(sol.B)
                if p % step == 0:
                    sol.solve(p // step, tally)
        for sol in systems:
            sol.check(tally)


class _HXSystem:
    """One preconditioned system and the solves of its right-hand sides."""

    def __init__(self, what, B, tally: Tally):
        self.what = what
        self.B = B
        self.system = None
        tally.attempted += len(B)

    def setup(self, mesh, trace, alpha, tally: Tally):
        try:
            self.system, _ = tally.call(lambda: hx.assemble_problem(hx.ModelProblem(
                mesh, alpha, np.ones(len(alpha)), trace, fem.EdgeField(mesh, self.B[0]))))
            pre, dt = tally.call(hx.HXPreconditioner, self.system)
        except Exception as exc:  # every solve of this system fails
            for r in range(len(self.B)):
                tally.fail(f"{self.what} rhs {r}", [repr(exc)], wrong=False)
            self.system = None
            return
        tally.cold_s += dt
        self.precond = tally.tracer.wrap("hx.apply", pre) if tally.tracer else pre
        self.rhs = self.B[:, self.system.free_edges].T
        self.X = np.zeros_like(self.rhs)
        self.solved = np.zeros(len(self.B), dtype=bool)
        self.problems = [[] for _ in range(len(self.B))]

    def solve(self, r, tally: Tally):
        if self.system is None:
            return
        sys_r = dataclasses.replace(self.system, b=self.rhs[:, r].copy())
        try:
            res, dt = tally.call(hx.pcg_solve, sys_r, self.precond, tol=HX_TOL)
        except Exception as exc:  # counted as a failed operation
            tally.fail(f"{self.what} rhs {r}", [repr(exc)], wrong=False)
            return
        self.solved[r] = True
        tally.add_warm(self.what, dt)
        tally.pcg_iterations += res.iterations
        self.X[:, r] = res.x
        if not res.converged:
            self.problems[r].append(f"no convergence in {res.iterations} iterations")
        rel = checks.true_residual(self.system.A, self.rhs[:, r], res.x)
        tally.true_residual_max = max(tally.true_residual_max, rel)
        if self.system.n > DIRECT_MAX_N and not rel <= checks.HX_RESIDUAL_TOL:
            self.problems[r].append(f"true relative residual {rel:.3e}")

    def check(self, tally: Tally):
        """Energy-norm errors against a direct solve where that is cheap."""
        if self.system is None:
            return
        ok = self.solved
        if self.system.n <= DIRECT_MAX_N and ok.any():
            err = checks.energy_errors(self.system.A, self.rhs[:, ok], self.X[:, ok])
            for r, e in zip(np.nonzero(ok)[0], err):
                if not e <= checks.HX_ENERGY_TOL:
                    self.problems[r].append(
                        f"energy-norm error {e:.3e} against direct solve")
        for r in np.nonzero(ok)[0]:
            if self.problems[r]:
                tally.fail(f"{self.what} rhs {r}", self.problems[r], wrong=True)


WORKLOADS = {w.name: w for w in (CatalogSweep(), FineCold(), HXSolve())}
