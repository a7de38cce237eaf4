"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines and timings.
"""

import time

import numpy as np
import pytest

import helmdec.decompose as dc
from helmdec import fem, hx, verify
from helmdec.mesh import build_complex
from helmdec.trace import surface, tag_trace

SEED = 20260810

FOUR_EDGES = ["e:x=0,y=0", "e:x=1,y=0", "e:x=1,y=1", "e:x=0,y=1"]


def _star3_specs():
    mesh = build_complex("vertex_junction_star3", 0.5)
    surf = surface(mesh)
    apex = int(mesh.node_ids([(0, 0, 0)])[0])
    laterals = []
    from helmdec.mesh import extract_block

    for b in range(3):
        sub = extract_block(mesh, b)
        for f in surf.faces:
            if np.isin(f.fine_nodes, sub.vert_map).all() and apex in f.fine_nodes:
                laterals.append(f.name)
                break
    bases = [f.name for f in surf.faces if apex not in f.fine_nodes]
    return laterals, sorted(bases)


_STAR_LATERALS, _STAR_BASES = _star3_specs()

# geometry -> (trace specs, levels k); h = 1/2^k.  The four-edge hard case
# has no element-aligned subdomain split at h = 1/2, so its level list is
# shifted one step finer.
VALID_CONFIGS = [
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
    ("four_edge_cube", FOUR_EDGES, (2, 3, 4)),
    ("edge_junction_pair", ["x=1#0", "y=1#1"], (1, 2, 3)),
    ("edge_junction_pair", ["x=0"], (1, 2, 3)),
    ("vertex_junction_pair", ["x=1#0", "x=1#1"], (1, 2, 3)),
    ("vertex_junction_pair", ["x=0", "x=2"], (1, 2, 3)),
    ("vertex_junction_star3", _STAR_LATERALS, (1, 2, 3)),
    ("vertex_junction_star3", _STAR_BASES, (1, 2, 3)),
]

GEOMETRIES_8 = [
    "unit_cube", "three_cube_L", "pyramid", "cube_in_box", "four_edge_cube",
    "edge_junction_pair", "vertex_junction_pair", "vertex_junction_star3",
]

SAMPLES = 20


def test_criterion_1_2_4_identity_trace_stokes():
    """1: DOF identity <= 1e-10 relative on every catalog geometry x valid
    trace x three levels x 20 seeded samples.  2: exact trace zeros.
    4: the loop average equals face-flux/length for every recorded loop."""
    t0 = time.time()
    worst_identity = 0.0
    worst_stokes = 0.0
    n_runs = 0
    for geometry, spec, levels in VALID_CONFIGS:
        for k in levels:
            mesh = build_complex(geometry, 1.0 / (1 << k))
            trace = tag_trace(mesh, spec)
            for s in range(SAMPLES):
                v = dc.random_admissible_field(mesh, trace, [SEED, k, s])
                split = dc.decompose(v, trace)
                assert isinstance(split, dc.HelmholtzSplit), (geometry, spec, k, s)
                res = split.identity_residual(v)
                worst_identity = max(worst_identity, res)
                assert res <= 1e-10, (geometry, spec, k, s, res)
                # criterion 2: equality, not tolerance
                assert np.all(split.p.values[trace.node_mask] == 0.0)
                assert np.all(split.w.values[trace.node_mask] == 0.0)
                assert np.all(split.R.values[trace.edge_mask] == 0.0)
                # criterion 4: Stokes mate of every loop decomposition
                for (C, l0, flux) in split.meta.get("loops", []):
                    err = abs(C - flux / l0) / (1.0 + abs(C))
                    worst_stokes = max(worst_stokes, err)
                    assert err <= 1e-12, (geometry, spec, k, s)
                n_runs += 1
    dt = time.time() - t0
    print(f"\nACCEPTANCE 1 PASS: DOF identity <= 1e-10 on {n_runs} decompositions "
          f"(worst {worst_identity:.2e}) in {dt:.0f}s")
    print("ACCEPTANCE 2 PASS: trace coefficients exactly zero on every run")
    print(f"ACCEPTANCE 4 PASS: loop average vs face flux (worst {worst_stokes:.2e})")


def test_criterion_3_commuting_interpolation():
    """curl(r_h w) = curl(w) elementwise <= 1e-12, 100 random fields per
    geometry."""
    from helmdec.operators import edge_interpolate_rh

    worst = 0.0
    for i, geometry in enumerate(GEOMETRIES_8):
        mesh = build_complex(geometry, 0.25)
        # seeded by the index: Python salts str hashes per process
        rng = np.random.default_rng([SEED, i])
        for _ in range(100):
            w = fem.NodalVectorField(mesh, rng.uniform(-1, 1, (mesh.nv, 3)))
            diff = np.abs(fem.curl_of_edge_field(edge_interpolate_rh(w))
                          - fem.curl_of_nodal_field(w)).max()
            worst = max(worst, float(diff))
            assert diff <= 1e-12, geometry
    print(f"\nACCEPTANCE 3 PASS: curl commutation elementwise (worst {worst:.2e})")


def test_criterion_5_gradient_absorption():
    """v = grad q inputs: |w|_1 + h^-1 |R|_0 <= 1e-9 |q|_1 on every route."""
    worst = 0.0
    for geometry, spec, levels in VALID_CONFIGS:
        k = levels[0]
        mesh = build_complex(geometry, 1.0 / (1 << k))
        trace = tag_trace(mesh, spec)
        gv, q = dc.gradient_field(mesh, trace, [SEED, 5])
        split = dc.decompose(gv, trace)
        assert isinstance(split, dc.HelmholtzSplit), (geometry, spec)
        qn = max(fem.norm(q, "H1"), 1e-300)
        val = (fem.norm(split.w, "H1") + fem.norm(split.R, "L2") / mesh.h) / qn
        worst = max(worst, val)
        assert val <= 1e-9, (geometry, spec, val)
    print(f"\nACCEPTANCE 5 PASS: gradient absorption (worst {worst:.2e})")


def test_criterion_6_log_growth_fits():
    """Kernel ratio |w|_1 / |curl v|_0 on the unit cube, levels h=1/2..1/16:
    fit residual <= 0.2 for one face; additionally |b| <= 0.1 a for the full
    boundary (no-log claim)."""
    t0 = time.time()
    rep_face = verify.sweep("unit_cube", ["z=0"], "auto", [1, 2, 3, 4], 20,
                            SEED)["w_h1"]
    assert rep_face.fit_residual <= 0.2, rep_face.fit_residual
    rep_bd = verify.sweep("unit_cube", ["boundary"], "auto", [1, 2, 3, 4], 60,
                          SEED)["w_h1"]
    assert rep_bd.fit_residual <= 0.2, rep_bd.fit_residual
    assert rep_bd.no_log_claim
    a, b = rep_bd.fit
    assert abs(b) <= 0.1 * abs(a), (a, b)
    assert rep_bd.verdict == "PASS"
    dt = time.time() - t0
    print(f"\nACCEPTANCE 6 PASS: face fit residual {rep_face.fit_residual:.3f}; "
          f"boundary a={a:.3f} b={b:+.4f} (|b|<=0.1a) in {dt:.0f}s")


def test_criterion_7_vertex_junction_gate():
    """Compatible inputs decompose with vanishing functionals; a one-block
    loop circulation is refused with |F1| > 1e-3."""
    mesh = build_complex("vertex_junction_pair", 0.25)
    trace = tag_trace(mesh, ["x=0", "x=2"])
    gv, _ = dc.gradient_field(mesh, trace, [SEED, 7])
    ok = dc.decompose(gv, trace)
    assert isinstance(ok, dc.HelmholtzSplit)
    fmax = np.abs(np.array(ok.meta["functionals"])).max()
    assert fmax <= 1e-10, fmax
    bad = dc.incompatible_field(mesh, trace, [SEED, 8], magnitude=1.0)
    refusal = dc.decompose(bad, trace)
    assert isinstance(refusal, dc.CompatibilityViolation)
    f1 = np.abs(refusal.functionals).max()
    assert f1 > 1e-3, f1
    print(f"\nACCEPTANCE 7 PASS: gradient functionals {fmax:.2e}; "
          f"constructed violation |F1|={f1:.2e} refused (typed)")


def test_criterion_8_hx_sanity():
    """alpha=beta=1 cube at h=1/4,1/8,1/16: preconditioned counts fit the
    log policy and stay strictly below plain CG; the jump sweep completes."""
    t0 = time.time()
    counts = []
    plain_counts = []
    for k in (2, 3, 4):
        mesh = build_complex("unit_cube", 1.0 / (1 << k))
        trace = tag_trace(mesh, ["boundary"])
        rng = np.random.default_rng([SEED, k])
        rhs = fem.EdgeField(mesh, rng.uniform(-1, 1, mesh.ne))
        rhs.values[trace.edge_mask] = 0.0
        prob = hx.ModelProblem(mesh, np.array([1.0]), np.array([1.0]), trace, rhs)
        system = hx.assemble_problem(prob)
        pre = hx.HXPreconditioner(system)
        res = hx.pcg_solve(system, pre, tol=1e-8)
        plain = hx.pcg_solve(system, None, tol=1e-8, maxit=50000)
        assert res.converged and plain.converged
        assert res.iterations < plain.iterations, (k, res.iterations, plain.iterations)
        counts.append(res.iterations)
        plain_counts.append(plain.iterations)
    hs = [0.25, 0.125, 0.0625]
    a, b, rel = verify.fit_log_growth(hs, counts)
    assert rel <= 0.2, (counts, rel)
    # jump sweep completes and is reported without a gating bound
    mesh = build_complex("three_cube_L", 0.125)
    trace = tag_trace(mesh, ["boundary"])
    rng = np.random.default_rng([SEED, 99])
    rhs = fem.EdgeField(mesh, rng.uniform(-1, 1, mesh.ne))
    rhs.values[trace.edge_mask] = 0.0
    jump_counts = {}
    for alpha in (1.0, 1e2, 1e4, 1e6):
        prob = hx.ModelProblem(mesh, np.array([alpha, 1.0, 1.0]),
                               np.ones(3), trace, rhs)
        system = hx.assemble_problem(prob)
        pre = hx.HXPreconditioner(system)
        res = hx.pcg_solve(system, pre, tol=1e-8)
        assert res.converged
        jump_counts[alpha] = res.iterations
    dt = time.time() - t0
    print(f"\nACCEPTANCE 8 PASS: hx counts {counts} (plain {plain_counts}), "
          f"fit residual {rel:.3f}; jump sweep {jump_counts} in {dt:.0f}s")


def test_criterion_9_cli_determinism(tmp_path):
    """Every CLI command re-run with the same config+seed produces
    byte-identical CSV/JSON."""
    from helmdec.cli import main

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[experiment]\ngeometry = unit_cube\ntrace = z=0\nroute = auto\n"
        "levels = 1,2,3\nsamples = 3\nseed = 11\ninput = random\n"
        "\n[hx]\njumps = 1,100\ntol = 1e-8\n"
    )
    for command in ("mesh", "decompose", "sweep", "battery", "hx"):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / command / run
            rc = main([command, "--config", str(cfg), "--out", str(out)])
            assert rc == 0, command
            blobs = {p.name: p.read_bytes() for p in sorted(out.rglob("*"))
                     if p.is_file()}
            outs.append(blobs)
        assert outs[0] == outs[1], command
    print("\nACCEPTANCE 9 PASS: all five commands byte-identical across re-runs")
