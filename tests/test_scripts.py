"""Smoke runs of the study scripts at their smallest settings."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from helmdec.decompose import ROUTES, _plan
from helmdec.geometry import catalog_info, catalog_names
from helmdec.mesh import build_complex
from helmdec.trace import tag_trace

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def test_stability_study_smallest(tmp_path):
    out = tmp_path / "stability"
    res = run_script("run_stability_study.py",
                     ["--levels", "1,2,3", "--samples", "1", "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    # 11 configurations x 3 ratios, one CSV and one JSON each
    assert len(list(out.glob("*.csv"))) == 33
    assert len(list(out.glob("*.json"))) == 33
    rep = json.loads(next(out.glob("unit_cube__z0__w_h1.json")).read_text())
    assert [lv["level"] for lv in rep["levels"]] == [1, 2, 3]
    assert "verdict policy" in res.stdout


def test_hx_study_smallest(tmp_path):
    out = tmp_path / "hx_study.json"
    res = run_script("run_hx_study.py",
                     ["--levels", "1,2", "--jumps", "1", "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    rows = json.loads(out.read_text())
    assert [(r["geometry"], r["level"]) for r in rows] == [
        ("unit_cube", 1), ("unit_cube", 2), ("three_cube_L", 3)]
    assert all(r["hx_iterations"] < r["cg_iterations"] for r in rows)
    for r in rows:
        assert all(r[key] >= 0.0 for key in ("hx_setup_s", "hx_solve_s", "cg_s"))
        assert 1.0 <= r["hx_kappa"] == r["hx_lam_max"] / r["hx_lam_min"]


def test_reproduction_probe_smallest(tmp_path):
    """At h = 1/2 and 1/4 the probe prints one line per gate configuration
    and level, its fields have exactly zero trace moments, and `unit_cube`
    z=0 reads R_scaled 0.944 and 1.958, as the residual table of
    ROADMAP.md records."""
    res = run_script("reproduction_probe.py", ["--levels", "1,2"], tmp_path)
    assert res.returncode == 0, res.stderr
    spec = importlib.util.spec_from_file_location("reproduction_probe",
                                                  ROOT / "scripts" / "reproduction_probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    rows = res.stdout.splitlines()[1:]
    assert len(rows) == 2 * len(probe.CONFIGS) == 36
    for geometry, names in probe.CONFIGS:
        for k in (1, 2):
            r = probe.probe(geometry, names, k)
            v, trace = r["v"], r["trace"]
            assert np.all(v.values[trace.edge_mask] == 0.0), (geometry, names, k)
            assert np.abs(v.values).max() > 0.0
    z0 = [row.split() for row in rows if row.startswith("unit_cube ") and row.split()[1] == "z=0"]
    assert [(int(r[2]), r[3], r[4]) for r in z0] == [(1, "kernel", "0.944"), (2, "kernel", "1.958")]


def test_output_digest_smallest(tmp_path):
    out = tmp_path / "digest.txt"
    res = run_script("output_digest.py", ["--levels", "1", "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    # 24 configurations x 4 inputs x each route at one level, then one mesh
    # line for each of the 8 geometries, then 3 HX geometries x 4 jumps
    assert len(lines) == 24 * 4 * len(ROUTES) + 8 + 12
    assert lines[-1].startswith("hx edge_junction_pair L1 alpha=1e+06 - ")
    first = lines[0].split()
    assert first[:5] == ["unit_cube", "z=0", "L1", "random", "auto"]
    assert len(first[5]) == 64
    # a rerun writes the same file, also while it saves the arrays
    again = tmp_path / "again.txt"
    arrays = tmp_path / "arrays"
    run_script("output_digest.py",
               ["--levels", "1", "--out", str(again), "--arrays", str(arrays)], tmp_path)
    assert again.read_text() == out.read_text()
    saved = sorted(arrays.glob("*.npz"))
    assert saved and len(saved) < 24 * 4 * len(ROUTES)  # refusals save nothing
    with np.load(arrays / "unit_cube_z=0_L1_random_auto.npz") as a:
        assert {"p", "w", "R"} <= set(a.files)
    # a directory compared with itself moves nowhere
    res = run_script("output_digest.py", ["--compare", str(arrays), str(arrays)], tmp_path)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "largest relative move:"
    assert lines[1:] and all(line.split()[2] == "0.00e+00" for line in lines[1:])


def test_output_digest_compare_exit_status(tmp_path):
    """`--compare` exits 0 on two identical runs at level 1, and 1 when a
    line's arrays moved or a file is on one side only."""
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        res = run_script("output_digest.py", ["--levels", "1", "--out", str(d / "digest.txt"),
                                              "--arrays", str(d)], tmp_path)
        assert res.returncode == 0, res.stderr
    res = run_script("output_digest.py", ["--compare", str(a), str(b)], tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    line = b / "unit_cube_z=0_L1_random_auto.npz"
    with np.load(line) as f:
        saved = dict(f)
    saved["p"] = saved["p"] + 1e-12
    np.savez(line, **saved)
    res = run_script("output_digest.py", ["--compare", str(a), str(b)], tmp_path)
    assert res.returncode == 1 and "unit_cube z=0 L1 random auto: R=0.00e+00 p=" in res.stdout
    line.unlink()
    res = run_script("output_digest.py", ["--compare", str(a), str(b)], tmp_path)
    assert res.returncode == 1 and f"only in {a}" in res.stdout


def test_output_digest_compare_reports_hx_moves(tmp_path):
    """`--arrays` saves each HX line's x and iteration count; `--compare`
    reports a moved HX array under kind `hx` and exits 1."""
    a = tmp_path / "a"
    res = run_script("output_digest.py", ["--levels", "1", "--out", str(a / "digest.txt"),
                                          "--arrays", str(a)], tmp_path)
    assert res.returncode == 0, res.stderr
    b = tmp_path / "b"
    shutil.copytree(a, b)
    line = b / "hx_unit_cube_L1_alpha=100_-.npz"
    with np.load(line) as f:
        saved = dict(f)
    assert str(saved["key"]) == "hx unit_cube L1 alpha=100 -"
    assert saved["x"].ndim == 1 and int(saved["iterations"]) > 0
    saved["x"] = saved["x"] * (1 + 1e-9)
    np.savez(line, **saved)
    res = run_script("output_digest.py", ["--compare", str(a), str(b)], tmp_path)
    assert res.returncode == 1, res.stdout + res.stderr
    moved = [x for x in res.stdout.splitlines() if x.startswith("hx unit_cube L1 alpha=100 -: ")]
    assert moved == ["hx unit_cube L1 alpha=100 -: iterations=0.00e+00 x=1.00e-09"]
    worst = [x.split() for x in res.stdout.splitlines() if x.startswith("  hx ")]
    assert [w[:3] for w in worst] == [["hx", "iterations", "0.00e+00"], ["hx", "x", "1.00e-09"]]


def test_output_digest_compare_scales_ratios_by_at_least_one(tmp_path):
    """A ratio's move is measured against the larger of its two values and
    1: a roundoff-size quotient (a gradient input's R_scaled) moving in its
    last bits reads as a roundoff move, while a ratio above 1 is still
    measured against itself."""
    key = "unit_cube z=0;e:y=1,z=1 L1 gradient auto"
    p = np.linspace(-1.0, 1.0, 8)
    old = {"p": p, "w": np.zeros((8, 3)), "R": np.zeros(4),
           "ratio:R_scaled": 5.1e-16, "ratio:w_h1": 4.0}
    new = dict(old, **{"ratio:R_scaled": 2.7e-16, "ratio:w_h1": 4.0 * (1 + 1e-12)})
    for d, arrays in ((tmp_path / "a", old), (tmp_path / "b", new)):
        d.mkdir()
        np.savez(d / "line.npz", key=np.str_(key), **arrays)
    res = run_script("output_digest.py",
                     ["--compare", str(tmp_path / "a"), str(tmp_path / "b")], tmp_path)
    assert res.returncode == 1, res.stdout + res.stderr
    line = next(x for x in res.stdout.splitlines() if x.startswith(key + ": "))
    moves = dict(m.split("=", 1) for m in line[len(key) + 2:].split())
    assert float(moves["ratio:R_scaled"]) == float(f"{2.4e-16:.2e}")
    assert abs(float(moves["ratio:w_h1"]) - 1e-12) <= 1e-14
    assert float(moves["p"]) == float(moves["w"]) == float(moves["R"]) == 0.0


def test_output_digest_compare_lists_signed_zero_moves(tmp_path):
    """A line whose arrays differ only by signed zeros moves its digest, so
    `--compare` lists it, with zero moves and `bytes only`, and exits 1;
    the same values in the same bytes are not listed."""
    key = "unit_cube z=0 L1 zero auto"
    old = {"p": np.array([0.0, 1.0, 0.0]), "w": np.zeros((3, 3)), "R": np.zeros(2)}
    new = dict(old, p=np.array([-0.0, 1.0, 0.0]))
    for d, arrays in ((tmp_path / "a", old), (tmp_path / "b", new), (tmp_path / "c", old)):
        d.mkdir()
        np.savez(d / "line.npz", key=np.str_(key), **arrays)
    res = run_script("output_digest.py",
                     ["--compare", str(tmp_path / "a"), str(tmp_path / "b")], tmp_path)
    assert res.returncode == 1, res.stdout + res.stderr
    listed = [x for x in res.stdout.splitlines() if x.startswith(key + ": ")]
    assert listed == [key + ": R=0.00e+00 p=0.00e+00 w=0.00e+00 bytes only"]
    res = run_script("output_digest.py",
                     ["--compare", str(tmp_path / "a"), str(tmp_path / "c")], tmp_path)
    assert res.returncode == 0 and key + ": " not in res.stdout, res.stdout + res.stderr


def test_route_census_lipschitz_paths(tmp_path):
    """On the Lipschitz geometries the face family of the census (single
    faces, face pairs, `boundary` and `concave`) plans these paths and
    refuses none; both families are pinned per path, and every refusal
    names its entity."""
    res = run_script("route_census.py", [], tmp_path)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    rows = [line.split("\t") for line in lines if not line.startswith("#")]
    assert sum(int(line.split()[-1]) for line in lines if line.startswith("#")) == len(rows)
    paths = {path for family, geometry, _, path in rows
             if family == "face" and catalog_info(geometry).lipschitz}
    assert paths == {"kernel", "kernel-multi", "face-chain", "corner-pair-faces"}
    refusals = [path for _, _, _, path in rows if path.startswith("!")]
    assert refusals and not [r for r in refusals if "(None)" in r]
    # a planner edit that re-routes or newly refuses a trace moves these
    counts = {(line.split()[1], line.split()[2]): int(line.split()[3])
              for line in lines if line.startswith("#")}
    assert {p: n for (family, p), n in counts.items() if family == "face"} == {
        "corner-pair-faces": 2, "edge-junction/chained": 10, "edge-junction/shared": 43,
        "face-chain": 25, "kernel": 98, "kernel-multi": 22, "refused": 27,
        "vertex-junction": 1208}
    # single edges, edge pairs and (face, edge) pairs; a face and an edge of
    # its own boundary is the face's trace (the 112 kernel and 36 face-chain)
    assert {p: n for (family, p), n in counts.items() if family == "edge"} == {
        "disjoint-edges/simple": 285, "edge-cut": 222, "edge-junction/chained": 134,
        "edge-junction/shared": 123, "face-chain": 36, "faces-plus-edge/clear-face": 168,
        "faces-plus-edge/endpoint": 148, "kernel": 112, "refused": 756,
        "vertex-junction": 6411}


def test_multi_component_face_plans_claim_the_curl_norm():
    """On the census family of the Lipschitz geometries, every route value
    plans a trace of faces only with J >= 2 against the full curl norm: the
    curl semi-norm bound fails there (`unit_cube` z=0;z=1 has b1 = 1)."""
    spec = importlib.util.spec_from_file_location("route_census",
                                                  ROOT / "scripts" / "route_census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    planned = 0
    for geometry in catalog_names(include_internal=True):
        if not catalog_info(geometry).lipschitz:
            continue
        mesh = build_complex(geometry, census.H)
        for names in census.face_specs(mesh):
            trace = tag_trace(mesh, names)
            if trace.J < 2 or trace.coarse_edges:
                continue
            for route in ROUTES:
                plan = _plan(route, trace)
                assert plan.claims["rhs1"] == "curl", (geometry, names, route, plan.path)
                planned += 1
    # the census's 22 kernel-multi traces
    assert planned == 22 * len(ROUTES)
