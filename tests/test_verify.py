import re

import numpy as np
import pytest

from helmdec import decompose as dc, fem, operators as ops, verify
from helmdec.mesh import build_complex
from helmdec.trace import tag_trace


def test_fit_constant_series():
    a, b, rel = verify.fit_log_growth([0.5, 0.25, 0.125], [2.0, 2.0, 2.0])
    assert a == pytest.approx(2.0)
    assert abs(b) < 1e-12
    assert rel < 1e-12


def test_fit_pure_log():
    hs = [0.5, 0.25, 0.125, 0.0625]
    r = [1.0 + 0.5 * np.log(1 / h) for h in hs]
    a, b, rel = verify.fit_log_growth(hs, r)
    assert a == pytest.approx(1.0) and b == pytest.approx(0.5) and rel < 1e-12


def test_monotone_verdict_under_extension():
    # appending a finer level with an unchanged ratio cannot break the fit
    hs = [0.5, 0.25, 0.125]
    r = [1.5, 1.5, 1.5]
    _, b1, rel1 = verify.fit_log_growth(hs, r)
    _, b2, rel2 = verify.fit_log_growth(hs + [0.0625], r + [1.5])
    assert rel2 <= rel1 + 1e-12
    assert abs(b2) <= abs(b1) + 1e-12


def test_sweep_needs_three_levels():
    # a fit through fewer than 3 distinct h is no fit
    for levels in ([1, 2], [2, 2, 2]):
        with pytest.raises(ValueError, match=re.escape(str(levels))):
            verify.sweep("unit_cube", ["z=0"], "auto", levels, 2, 0)


def test_sweep_reproducible():
    s1 = verify.sweep("unit_cube", ["z=0"], "kernel", [1, 2, 3], 3, 42)
    s2 = verify.sweep("unit_cube", ["z=0"], "kernel", [1, 2, 3], 3, 42)
    assert list(s1) == list(s2) == list(verify.RATIO_KEYS)
    for key in verify.RATIO_KEYS:
        r1, r2 = s1[key], s2[key]
        assert r1.to_json() == r2.to_json()
        assert r1.to_csv() == r2.to_csv()
        assert len(r1.levels) == 3
        assert [lv["level"] for lv in r1.levels] == [1, 2, 3]


def test_sweep_decomposes_each_sample_once(monkeypatch):
    """One decompose per (level, sample) serves every ratio key, and each
    key's report equals that of a separate pass over the same seeds."""
    geometry, spec, levels, samples, seed = "unit_cube", ["e:x=0,y=0"], [1, 2, 3], 2, 5
    dispatch = verify._dispatch
    calls = []

    def counted(*args):
        calls.append(args)
        return dispatch(*args)

    monkeypatch.setattr(verify, "_dispatch", counted)
    reports = verify.sweep(geometry, spec, "auto", levels, samples, seed)
    assert len(calls) == len(levels) * samples
    assert list(reports) == list(verify.RATIO_KEYS)
    for key, rep in reports.items():
        rows = []
        for k in levels:
            mesh = build_complex(geometry, 1.0 / (1 << k))
            trace = tag_trace(mesh, spec)
            best = None
            for s in range(samples):
                v = dc.random_admissible_field(mesh, trace, [seed, k, s])
                split = dispatch(v, trace, "auto")
                r = split.ratios[key]
                if best is None or r > best["ratio"]:
                    best = {"level": k, "h": 1.0 / (1 << k), "ratio": r,
                            "norms": split.norms}
                    no_log = not split.claims.get("log", True)
            rows.append(best)
        a, b, rel = verify.fit_log_growth([row["h"] for row in rows],
                                          [row["ratio"] for row in rows])
        verdict = "PASS"
        if rel > verify.FIT_RESIDUAL_TOL or (
                no_log and abs(b) > verify.NO_LOG_SLOPE_FRACTION * abs(a)):
            verdict = "FAIL"
        assert rep.ratio_key == key
        assert rep.levels == rows
        assert rep.fit == (a, b) and rep.fit_residual == rel
        assert rep.no_log_claim == no_log
        assert rep.verdict == verdict


def test_sweep_frees_its_meshes(monkeypatch):
    """The meshes a sweep builds, with their memos and factors, are freed
    by reference count, with the cyclic collector off: each level's mesh
    before the next level is built, and the last before the sweep returns.
    A second sweep builds its own."""
    import gc
    import weakref

    built = []

    def build(*args):
        assert all(ref() is None for ref in built), "an earlier level is alive"
        mesh = build_complex(*args)
        built.append(weakref.ref(mesh))
        return mesh

    monkeypatch.setattr(verify, "build_complex", build)
    gc.disable()
    try:
        for _ in range(2):
            verify.sweep("unit_cube", ["e:x=0,y=0"], "auto", [1, 2, 3], 1, 5)
            assert built and all(ref() is None for ref in built)
    finally:
        gc.enable()
    assert len(built) == 6


def test_sweep_unknown_route():
    with pytest.raises(ValueError):
        verify.sweep("unit_cube", ["z=0"], "bogus", [1, 2, 3], 2, 0)


def test_battery_all_pass():
    ledger = verify.invariant_battery("three_cube_L", ["x=0"], "auto", 7)
    assert all(item["passed"] for item in ledger), ledger
    names = {item["check"] for item in ledger}
    assert {"dof_identity", "trace_p_exact", "gradient_absorption",
            "curl_of_interpolation", "loop_average_vs_flux"} <= names


def test_battery_edge_route():
    ledger = verify.invariant_battery("unit_cube", ["e:x=0,y=0"], "auto", 8)
    assert all(item["passed"] for item in ledger), ledger


def test_trace_probe_gradient_data():
    # gradient tangential data has a curl-free extension
    mesh = build_complex("unit_cube", 0.25)
    rng = np.random.default_rng(9)
    gv = fem.EdgeField(mesh, fem.gradient_map(mesh) @ rng.uniform(-1, 1, mesh.nv))
    be = mesh.boundary_edge_mask()
    data = np.zeros(mesh.ne)
    data[be] = gv.values[be]
    ext = ops.curl_harmonic_extend(mesh, data)
    assert fem.norm(ext, "curl_semi") < 1e-10
