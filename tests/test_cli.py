import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from helmdec.cli import main
from helmdec.decompose import ROUTES
from helmdec.mesh import build_complex, read_mesh


def write_cfg(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


BASE = """
[experiment]
geometry = unit_cube
trace = z=0
route = auto
levels = 1,2,3
samples = 3
seed = 11
input = random
"""
HX = """
[hx]
alpha = 1
beta = 1
jumps = 1,100
tol = 1e-8
maxit = 50
"""


def run(cmd, cfg, out, extra=()):
    return main([cmd, "--config", cfg, "--out", str(out), *extra])


def test_mesh_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    assert run("mesh", cfg, tmp_path / "m") == 0
    text = (tmp_path / "m" / "unit_cube_L2.mesh.txt").read_text()
    mesh, tags = read_mesh(io.StringIO(text))
    ref = build_complex("unit_cube", 0.25)
    assert (mesh.nv, mesh.ne, mesh.nf, mesh.nt) == (ref.nv, ref.ne, ref.nf, ref.nt)
    assert tags == ["z=0"]
    assert text.startswith("# config=")


def test_mesh_three_cube_reimport(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("unit_cube", "three_cube_L")
                    .replace("trace = z=0", "trace = concave"))
    assert run("mesh", cfg, tmp_path / "m") == 0
    text = (tmp_path / "m" / "three_cube_L_L1.mesh.txt").read_text()
    mesh, _ = read_mesh(io.StringIO(text))
    ref = build_complex("three_cube_L", 0.5)
    assert (mesh.nv, mesh.nt) == (ref.nv, ref.nt)


def test_unknown_key_is_config_error(tmp_path, capsys):
    # the vertex gate tolerance is a constant, not a config key
    for key in ("wobble = 3", "tol_f = 1e-10"):
        cfg = write_cfg(tmp_path, f"[experiment]\ngeometry = unit_cube\n{key}\n")
        assert run("mesh", cfg, tmp_path / "x") == 2


@pytest.mark.parametrize("command,line,key", [
    ("decompose", "levels = a", "levels"),
    ("decompose", "levels =", "levels"),
    ("battery", "levels =", "levels"),
    ("mesh", "levels = 1,-1,2", "levels"),
    ("sweep", "samples = 0", "samples"),
    ("sweep", "seed = x", "seed"),
    ("sweep", "seed = -1", "seed"),
    ("hx", "alpha = -1", "alpha"),
    ("hx", "beta = nan", "beta"),
    ("hx", "jumps = 1,0", "jumps"),
    ("hx", "jumps = 1,inf", "jumps"),
    ("hx", "tol = -1", "tol"),
    ("hx", "tol = inf", "tol"),
    ("hx", "maxit = 0", "maxit"),
])
def test_bad_value_is_config_error_naming_its_key(tmp_path, capsys, command, line, key):
    body = re.sub(rf"^{key} = .*$", line, BASE + HX, flags=re.M)
    assert line in body
    assert run(command, write_cfg(tmp_path, body), tmp_path / "x") == 2
    err = capsys.readouterr().err
    assert f"{key} = " in err and "Traceback" not in err


def test_unknown_geometry_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, "[experiment]\ngeometry = torus\n")
    assert run("mesh", cfg, tmp_path / "x") == 2


def test_malformed_trace_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("trace = z=0", "trace = z=9"))
    assert run("mesh", cfg, tmp_path / "x") == 2


def test_decompose_gradient_summary(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.replace("input = random", "input = gradient")
                    .replace("levels = 1,2,3", "levels = 2"))
    assert run("decompose", cfg, tmp_path / "d") == 0
    summary = json.loads(next((tmp_path / "d").glob("*.summary.json")).read_text())
    assert summary["norms"]["w_h1"] < 1e-10
    assert summary["norms"]["R_l2"] < 1e-10
    assert summary["identity_residual"] <= 1e-10


def test_decompose_outputs_of_each_input_kind_are_kept(tmp_path):
    """Runs that differ only in the input kind write distinct files into
    one output directory."""
    out = tmp_path / "d"
    for kind in ("random", "gradient"):
        cfg = write_cfg(tmp_path, BASE.replace("input = random", f"input = {kind}"),
                        name=f"{kind}.cfg")
        assert run("decompose", cfg, out) == 0
    summaries = [json.loads(p.read_text()) for p in out.glob("*.summary.json")]
    assert sorted(s["input"] for s in summaries) == ["gradient", "random"]
    assert len(list(out.iterdir())) == 8


def test_decompose_no_log_banner(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.replace("trace = z=0", "trace = boundary")
                    .replace("levels = 1,2,3", "levels = 2"))
    assert run("decompose", cfg, tmp_path / "d") == 0
    out = capsys.readouterr().out
    assert "no-log claim" in out


def test_decompose_compatibility_violation_exit4(tmp_path, capsys):
    body = """
[experiment]
geometry = vertex_junction_pair
trace = x=0;x=2
levels = 2
samples = 1
seed = 3
input = perturbed
"""
    cfg = write_cfg(tmp_path, body)
    assert run("decompose", cfg, tmp_path / "d") == 4
    out = capsys.readouterr().out
    assert "functionals:" in out


def test_precondition_violation_exit3(tmp_path):
    # four parallel edges at h=1/2: no element-aligned subdomain split
    body = """
[experiment]
geometry = four_edge_cube
trace = e:x=0,y=0;e:x=1,y=0;e:x=1,y=1;e:x=0,y=1
levels = 1
samples = 1
seed = 3
"""
    cfg = write_cfg(tmp_path, body)
    assert run("decompose", cfg, tmp_path / "d") == 3


def test_perturbed_input_needs_a_vertex_junction(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.replace("input = random", "input = perturbed")
                    .replace("levels = 1,2,3", "levels = 1"))
    assert run("decompose", cfg, tmp_path / "d") == 3
    assert "unit_cube" in capsys.readouterr().err


def test_sweep_two_levels_rejected(tmp_path, capsys):
    # a growth fit needs 3 distinct h; three rows of one h are no fit
    for levels, named in (("1,2", "[1, 2]"), ("2,2,2", "[2, 2, 2]")):
        cfg = write_cfg(tmp_path, BASE.replace("levels = 1,2,3", f"levels = {levels}"))
        assert run("sweep", cfg, tmp_path / "s") == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
    assert not (tmp_path / "s").exists()


def test_unknown_ratio_is_config_error(tmp_path, monkeypatch, capsys):
    # refused when the config loads, before any level is meshed
    from helmdec import verify

    def no_sweep(*args):
        raise AssertionError("sweep ran")

    monkeypatch.setattr(verify, "sweep", no_sweep)
    cfg = write_cfg(tmp_path, BASE + "ratio = bogus\n")
    assert run("sweep", cfg, tmp_path / "s") == 2
    err = capsys.readouterr().err
    assert "'bogus'" in err and all(key in err for key in verify.RATIO_KEYS)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["mesh", "hx", "sweep"])
def test_unknown_route_is_config_error(tmp_path, capsys, command):
    # refused when the config loads, also by the commands that never route;
    # "auto" plans the face chain, and no value forces it
    for bad in ("bogus", "face-chain"):
        cfg = write_cfg(tmp_path, BASE.replace("route = auto", f"route = {bad}"))
        out = tmp_path / "out"
        assert run(command, cfg, out) == 2
        err = capsys.readouterr().err
        assert f"'{bad}'" in err and all(r in err for r in ROUTES)
        assert "Traceback" not in err and not out.exists()


def test_sweep_writes_the_configured_ratio(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "ratio = R_scaled\n")
    assert run("sweep", cfg, tmp_path / "s") == 0
    (path,) = (tmp_path / "s").glob("*.json")
    assert json.loads(path.read_text())["ratio_key"] == "R_scaled"


def _tree_bytes(root: Path):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["mesh", "decompose", "sweep", "battery"])
def test_rerun_outputs_byte_identical(tmp_path, command):
    cfg = write_cfg(tmp_path, BASE)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(command, cfg, a) in (0,)
    assert run(command, cfg, b) in (0,)
    ta, tb = _tree_bytes(a), _tree_bytes(b)
    assert list(ta) == list(tb)
    for k in ta:
        assert ta[k] == tb[k], k


def test_hx_jump_rows_and_determinism(tmp_path):
    body = """
[experiment]
geometry = unit_cube
trace = boundary
levels = 2
seed = 5

[hx]
alpha = 1
beta = 1
jumps = 1,100,10000,1000000
tol = 1e-8
"""
    cfg = write_cfg(tmp_path, body)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run("hx", cfg, a) == 0
    assert run("hx", cfg, b) == 0
    csv = next(a.glob("hx__*.csv")).read_text().splitlines()
    assert len(csv) == 2 + 4  # config line + header + 4 jump rows
    assert _tree_bytes(a) == _tree_bytes(b)
    data = json.loads(next(a.glob("hx__*.json")).read_text())
    assert all(r["hx_iterations"] < r["cg_iterations"] for r in data["runs"])
    assert all(r["cg_converged"] is True for r in data["runs"])


@pytest.mark.parametrize("command", ["mesh", "decompose"])
def test_negative_seed_override_is_config_error(tmp_path, monkeypatch, capsys, command):
    # refused when the config loads, before any level is meshed
    from helmdec import cli

    def no_mesh(*args):
        raise AssertionError("meshed")

    monkeypatch.setattr(cli, "build_complex", no_mesh)
    out = tmp_path / "out"
    assert run(command, write_cfg(tmp_path, BASE), out, extra=["--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--seed -1" in err and "Traceback" not in err and not out.exists()


def test_seed_override_changes_hash(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run("battery", cfg, a) == 0
    assert run("battery", cfg, b, extra=["--seed", "99"]) == 0
    ja = json.loads(next(a.glob("battery__*.json")).read_text())
    jb = json.loads(next(b.glob("battery__*.json")).read_text())
    assert ja["config"] != jb["config"]
