"""Experiment driver: reproducible commands over the toolkit.

Subcommands: mesh, decompose, sweep, battery, hx.  Configuration is a flat
key=value file with [experiment] and [hx] sections; unknown keys are
rejected.  All outputs embed the config hash and are byte-identical across
re-runs with the same config and seed (wall-clock timings go to stderr).

Exit codes: 0 success, 2 config error, 3 precondition violation,
4 compatibility-functional violation.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fem, hx, verify
from .decompose import (ROUTES, CompatibilityViolation, decompose as _dispatch,
                        gradient_field, incompatible_field,
                        random_admissible_field)
from .geometry import GeometryError, catalog_names
from .mesh import build_complex, write_mesh
from .operators import PreconditionError
from .trace import TraceError, tag_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_COMPATIBILITY = 4

_EXPERIMENT_KEYS = {
    "geometry", "trace", "route", "levels", "samples", "seed", "input",
    "ratio",
}
_HX_KEYS = {"alpha", "beta", "jumps", "tol", "maxit"}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    geometry: str = "unit_cube"
    trace: tuple = ()
    route: str = "auto"
    levels: tuple = (1, 2, 3)
    samples: int = 5
    seed: int = 0
    input: str = "random"
    ratio: str = "w_h1"
    alpha: float = 1.0
    beta: float = 1.0
    jumps: tuple = (1.0, 1e2, 1e4, 1e6)
    hx_tol: float = 1e-8
    hx_maxit: int = 2000
    raw_lines: tuple = ()

    @property
    def hash(self) -> str:
        payload = "\n".join(self.raw_lines) + f"\nseed={self.seed}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _parse_levels(s: str):
    levels = tuple(int(x) for x in s.replace(" ", "").split(",") if x)
    if not levels:
        raise ValueError("no level given")
    if min(levels) < 0:
        raise ValueError("negative level; a level k >= 0 gives h = 1/2^k")
    return levels


def _parse_count(s: str) -> int:
    n = int(s)
    if n < 1:
        raise ValueError("must be at least 1")
    return n


def _parse_seed(s: str) -> int:
    n = int(s)
    if n < 0:
        raise ValueError("must be an integer >= 0")
    return n


def _parse_positive(s: str) -> float:
    x = float(s)
    if not 0 < x < math.inf:
        raise ValueError("must be finite and > 0")
    return x


def _parse_positives(s: str):
    return tuple(_parse_positive(x) for x in s.split(","))


def _get(section, name: str, key: str, parse, default):
    """parse(section[key]), or `default` if the key is absent; a value that
    does not parse is a ConfigError naming [name] key."""
    if key not in section:
        return default
    try:
        return parse(section[key])
    except ValueError as ex:
        raise ConfigError(f"[{name}] {key} = {section[key]!r}: {ex}") from None


def load_config(path: str, seed_override=None) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    cfg = ExperimentConfig()
    lines = []
    for section in cp.sections():
        if section not in ("experiment", "hx"):
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _EXPERIMENT_KEYS if section == "experiment" else _HX_KEYS
        for key, val in cp.items(section):
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            lines.append(f"{section}.{key}={val}")
    cfg.raw_lines = tuple(sorted(lines))
    e = cp["experiment"] if cp.has_section("experiment") else {}
    cfg.geometry = e.get("geometry", cfg.geometry)
    if cfg.geometry not in catalog_names(include_internal=True):
        raise ConfigError(f"unknown geometry {cfg.geometry!r}")
    cfg.trace = tuple(t.strip() for t in e.get("trace", "").split(";") if t.strip())
    cfg.route = e.get("route", cfg.route)
    if cfg.route not in ROUTES:
        raise ConfigError(f"unknown route {cfg.route!r}; expected one of "
                          f"{', '.join(ROUTES)}")
    cfg.levels = _get(e, "experiment", "levels", _parse_levels, cfg.levels)
    cfg.samples = _get(e, "experiment", "samples", _parse_count, cfg.samples)
    cfg.seed = _get(e, "experiment", "seed", _parse_seed, cfg.seed)
    cfg.input = e.get("input", cfg.input)
    if cfg.input not in ("random", "gradient", "perturbed"):
        raise ConfigError(f"unknown input kind {cfg.input!r}")
    cfg.ratio = e.get("ratio", cfg.ratio)
    if cfg.ratio not in verify.RATIO_KEYS:
        raise ConfigError(f"unknown ratio {cfg.ratio!r}; expected one of "
                          f"{', '.join(verify.RATIO_KEYS)}")
    if cp.has_section("hx"):
        h = cp["hx"]
        cfg.alpha = _get(h, "hx", "alpha", _parse_positive, cfg.alpha)
        cfg.beta = _get(h, "hx", "beta", _parse_positive, cfg.beta)
        cfg.jumps = _get(h, "hx", "jumps", _parse_positives, cfg.jumps)
        cfg.hx_tol = _get(h, "hx", "tol", _parse_positive, cfg.hx_tol)
        cfg.hx_maxit = _get(h, "hx", "maxit", _parse_count, cfg.hx_maxit)
    if seed_override is not None:
        try:
            cfg.seed = _parse_seed(seed_override)
        except ValueError as ex:
            raise ConfigError(f"--seed {seed_override}: {ex}") from None
    return cfg


def _slug(parts) -> str:
    out = []
    for p in parts:
        out.append("".join(c if c.isalnum() else "-" for c in str(p)).strip("-"))
    return "__".join(x for x in out if x)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _json_dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_mesh(cfg: ExperimentConfig, out: Path) -> int:
    for k in cfg.levels:
        mesh = build_complex(cfg.geometry, 1.0 / (1 << k))
        if cfg.trace:
            tag_trace(mesh, cfg.trace)  # validates the names
        out.mkdir(parents=True, exist_ok=True)
        with (out / f"{cfg.geometry}_L{k}.mesh.txt").open("w") as stream:
            stream.write(f"# config={cfg.hash}\n")
            write_mesh(mesh, stream, list(cfg.trace))
    print(f"wrote {len(cfg.levels)} mesh file(s) to {out}")
    return EXIT_OK


def _field_text(values: np.ndarray, cfg_hash: str) -> str:
    lines = [f"# config={cfg_hash}"]
    flat = values.reshape(len(values), -1)
    for i in range(len(flat)):
        lines.append(f"{i} " + " ".join(repr(float(x)) for x in flat[i]))
    return "\n".join(lines) + "\n"


def cmd_decompose(cfg: ExperimentConfig, out: Path) -> int:
    k = cfg.levels[0]
    mesh = build_complex(cfg.geometry, 1.0 / (1 << k))
    trace = tag_trace(mesh, cfg.trace)
    if cfg.input == "gradient":
        v, _ = gradient_field(mesh, trace, cfg.seed)
    elif cfg.input == "perturbed":
        v = incompatible_field(mesh, trace, cfg.seed)
    else:
        v = random_admissible_field(mesh, trace, cfg.seed)
    result = _dispatch(v, trace, cfg.route)
    if isinstance(result, CompatibilityViolation):
        print(result.message, file=sys.stderr)
        print("functionals: " + " ".join(repr(float(x)) for x in result.functionals))
        return EXIT_COMPATIBILITY
    base = _slug([cfg.geometry, ",".join(cfg.trace), result.path, cfg.input,
                  f"s{cfg.seed}"])
    _write(out / f"{base}.p.txt", _field_text(result.p.values, cfg.hash))
    _write(out / f"{base}.w.txt", _field_text(result.w.values, cfg.hash))
    _write(out / f"{base}.R.txt", _field_text(result.R.values, cfg.hash))
    summary = {
        "config": cfg.hash,
        "geometry": cfg.geometry,
        "trace": list(cfg.trace),
        "level": k,
        "h": mesh.h,
        "seed": cfg.seed,
        "input": cfg.input,
        "route": result.path,
        "claims": result.claims,
        "no_log_claim": not result.claims.get("log", True),
        "norms": result.norms,
        "ratios": result.ratios,
        "identity_residual": result.identity_residual(v),
        "functionals": result.meta.get("functionals", []),
    }
    _write(out / f"{base}.summary.json", _json_dump(summary))
    if summary["no_log_claim"]:
        print("no-log claim")
    print(f"route={result.path} identity_residual={summary['identity_residual']:.3e}")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> int:
    report = verify.sweep(cfg.geometry, cfg.trace, cfg.route, cfg.levels,
                          cfg.samples, cfg.seed)[cfg.ratio]
    base = _slug(["sweep", cfg.geometry, ",".join(cfg.trace), cfg.route,
                  f"s{cfg.seed}"])
    _write(out / f"{base}.csv", f"# config={cfg.hash}\n" + report.to_csv())
    payload = json.loads(report.to_json())
    payload["config"] = cfg.hash
    _write(out / f"{base}.json", _json_dump(payload))
    print(f"{report.verdict}: fit a={report.fit[0]:.3g} b={report.fit[1]:.3g} "
          f"residual={report.fit_residual:.3g}")
    return EXIT_OK


def cmd_battery(cfg: ExperimentConfig, out: Path) -> int:
    ledger = verify.invariant_battery(cfg.geometry, cfg.trace, cfg.route,
                                      cfg.seed, cfg.levels[0])
    base = _slug(["battery", cfg.geometry, ",".join(cfg.trace), cfg.route,
                  f"s{cfg.seed}"])
    rows = ["check,residual,tol,passed"]
    for item in ledger:
        rows.append(f"{item['check']},{item['residual']!r},{item['tol']!r},"
                    f"{item['passed']}")
    _write(out / f"{base}.csv", f"# config={cfg.hash}\n" + "\n".join(rows) + "\n")
    _write(out / f"{base}.json", _json_dump({"config": cfg.hash, "ledger": ledger}))
    ok = all(item["passed"] for item in ledger)
    for item in ledger:
        print(f"{'PASS' if item['passed'] else 'FAIL'} {item['check']}"
              f" residual={item['residual']:.3e}")
    return EXIT_OK if ok else EXIT_PRECONDITION


def cmd_hx(cfg: ExperimentConfig, out: Path) -> int:
    from .geometry import catalog_info

    rows = ["geometry,level,h,alpha,beta,hx_iterations,cg_iterations,final_residual"]
    summary = []
    nblocks = len(catalog_info(cfg.geometry).complex.blocks)
    for k in cfg.levels:
        mesh = build_complex(cfg.geometry, 1.0 / (1 << k))
        trace = tag_trace(mesh, cfg.trace) if cfg.trace else tag_trace(mesh, ["boundary"])
        rng = np.random.default_rng([cfg.seed, k])
        rhs = fem.EdgeField(mesh, rng.uniform(-1, 1, mesh.ne))
        rhs.values[trace.edge_mask] = 0.0
        for a in cfg.jumps:
            alpha = np.full(nblocks, cfg.alpha)
            alpha[0] = a
            beta = np.full(nblocks, cfg.beta)
            prob = hx.ModelProblem(mesh, alpha, beta, trace, rhs)
            system = hx.assemble_problem(prob)
            t0 = time.perf_counter()
            pre = hx.HXPreconditioner(system)
            t1 = time.perf_counter()
            res = hx.pcg_solve(system, pre, tol=cfg.hx_tol, maxit=cfg.hx_maxit)
            t2 = time.perf_counter()
            plain = hx.pcg_solve(system, None, tol=cfg.hx_tol,
                                 maxit=max(cfg.hx_maxit, 20000))
            t3 = time.perf_counter()
            print(f"level {k} alpha={a:g}: hx={res.iterations} cg={plain.iterations} "
                  f"hx_setup={t1 - t0:.3f}s hx_solve={t2 - t1:.3f}s cg={t3 - t2:.3f}s",
                  file=sys.stderr)
            rows.append(f"{cfg.geometry},{k},{mesh.h!r},{a!r},{cfg.beta!r},"
                        f"{res.iterations},{plain.iterations},{res.final_residual!r}")
            summary.append({"level": k, "alpha": a, "hx_iterations": res.iterations,
                            "cg_iterations": plain.iterations,
                            "converged": res.converged,
                            "cg_converged": plain.converged})
    base = _slug(["hx", cfg.geometry, f"s{cfg.seed}"])
    _write(out / f"{base}.csv", f"# config={cfg.hash}\n" + "\n".join(rows) + "\n")
    _write(out / f"{base}.json", _json_dump({"config": cfg.hash, "runs": summary}))
    print(f"wrote {len(summary)} hx runs")
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="helmdec",
        description="tetrahedral edge-element Helmholtz decomposition toolkit",
    )
    parser.add_argument("command",
                        choices=["mesh", "decompose", "sweep", "battery", "hx"])
    parser.add_argument("--config", required=True, help="key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed)
    except (ConfigError, GeometryError, configparser.Error) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    handler = {
        "mesh": cmd_mesh,
        "decompose": cmd_decompose,
        "sweep": cmd_sweep,
        "battery": cmd_battery,
        "hx": cmd_hx,
    }[args.command]
    try:
        return handler(cfg, out)
    except PreconditionError as ex:
        print(f"precondition violation: {ex}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ConfigError, GeometryError, TraceError, ValueError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
