"""Stability harness: h-sweeps of the decomposition routes, norm-ratio
collection with logarithmic-growth fits, and the invariant test battery.

The claimed bounds are asymptotic with unknown constants, so acceptance is
a fit policy: ratio(h) ~ a + b*log(1/h) must fit with small relative
residual, and routes claiming no log factor must show |b| <= 0.1*a.
Per-level statistics take the max over samples (bounds are worst case).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import fem, operators as ops
from .decompose import (CompatibilityViolation, decompose as _dispatch,
                        gradient_field, random_admissible_field)
from .mesh import build_complex
from .trace import tag_trace

__all__ = [
    "RATIO_KEYS",
    "StabilityReport",
    "sweep",
    "invariant_battery",
    "fit_log_growth",
]

RATIO_KEYS = ("w_h1", "R_scaled", "w_l2_p_h1")
FIT_RESIDUAL_TOL = 0.2
NO_LOG_SLOPE_FRACTION = 0.1


def fit_log_growth(hs, ratios):
    """Least-squares fit ratio ~ a + b*log(1/h); returns (a, b, relative
    residual)."""
    hs = np.asarray(hs, dtype=float)
    r = np.asarray(ratios, dtype=float)
    x = np.log(1.0 / hs)
    A = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(A, r, rcond=None)
    resid = A @ coef - r
    scale = np.linalg.norm(r)
    rel = float(np.linalg.norm(resid) / scale) if scale > 0 else 0.0
    return float(coef[0]), float(coef[1]), rel


@dataclass
class StabilityReport:
    geometry: str
    trace_spec: tuple
    route: str
    ratio_key: str
    levels: list = field(default_factory=list)  # dicts: level, h, ratio, norms
    fit: tuple = (0.0, 0.0)
    fit_residual: float = 0.0
    no_log_claim: bool = False
    verdict: str = "PASS"

    def to_json(self) -> str:
        payload = {
            "geometry": self.geometry,
            "trace": list(self.trace_spec),
            "route": self.route,
            "ratio_key": self.ratio_key,
            "levels": self.levels,
            "fit_a": self.fit[0],
            "fit_b": self.fit[1],
            "fit_residual": self.fit_residual,
            "no_log_claim": self.no_log_claim,
            "verdict": self.verdict,
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    def to_csv(self) -> str:
        lines = ["level,h,ratio,w_h1,w_l2,p_h1,R_l2,v_l2,v_curl"]
        for lv in self.levels:
            n = lv["norms"]
            lines.append(
                f"{lv['level']},{lv['h']!r},{lv['ratio']!r},{n['w_h1']!r},"
                f"{n['w_l2']!r},{n['p_h1']!r},{n['R_l2']!r},{n['v_l2']!r},{n['v_curl']!r}"
            )
        return "\n".join(lines) + "\n"


def sweep(geometry: str, trace_spec, route: str, levels, samples: int,
          seed: int) -> dict[str, StabilityReport]:
    """Per level, decompose `samples` seeded admissible fields once and
    record, for every key of RATIO_KEYS, the max ratio against the route's
    claimed bound; then fit each key's growth.  Returns one report per key.
    Levels run in ascending order, one at a time: each level's mesh is
    built in the call and freed before the next level is built.  The levels
    must be at least 3 and distinct.

    PASS iff the relative fit residual is <= 0.2 and, for no-log claims,
    |b| <= 0.1*a.
    """
    levels = sorted(levels)
    if len(levels) < 3 or len(set(levels)) < len(levels):
        raise ValueError(f"a growth fit needs at least 3 distinct levels; "
                         f"got {levels}")

    def run_level(k):  # a function, so its mesh dies when it returns
        mesh = build_complex(geometry, 1.0 / (1 << k))
        trace = tag_trace(mesh, trace_spec)
        best = {}
        for s in range(samples):
            v = random_admissible_field(mesh, trace, [seed, k, s])
            split = _dispatch(v, trace, route)
            if isinstance(split, CompatibilityViolation):
                raise RuntimeError(f"sample refused at level {k}: {split.message}")
            for key in RATIO_KEYS:
                r = split.ratios.get(key)
                if r is not None and (key not in best or r > best[key][0]):
                    best[key] = (r, split.norms, not split.claims.get("log", True))
        for key in RATIO_KEYS:
            if key not in best:
                raise RuntimeError(f"no usable samples for {key} at level {k}")
        return k, best

    results = [run_level(k) for k in levels]

    reports = {}
    for key in RATIO_KEYS:
        rows = [{"level": k, "h": 1.0 / (1 << k), "ratio": best[key][0],
                 "norms": best[key][1]} for k, best in results]
        no_log = results[-1][1][key][2]
        a, b, rel = fit_log_growth([row["h"] for row in rows],
                                   [row["ratio"] for row in rows])
        verdict = "PASS"
        if rel > FIT_RESIDUAL_TOL:
            verdict = "FAIL"
        if no_log and abs(b) > NO_LOG_SLOPE_FRACTION * max(abs(a), 1e-300):
            verdict = "FAIL"
        reports[key] = StabilityReport(geometry, tuple(trace_spec), route, key, rows,
                                       (a, b), rel, no_log, verdict)
    return reports


# --------------------------------------------------------------------------
# invariant battery
# --------------------------------------------------------------------------

def _entry(name, residual, tol):
    return {"check": name, "residual": float(residual), "tol": tol,
            "passed": bool(residual <= tol)}


def invariant_battery(geometry: str, trace_spec, route: str, seed: int,
                      level: int = 2) -> list[dict]:
    """Run every assertable invariant for one geometry/trace/route combo and
    return the ledger (failures are data, not exceptions)."""
    mesh = build_complex(geometry, 1.0 / (1 << level))
    trace = tag_trace(mesh, trace_spec)
    ledger = []
    scale_tol = 1e-10

    # decomposition invariants on a random admissible field
    v = random_admissible_field(mesh, trace, [seed, 0])
    split = _dispatch(v, trace, route)
    if isinstance(split, CompatibilityViolation):
        ledger.append(_entry("dispatch", 1.0, 0.0))
        return ledger
    ledger.append(_entry("dof_identity", split.identity_residual(v), scale_tol))
    tp = np.abs(split.p.values[trace.node_mask]).max() if trace.node_mask.any() else 0.0
    tw = np.abs(split.w.values[trace.node_mask]).max() if trace.node_mask.any() else 0.0
    tr = np.abs(split.R.values[trace.edge_mask]).max() if trace.edge_mask.any() else 0.0
    ledger.append(_entry("trace_p_exact", tp, 0.0))
    ledger.append(_entry("trace_w_exact", tw, 0.0))
    ledger.append(_entry("trace_R_exact", tr, 0.0))

    # Stokes identity for every loop decomposition the route performed
    worst = 0.0
    for (C, l0, flux) in split.meta.get("loops", []):
        worst = max(worst, abs(C - flux / l0) / (1.0 + abs(C)))
    ledger.append(_entry("loop_average_vs_flux", worst, 1e-12))

    # gradient absorption
    gv, q = gradient_field(mesh, trace, [seed, 1])
    gsplit = _dispatch(gv, trace, route)
    qn = max(fem.norm(q, "H1"), 1e-300)
    resid = (fem.norm(gsplit.w, "H1") + fem.norm(gsplit.R, "L2") / mesh.h) / qn
    ledger.append(_entry("gradient_absorption", resid, 1e-9))

    # commuting interpolation identity on random nodal fields
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for _ in range(5):
        wf = fem.NodalVectorField(mesh, rng.uniform(-1, 1, (mesh.nv, 3)))
        cw = fem.curl_of_nodal_field(wf)
        ce = fem.curl_of_edge_field(ops.edge_interpolate_rh(wf))
        worst = max(worst, float(np.abs(cw - ce).max()))
    ledger.append(_entry("curl_of_interpolation", worst, 1e-12))

    # zero input
    z = fem.EdgeField(mesh, np.zeros(mesh.ne))
    zsplit = _dispatch(z, trace, route)
    znorm = (np.abs(zsplit.p.values).max() + np.abs(zsplit.w.values).max()
             + np.abs(zsplit.R.values).max())
    ledger.append(_entry("zero_field", znorm, 0.0))
    return ledger
