#!/usr/bin/env python3
"""Residual probe: does a decomposition leave R = O(h) on a field that has
an exact split with R = 0?

For every gate configuration and level h = 1/2^k it decomposes
v = r_h I_h (u c), with c = (1, 0.5, -0.3) and u a polynomial that
vanishes on the trace: the product of the affine functions n.x - d of the
trace's planes.  These are the planes of its faces and, for each of its
edges, the planes of the boundary faces that meet at the edge, each taken
once (`vertex_junction_pair` x=0;x=2 also takes the junction plane x = 1).
(p, w, R) = (0, I_h (u c), 0) splits v exactly with trace zeros, so a
regular decomposition keeps `R_scaled` = |R| / (h |v|_rhs1) bounded as h
falls.

It prints one line per (configuration, level): the path, `R_scaled`,
|R| / |v| in L2 and `w_h1`.  A refusal, typed by the planner or by the
vertex-junction gate, is printed in their place:

    python3 scripts/reproduction_probe.py --levels 1,2,3,4
"""

import argparse
import sys
from math import prod

import numpy as np

from helmdec import fem
from helmdec.decompose import CompatibilityViolation, decompose
from helmdec.mesh import build_complex
from helmdec.operators import edge_interpolate_rh
from helmdec.trace import surface, tag_trace

FOUR_EDGES = ["e:x=0,y=0", "e:x=1,y=0", "e:x=1,y=1", "e:x=0,y=1"]

# the acceptance gate's 18 configurations
CONFIGS = [
    ("unit_cube", ["z=0"]),
    ("unit_cube", ["boundary"]),
    ("unit_cube", ["z=0", "z=1"]),
    ("unit_cube", ["e:x=0,y=0"]),
    ("unit_cube", ["z=0", "e:y=1,z=1"]),
    ("unit_cube", ["z=0", "e:x=0,y=0"]),
    ("three_cube_L", ["concave"]),
    ("three_cube_L", ["x=0"]),
    ("pyramid", ["base"]),
    ("pyramid", ["lat:x-", "lat:x+"]),
    ("cube_in_box", ["z=0", "y=1", "e:y=0,z=1"]),
    ("four_edge_cube", FOUR_EDGES),
    ("edge_junction_pair", ["x=1#0", "y=1#1"]),
    ("edge_junction_pair", ["x=0"]),
    ("vertex_junction_pair", ["x=1#0", "x=1#1"]),
    ("vertex_junction_pair", ["x=0", "x=2"]),
    ("vertex_junction_star3", ["p:-2,0,-1:0", "p:-2,0,1:0", "p:-1,-2,0:0"]),
    ("vertex_junction_star3", ["x=2", "z=-2", "z=2"]),
]
# planes ((n), d) in block units taken besides the trace's own
EXTRA_PLANES = {("vertex_junction_pair", ("x=0", "x=2")): [((1, 0, 0), 1)]}
C = np.array([1.0, 0.5, -0.3])


def trace_planes(trace, extra=()) -> list:
    """The distinct planes ((n), d) of the trace's faces and of the
    boundary faces at its edges, in lattice units, then `extra` (block
    units), in the order met."""
    mesh = trace.mesh
    faces = list(trace.coarse_faces)
    for e in trace.coarse_edges:
        faces += [f for f in surface(mesh).faces if e.id in f.edges]
    planes = list(dict.fromkeys(f.plane for f in faces))
    return planes + [(n, d * mesh.denom) for n, d in extra if (n, d * mesh.denom) not in planes]


def probe_field(trace, extra=()) -> fem.EdgeField:
    """v = r_h I_h (u c) for u the product of the trace planes' affine
    functions, each in block units: exact dyadic values, and exact zeros on
    the trace's nodes and edges."""
    mesh = trace.mesh
    x = mesh.verts_int
    u = prod((x @ np.array(n) - d) / mesh.denom for n, d in trace_planes(trace, extra))
    return edge_interpolate_rh(fem.NodalVectorField(mesh, u[:, None] * C[None, :]))


def probe(geometry, spec, k) -> dict:
    """One (configuration, level): the trace, v, and the split's path and
    numbers, or the refusal."""
    mesh = build_complex(geometry, 1.0 / (1 << k))
    out = {"geometry": geometry, "spec": spec, "level": k}
    try:
        trace = tag_trace(mesh, spec)
        v = probe_field(trace, EXTRA_PLANES.get((geometry, tuple(spec)), ()))
        out.update(trace=trace, v=v)
        split = decompose(v, trace)
    except (ValueError, RuntimeError) as exc:  # typed refusals
        out["refusal"] = f"{type(exc).__name__}: {exc}"
        return out
    if isinstance(split, CompatibilityViolation):
        out["refusal"] = split.message
        return out
    out.update(path=split.path, R_scaled=split.ratios["R_scaled"], w_h1=split.ratios["w_h1"],
               R_rel=split.norms["R_l2"] / split.norms["v_l2"])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--levels", default="1,2,3,4", help="levels k, h = 1/2^k")
    args = ap.parse_args()
    levels = [int(x) for x in args.levels.split(",") if x]
    width = max(len(";".join(spec)) for _, spec in CONFIGS)
    print(f"{'geometry':22s} {'trace':{width}s} {'k':>2s} {'path':26s} "
          f"{'R_scaled':>9s} {'|R|/|v|':>8s} {'w_h1':>7s}")
    for geometry, spec in CONFIGS:
        for k in levels:
            r = probe(geometry, spec, k)
            head = f"{geometry:22s} {';'.join(spec):{width}s} {k:2d}"
            if "refusal" in r:
                print(f"{head} refused: {r['refusal']}")
            else:
                print(f"{head} {r['path']:26s} {r['R_scaled']:9.3f} {r['R_rel']:8.3f} "
                      f"{r['w_h1']:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
