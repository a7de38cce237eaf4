#!/usr/bin/env python3
"""One sha256 per decomposition output over the catalog, so that a
byte-identity check of two versions of the code is a `diff` of two files.

For each (configuration, level, input, route) it writes one line
`geometry trace L<k> input route digest`.  The digest covers the bytes of
p, w and R and the repr of path, claims, norms, ratios and meta; for a
refusal, the message and the functionals; for an error, its type and text.
The configurations are the acceptance gate's 18 and six more traces; the
inputs are a seeded random field, a gradient, the zero field and a
perturbed (incompatible) field; the routes are auto, kernel and
face-chain.

After them comes one line `geometry - L<k> mesh - digest` per meshed
(geometry, level): the sha256 of the mesh arrays (vertices, tets, edges,
faces, block labels) and of every field of its coarse surface.
"""

import argparse
import hashlib
from pathlib import Path

import numpy as np

from helmdec import fem
from helmdec.decompose import (CompatibilityViolation, decompose, gradient_field,
                               incompatible_field, random_admissible_field)
from helmdec.mesh import build_complex
from helmdec.trace import surface, tag_trace

FOUR_EDGES = ["e:x=0,y=0", "e:x=1,y=0", "e:x=1,y=1", "e:x=0,y=1"]

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
    # beyond the gate: empty trace, disjoint and linked edges, a face with
    # an edge clear of it, a free-block junction, a partial junction contact
    ("unit_cube", []),
    ("unit_cube", ["e:x=0,y=0", "e:x=1,y=1"]),
    ("unit_cube", ["e:x=0,y=0", "e:x=0,z=0"]),
    ("unit_cube", ["z=0", "e:x=0,z=1"]),
    ("vertex_junction_star3", []),
    ("edge_junction_pair", ["z=0#0"]),
]
INPUTS = ["random", "gradient", "zero", "perturbed"]
ROUTES = ["auto", "kernel", "face-chain"]
SEED = 20260810


def field(kind, mesh, trace, seed):
    if kind == "random":
        return random_admissible_field(mesh, trace, seed)
    if kind == "gradient":
        return gradient_field(mesh, trace, seed)[0]
    if kind == "zero":
        return fem.EdgeField(mesh, np.zeros(mesh.ne))
    return incompatible_field(mesh, trace, seed)


def digest(mesh, spec, kind, route, seed) -> str:
    h = hashlib.sha256()
    try:
        trace = tag_trace(mesh, spec)
        out = decompose(field(kind, mesh, trace, seed), trace, route=route)
    except (ValueError, RuntimeError) as exc:  # typed refusals are outputs too
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return h.hexdigest()
    if isinstance(out, CompatibilityViolation):
        h.update(out.message.encode())
        h.update(np.asarray(out.functionals).tobytes())
        return h.hexdigest()
    for arr in (out.p.values, out.w.values, out.R.values):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((out.path, out.claims, out.norms, out.ratios, out.meta)).encode())
    return h.hexdigest()


def mesh_digest(mesh) -> str:
    h = hashlib.sha256()
    for arr in (mesh.verts_int, mesh.tets, mesh.edges, mesh.faces, mesh.block_of_tet):
        h.update(np.ascontiguousarray(arr).tobytes())
    surf = surface(mesh)
    for ent in surf.faces + surf.edges:
        for val in vars(ent).values():
            h.update(val.tobytes() if isinstance(val, np.ndarray) else repr(val).encode())
    h.update(repr((surf.vertices, surf.aliases)).encode())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--levels", default="1,2,3", help="levels k, h = 1/2^k")
    ap.add_argument("--out", required=True, help="digest file to write")
    args = ap.parse_args()
    levels = [int(x) for x in args.levels.split(",") if x]
    lines, meshes = [], {}
    for geometry, spec in CONFIGS:
        for k in levels:
            mesh = build_complex(geometry, 1.0 / (1 << k))
            if (geometry, k) not in meshes:
                meshes[geometry, k] = f"{geometry} - L{k} mesh - {mesh_digest(mesh)}"
            for kind in INPUTS:
                for route in ROUTES:
                    d = digest(mesh, spec, kind, route, [SEED, k])
                    lines.append(f"{geometry} {';'.join(spec) or '-'} L{k} {kind} {route} {d}")
    lines.extend(meshes.values())
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} digests to {out}")


if __name__ == "__main__":
    main()
