#!/usr/bin/env python3
"""One sha256 per decomposition output over the catalog, so that a
byte-identity check of two versions of the code is a `diff` of two files.

For each (configuration, level, input, route) it writes one line
`geometry trace L<k> input route digest`.  The digest covers the bytes of
p, w and R and the repr of path, claims, norms, ratios and meta; for a
refusal, the message and the functionals; for an error, its type and text.
The configurations are the acceptance gate's 18 and six more traces; the
inputs are a seeded random field, a gradient, the zero field and a
perturbed (incompatible) field; the routes are the values of
`helmdec.decompose.ROUTES`.

After them comes one line `geometry - L<k> mesh - digest` per meshed
(geometry, level): the sha256 of the mesh arrays (vertices, tets, edges,
faces, block labels) and of every field of its coarse surface.

Last comes one line `hx geometry L<k> alpha=<a> - digest` per HX geometry,
level and jump a on block 0 (1 elsewhere, beta 1): one HX-preconditioned
PCG solve of the curl-curl model problem with the `boundary` trace and a
seeded random right-hand side.  The digest covers the bytes of x and the
repr of its iterations, converged flag, residual history and true
residual.

`--arrays DIR` also saves p, w, R and the ratios of every split, and x
and the iteration count of every HX solve, as one `.npz` file per line.
`--compare A B` reads two such directories and prints, for each line
whose arrays differ, the largest move of p, w and R (relative to the
largest entry of the three on that line), of x (relative to its largest
entry), of each ratio (relative to the larger of its two values and 1)
and of the iteration count (in iterations), then the largest move of
each per input kind; HX lines are of kind `hx`.  A line whose arrays
differ in bytes but not in value (signed zeros, or a dtype) is listed
with its zero moves and `bytes only`, so the listed lines are the lines
whose digests moved.  It exits with status 1 when any line is listed or
a file exists on one side only, and 0 otherwise:

    python3 scripts/output_digest.py --out old.txt --arrays old/
    python3 scripts/output_digest.py --out new.txt --arrays new/
    python3 scripts/output_digest.py --compare old/ new/
"""

import argparse
import hashlib
import re
import sys
from pathlib import Path

import numpy as np

from helmdec import fem, hx
from helmdec.decompose import (ROUTES, CompatibilityViolation, decompose, gradient_field,
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
SEED = 20260810
HX_GEOMETRIES = ["unit_cube", "three_cube_L", "edge_junction_pair"]
HX_JUMPS = [1.0, 1e2, 1e4, 1e6]


def field(kind, mesh, trace, seed):
    if kind == "random":
        return random_admissible_field(mesh, trace, seed)
    if kind == "gradient":
        return gradient_field(mesh, trace, seed)[0]
    if kind == "zero":
        return fem.EdgeField(mesh, np.zeros(mesh.ne))
    return incompatible_field(mesh, trace, seed)


def digest(mesh, spec, kind, route, seed, save=None) -> str:
    """The line's sha256.  With `save` = (path, line key), a split's p, w,
    R and ratios are also saved there."""
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
    if save is not None:
        path, key = save
        np.savez(path, key=key, p=out.p.values, w=out.w.values, R=out.R.values,
                 **{f"ratio:{k}": np.float64(r) for k, r in out.ratios.items()})
    h.update(repr((out.path, out.claims, out.norms, out.ratios, out.meta)).encode())
    return h.hexdigest()


def hx_digest(mesh, alpha0, seed, save=None) -> str:
    """The line's sha256.  With `save` = (path, line key), x and the
    iteration count are also saved there."""
    trace = tag_trace(mesh, ["boundary"])
    rhs = fem.EdgeField(mesh, np.random.default_rng(seed).uniform(-1, 1, mesh.ne))
    rhs.values[trace.edge_mask] = 0.0
    ones = np.ones(int(mesh.block_of_tet.max()) + 1)
    alpha = ones.copy()
    alpha[0] = alpha0
    system = hx.assemble_problem(hx.ModelProblem(mesh, alpha, ones, trace, rhs))
    res = hx.pcg_solve(system, hx.HXPreconditioner(system), tol=1e-8)
    if save is not None:
        path, key = save
        np.savez(path, key=key, x=res.x, iterations=np.int64(res.iterations))
    h = hashlib.sha256(np.ascontiguousarray(res.x).tobytes())
    h.update(repr((res.iterations, res.converged, res.residuals, res.true_residual)).encode())
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


def save_to(arrays, key):
    """The `save` argument of a line: its `.npz` path in `arrays` and its
    key, or None when no arrays are saved."""
    if arrays is None:
        return None
    return arrays / (re.sub(r"[^\w=.,+-]+", "_", key) + ".npz"), key


def relative_moves(a, b) -> dict:
    """Largest move of each array and scalar of one line.  p, w and R are
    measured against the largest entry of the three on either side, so an
    array that is roundoff on its line (w and R of a gradient input) is
    not measured against itself; an HX solution x against its own largest
    entry; an iteration count in iterations; a ratio against the larger of
    its two values and 1, so a ratio that is roundoff (a gradient input's)
    is not measured against itself either."""
    names = sorted((set(a.files) | set(b.files)) - {"key"})
    fields = ("p", "w", "R", "x")  # an HX line holds x, a split the other three
    split = max((np.abs(x[n]).max(initial=0.0) for x in (a, b) for n in fields
                 if n in x.files), default=0.0)
    moves = {}
    for n in names:
        if n not in a.files or n not in b.files:
            moves[n] = float("inf")
            continue
        if n in fields:
            scale = split
        elif n == "iterations":
            scale = 1.0
        else:
            scale = max(abs(float(a[n])), abs(float(b[n])), 1.0)
        diff = float(np.abs(a[n] - b[n]).max(initial=0.0))
        moves[n] = diff / scale if scale > 0 else diff
    return moves


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print the relative moves between two `--arrays` directories: every
    line whose arrays differ, then the largest move per input kind.
    Returns 1 when a line is listed or a file is on one side only, else 0."""
    worst, status = {}, 0
    for fb in sorted(dir_b.glob("*.npz")):
        if not (dir_a / fb.name).exists():
            print(f"{fb.stem}: only in {dir_b}")
            status = 1
    for fa in sorted(dir_a.glob("*.npz")):
        fb = dir_b / fa.name
        if not fb.exists():
            print(f"{fa.stem}: only in {dir_a}")
            status = 1
            continue
        with np.load(fa) as a, np.load(fb) as b:
            key = str(a["key"])
            moves = relative_moves(a, b)
            bytes_only = not any(moves.values()) and any(
                a[n].dtype != b[n].dtype or a[n].tobytes() != b[n].tobytes() for n in moves)
        kind = "hx" if key.startswith("hx ") else key.split()[3]
        for n, m in moves.items():
            if m >= worst.get((kind, n), (-1.0, ""))[0]:
                worst[kind, n] = (m, key)
        if any(moves.values()) or bytes_only:
            print(key + ": " + " ".join(f"{n}={m:.2e}" for n, m in moves.items())
                  + " bytes only" * bytes_only)
            status = 1
    print("largest relative move:")
    for (kind, n), (m, key) in sorted(worst.items()):
        print(f"  {kind} {n} {m:.2e} {key if m else '-'}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--levels", default="1,2,3", help="levels k, h = 1/2^k")
    ap.add_argument("--out", help="digest file to write")
    ap.add_argument("--arrays", help="also save each line's arrays in this directory")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two --arrays directories instead")
    args = ap.parse_args()
    if args.compare:
        return compare(*map(Path, args.compare))
    if not args.out:
        ap.error("--out is required unless --compare is given")
    arrays = Path(args.arrays) if args.arrays else None
    if arrays is not None:
        arrays.mkdir(parents=True, exist_ok=True)
    levels = [int(x) for x in args.levels.split(",") if x]
    lines, meshes = [], {}
    for geometry, spec in CONFIGS:
        for k in levels:
            mesh = build_complex(geometry, 1.0 / (1 << k))
            if (geometry, k) not in meshes:
                meshes[geometry, k] = f"{geometry} - L{k} mesh - {mesh_digest(mesh)}"
            for kind in INPUTS:
                for route in ROUTES:
                    key = f"{geometry} {';'.join(spec) or '-'} L{k} {kind} {route}"
                    d = digest(mesh, spec, kind, route, [SEED, k], save_to(arrays, key))
                    lines.append(f"{key} {d}")
    lines.extend(meshes.values())
    for geometry in HX_GEOMETRIES:
        for k in levels:
            mesh = build_complex(geometry, 1.0 / (1 << k))
            for a in HX_JUMPS:
                key = f"hx {geometry} L{k} alpha={a:g} -"
                lines.append(f"{key} {hx_digest(mesh, a, [SEED, k], save_to(arrays, key))}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} digests to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
