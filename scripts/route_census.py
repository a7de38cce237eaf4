#!/usr/bin/env python3
"""Route census: the path the dispatcher plans for each trace of two fixed
families on every catalog geometry, without applying a plan.

The geometries are all catalog entries, internal ones included, meshed at
h = 1/4.  The `face` family on each is every single coarse face, every
pair of coarse faces, `boundary` and `concave`; the `edge` family is every
single coarse edge, every pair of coarse edges, and every (coarse face,
coarse edge) pair.  The script writes one line per trace to stdout,

    family  geometry  spec  path

with the entity names of the spec joined by ';' and, in place of the
path, `! ErrorType(entity): message` for a typed refusal at plan time.
A summary of the count per family and path follows, one
`# family path count` line each:

    python3 scripts/route_census.py > census.txt
"""

import collections
import itertools

from helmdec.decompose import _plan
from helmdec.geometry import GeometryError, catalog_names
from helmdec.mesh import build_complex
from helmdec.operators import PreconditionError
from helmdec.trace import TraceError, surface, tag_trace

H = 0.25


def face_specs(mesh):
    names = [f.name for f in surface(mesh).faces]
    yield from ([n] for n in names)
    yield from (list(pair) for pair in itertools.combinations(names, 2))
    yield ["boundary"]
    yield ["concave"]


def edge_specs(mesh):
    surf = surface(mesh)
    names = [e.name for e in surf.edges]
    yield from ([n] for n in names)
    yield from (list(pair) for pair in itertools.combinations(names, 2))
    yield from ([f.name, n] for f in surf.faces for n in names)


FAMILIES = {"face": face_specs, "edge": edge_specs}


def census():
    """(family, geometry, spec, path or refusal) per trace of the families."""
    for geometry in catalog_names(include_internal=True):
        mesh = build_complex(geometry, H)
        for family, specs in FAMILIES.items():
            for spec in specs(mesh):
                try:
                    path = _plan("auto", tag_trace(mesh, spec)).path
                except (PreconditionError, GeometryError, TraceError) as ex:
                    entity = getattr(ex, "entity", None)
                    path = f"! {type(ex).__name__}({entity}): {ex}"
                yield family, geometry, ";".join(spec), path


def main():
    counts = collections.Counter()
    for family, geometry, spec, path in census():
        print(f"{family}\t{geometry}\t{spec}\t{path}")
        counts[family, "refused" if path.startswith("!") else path] += 1
    for (family, path), n in sorted(counts.items()):
        print(f"# {family} {path} {n}")


if __name__ == "__main__":
    main()
