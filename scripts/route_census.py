#!/usr/bin/env python3
"""Route census: the path the dispatcher plans for each trace of a fixed
family on every catalog geometry, without applying a plan.

The geometries are all catalog entries, internal ones included, meshed at
h = 1/4.  The traces on each are every single coarse face, every pair of
coarse faces, `boundary` and `concave`.  The script writes one line per
trace to stdout,

    geometry  spec  path

with the entity names of the spec joined by ';' and, in place of the
path, `! ErrorType(entity): message` for a typed refusal at plan time.
A summary of the count per path follows, one `# path count` line each:

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


def specs(mesh):
    names = [f.name for f in surface(mesh).faces]
    yield from ([n] for n in names)
    yield from (list(pair) for pair in itertools.combinations(names, 2))
    yield ["boundary"]
    yield ["concave"]


def census():
    """(geometry, spec, path or refusal) per trace of the family."""
    for geometry in catalog_names(include_internal=True):
        mesh = build_complex(geometry, H)
        for spec in specs(mesh):
            try:
                path = _plan("auto", tag_trace(mesh, spec)).path
            except (PreconditionError, GeometryError, TraceError) as ex:
                entity = getattr(ex, "entity", None)
                path = f"! {type(ex).__name__}({entity}): {ex}"
            yield geometry, ";".join(spec), path


def main():
    counts = collections.Counter()
    for geometry, spec, path in census():
        print(f"{geometry}\t{spec}\t{path}")
        counts["refused" if path.startswith("!") else path] += 1
    for path, n in sorted(counts.items()):
        print(f"# {path} {n}")


if __name__ == "__main__":
    main()
