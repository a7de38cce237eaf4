"""Block-complex geometry catalog.

All domains are unions of convex blocks on an integer lattice ("block
units"): axis-aligned bricks plus one canonical square-base pyramid shape
(apex height 2, base half-width 1).  The catalog is closed: every geometry
the toolkit handles is listed here together with the metadata the
decomposition routes cannot derive from the blocks (convexity, the
junction vertex, extension complexes, subdomain splits).  How two blocks
meet (face, edge, vertex) is derived from their shapes
(`_block_intersection_kind`); the block chain reads its order from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "Brick",
    "Pyramid",
    "BlockComplex",
    "GeometryInfo",
    "CATALOG",
    "catalog_info",
    "catalog_names",
    "GeometryError",
]


class GeometryError(ValueError):
    """Unknown geometry id or invalid geometry parameters."""


@dataclass(frozen=True)
class Brick:
    """Axis-aligned brick given by two opposite corners in block units."""

    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    def __post_init__(self):
        if not all(a < b for a, b in zip(self.lo, self.hi)):
            raise GeometryError(f"degenerate brick {self.lo}..{self.hi}")

    def corners(self) -> np.ndarray:
        lo, hi = self.lo, self.hi
        pts = [(x, y, z) for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
        return np.array(pts, dtype=np.int64)


@dataclass(frozen=True)
class Pyramid:
    """Canonical square-base pyramid: apex at `apex`, axis `axis` (0..2),
    base center at apex + 2*sign*e_axis, base half-width 1.

    The half-angle atan(1/2) keeps two pyramids with a common apex and
    different axis directions disjoint away from the apex.
    """

    apex: tuple[int, int, int]
    axis: int
    sign: int

    def __post_init__(self):
        if self.axis not in (0, 1, 2) or self.sign not in (-1, 1):
            raise GeometryError("pyramid axis must be 0..2 and sign +-1")

    def base_center(self) -> np.ndarray:
        c = np.array(self.apex, dtype=np.int64)
        c[self.axis] += 2 * self.sign
        return c

    def base_corners(self) -> np.ndarray:
        """Four base corners in ring order around the axis."""
        u, v = [a for a in (0, 1, 2) if a != self.axis]
        c = self.base_center()
        ring = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
        out = np.repeat(c[None, :], 4, axis=0)
        for k, (su, sv) in enumerate(ring):
            out[k, u] += su
            out[k, v] += sv
        return out

    def corners(self) -> np.ndarray:
        return np.vstack([np.array(self.apex, dtype=np.int64)[None, :], self.base_corners()])


Block = Brick | Pyramid


def _brick_intersection_kind(a: Brick, b: Brick) -> Optional[str]:
    """Kind of the intersection of two closed bricks: face/edge/vertex/None.

    Overlapping interiors raise (blocks must be non-overlapping).
    """
    dims = 0
    for d in range(3):
        lo = max(a.lo[d], b.lo[d])
        hi = min(a.hi[d], b.hi[d])
        if lo > hi:
            return None
        if lo < hi:
            dims += 1
    if dims == 3:
        raise GeometryError("bricks overlap")
    return {2: "face", 1: "edge", 0: "vertex"}[dims]


def _block_intersection_kind(a: Block, b: Block) -> Optional[str]:
    if isinstance(a, Brick) and isinstance(b, Brick):
        return _brick_intersection_kind(a, b)
    if isinstance(a, Pyramid) and isinstance(b, Pyramid):
        if a.apex == b.apex and (a.axis, a.sign) != (b.axis, b.sign):
            return "vertex"
        if (a.apex, a.axis, a.sign) == (b.apex, b.axis, b.sign):
            raise GeometryError("identical pyramids overlap")
        return None
    # mixed brick/pyramid complexes are not in the catalog
    raise GeometryError("mixed brick/pyramid contact is unsupported")


@dataclass(frozen=True)
class BlockComplex:
    """A union of convex blocks; two blocks may meet at a face, an edge or
    a vertex, never overlap."""

    name: str
    blocks: tuple[Block, ...]

    def validate(self) -> None:
        """Overlapping blocks raise in `_block_intersection_kind`; blocks
        that touch must connect the union."""
        n = len(self.blocks)
        pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)
                          if _block_intersection_kind(self.blocks[i], self.blocks[j])],
                         dtype=np.int64).reshape(-1, 2)
        graph = sp.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
        if connected_components(graph, directed=False)[0] > 1:
            raise GeometryError(f"{self.name}: block union is not connected")


@dataclass(frozen=True)
class GeometryInfo:
    """Catalog entry: the block complex plus the route metadata that
    cannot be derived from its blocks.

    convex           -- the union is a convex polyhedron
    lipschitz        -- the union is a Lipschitz domain (false for junctions)
    split_width      -- column half-width (block units) of the subdomain
                        split used by the disjoint-edge hard case
    extension_id     -- catalog id of the extended complex B
    junction_vertex  -- common vertex of a vertex-junction complex
    """

    complex: BlockComplex
    convex: bool = False
    lipschitz: bool = True
    split_width: Optional[Fraction] = None
    extension_id: Optional[str] = None
    junction_vertex: Optional[tuple[int, int, int]] = None
    internal: bool = False
    aliases: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.complex.name


def _cube(lo, hi) -> Brick:
    return Brick(tuple(lo), tuple(hi))


def _build_catalog() -> dict[str, GeometryInfo]:
    cat: dict[str, GeometryInfo] = {}

    def add(info: GeometryInfo):
        info.complex.validate()
        cat[info.name] = info

    unit = _cube((0, 0, 0), (1, 1, 1))

    add(GeometryInfo(BlockComplex("unit_cube", (unit,)), convex=True))

    # three cubes forming an L in the xy-plane (shared concave edge x=1,y=1)
    d1 = _cube((0, 0, 0), (1, 1, 1))
    d2 = _cube((1, 0, 0), (2, 1, 1))
    d3 = _cube((0, 1, 0), (1, 2, 1))
    blocks = (d1, d2, d3)
    add(GeometryInfo(BlockComplex("three_cube_L", blocks)))

    add(
        GeometryInfo(
            BlockComplex("pyramid", (Pyramid((1, 1, 2), 2, -1),)),
            convex=True,
            aliases={
                "base": "z=0",
                "lat:y-": "p:0,-2,1:0",
                "lat:y+": "p:0,2,1:4",
                "lat:x-": "p:-2,0,1:0",
                "lat:x+": "p:2,0,1:4",
            },
        )
    )

    # small cube with a recorded convex extension brick complex B; the
    # default trace is two adjacent faces plus a far edge whose containing
    # faces both meet the trace (the configuration forcing the extension
    # route)
    add(
        GeometryInfo(
            BlockComplex("cube_in_box", (unit,)),
            convex=True,
            extension_id="cube_in_box_B",
        )
    )
    bextra = (
        unit,
        _cube((0, 0, -1), (1, 1, 0)),
        _cube((0, 1, -1), (1, 2, 0)),
        _cube((0, 1, 0), (1, 2, 1)),
    )
    add(
        GeometryInfo(
            BlockComplex("cube_in_box_B", bextra),
            convex=True,  # union is the brick [0,1]x[0,2]x[-1,1]
            internal=True,
        )
    )

    add(
        GeometryInfo(
            BlockComplex("four_edge_cube", (unit,)),
            convex=True,
            split_width=Fraction(1, 4),
        )
    )

    ej = (_cube((0, 0, 0), (1, 1, 1)), _cube((1, 1, 0), (2, 2, 1)))
    add(
        GeometryInfo(
            BlockComplex("edge_junction_pair", ej),
            lipschitz=False,
        )
    )

    vj = (_cube((0, 0, 0), (1, 1, 1)), _cube((1, 1, 1), (2, 2, 2)))
    add(
        GeometryInfo(
            BlockComplex("vertex_junction_pair", vj),
            lipschitz=False,
            junction_vertex=(1, 1, 1),
        )
    )

    # s pyramids with a common apex, pairwise meeting at the apex only
    star_dirs = [(2, 1), (2, -1), (0, 1), (0, -1), (1, 1), (1, -1)]
    for s in range(3, 7):
        blocks = tuple(Pyramid((0, 0, 0), a, sg) for a, sg in star_dirs[:s])
        add(
            GeometryInfo(
                BlockComplex(f"vertex_junction_star{s}", blocks),
                lipschitz=False,
                junction_vertex=(0, 0, 0),
            )
        )

    return cat


CATALOG = _build_catalog()


def catalog_names(include_internal: bool = False) -> list[str]:
    return [n for n, g in CATALOG.items() if include_internal or not g.internal]


def catalog_info(name: str) -> GeometryInfo:
    try:
        return CATALOG[name]
    except KeyError:
        raise GeometryError(
            f"unknown geometry {name!r}; known: {', '.join(catalog_names(True))}"
        ) from None
