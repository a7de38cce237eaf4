"""Tetrahedral edge-element toolkit for discrete regular Helmholtz
decompositions with exact tangential-trace preservation, their measured
stability, and the auxiliary-space preconditioner they support."""

from .fem import (EdgeField, NodalField, NodalVectorField, assemble, curl_map,
                  gradient_map, norm)
from . import decompose
from .decompose import (CompatibilityViolation, HelmholtzSplit,
                        gradient_field, incompatible_field,
                        random_admissible_field)
from .geometry import CATALOG, catalog_info, catalog_names
from .hx import HXPreconditioner, ModelProblem, assemble_problem, pcg_solve
from .mesh import TetMesh, build_complex, read_mesh, write_mesh
from .operators import (BoundaryLoop, LoopPotential, PreconditionError,
                        build_loop, curl_harmonic_extend, edge_interpolate_rh,
                        epsilon_correction, graph_cutoff, harmonic_extend,
                        loop_constant_extension, loop_potential)
from .trace import TraceSet, surface, tag_trace
from .verify import (StabilityReport, fit_log_growth, invariant_battery,
                     sweep)

__version__ = "0.1.0"
