"""Gradient-flow shape control for equilateral triangulated formations.

Distance-only formation specs admit mirror-image solutions; adding a signed
triangle-area term to each potential removes that ambiguity.  This package
builds the layered per-agent potentials for triangle-constructible graphs,
integrates the resulting gradient flow, and enumerates the equilibria and
stability regimes of the pinned triangle.  The oracles that only the tests
run (the damped-Newton root finder, the anchored pair's catalogue and the
summed potential) live in ``tests/oracles.py``.
"""

from .analysis import (
    Equilibrium,
    GainRegime,
    K_HIGH,
    K_LOW,
    align_to_pinned_frame,
    classify_gain,
    enumerate_triangle_equilibria,
)
from .dynamics import (
    BasinCell,
    GridSpec,
    IntegratorConfig,
    SimulationResult,
    Trajectory,
    simulate,
)
from .geometry import PlanarVector, Position, distance, signed_area, squared_distance
from .graph import (
    DesiredFormation,
    FormationGraph,
    GraphSpecError,
    LamanCheck,
    build_example_graph,
    formation_errors,
    validate_triangulated_laman,
)
from .hierarchy import (
    HierarchyError,
    HierarchyPlan,
    TriangleAssignment,
    build_hierarchy,
    control_field,
    target_positions,
)
from .potentials import (
    PairPotentialSpec,
    TrianglePotentialSpec,
    pair_gradient,
    pair_potential,
    pinned_hessian_entries,
    triangle_gradient,
    triangle_potential,
)
from .scenario import (
    ConfigError,
    InitialSpec,
    ScenarioConfig,
    load_scenario,
    make_builtin_scenario,
    resolve,
    save_scenario,
)

__version__ = "0.1.0"
