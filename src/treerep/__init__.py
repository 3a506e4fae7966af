"""Exact and numerical verification toolkit for boundary representations
of regular-tree automorphism groups.

Layers, bottom up: `tree` (word model, horofunction values),
`automorphism` (generator words and their vertex action), `measure`
(exact rational boundary measure and its distortion cocycle), `operators`
(the phi functional calculus and spectral guards), `representation`
(step functions, the induced action, stabilizer averages), `suites`
(seeded verification suites), `cli` (the command-line harness).
"""

from .errors import (
    BranchCutError,
    ConfigError,
    CylinderTooShallowError,
    DepthBudgetError,
    IllConditionedError,
    MalformedAddressError,
    NotCompleteError,
    OperatorDomainError,
    PartitionError,
    PruningError,
    RefinementError,
    SpectralGuardError,
    SubtreeError,
    TreeRepError,
)
from .tree import (
    ROOT,
    Address,
    FiniteSubtree,
    TreeParams,
    busemann_on_cylinder,
    closed_neighborhood,
    is_complete,
)
from .automorphism import (
    Portrait,
    TreeAutomorphism,
    compose,
    edge_inversion,
    from_portrait,
    identity,
    step_translation,
)
from .measure import (
    Cylinder,
    EndCell,
    Halftree,
    cell_measure,
    map_cell,
    orbit_cells,
    orbit_merge_under_pruning,
    rn_cocycle,
)
from .operators import (
    OperatorPair,
    build_pair,
    guard_spectrum,
    phi_scalar,
    power,
    spectral_norm,
)
from .representation import (
    StepFunction,
    alpha_via_rep,
    constant_fn,
    fixed_space_report,
    haar_average_fix,
    halftree_element,
    halftree_preimage,
    indicator_fn,
    invariant_lift_check,
    pi_apply,
)
from .suites import SUITES, SuiteConfig, SuiteReport, run_all, run_suite

__version__ = "0.1.0"
