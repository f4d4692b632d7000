"""Mean-field simulator and phase-diagram engine for a driven-dissipative
cavity lattice: coupled photon-spin equations of motion, exhaustive
steady-state search, linear stability on the spin-sphere tangent space,
pattern classification, and (xi, g) grid sweeps under periodic or open
boundary conditions.
"""

from ._version import __version__
from .errors import (BisectionFailure, BoundaryError, DomainError, NotSettled,
                     ShapeError, StepFailure, UnstableWindowError,
                     ZeroModeMismatch)
from .model import (BoundaryCondition, LatticeParams, MeanFieldState,
                    inverted_normal_state, normal_state, symmetry_orbit,
                    validate)
from .spectrum import (NPCritical, critical_coupling_hsrp, critical_coupling_np,
                       critical_coupling_np_infinite, mode_frequencies,
                       xi_stability_window)
from .dynamics import (Trajectory, RelaxResult, hop_matrix, integrate,
                       jacobian_packed, perturbed_normal_state,
                       relax_to_steady, rhs_packed, rhs_sup_norm)
from .steady_state import (HomogeneityWitness, RootSearchResult, SeedOutcome,
                           find_all, homogeneous_srp_branch, newton_solve,
                           no_homogeneous_witness)
# the stability-report op stays at stability.classify: the top-level name
# `classify` belongs to the pattern-label module
from .stability import (StabilityReport, Verdict, bisect_np_threshold,
                        normal_state_abscissa, projected_jacobian,
                        tangent_basis)
from .classify import (PatternKind, PatternLabel, canonicalize, label,
                       phase_letter, root_dossier, stable_class_set)
from .sweep import (CriticalPoint, GridAxis, PhaseCell, SiteProfile,
                    SweepSpec, critical_csv, critical_line_scan, cut_csv,
                    order_parameter_cut, phase_diagram, phase_diagram_csv,
                    profile_csv, site_profile)

__all__ = [name for name in dir() if not name.startswith("_")]
