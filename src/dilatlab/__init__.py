"""Dilatation structures: axioms, tangent operations, and metric limits.

A dilatation structure is a metric space with a field of contractions
dil(eps, x, y). This package estimates the induced tangent operations by
numerical extrapolation, checks the defining axioms on concrete structures
(Euclidean, Riemannian via diffeomorphisms, snowflakes, rotation twists,
Carnot groups, sub-Riemannian frames), and compares rescaled balls in the
pointed Gromov-Hausdorff sense.
"""

from .errors import (ChartEscape, DilatlabError, DomainViolation, NoConvergence,
                     NoFeasiblePath, NonRegular, NotBracketGenerating,
                     SamplingExhausted, SizeLimitExceeded, TriangleViolation)
from .geometry import (FinitePointedSpace, MetricSpaceHandle, box_handle,
                       euclidean_handle, rescale, restrict, sample_ball,
                       snowflake_distance)
from .gromov import (ProfileCurve, ProfilePoint, distortion, gh_lower_bound,
                     gh_pointed_exact, metric_profile)
from .limits import LimitEstimate, richardson_limit
from .axioms import (CheckReport, DilatationStructure, TangentData, check_A0_A1,
                     check_A2, check_conical_group, check_profile_continuity,
                     check_profile_theorem, check_tangent_cone, derive_sigma_inv,
                     estimate_dx, report_to_json)
from .structures import (DiffeoPair, build_structure, complex_dilatation,
                         euclidean, identity_diffeo, register_structure,
                         riemannian_diffeo, shear_quadratic, snowflake_structure,
                         structure_names, tanh_shear)
from .vectorfields import (Frame, VectorField, build_adapted_frame, chart_inverse,
                           flow_exp, frame_from_manifest, lie_bracket,
                           polynomial_field)
from .heisenberg_group import (heisenberg, heisenberg_cc, heisenberg_dilate,
                               heisenberg_gauge, heisenberg_group_law,
                               heisenberg_inverse, heisenberg_warp,
                               vertical_cc_oracle, warped_heisenberg)
from .carnot import (CCConfig, HorizontalPath, cc_distance, check_normal_frame,
                     heisenberg_structure, sr_dilatation, structure_from_manifest,
                     warped_heisenberg_structure)
from .util import halving_schedule

__version__ = "0.1.0"
