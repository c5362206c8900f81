"""Distance-like functions, co-rays, the pseudo-metric rho, and pointed
Gromov-Hausdorff bounds on windowed graph models of non-compact spaces."""

from .errors import (ConsistencyError, DescentError, DlscapeError,
                     DomainError, GeneratorParamError, MetricError,
                     ResourceLimitError, UnknownGeneratorError, ZoneError)
from .space import (Window, materialize_window, pairwise_dist,
                    shortest_path, sphere, vertex_budget)
from .zoo import build, build_from_dict, catalog, oracle
from .fields import (ScalarField, busemann, dl_from_sets, field_to_json,
                     gromov_check, horofunction, level_set, u_point_assigned,
                     u_r)
from .corays import (CoRay, representation_check, trace_corays,
                     uniqueness_probe, verify_gradient)
from .pseudometric import (RhoMatrix, anti_triangle_check,
                           equivalence_classes, point_assigned_family,
                           rho_matrix)
from .gh import (Correspondence, EpsIsometry, FiniteMetricSpace,
                 brute_force_min_distortion, build_eps_isometry,
                 corr_from_isometry, gh_bounds, min_distortion_correspondence,
                 pa_gh_experiment)
from .checks import SUITES, run_suite

__version__ = "0.1.0"
