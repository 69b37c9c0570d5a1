"""Kaehler-Einstein existence tests and metric profiles for homogeneous
vector bundles over flag manifolds of the classical groups."""

from .rootspace import Algebra, Weight, inner, positive_roots, simple_roots
from .painted import KoszulData, PaintedDiagram, chamber_contains, diagram, koszul, \
    koszul_rule, r_m_plus, white_components
from .bundle import AdmissibleData, StringInfo, admissible_data, eligible_strings, kappa, \
    kappa_z0_form, kappa_z0_oracle, koszul_update_check
from .einstein import EinsteinVerdict, classify, z0_face_point, z0_form
from .profile import MetricProfile, domain_end, f_of_t, metric_profile, ode_residual, \
    t_of_f, verdiani_check
from .census import enumerate_records, summarize

__version__ = "0.1.0"

__all__ = [
    "Algebra", "Weight", "inner", "positive_roots", "simple_roots",
    "KoszulData", "PaintedDiagram", "chamber_contains", "diagram", "koszul", "koszul_rule",
    "r_m_plus", "white_components",
    "AdmissibleData", "StringInfo", "admissible_data", "eligible_strings", "kappa",
    "kappa_z0_form", "kappa_z0_oracle", "koszul_update_check",
    "EinsteinVerdict", "classify", "z0_face_point", "z0_form",
    "MetricProfile", "domain_end", "f_of_t", "metric_profile", "ode_residual",
    "t_of_f", "verdiani_check",
    "enumerate_records", "summarize",
]
