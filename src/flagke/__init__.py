"""Kaehler-Einstein existence tests and metric profiles for homogeneous
vector bundles over flag manifolds of the classical groups.

The existence tests are exact and need only the standard library.  The
profile names (`MetricProfile`, `domain_end`, `f_of_t`, `metric_profile`,
`ode_residual`, `t_of_f`, `verdiani_check`) load `flagke.profile`, and with
it numpy, on their first read."""

from .rootspace import Algebra, Weight, positive_roots, simple_roots
from .painted import KoszulData, PaintedDiagram, chamber_contains, diagram, koszul, \
    koszul_rule, r_m_plus, white_components
from .bundle import AdmissibleData, StringInfo, admissible_data, eligible_strings, kappa, \
    kappa_z0_form, kappa_z0_oracle, koszul_update_check
from .einstein import EinsteinVerdict, classify, z0_face_point, z0_form
from .census import enumerate_records, summarize

__version__ = "0.1.0"

__all__ = [
    "Algebra", "Weight", "positive_roots", "simple_roots",
    "KoszulData", "PaintedDiagram", "chamber_contains", "diagram", "koszul", "koszul_rule",
    "r_m_plus", "white_components",
    "AdmissibleData", "StringInfo", "admissible_data", "eligible_strings", "kappa",
    "kappa_z0_form", "kappa_z0_oracle", "koszul_update_check",
    "EinsteinVerdict", "classify", "z0_face_point", "z0_form",
    "MetricProfile", "domain_end", "f_of_t", "metric_profile", "ode_residual",
    "t_of_f", "verdiani_check",
    "enumerate_records", "summarize",
]


# called only for names not bound above, so the names of `__all__` that reach
# it are the profile names
def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import profile
    return getattr(profile, name)
