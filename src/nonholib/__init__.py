"""nonholib: constrained mechanics as the large-friction limit.

Builds nonholonomic, large-friction, fast-relaxation and first-order
corrected vector fields for mechanical systems on a chart, integrates them
deterministically, and measures convergence rates, invariance defects and
slow-manifold residuals.  See the README for the experiment CLI; everything
else is imported from its submodule.
"""

from .dynamics import compute_h1, friction_field, nonholonomic_field
from .ode import IntegratorConfig, integrate
from .systems import SleighParams

__version__ = "0.1.0"

__all__ = [
    "IntegratorConfig",
    "SleighParams",
    "compute_h1",
    "friction_field",
    "integrate",
    "nonholonomic_field",
]
