"""Self-contained numerical primitives.

Composite and panel-adaptive Gauss-Legendre quadrature, adaptive ODE
integration with dense output, modified Bessel functions K0/K1, and a
sparse symmetric generalized eigensolver.  Everything here is pure given its inputs.
"""

from .quadrature import (
    adaptive_gauss,
    gauss_legendre,
    geometric_panels,
    panelize,
)
from .ode import integrate_ode
from .bessel import bessel_k
from .eigensolve import SparseSymmetricPair, lowest_eigenpairs

__all__ = [
    "adaptive_gauss",
    "gauss_legendre",
    "geometric_panels",
    "panelize",
    "integrate_ode",
    "bessel_k",
    "SparseSymmetricPair",
    "lowest_eigenpairs",
]
