"""Exact symbolic tools for the 17-dimensional superalgebra D(2,1;alpha)
realized inside the Poisson superalgebra of pseudodifferential symbols on
the supercircle of dimension 1|2: brackets, weight-zero cohomology blocks,
cup products, formal deformations and the h-deformed (star-product) analogue.
"""

from .scalars import ALPHA, AlphaPoly, PoleError, Scalar
from .symbols import (
    MixedParityError,
    SuperVectorField,
    Symbol,
    euler_field,
    hamiltonian_field,
)

__all__ = [
    "ALPHA",
    "AlphaPoly",
    "MixedParityError",
    "PoleError",
    "Scalar",
    "SuperVectorField",
    "Symbol",
    "euler_field",
    "hamiltonian_field",
]

__version__ = "0.1.0"
