"""Concave generators and the quasi-Banach function spaces they induce.

The package models even concave generators (integrals of positive
decreasing densities with an integrable singularity at the origin), the
function spaces built from their modulars on finite measure-space models,
the Luxemburg quasi-norm, the complementary generator obtained by
conjugating the inverse, and the atomic/non-atomic dichotomy of the dual:
coefficient functionals on atoms versus the support-halving construction
that kills every bounded-kernel functional on the non-atomic model.
"""

from . import calculus, dual, errors, families, measure, space, suite
from .calculus import *
from .dual import *
from .errors import *
from .families import *
from .measure import *
from .space import *
from .suite import *

__version__ = "0.1.0"

__all__ = [
    *calculus.__all__,
    *dual.__all__,
    *errors.__all__,
    *families.__all__,
    *measure.__all__,
    *space.__all__,
    *suite.__all__,
]
