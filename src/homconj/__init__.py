"""Numerical toolkit for conjugating homeomorphisms by gated Picard iteration.

The package estimates a weighted-displacement premetric on groups of
homeomorphisms, checks the generalized eigenvalue gate that turns the
conjugacy operator h -> f∘h∘g^-1 into a contraction, and iterates that
operator to compute conjugating maps, with an increment-envelope monitor
and a worked half-line contraction family exercising the whole pipeline.
Each module's ``__all__`` is the package's export list for it.
"""

__version__ = "0.1.0"

from .conjugacy import *
from .families import *
from .funcspace import *
from .homspace import *
from .koopman import *
