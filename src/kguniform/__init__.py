"""Uniformly accurate exponential integrators for the cubic Klein-Gordon
equation on the torus, valid from c = 1 up to the Schroedinger limit.

The public names are each module's __all__."""

from .spectral import *  # noqa: F403
from .model import *  # noqa: F403
from .integrators import *  # noqa: F403
from .harness import *  # noqa: F403

__version__ = "0.1.0"
