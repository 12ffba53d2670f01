"""Parallel annealing QUBO solver with baselines and a MIS benchmark harness.

The solver is a network of binary stochastic neurons: every neuron runs an
integer-only Metropolis test on its own flip each step (24-bit draws, a
count-leading-zeros surrogate for the log of the uniform), all in parallel,
with randomized refractory lockouts damping the oscillations that naive
parallel flips would cause. Exact integer cost accounting, two sequential
reference solvers, an Erdos-Renyi MIS instance generator with an exact
small-instance oracle, and a gap-metric benchmarking harness round it out.

Each module's ``__all__`` states what it exports; the package API is their
union, and every other name stays importable from its module.
"""

from . import baselines, bench, metropolis, mis, network, qubo, result
from .baselines import *  # noqa: F403
from .bench import *  # noqa: F403
from .metropolis import *  # noqa: F403
from .mis import *  # noqa: F403
from .network import *  # noqa: F403
from .qubo import *  # noqa: F403
from .result import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (baselines, bench, metropolis, mis, network, qubo, result)
    for name in module.__all__
]
