"""Common result record returned by every solver, and the stop rule they share."""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass(eq=False)
class RunResult:
    """Outcome of one solver run.

    ``best_cost`` is the lowest exact cost observed and ``best_assignment``
    the bit vector that achieved it. ``steps`` counts solver steps (parallel
    network steps, or sweeps for the sequential baselines). Equality compares
    everything except ``elapsed_s``: two runs of a deterministic solver with
    the same seed are the same result even though wall time never repeats.
    """

    best_cost: int
    best_assignment: np.ndarray
    steps: int
    elapsed_s: float
    flips_per_step: np.ndarray | None = None
    decision_log: list | None = field(default=None, repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunResult):
            return NotImplemented
        return (
            self.best_cost == other.best_cost
            and np.array_equal(self.best_assignment, other.best_assignment)
            and self.steps == other.steps
            and _opt_array_equal(self.flips_per_step, other.flips_per_step)
            and self.decision_log == other.decision_log
        )


def _opt_array_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a, b)


def is_number(value, kind=numbers.Integral) -> bool:
    """Whether ``value`` is a number of ``kind``, an integer unless told
    otherwise (a NumPy integer is one); a ``bool`` is a flag, never a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


class Budget:
    """The stop rule every solver shares: a step cap, a deadline, a target cost.

    Building it validates the budget and starts the clock, so a solver builds
    it where its timed span begins. The clock, ``time.perf_counter``, is
    looked up at each read.
    """

    def __init__(self, max_steps=None, max_seconds=None, target_cost=None):
        if max_steps is None and max_seconds is None:
            raise ValueError("need max_steps and/or max_seconds")
        if max_steps is not None and not is_number(max_steps):
            raise ValueError(f"max_steps must be an integer, got {max_steps!r}")
        if max_steps is not None and max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {max_steps}")
        if max_seconds is not None and not max_seconds >= 0:
            raise ValueError(f"max_seconds must be non-negative, got {max_seconds}")
        self.max_steps, self.target_cost = max_steps, target_cost
        self.start = time.perf_counter()
        self.deadline = None if max_seconds is None else self.start + max_seconds

    def done(self, steps: int, best_cost: int) -> bool:
        """Whether to stop before the next step: step cap, deadline, then target."""
        return (
            (self.max_steps is not None and steps >= self.max_steps)
            or self.expired()
            or (self.target_cost is not None and best_cost <= self.target_cost)
        )

    def expired(self) -> bool:
        return self.deadline is not None and time.perf_counter() >= self.deadline

    def result(self, best_cost, best_assignment, steps, **extra) -> RunResult:
        """The run's result, with ``elapsed_s`` measured from the budget's start."""
        elapsed = time.perf_counter() - self.start
        return RunResult(best_cost, best_assignment, steps, elapsed, **extra)


__all__ = ["RunResult"]
