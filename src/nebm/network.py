"""Parallel annealing network of binary neurons with refractory periods.

Every neuron applies the integer Metropolis test to its own flip at every
step, simultaneously, using only its pre-step flip magnitude
``h_i = q_ii + 2 z_i``, the cost change ``+-h_i`` of its flip. Unconditional
parallel flips would let coupled neighbours oscillate; here the damping is
stochastic instead of structural: a neuron that flips draws a refractory
duration uniform on ``[r_min, r_max]`` from its private stream and sits out
that many subsequent steps (kept as the step its lockout ends), so tightly
coupled neighbours quickly desynchronise. No neuron ever waits on another
inside a step, which is what makes the update rule embarrassingly parallel.

Cost observation is pipelined two steps deep: the cost emitted at step ``t``
is the exact cost of the assignment held after step ``t - 2`` (each neuron
reports ``x_i (h_i + q_ii)``, twice its local term, once the step's flips
are committed; the integrator's halved sum passes through a two-step delay).
The network keeps no assignment but the live one: :func:`solve_qubo` copies
the best state as the run reaches it, and stops on what the probe emits.
Annealing runs directly on the integer temperature ``t_hat``: the schedule
updates it in integer arithmetic every ``refresh_every`` steps (multiply by
an exact ratio, floor), so no float rounding ever touches the acceptance
test.

Determinism: all randomness comes from per-neuron counter streams derived
from the run seed, advanced only by that neuron's own decisions, so a run
is a pure function of ``(problem, seed, config)``, and within a step no
decision depends on the order in which neurons are visited.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .metropolis import advance24_array, fixed_accept_array, peek24_array, stream_seed_array
# The step no longer calls clz24_array; the name stays bound here so that a
# span on ``nebm.network.clz24_array`` still exists, and reads 0.
from .metropolis import clz24_array  # noqa: F401
from .qubo import QuboMatrix, derived_t0, initial_state, padded_rows
# The commit kernel without apply_flips' input checks, which a step's own flip
# set always passes; it keeps the public name, so a span on
# ``nebm.network.apply_flips`` still wraps every commit.
from .qubo import _commit_flips as apply_flips
from .result import Budget, RunResult, is_number

#: Largest temperature or lockout setting, ``(2^63 - 1) // 24``. It was set
#: so that a decide forming ``t_hat * clz`` in ``int64`` could not wrap; the
#: threshold decide forms no such product, and the limit stays so that the
#: accepted settings do not change.
_SETTING_LIMIT = (2**63 - 1) // 24


def _check_integers(obj, **lows) -> None:
    """Refuse each field ``name=low`` of the frozen ``obj`` that is neither
    ``None`` (a derived ``t0``) nor an integer in ``[low, _SETTING_LIMIT]``;
    store the integers back as Python ints."""
    for name, low in lows.items():
        value = getattr(obj, name)
        if value is None:
            continue
        if not (is_number(value) and low <= value <= _SETTING_LIMIT):
            raise ValueError(f"{name} must be an integer in [{low}, {_SETTING_LIMIT}], "
                             f"got {value!r}")
        object.__setattr__(obj, name, int(value))


@dataclass(frozen=True)
class RefractoryPolicy:
    """Uniform refractory duration range, in steps.

    A flipped neuron skips its next ``d`` steps, ``d`` drawn uniformly from
    ``[r_min, r_max]``. ``r_min = r_max`` gives a deterministic period;
    ``(0, 0)`` disables refractoriness entirely (plain parallel updates).
    """

    r_min: int = 1
    r_max: int = 8

    def __post_init__(self):
        _check_integers(self, r_min=0, r_max=self.r_min)

    @property
    def span(self) -> int:
        return self.r_max - self.r_min + 1


@dataclass(frozen=True)
class GeometricSchedule:
    """Integer cooling ``t_hat <- max(t_min, floor(t_hat * alpha))`` per refresh.

    ``alpha`` is kept as an exact fraction so the floor is computed in pure
    integer arithmetic. ``t0 = None`` derives the start value from the
    network's initial state as ``max_i |h_i| >> 3``
    (:func:`~nebm.qubo.derived_t0`): the largest flip magnitude anywhere at
    step zero then passes with probability about 2^-9, not the 1/4 of
    ``t_hat = max_i |h_i|``, so a run starts near the scale of the moves
    that matter instead of spending its steps cooling off. The derived value
    is 0 where ``max_i |h_i| < 8``: the run is greedy until the first
    refresh lifts ``t_hat`` to ``t_min``.

    The default floor is 1, not 0: at ``t_hat = 1`` a unit-uphill move still
    passes whenever the 24-bit draw starts with enough leading zeros, so a
    long run keeps hopping between near-optimal states instead of freezing
    into the first maximal one it reaches. Set ``t_min = 0`` for a schedule
    that becomes strictly greedy once cooled.
    """

    t0: int | None = None
    alpha: Fraction = Fraction(19, 20)
    refresh_every: int = 10
    t_min: int = 1

    def __post_init__(self):
        alpha = Fraction(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        _check_integers(self, t0=0, refresh_every=1, t_min=0)

    def next_t_hat(self, t_hat: int) -> int:
        scaled = (t_hat * self.alpha.numerator) // self.alpha.denominator
        return max(self.t_min, scaled)


class Network:
    """Struct-of-arrays state of the parallel annealer.

    Built by :func:`network_from_qubo`; advanced by :meth:`step`, which
    :func:`solve_qubo` drives to a budget. The two-step observation pipeline
    holds ``cost_live``, the cost of ``x``, ``cost_prev1``, the cost one step
    earlier, and ``cost_emitted``, the probe's latest output, the cost two
    steps earlier; primed with the initial state, the first two emitted
    costs both report the initial assignment. Neuron ``i`` is locked out of
    every step before the one numbered ``ready[i]``, except that for the
    neurons in ``owed`` ``ready`` is a lower bound: under ``r_min >= 1`` a
    neuron that flipped in the last step is locked out of the next one
    whatever its draw, so its lockout draw waits for that step's draw call
    and ``ready`` holds ``step + 1 + r_min`` until then. Their
    ``rng_state`` words have not yet taken that draw; :attr:`refractory`
    counts it in without advancing any stream.
    ``rows`` is ``q``'s :func:`~nebm.qubo.padded_rows` table, or ``None``
    where ``q``'s degrees are too uneven to pad, and ``price`` the probe,
    :func:`~nebm.qubo.initial_state`'s exact cost of a state.
    """

    def __init__(self, q, x, h, price, t_hat0, schedule, policy, rng_state, rows):
        self.q = q
        self.price = price
        self.rows = rows
        self.x = x
        self.h = h
        self.ready = np.zeros(q.n, dtype=np.int64)
        self.owed = np.zeros(0, dtype=np.int64)
        self.rng_state = rng_state
        self.schedule = schedule
        self.policy = policy
        self.step_count = 0
        self.t_hat = t_hat0
        self.cost_live = self.cost_prev1 = self.cost_emitted = price(q, x, h)

    @property
    def refractory(self) -> np.ndarray:
        """Steps each neuron still sits out, 0 for a free one (a new array)."""
        left = np.maximum(self.ready - self.step_count, 0)
        if self.owed.size:
            left[self.owed] += peek24_array(self.rng_state, self.owed) % self.policy.span
        return left

    def step(self) -> np.ndarray:
        """Advance every neuron one synchronous step; return the sorted
        ``int64`` indices of the neurons that flipped.

        The step's other facts stay on the network: ``step_count``,
        ``cost_emitted`` and the ``t_hat`` the next step will use.
        """
        policy = self.policy
        # Decision phase: one Metropolis test per neuron out of lockout, all
        # against the same pre-step state. Locked neurons draw nothing,
        # everyone else burns exactly one rand; ``flipped`` is sorted and
        # distinct because ``free`` is. The same call takes the lockout draws
        # owed by the last step's flips, none of which is free.
        free = (self.ready <= self.step_count).nonzero()[0]
        words = advance24_array(self.rng_state, np.concatenate((free, self.owed)))
        rands = words[:free.size]
        self.ready[self.owed] += words[free.size:] % policy.span
        # dc, each free neuron's cost change: its h, negated in place where
        # its bit is set.
        dc = self.h[free]
        np.negative(dc, out=dc, where=self.x[free].view(np.bool_))
        flipped = free[fixed_accept_array(dc, self.t_hat, rands)]

        # Commit phase: apply the flips, unchecked, then lock the neurons
        # that just fired out of the next r_min + draw % span steps. Under
        # r_min >= 1 the draw is owed to the next step; under r_min = 0 a
        # flipped neuron may be free at the next step, so it draws now.
        if flipped.size:
            apply_flips(self.q, self.x, self.h, flipped, self.rows)
            lock_end = self.step_count + 1 + policy.r_min
            if policy.r_min:
                self.ready[flipped] = lock_end
            else:
                self.ready[flipped] = (
                    lock_end + advance24_array(self.rng_state, flipped) % policy.span
                )
        if policy.r_min:
            self.owed = flipped

        # Observation: the integrator sums the per-neuron local terms of the
        # committed state once; the probe emits that sum two steps later.
        self.cost_emitted, self.cost_prev1 = self.cost_prev1, self.cost_live
        self.cost_live = self.price(self.q, self.x, self.h)
        self.step_count += 1

        if self.step_count % self.schedule.refresh_every == 0:
            self.t_hat = self.schedule.next_t_hat(self.t_hat)
        return flipped


def network_from_qubo(
    q: QuboMatrix,
    seed: int,
    *,
    schedule: GeometricSchedule | None = None,
    refractory: RefractoryPolicy | None = None,
    init="random",
) -> Network:
    """Wire a :class:`Network` for ``q`` with per-neuron streams from ``seed``.

    ``init`` is ``"random"`` (the default: one fair bit per neuron from a
    dedicated stream, so initialisation never perturbs decision streams),
    ``"zeros"``, or an explicit 0/1 vector. A schedule without ``t0`` starts
    at :func:`~nebm.qubo.derived_t0` of the initial flip magnitudes,
    ``max_i |h_i| >> 3``; a derived value above the setting limit is refused.
    """
    if q.n == 0:
        raise ValueError("cannot build a network with zero neurons")
    x, h, price = initial_state(q, seed, init)
    if schedule is None:
        schedule = GeometricSchedule()
    policy = refractory if refractory is not None else RefractoryPolicy()
    t_hat0 = derived_t0(h) if schedule.t0 is None else schedule.t0
    if t_hat0 > _SETTING_LIMIT:
        raise ValueError(f"the derived t0 = max|h| >> 3 = {t_hat0} exceeds {_SETTING_LIMIT}; "
                         "give t0 explicitly")
    rng_state = stream_seed_array(seed, np.arange(q.n, dtype=np.int64))
    return Network(q, x, h, price, t_hat0, schedule, policy, rng_state, padded_rows(q))


def solve_qubo(
    q: QuboMatrix,
    seed: int,
    *,
    max_steps: int | None = None,
    max_seconds: float | None = None,
    target_cost: int | None = None,
    schedule: GeometricSchedule | None = None,
    refractory: RefractoryPolicy | None = None,
    init="random",
    trace=None,
) -> RunResult:
    """Build the network for ``q`` and drive it until a budget or the target
    is hit; return the result.

    ``schedule``, ``refractory`` and ``init`` are :func:`network_from_qubo`'s.
    The stop rule is :class:`~nebm.result.Budget`'s, tested before each
    step, and ``elapsed_s`` starts after the network is built.
    The result holds the earliest state of least cost among every state the
    run passed through, the start included. ``target_cost`` stops as soon as
    the least cost the probe has emitted reaches it, so detection trails the
    state that hit the target by two steps.
    ``trace`` is an optional text sink receiving one
    ``"<step> <flips> <cost_emitted> <t_hat>"`` line per step.
    """
    net = network_from_qubo(q, seed, schedule=schedule, refractory=refractory, init=init)
    budget = Budget(max_steps, max_seconds, target_cost)
    best_x = net.x.copy()
    # ``seen`` is the least cost the probe has emitted, all the stop rule sees
    best_cost = seen = net.cost_live
    # 8 bytes per step, not one Python int object per entry
    flips = array("q")
    while not budget.done(net.step_count, seen):
        flipped = net.step()
        flips.append(flipped.size)
        if net.cost_live < best_cost:
            best_cost = net.cost_live
            np.copyto(best_x, net.x)
        seen = min(seen, net.cost_emitted)
        if trace is not None:
            trace.write(f"{net.step_count} {flipped.size} {net.cost_emitted} {net.t_hat}\n")
    return budget.result(
        best_cost, best_x, net.step_count,
        flips_per_step=np.array(flips, dtype=np.int64),
    )


__all__ = [
    "GeometricSchedule",
    "Network",
    "RefractoryPolicy",
    "network_from_qubo",
    "solve_qubo",
]
