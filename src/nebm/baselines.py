"""Sequential reference solvers: single-flip annealing and tabu search.

Both walk the same single-flip neighbourhood as the parallel network and
share its exact integer cost kernel, so cost columns are directly
comparable. The annealer is the conventional control arm: real-valued
temperature, true exponential in the Metropolis test, one variable at a
time with immediate propagation. Tabu search is the deterministic
counterpart: per sweep it flips the single best non-tabu move, uphill if
nothing improves, and blocks the flipped variable for ``tenure`` sweeps.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass
from itertools import islice

import numpy as np

# Rng24 is unused here, but the benchmark's tracer counts its calls through
# this module's name; without the name that metric would be dropped instead
# of reading an exact 0.
from .metropolis import (  # noqa: F401
    Rng24,
    _reject_bounds,
    exact_accept,
    rand24_stream,
    stream_seed,
    unit_stream,
)
from .qubo import (
    QuboMatrix,
    check_init,
    derived_t0,
    evaluate_cost,
    initial_state,
    local_fields,
)
from .result import Budget, RunResult, is_number

#: Stream index for a sequential solver's single decision stream.
DECISION_STREAM = 1 << 33

#: Visits between two reads of the clock when ``sequential_sa`` has a deadline.
DEADLINE_VISITS = 256


@dataclass(frozen=True)
class CoolingSchedule:
    """Real-valued geometric cooling ``T(sweep) = max(t_min, t0 * alpha^sweep)``.

    ``t0 = None`` derives the start from the initial state as
    ``max(1, max_i |h_i| >> 3)``, from the largest flip magnitude
    ``|q_ii + 2 z_i|``: the parallel solver's :func:`~nebm.qubo.derived_t0`,
    floored at 1.
    ``t0`` and ``t_min`` must be finite and strictly positive: the exact
    Metropolis test is undefined at zero temperature, and an infinite one
    passes every uphill move. The default floor keeps a trickle of
    unit-uphill moves alive (accept chance e^-2 per visit) so long runs can
    leave local minima instead of freezing.
    """

    t0: float | None = None
    alpha: float = 0.95
    t_min: float = 0.5

    def __post_init__(self):
        for name in ("t0", "alpha", "t_min"):
            value = getattr(self, name)
            if not (is_number(value, numbers.Real) or name == "t0" and value is None):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.t_min < math.inf:
            raise ValueError(f"t_min must be finite and > 0, got {self.t_min}")
        if self.t0 is not None and not 0.0 < self.t0 < math.inf:
            raise ValueError(f"t0 must be finite and > 0, got {self.t0}")

    def temperature(self, sweep: int) -> float:
        return max(self.t_min, self.t0 * self.alpha**sweep)


@dataclass(frozen=True)
class Decision:
    """One audited accept/reject: ``accepted == exact_accept(delta_c, temp, u)``."""

    sweep: int
    index: int
    delta_c: int
    temperature: float
    u: float
    accepted: bool


def sequential_sa(
    q: QuboMatrix,
    seed: int,
    *,
    max_steps: int | None = None,
    max_seconds: float | None = None,
    schedule: CoolingSchedule | None = None,
    init="random",
    target_cost: int | None = None,
    record_decisions: bool = False,
) -> RunResult:
    """Single-flip simulated annealing with the exact Boltzmann test.

    Each sweep visits every variable once in a fresh uniformly random order;
    each visit draws one uniform ``u`` and accepts iff
    ``exp(-delta_c / T) >= u`` (downhill moves always pass). Accepted flips
    take effect immediately, so later decisions in the same sweep see them.
    ``record_decisions`` attaches the full audit trail to the result.

    Sweep ``s`` takes draws ``s(2n-1)`` to ``(s+1)(2n-1) - 1`` of its
    decision stream: n-1 Fisher-Yates positions, then one ``u`` per visit.
    Both are drawn in one batch per sweep, bit-identical to drawing them one
    at a time. The same batch gives each ``u`` a bound a little above
    ``c = -T ln u`` (:func:`~nebm.metropolis._reject_bounds`), so a visit
    calls ``exact_accept`` only for an uphill ``delta_c`` at or below its
    bound, and every decision is still its. The stop rule is
    :class:`~nebm.result.Budget`'s, tested
    before each sweep and, for the deadline alone, again before every
    :data:`DEADLINE_VISITS` visits, so a run stops at most that many visits
    after its deadline. ``steps`` and ``flips_per_step`` count completed
    sweeps only, while a better state found in a sweep that was cut short
    still counts as the best.
    """
    if q.n == 0:
        raise ValueError("cannot anneal zero variables")
    n = q.n
    x, h, price = initial_state(q, seed, init)
    cost = price(q, x, h)
    best_cost = cost
    best_x = x.copy()
    # The visits read and write x and h through views of the same buffers,
    # a scalar access at a fraction of ndarray.item's cost.
    xv, hv = memoryview(x), memoryview(h)
    adj_ptr, adj_j, adj_w = q.adj_ptr.tolist(), q.adj_j, q.adj_w
    stream = stream_seed(seed, DECISION_STREAM)
    if schedule is None:
        schedule = CoolingSchedule()
    if schedule.t0 is None:
        t0 = float(max(1, derived_t0(h)))
        schedule = CoolingSchedule(t0=t0, alpha=schedule.alpha, t_min=schedule.t_min)
    order = list(range(n))
    # Fisher-Yates position k is drawn below k + 1, for k = n-1 down to 1.
    bounds = np.arange(n, 1, -1, dtype=np.int64)
    slots = range(n - 1, 0, -1)
    log: list[Decision] | None = [] if record_decisions else None
    # 8 bytes per sweep, not one Python int object per entry
    flips_hist = array("q")
    budget = Budget(max_steps, max_seconds, target_cost)
    sweep = 0
    while not budget.done(sweep, best_cost):
        temp = schedule.temperature(sweep)
        start = sweep * (2 * n - 1)
        draws = unit_stream(stream, 2 * n - 1, start)
        # A 24-bit draw is its unit draw's top 24 bits, floor(u 2^24).
        positions = ((draws[:n - 1] * 2.0**24).astype(np.int64) % bounds).tolist()
        for k, j in zip(slots, positions):
            order[k], order[j] = order[j], order[k]
        units = draws[n - 1:]
        visits = zip(order, units.tolist(), _reject_bounds(temp, units))
        flips = 0
        cut = False
        for lo in range(0, n, DEADLINE_VISITS):
            if lo and budget.expired():
                cut = True
                break
            for i, u, reject_above in islice(visits, DEADLINE_VISITS):
                d = hv[i]
                dc = -d if xv[i] else d
                # Downhill passes and a move above its bound fails without
                # exp; exact_accept decides the uphill moves at or below it.
                ok = dc <= 0 or (dc <= reject_above and exact_accept(dc, temp, u))
                if log is not None:
                    log.append(Decision(sweep, i, dc, temp, u, ok))
                if ok:
                    # Flip i and move each neighbour's h by its synaptic
                    # weight, added when i turned on, subtracted when off.
                    xv[i] ^= 1
                    lo, hi = adj_ptr[i], adj_ptr[i + 1]
                    if lo != hi:
                        if xv[i]:
                            h[adj_j[lo:hi]] += adj_w[lo:hi]
                        else:
                            h[adj_j[lo:hi]] -= adj_w[lo:hi]
                    cost += dc
                    flips += 1
                    if cost < best_cost:
                        best_cost = cost
                        best_x = x.copy()
        if cut:
            break
        flips_hist.append(flips)
        sweep += 1
    return budget.result(
        best_cost, best_x, sweep,
        flips_per_step=np.array(flips_hist, dtype=np.int64), decision_log=log,
    )


def check_tabu(tenure=None, restart_after=None, init="random") -> None:
    """Refuse :func:`tabu_search` settings that no instance takes: a
    ``tenure`` or ``restart_after`` that is neither None nor an integer
    >= 1, or an ``init`` that :func:`~nebm.qubo.check_init` refuses."""
    check_init(init)
    for name, value in (("tenure", tenure), ("restart_after", restart_after)):
        if value is not None and not (is_number(value) and value >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def tabu_search(
    q: QuboMatrix,
    seed: int,
    *,
    max_steps: int | None = None,
    max_seconds: float | None = None,
    tenure: int | None = None,
    restart_after: int | None = 400,
    init="random",
    target_cost: int | None = None,
) -> RunResult:
    """Deterministic single-flip tabu search with stagnation restarts.

    Per sweep: evaluate the exact delta of every variable, flip the most
    negative among the allowed ones (lowest index on ties), uphill when
    nothing improves, then mark the flipped variable tabu for ``tenure``
    sweeps. A tabu move is allowed anyway when it would beat the global
    best (aspiration). After ``restart_after`` sweeps without a new global
    best the state is redrawn and the tabu list cleared; pass None to
    disable. Deterministic per (seed, config). The stop rule is
    :class:`~nebm.result.Budget`'s, tested before each sweep.

    The deltas are kept across sweeps, not recomputed: a move patches them
    over the flipped variable's adjacency row, O(degree), and picks with
    one ``argmin`` when the best move is not tabu or aspirates. Otherwise
    it picks with ``maximum(dc, blocked).argmin()``, where ``blocked`` is
    the tabu set kept as a mask: each move blocks its variable, and each
    sweep unblocks the one move whose tenure has just ended. Restart r
    redraws the state from draws ``r*n`` to ``(r+1)*n - 1`` of the
    decision stream in one vectorised call, bit-identical to drawing them
    one at a time.
    """
    if q.n == 0:
        raise ValueError("cannot search zero variables")
    check_tabu(tenure, restart_after)
    if tenure is None:
        tenure = max(7, q.n // 10)
    n = q.n
    x, h, price = initial_state(q, seed, init)
    cost = price(q, x, h)
    # dc[j] = sign[j] * h_j is the cost change of flipping j, patched per
    # move over the flipped variable's adjacency row; sign[j] = 1 - 2 x_j.
    sign = 1 - 2 * x.astype(np.int64)
    dc = sign * h
    best_cost = cost
    best_x = x.copy()
    # tabu_until[j] is the last sweep at which j is tabu. blocked mirrors the
    # tabu set for the masked pick, int64 max on a tabu move and int64 min
    # elsewhere, so maximum(dc, blocked) is dc with every tabu move masked.
    # unblock[s] is the variable that is free again from sweep s. It keeps
    # only each variable's latest move, so it holds at most
    # min(n, tenure + 1) entries however long the run.
    tabu_until = [-1] * n
    free, tabu = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    blocked = np.full(n, free, dtype=np.int64)
    unblock = {}
    stream = stream_seed(seed, DECISION_STREAM)
    adj_ptr, adj_j, adj_w = q.adj_ptr.tolist(), q.adj_j, q.adj_w
    # Scalar reads and writes go through views of the same buffers, so every
    # array below is updated in place and never rebound.
    xv, dcv, sv, bv = memoryview(x), memoryview(dc), memoryview(sign), memoryview(blocked)
    restarts = 0
    last_improve = 0
    budget = Budget(max_steps, max_seconds, target_cost)
    sweep = 0
    while not budget.done(sweep, best_cost):
        if restart_after is not None and sweep - last_improve >= restart_after:
            # Restart r redraws x from draws r*n .. (r+1)*n - 1 of the stream.
            x[:] = rand24_stream(stream, n, restarts * n) >> 23
            restarts += 1
            cost = evaluate_cost(q, x)
            sign[:] = 1 - 2 * x.astype(np.int64)
            dc[:] = sign * (q.diag + 2 * local_fields(q, x))
            tabu_until = [-1] * n
            blocked.fill(free)
            unblock.clear()
            last_improve = sweep
        expired = unblock.pop(sweep, None)
        if expired is not None:
            bv[expired] = free
        # The first best move g is the choice when it is not tabu, or when it
        # aspirates (as does every variable tied with it).
        g = int(dc.argmin())
        if tabu_until[g] < sweep or dcv[g] < best_cost - cost:
            i = g
        else:
            # Nothing aspirates: the first best move that is not tabu. The
            # masked argmin lands on a tabu move only when every move is tabu
            # (possible only when tenure >= n); then g is the fallback.
            i = int(np.maximum(dc, blocked).argmin())
            if tabu_until[i] >= sweep:
                i = g
        d = dcv[i]
        cost += d
        dcv[i] = -d
        xv[i] ^= 1
        sv[i] = -sv[i]
        lo, hi = adj_ptr[i], adj_ptr[i + 1]
        if lo != hi:
            # Neighbour j's delta moves by 2 q_ij (1 - 2 x_j), added when i
            # turned on and subtracted when it turned off.
            js = adj_j[lo:hi]
            patch = adj_w[lo:hi] * sign[js]
            if xv[i]:
                dc[js] += patch
            else:
                dc[js] -= patch
        # A move of a variable that is still tabu replaces its pending unblock.
        unblock.pop(tabu_until[i] + 1, None)
        tabu_until[i] = sweep + tenure
        unblock[sweep + tenure + 1] = i
        bv[i] = tabu
        if cost < best_cost:
            best_cost = cost
            best_x = x.copy()
            last_improve = sweep
        sweep += 1
    return budget.result(best_cost, best_x, sweep)


__all__ = [
    "CoolingSchedule",
    "Decision",
    "sequential_sa",
    "tabu_search",
]
