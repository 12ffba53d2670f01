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

import time
from array import array
from dataclasses import dataclass
from itertools import islice

import numpy as np

# Rng24 is unused here, but the benchmark's tracer counts its calls through
# this module's name; without the name that metric would be dropped instead
# of reading an exact 0.
from .metropolis import Rng24, exact_accept, rand24_stream, stream_seed, unit_stream  # noqa: F401
from .qubo import (
    QuboMatrix,
    evaluate_cost,
    flip_deltas,
    flip_one,
    initial_state,
    local_fields,
    max_flip_delta,
    state_cost,
)
from .result import RunResult

#: Stream index for a sequential solver's single decision stream.
DECISION_STREAM = 1 << 33

#: Visits between two reads of the clock when ``sequential_sa`` has a deadline.
DEADLINE_VISITS = 256


@dataclass(frozen=True)
class CoolingSchedule:
    """Real-valued geometric cooling ``T(sweep) = max(t_min, t0 * alpha^sweep)``.

    ``t0 = None`` derives the start from the initial state as
    ``max_i |q_ii + 2 z_i|`` (same convention as the parallel solver).
    ``t_min`` must stay strictly positive because the exact Metropolis test
    is undefined at zero temperature. The default floor keeps a trickle of
    unit-uphill moves alive (accept chance e^-2 per visit) so long runs can
    leave local minima instead of freezing.
    """

    t0: float | None = None
    alpha: float = 0.95
    t_min: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.t_min <= 0.0:
            raise ValueError("t_min must be > 0")
        if self.t0 is not None and self.t0 <= 0.0:
            raise ValueError("t0 must be > 0")

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
    sweeps: int | None = None,
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
    at a time. With ``max_seconds`` the clock is read before every
    :data:`DEADLINE_VISITS` visits, so a run stops at most that many visits
    after its deadline; ``steps`` and ``flips_per_step`` count completed
    sweeps only, while a better state found in a sweep that was cut short
    still counts as the best.
    """
    if q.n == 0:
        raise ValueError("cannot anneal zero variables")
    if sweeps is None and max_seconds is None:
        raise ValueError("need sweeps and/or max_seconds")
    if sweeps is not None and sweeps < 0:
        raise ValueError(f"sweeps must be non-negative, got {sweeps}")
    n = q.n
    x, z = initial_state(q, seed, init)
    cost = state_cost(q, x, z)
    best_cost = cost
    best_x = x.copy()
    stream = stream_seed(seed, DECISION_STREAM)
    if schedule is None:
        schedule = CoolingSchedule()
    if schedule.t0 is None:
        t0 = float(max(1, max_flip_delta(q, z)))
        schedule = CoolingSchedule(t0=t0, alpha=schedule.alpha, t_min=schedule.t_min)
    order = list(range(n))
    # Fisher-Yates position k is drawn below k + 1, for k = n-1 down to 1.
    bounds = np.arange(n, 1, -1, dtype=np.int64)
    slots = range(n - 1, 0, -1)
    diag = q.diag.tolist()
    log: list[Decision] | None = [] if record_decisions else None
    # 8 bytes per sweep, not one Python int object per entry
    flips_hist = array("q")
    t_start = time.perf_counter()
    deadline = None if max_seconds is None else t_start + max_seconds
    chunk = n if deadline is None else DEADLINE_VISITS
    sweep = 0
    while True:
        if sweeps is not None and sweep >= sweeps:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if target_cost is not None and best_cost <= target_cost:
            break
        temp = schedule.temperature(sweep)
        start = sweep * (2 * n - 1)
        positions = (rand24_stream(stream, n - 1, start) % bounds).tolist()
        for k, j in zip(slots, positions):
            order[k], order[j] = order[j], order[k]
        visits = zip(order, unit_stream(stream, n, start + n - 1).tolist())
        flips = 0
        cut = False
        for lo in range(0, n, chunk):
            if lo and time.perf_counter() >= deadline:
                cut = True
                break
            for i, u in islice(visits, chunk):
                d = diag[i] + 2 * int(z[i])
                dc = -d if x[i] else d
                ok = exact_accept(dc, temp, u)
                if log is not None:
                    log.append(Decision(sweep, i, dc, temp, u, ok))
                if ok:
                    flip_one(q, x, z, i)
                    cost += dc
                    flips += 1
                    if cost < best_cost:
                        best_cost = cost
                        best_x = x.copy()
        if cut:
            break
        flips_hist.append(flips)
        sweep += 1
    return RunResult(
        best_cost=best_cost,
        best_assignment=best_x,
        steps=sweep,
        elapsed_s=time.perf_counter() - t_start,
        flips_per_step=np.array(flips_hist, dtype=np.int64),
        decision_log=log,
    )


def tabu_search(
    q: QuboMatrix,
    seed: int,
    *,
    sweeps: int | None = None,
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
    disable. Deterministic per (seed, config).

    The deltas are kept across sweeps, not recomputed: a move patches them
    over the flipped variable's adjacency row, O(degree), and picks with
    one ``argmin`` when the best move is not tabu or aspirates, plus one
    masked ``argmin`` otherwise. Restart r redraws the state from draws
    ``r*n`` to ``(r+1)*n - 1`` of the decision stream in one vectorised
    call, bit-identical to drawing them one at a time.
    """
    if q.n == 0:
        raise ValueError("cannot search zero variables")
    if sweeps is None and max_seconds is None:
        raise ValueError("need sweeps and/or max_seconds")
    if sweeps is not None and sweeps < 0:
        raise ValueError(f"sweeps must be non-negative, got {sweeps}")
    if tenure is None:
        tenure = max(7, q.n // 10)
    if tenure < 1:
        raise ValueError(f"tenure must be >= 1, got {tenure}")
    if restart_after is not None and restart_after < 1:
        raise ValueError(f"restart_after must be >= 1, got {restart_after}")
    n = q.n
    x, z = initial_state(q, seed, init)
    cost = state_cost(q, x, z)
    # dc[j] is the cost change of flipping j, patched per move over the
    # flipped variable's adjacency row; sign[j] = 1 - 2 x_j.
    dc = flip_deltas(q, x, z)
    sign = 1 - 2 * x.astype(np.int64)
    best_cost = cost
    best_x = x.copy()
    tabu_until = np.full(n, -1, dtype=np.int64)
    big = np.iinfo(np.int64).max
    stream = stream_seed(seed, DECISION_STREAM)
    adj_ptr, adj_j, adj_q = q.adj_ptr.tolist(), q.adj_j, q.adj_q
    restarts = 0
    last_improve = 0
    t_start = time.perf_counter()
    deadline = None if max_seconds is None else t_start + max_seconds
    sweep = 0
    while True:
        if sweeps is not None and sweep >= sweeps:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if target_cost is not None and best_cost <= target_cost:
            break
        if restart_after is not None and sweep - last_improve >= restart_after:
            # Restart r redraws x from draws r*n .. (r+1)*n - 1 of the stream.
            x[:] = rand24_stream(stream, n, restarts * n) >> 23
            restarts += 1
            z = local_fields(q, x)
            cost = evaluate_cost(q, x)
            dc = flip_deltas(q, x, z)
            sign = 1 - 2 * x.astype(np.int64)
            tabu_until[:] = -1
            last_improve = sweep
        # The first best move g is the choice when it is not tabu, or when it
        # aspirates (as does every variable tied with it).
        g = int(dc.argmin())
        if tabu_until[g] < sweep or dc[g] < best_cost - cost:
            i = g
        else:
            # Nothing aspirates: the first best move that is not tabu. The
            # masked argmin lands on a tabu move only when every move is tabu
            # (possible only when tenure >= n); then g is the fallback.
            i = int(np.where(tabu_until >= sweep, big, dc).argmin())
            if tabu_until[i] >= sweep:
                i = g
        cost += int(dc[i])
        dc[i] = -dc[i]
        x[i] ^= 1
        sign[i] = -sign[i]
        lo, hi = adj_ptr[i], adj_ptr[i + 1]
        if lo != hi:
            # Neighbour j's delta moves by 2 q_ij (1 - 2 x_j), added when i
            # turned on and subtracted when it turned off.
            js = adj_j[lo:hi]
            patch = adj_q[lo:hi] * sign[js]
            patch += patch
            if x[i]:
                dc[js] += patch
            else:
                dc[js] -= patch
        tabu_until[i] = sweep + tenure
        if cost < best_cost:
            best_cost = cost
            best_x = x.copy()
            last_improve = sweep
        sweep += 1
    return RunResult(
        best_cost=best_cost,
        best_assignment=best_x,
        steps=sweep,
        elapsed_s=time.perf_counter() - t_start,
    )


__all__ = [
    "CoolingSchedule",
    "Decision",
    "sequential_sa",
    "tabu_search",
]
