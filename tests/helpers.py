"""Shared test utilities: dense and scalar reference models, instance factories."""

import time
from array import array
from fractions import Fraction

import numpy as np

from nebm import (
    CoolingSchedule,
    QuboMatrix,
    RunResult,
    Rng24,
    build_qubo,
    evaluate_cost,
    exact_accept,
    fixed_accept,
    local_fields,
    network_from_qubo,
    solve_qubo,
)
from nebm.baselines import DECISION_STREAM, Decision
from nebm.metropolis import stream_seed
from nebm.qubo import initial_state


def upper_triplets(q: QuboMatrix) -> list[tuple[int, int, int]]:
    """The off-diagonals as ``(i, j, q_ij)`` with ``i < j``, in ``(i, j)``
    order, read row by row from the adjacency (``q_ij = adj_w / 2``)."""
    out = []
    for i in range(q.n):
        lo, hi = int(q.adj_ptr[i]), int(q.adj_ptr[i + 1])
        out += [(i, j, w // 2)
                for j, w in zip(q.adj_j[lo:hi].tolist(), q.adj_w[lo:hi].tolist()) if j > i]
    return out


def dense_matrix(q: QuboMatrix) -> np.ndarray:
    """Full symmetric n x n matrix equivalent of a sparse instance, read
    from both orientations of the adjacency."""
    m = np.diag(q.diag.astype(np.int64))
    for i in range(q.n):
        lo, hi = int(q.adj_ptr[i]), int(q.adj_ptr[i + 1])
        m[i, q.adj_j[lo:hi]] = q.adj_w[lo:hi] // 2
    return m


def dense_cost(q: QuboMatrix, x) -> int:
    """Reference x^T Q x straight from the dense matrix, the entries of its
    set rows and columns summed in Python ints: exact for every cost."""
    on = np.asarray(x).astype(bool)
    return sum(dense_matrix(q)[np.ix_(on, on)].ravel().tolist())


def dense_fields(q: QuboMatrix, x) -> np.ndarray:
    """Reference local fields from the dense matrix, diagonal zeroed."""
    m = dense_matrix(q)
    np.fill_diagonal(m, 0)
    return m @ np.asarray(x, dtype=np.int64)


def padded_table(q: QuboMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``qubo.padded_rows``' table built row by row, for any degrees: each
    synapse row in order, then pad slots of the row's own index, weight 0."""
    deg = np.diff(q.adj_ptr)
    d = int(deg.max()) if q.n else 0
    cols = np.zeros((q.n, d), dtype=np.int64)
    ws = np.zeros((q.n, d), dtype=np.int64)
    for i in range(q.n):
        lo, hi = int(q.adj_ptr[i]), int(q.adj_ptr[i + 1])
        cols[i] = i
        cols[i, : hi - lo] = q.adj_j[lo:hi]
        ws[i, : hi - lo] = q.adj_w[lo:hi]
    return cols, ws


def flip_magnitudes(q: QuboMatrix, x) -> np.ndarray:
    """Reference flip magnitudes ``h = q_ii + 2 z_i`` from a full
    ``local_fields`` recompute."""
    return q.diag + 2 * local_fields(q, x)


def flip_one(q: QuboMatrix, x: np.ndarray, h: np.ndarray, i: int) -> None:
    """Toggle variable ``i`` in place and patch ``h`` over its adjacency row:
    the scalar single-flip reference for ``apply_flips`` and the annealer's
    inline flip. ``i`` must be a valid index."""
    x[i] ^= 1
    lo, hi = q.adj_ptr.item(i), q.adj_ptr.item(i + 1)
    if lo == hi:
        return
    if x.item(i):
        h[q.adj_j[lo:hi]] += q.adj_w[lo:hi]
    else:
        h[q.adj_j[lo:hi]] -= q.adj_w[lo:hi]


def random_qubo(rng: np.random.Generator, n: int, density: float = 0.3,
                lo: int = -128, hi: int = 127) -> QuboMatrix:
    """Random symmetric integer instance with the given off-diagonal density."""
    return build_qubo(n, random_entries(rng, n, density, lo, hi))


def random_entries(rng: np.random.Generator, n: int, density: float = 0.3,
                   lo: int = -128, hi: int = 127) -> list[tuple[int, int, int]]:
    """:func:`random_qubo`'s input: every diagonal, then each non-zero
    off-diagonal once as ``(i, j, q_ij)`` with ``i < j``, in ``(i, j)`` order."""
    entries = []
    for i in range(n):
        entries.append((i, i, int(rng.integers(lo, hi + 1))))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                v = int(rng.integers(lo, hi + 1))
                if v:
                    entries.append((i, j, v))
    return entries


def reference_build_qubo(n: int, entries) -> dict:
    """``build_qubo`` one triplet at a time over dicts: every array of its
    :class:`QuboMatrix` as a list, or the ``ValueError`` it raises."""
    diag = [0] * n
    pairs = {}  # (lo, hi) -> [sum, given as i < j, given as i > j]
    for i, j, c in entries:
        if i == j:
            diag[i] += c
            continue
        p = pairs.setdefault((min(i, j), max(i, j)), [0, False, False])
        p[0] += c
        p[1 if i < j else 2] = True
    for k, total in enumerate(diag):
        if not -(2**63) <= total < 2**63:
            raise ValueError(f"diagonal entry {k} sums to {total}, outside int64")
    off = {}
    for pair in sorted(pairs):
        total, upper, lower = pairs[pair]
        if upper and lower:
            if total % 2:
                raise ValueError(
                    f"entries for pair {pair} sum to {total}; "
                    "the symmetric mean is not an integer"
                )
            total //= 2
        if total:
            off[pair] = total
    for pair, v in off.items():
        if not -(2**63) <= 2 * v < 2**63:
            raise ValueError(
                f"entry for pair {pair} sums to {v}; "
                "its synaptic weight 2 * q_ij is outside int64"
            )
    rows = [[] for _ in range(n)]
    for (i, j), v in off.items():
        rows[i].append((j, v))
        rows[j].append((i, v))
    for k, row in enumerate(rows):
        for sign, total in (("positive", sum(v for _, v in row if v > 0)),
                            ("negative", sum(v for _, v in row if v < 0))):
            if not -(2**63) <= total < 2**63:
                raise ValueError(f"row {k}'s {sign} off-diagonals sum to {total}; "
                                 "its local field can leave int64")
    adj = [nv for row in rows for nv in sorted(row)]
    adj_ptr = [0]
    for row in rows:
        adj_ptr.append(adj_ptr[-1] + len(row))
    return {
        "diag": diag,
        "adj_ptr": adj_ptr,
        "adj_j": [j for j, _ in adj],
        "adj_w": [2 * v for _, v in adj],
    }


def reference_accept_probability(delta_c: int, t_hat: int) -> Fraction:
    """``fixed_accept_probability`` term by term: of the ``2^24`` equally
    likely draws, the zero word always accepts, and the ``2^(23-k)`` words
    with ``clz = k`` accept iff ``t_hat * k > delta_c``."""
    accepted = 1  # the rand == 0 word
    for k in range(24):
        if t_hat * k > delta_c:
            accepted += 1 << (23 - k)
    return Fraction(accepted, 1 << 24)


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=n).astype(np.int8)


def brute_min_cost(q: QuboMatrix) -> int:
    """Exact minimum cost by full enumeration; keep n small."""
    assert q.n <= 16
    best = 0
    m = dense_matrix(q)
    for word in range(1 << q.n):
        x = np.array([(word >> k) & 1 for k in range(q.n)], dtype=np.int64)
        best = min(best, int(x @ m @ x))
    return best


class ScalarMirror:
    """Reference stepper: same seed wiring, none of the array machinery.

    Plain Python loops, one scalar generator per neuron and full-recompute
    fields. ``step(order)`` runs its decide and arm loops in the given
    visit order (ascending by default); every neuron decides against the
    fields of the step's start, so the order must not change anything.
    """

    def __init__(self, q, seed, schedule, policy, init_x):
        self.q = q
        self.x = [int(v) for v in init_x]
        self.refractory = [0] * q.n
        self.rngs = [Rng24(stream_seed(seed, i)) for i in range(q.n)]
        self.schedule = schedule
        self.policy = policy
        self.t_hat = self._derived_t0() if schedule.t0 is None else int(schedule.t0)
        self.history = [list(self.x)]
        self.step_count = 0

    def _derived_t0(self):
        # The largest flip magnitude of the start, shifted right by 3.
        z = local_fields(self.q, np.array(self.x, dtype=np.int8))
        return max(abs(int(self.q.diag[i]) + 2 * int(z[i])) for i in range(self.q.n)) >> 3

    def step(self, order=None):
        q = self.q
        if order is None:
            order = range(q.n)
        z = local_fields(q, np.array(self.x, dtype=np.int8))
        flips = []
        for i in order:
            if self.refractory[i] > 0:
                continue
            d = int(q.diag[i]) + 2 * int(z[i])
            dc = -d if self.x[i] else d
            rand = self.rngs[i].next24()
            if fixed_accept(dc, self.t_hat, rand):
                flips.append(i)
        for i in range(q.n):
            if self.refractory[i] > 0:
                self.refractory[i] -= 1
        for i in flips:
            self.x[i] ^= 1
            self.refractory[i] = (
                self.policy.r_min + self.rngs[i].next24() % self.policy.span
            )
        self.step_count += 1
        # Two-step pipeline: the probe at step s reports the state after
        # step s-2; the first two emissions both report the start.
        lagged = self.history[max(0, self.step_count - 2)]
        emitted = evaluate_cost(q, np.array(lagged, dtype=np.int8))
        self.history.append(list(self.x))
        if self.step_count % self.schedule.refresh_every == 0:
            self.t_hat = self.schedule.next_t_hat(self.t_hat)
        return sorted(flips), emitted


def mirror_check(q, seed, schedule, policy, steps, order_rng=None):
    """Step a network and a :class:`ScalarMirror` in lockstep, then check
    :func:`nebm.solve_qubo` against the mirror's history; return its result.

    Every step must agree on the flip set, the emitted cost, ``t_hat``,
    ``x``, the refractory counters and the flip magnitudes (against a full
    ``local_fields`` recompute). The same run through ``solve_qubo`` must
    report the same flip counts, the least cost over every visited state and
    the earliest state of that cost. With ``order_rng`` the mirror visits
    neurons in a fresh permutation each step.
    """
    net = network_from_qubo(q, seed, schedule=schedule, refractory=policy)
    mirror = ScalarMirror(q, seed, schedule, policy, net.x.copy())
    counts = []
    for _ in range(steps):
        ref_before = net.refractory.copy()
        order = None if order_rng is None else order_rng.permutation(q.n).tolist()
        flipped = net.step()
        flips, emitted = mirror.step(order)
        assert flipped.dtype == np.int64
        assert flipped.tolist() == flips
        assert net.cost_emitted == emitted
        assert net.t_hat == mirror.t_hat
        assert net.x.tolist() == mirror.x
        assert net.refractory.tolist() == mirror.refractory
        assert np.array_equal(net.h, flip_magnitudes(q, net.x))
        # No flip may come from a neuron that was locked at step entry.
        assert not np.any(ref_before[flipped] > 0)
        counts.append(len(flips))
    costs = [evaluate_cost(q, np.array(h, dtype=np.int8)) for h in mirror.history]
    first = costs.index(min(costs))
    res = solve_qubo(q, seed, max_steps=steps, schedule=schedule, refractory=policy)
    assert res.steps == steps
    assert res.flips_per_step.tolist() == counts
    assert res.best_cost == costs[first]
    assert res.best_assignment.tolist() == mirror.history[first]
    return res


def reference_sa(
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
    """Scalar reference for :func:`nebm.sequential_sa`, one draw at a time.

    The annealer as it stood before its draws were batched per sweep: the
    Fisher-Yates positions are ``Rng24.next24() % (k + 1)`` and each visit's
    ``u`` from ``Rng24.next_unit``, in stream order. The deadline is read
    once per sweep only.
    """
    if q.n == 0:
        raise ValueError("cannot anneal zero variables")
    if max_steps is None and max_seconds is None:
        raise ValueError("need max_steps and/or max_seconds")
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    x, h, price = initial_state(q, seed, init)
    cost = price(q, x, h)
    best_cost = cost
    best_x = x.copy()
    rng = Rng24(stream_seed(seed, DECISION_STREAM))
    if schedule is None:
        schedule = CoolingSchedule()
    if schedule.t0 is None:
        z = local_fields(q, x)
        peak = max(abs(int(q.diag[i]) + 2 * int(z[i])) for i in range(q.n))
        t0 = float(max(1, peak >> 3))
        schedule = CoolingSchedule(t0=t0, alpha=schedule.alpha, t_min=schedule.t_min)
    order = np.arange(q.n, dtype=np.int64)
    log: list[Decision] | None = [] if record_decisions else None
    # 8 bytes per sweep, not one Python int object per entry
    flips_hist = array("q")
    t_start = time.perf_counter()
    deadline = None if max_seconds is None else t_start + max_seconds
    sweep = 0
    while True:
        if max_steps is not None and sweep >= max_steps:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if target_cost is not None and best_cost <= target_cost:
            break
        temp = schedule.temperature(sweep)
        # Fisher-Yates on the visit order, one fresh permutation per sweep.
        for k in range(q.n - 1, 0, -1):
            j = rng.next24() % (k + 1)
            order[k], order[j] = order[j], order[k]
        flips = 0
        for i in order.tolist():
            d = int(h[i])
            dc = -d if x[i] else d
            u = rng.next_unit()
            ok = exact_accept(dc, temp, u)
            if log is not None:
                log.append(Decision(sweep, i, dc, temp, u, ok))
            if ok:
                flip_one(q, x, h, i)
                cost += dc
                flips += 1
                if cost < best_cost:
                    best_cost = cost
                    best_x = x.copy()
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
