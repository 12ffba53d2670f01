"""Sequential annealing and tabu search: audits, mirrors, frozen behaviours."""

import hashlib

import numpy as np
import pytest

from nebm import (
    CoolingSchedule,
    Rng24,
    build_qubo,
    evaluate_cost,
    exact_accept,
    generate_mis_graph,
    local_fields,
    mis_to_qubo,
    network_from_qubo,
    sequential_sa,
    brute_force_mis,
    stream_seed,
    tabu_search,
)
from nebm import baselines
from nebm.baselines import DEADLINE_VISITS, DECISION_STREAM
from helpers import random_qubo, reference_sa


class TestCoolingSchedule:
    def test_geometric_decay_with_floor(self):
        s = CoolingSchedule(t0=8.0, alpha=0.5, t_min=1.0)
        assert s.temperature(0) == 8.0
        assert s.temperature(1) == 4.0
        assert s.temperature(3) == 1.0
        assert s.temperature(50) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CoolingSchedule(alpha=1.0)
        with pytest.raises(ValueError):
            CoolingSchedule(t_min=0.0)
        with pytest.raises(ValueError):
            CoolingSchedule(t0=-1.0)


class TestSequentialSa:
    def test_zero_sweeps_returns_initial(self):
        rng = np.random.default_rng(0)
        q = random_qubo(rng, 10, density=0.3)
        res = sequential_sa(q, 3, sweeps=0)
        assert res.steps == 0
        assert res.best_cost == evaluate_cost(q, res.best_assignment)

    def test_shares_initial_state_with_network(self):
        # Both solver families draw the start from the same dedicated stream,
        # so equal seeds mean equal starting points across solvers.
        rng = np.random.default_rng(1)
        q = random_qubo(rng, 25, density=0.3)
        net = network_from_qubo(q, 7)
        res = sequential_sa(q, 7, sweeps=0)
        assert np.array_equal(res.best_assignment, net.x)

    def test_greedy_limit_sets_exactly_one_of_coupled_pair(self):
        # diag -1, -1 with a +3 coupling: after one bit is on, the second
        # flip costs -1 + 2*3 = 5 and a cold annealer never takes it.
        q = build_qubo(2, [(0, 0, -1), (1, 1, -1), (0, 1, 3)])
        cold = CoolingSchedule(t0=1e-6, alpha=0.5, t_min=1e-9)
        for seed in range(6):
            res = sequential_sa(
                q, seed, sweeps=30, schedule=cold, init="zeros"
            )
            assert res.best_cost == -1
            assert int(res.best_assignment.sum()) == 1

    def test_decision_log_audit(self):
        rng = np.random.default_rng(2)
        q = random_qubo(rng, 12, density=0.4, lo=-6, hi=6)
        res = sequential_sa(q, 5, sweeps=8, record_decisions=True)
        log = res.decision_log
        assert len(log) == 8 * q.n
        # Every sweep visits each variable exactly once.
        for s in range(8):
            chunk = log[s * q.n : (s + 1) * q.n]
            assert sorted(d.index for d in chunk) == list(range(q.n))
            assert all(d.sweep == s for d in chunk)
        # Every recorded verdict is the exact Metropolis rule.
        for d in log:
            assert d.accepted == exact_accept(d.delta_c, d.temperature, d.u)

    def test_replaying_accepted_moves_reproduces_best(self):
        rng = np.random.default_rng(3)
        q = random_qubo(rng, 15, density=0.35, lo=-7, hi=7)
        res = sequential_sa(q, 9, sweeps=12, record_decisions=True)
        x = sequential_sa(q, 9, sweeps=0).best_assignment.copy()
        best = evaluate_cost(q, x)
        for d in res.decision_log:
            if d.accepted:
                x[d.index] ^= 1
                best = min(best, evaluate_cost(q, x))
        assert best == res.best_cost

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        q = random_qubo(rng, 20, density=0.3)
        a = sequential_sa(q, 11, sweeps=50)
        b = sequential_sa(q, 11, sweeps=50)
        assert a == b

    def test_reaches_small_mis_optimum(self):
        g = generate_mis_graph(10, 0.3, 0)
        q = mis_to_qubo(g)
        opt = -brute_force_mis(g)[0]
        res = sequential_sa(q, 0, sweeps=10_000, target_cost=opt)
        assert res.best_cost == opt

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 60])
    def test_matches_scalar_reference(self, n):
        # The per-sweep batched draws replay the one-draw-at-a-time loop:
        # same permutation, same u per visit, same log and result.
        rng = np.random.default_rng(100 + n)
        problems = [random_qubo(rng, n, density=0.4, lo=-9, hi=9),
                    mis_to_qubo(generate_mis_graph(n, 0.3, n), 8)]
        specs = [
            dict(sweeps=15),
            dict(sweeps=12, init="zeros"),
            dict(sweeps=10, schedule=CoolingSchedule(t0=2.5, alpha=0.8, t_min=0.1)),
            dict(sweeps=500, target_cost=-2),
        ]
        for q in problems:
            for seed in (0, 9):
                for spec in specs:
                    want = reference_sa(q, seed, record_decisions=True, **spec)
                    got = sequential_sa(q, seed, record_decisions=True, **spec)
                    assert got == want

    def test_pinned_run(self):
        # Recorded from the one-draw-at-a-time annealer.
        q = mis_to_qubo(generate_mis_graph(1000, 0.15, 0), 8)
        res = sequential_sa(q, 7, sweeps=100)
        assert res.steps == 100
        assert res.best_cost == 86
        assert int(res.flips_per_step.sum()) == 30285
        assert hashlib.sha256(res.best_assignment.astype(np.int8).tobytes()).hexdigest() == (
            "1a151ad30004e6eb89c2c57c217604bf30bb528a6bbb699da37dd655e2042218")
        assert hashlib.sha256(res.flips_per_step.astype(np.int64).tobytes()).hexdigest() == (
            "da6d6d85e00bf1c3fea3d3fab49d657e370e0531c71548dba8b841ad6fde9898")

    @staticmethod
    def _visit_clock(monkeypatch):
        # A clock that reads the number of visits made so far, in seconds.
        visits = [0]
        accept = baselines.exact_accept

        def counting_accept(*args):
            visits[0] += 1
            return accept(*args)

        monkeypatch.setattr(baselines, "exact_accept", counting_accept)
        monkeypatch.setattr(baselines.time, "perf_counter", lambda: float(visits[0]))

    @pytest.mark.parametrize("expiry", [0.5, 255.5, 256, 1000.5, 1400, 2099.5])
    def test_deadline_read_inside_the_sweep(self, monkeypatch, expiry):
        q = mis_to_qubo(generate_mis_graph(700, 0.02, 1), 8)
        self._visit_clock(monkeypatch)
        res = sequential_sa(q, 3, max_seconds=expiry, record_decisions=True)
        made = len(res.decision_log)
        # The clock is read before every DEADLINE_VISITS visits of a sweep.
        assert expiry <= made < expiry + DEADLINE_VISITS
        assert made % q.n % DEADLINE_VISITS == 0
        # Only completed sweeps count as steps and in flips_per_step.
        assert res.steps == made // q.n
        assert res.flips_per_step.size == res.steps
        done = res.steps * q.n
        assert res.flips_per_step.sum() == sum(d.accepted for d in res.decision_log[:done])
        # A better state found in the cut sweep still counts.
        x = sequential_sa(q, 3, sweeps=0).best_assignment.copy()
        best = evaluate_cost(q, x)
        for d in res.decision_log:
            if d.accepted:
                x[d.index] ^= 1
                best = min(best, evaluate_cost(q, x))
        assert best == res.best_cost
        assert evaluate_cost(q, res.best_assignment) == res.best_cost

    def test_unexpired_deadline_changes_nothing(self, monkeypatch):
        q = mis_to_qubo(generate_mis_graph(600, 0.02, 2), 8)
        want = sequential_sa(q, 4, sweeps=3, record_decisions=True)
        self._visit_clock(monkeypatch)
        got = sequential_sa(q, 4, sweeps=3, max_seconds=1e9, record_decisions=True)
        assert got == want

    def test_validation(self):
        q = build_qubo(2, [])
        with pytest.raises(ValueError):
            sequential_sa(q, 0)
        with pytest.raises(ValueError):
            sequential_sa(q, 0, sweeps=-1)
        with pytest.raises(ValueError):
            sequential_sa(build_qubo(0, []), 0, sweeps=1)


def mirror_tabu(q, seed, sweeps, tenure, restart_after):
    """Documented tabu rule, re-derived with dense recomputes per sweep.

    Besides the best cost and assignment it returns how often each rule
    decided a move: ``restarts``, ``aspiration`` (a tabu move taken because it
    beats the best) and ``all_tabu`` (every move tabu, none aspirating); the
    best cost after each sweep; and the state each restart drew.
    """
    # Initial state comes from the shared init stream.
    x = sequential_sa(q, seed, sweeps=0).best_assignment.copy()
    cost = evaluate_cost(q, x)
    best_cost, best_x = cost, x.copy()
    tabu_until = [-1] * q.n
    restart_rng = Rng24(stream_seed(seed, DECISION_STREAM))
    last_improve = 0
    events = {"restarts": 0, "aspiration": 0, "all_tabu": 0}
    best_trail, restart_states = [], []
    for sweep in range(sweeps):
        if restart_after is not None and sweep - last_improve >= restart_after:
            for i in range(q.n):
                x[i] = restart_rng.next24() >> 23
            cost = evaluate_cost(q, x)
            tabu_until = [-1] * q.n
            last_improve = sweep
            events["restarts"] += 1
            restart_states.append(x.tolist())
        z = local_fields(q, x)
        deltas = []
        for i in range(q.n):
            d = int(q.diag[i]) + 2 * int(z[i])
            deltas.append(-d if x[i] else d)
        allowed = [
            sweep > tabu_until[i] or cost + deltas[i] < best_cost
            for i in range(q.n)
        ]
        if not any(allowed):
            allowed = [True] * q.n
            events["all_tabu"] += 1
        i = min(
            (k for k in range(q.n) if allowed[k]), key=lambda k: (deltas[k], k)
        )
        if sweep <= tabu_until[i] and cost + deltas[i] < best_cost:
            events["aspiration"] += 1
        x[i] ^= 1
        cost += deltas[i]
        tabu_until[i] = sweep + tenure
        if cost < best_cost:
            best_cost, best_x = cost, x.copy()
            last_improve = sweep
        best_trail.append(best_cost)
    return best_cost, best_x, events, best_trail, restart_states


class TestTabuSearch:
    def test_greedy_reachable_minimum_found_quickly(self):
        q = build_qubo(3, [(0, 0, -1), (1, 1, -2), (2, 2, -3)])
        res = tabu_search(q, 0, sweeps=3, init="zeros")
        assert res.best_cost == -6

    def test_tie_breaks_toward_lowest_index(self):
        q = build_qubo(2, [(0, 0, -1), (1, 1, -1)])
        res = tabu_search(q, 0, sweeps=1, init="zeros")
        assert res.best_assignment.tolist() == [1, 0]

    def test_forced_uphill_escape(self):
        # Single deep minimum at [1]: the search flips in, then tenure forces
        # the uphill flip out, and the best must still report the minimum.
        q = build_qubo(1, [(0, 0, -5)])
        res = tabu_search(q, 0, sweeps=6, init="zeros", tenure=2)
        assert res.best_cost == -5
        assert res.best_assignment.tolist() == [1]

    @staticmethod
    def _restart_states(monkeypatch):
        # tabu_search calls evaluate_cost once per restart and nowhere else,
        # so the states it is called with are the states the restarts drew.
        states = []
        evaluate = baselines.evaluate_cost

        def record(q, x):
            states.append(x.tolist())
            return evaluate(q, x)

        monkeypatch.setattr(baselines, "evaluate_cost", record)
        return states

    @pytest.mark.parametrize(
        "qubo_seed, n, density, seed, sweeps, tenure, restart_after, fired",
        [
            *(pytest.param(40 + s, 16, 0.35, s, 60, 4, 15, {"restarts": 3}, id=str(s))
              for s in range(4)),
            # tabu moves taken because they beat the best
            pytest.param(6, 14, 0.5, 6, 80, 7, None, {"aspiration": 3}, id="aspiration"),
            # tenure >= n: every move tabu, with restarts to clear the list
            pytest.param(5, 12, 0.5, 5, 80, 12, 30, {"all_tabu": 11, "restarts": 2},
                         id="all-tabu"),
            # each restart draws the next window of n values of the stream
            pytest.param(0, 20, 0.3, 0, 100, 3, 5, {"restarts": 16}, id="restarts"),
        ],
    )
    def test_matches_rule_mirror(self, monkeypatch, qubo_seed, n, density, seed, sweeps,
                                 tenure, restart_after, fired):
        q = random_qubo(np.random.default_rng(qubo_seed), n, density=density, lo=-8, hi=8)
        want_cost, want_x, events, best_trail, restart_states = mirror_tabu(
            q, seed, sweeps, tenure, restart_after)
        # the case exercises the rule it is named for
        assert {k: events[k] for k in fired} == fired
        # the best after every sweep, not only after the last
        trail = [tabu_search(q, seed, sweeps=k, tenure=tenure, restart_after=restart_after)
                 .best_cost for k in range(1, sweeps + 1)]
        assert trail == best_trail
        drawn = self._restart_states(monkeypatch)
        res = tabu_search(q, seed, sweeps=sweeps, tenure=tenure, restart_after=restart_after)
        assert drawn == restart_states
        assert res.best_cost == want_cost
        assert np.array_equal(res.best_assignment, want_x)

    def test_mirror_agreement_without_restarts(self):
        rng = np.random.default_rng(50)
        q = random_qubo(rng, 12, density=0.4, lo=-5, hi=5)
        want_cost, want_x, *_ = mirror_tabu(
            q, 2, sweeps=40, tenure=3, restart_after=None
        )
        res = tabu_search(q, 2, sweeps=40, tenure=3, restart_after=None)
        assert res.best_cost == want_cost
        assert np.array_equal(res.best_assignment, want_x)

    def test_pinned_run(self, monkeypatch):
        # Recorded from the tabu search that recomputed every delta per move
        # and drew each restart one value at a time.
        restarts = self._restart_states(monkeypatch)
        q = mis_to_qubo(generate_mis_graph(1000, 0.15, 0), 8)
        res = tabu_search(q, 0, sweeps=10_000)
        assert res.steps == 10_000
        assert res.best_cost == -39
        assert len(restarts) == 23
        assert hashlib.sha256(res.best_assignment.astype(np.int8).tobytes()).hexdigest() == (
            "2819448817757bcc65e90e69bfb98ec1081f673e913fd16448679bd513ff464f")

    def test_best_matches_reevaluation(self):
        rng = np.random.default_rng(60)
        q = random_qubo(rng, 30, density=0.25)
        res = tabu_search(q, 4, sweeps=200)
        assert res.best_cost == evaluate_cost(q, res.best_assignment)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(70)
        q = random_qubo(rng, 25, density=0.3)
        assert tabu_search(q, 8, sweeps=100) == tabu_search(q, 8, sweeps=100)

    def test_small_mis_all_seeds_within_budget(self):
        # Frozen target: every n=10 instance seed solved inside 10^3 sweeps.
        for iseed in range(5):
            g = generate_mis_graph(10, 0.3, iseed)
            q = mis_to_qubo(g)
            opt = -brute_force_mis(g)[0]
            res = tabu_search(q, 0, sweeps=1000, target_cost=opt)
            assert res.best_cost == opt

    def test_validation(self):
        q = build_qubo(2, [])
        with pytest.raises(ValueError):
            tabu_search(q, 0)
        with pytest.raises(ValueError):
            tabu_search(q, 0, sweeps=10, tenure=0)
        with pytest.raises(ValueError):
            tabu_search(q, 0, sweeps=10, restart_after=0)
        with pytest.raises(ValueError):
            tabu_search(build_qubo(0, []), 0, sweeps=1)
