"""Sequential annealing and tabu search: audits, mirrors, frozen behaviours."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    tabu_search,
)
from nebm import baselines, result
from nebm.baselines import DEADLINE_VISITS, DECISION_STREAM
from nebm.metropolis import stream_seed
from helpers import random_entries, random_qubo, reference_sa


def isolated_qubo(rng, n, density, lo, hi):
    """A random instance in which every third variable (0, 3, 6, ...) has no
    neighbour: its adjacency row is empty, and only its diagonal is kept."""
    return build_qubo(n, [(i, j, c) for i, j, c in random_entries(rng, n, density, lo, hi)
                          if i == j or i % 3 and j % 3])


def star_qubo(n):
    """Variable 0 coupled to every other; every diagonal -1, every q_0j 1."""
    return build_qubo(n, [(i, i, -1) for i in range(n)] + [(0, j, 1) for j in range(1, n)])


@pytest.mark.parametrize("solver", [sequential_sa, tabu_search])
def test_explicit_init_is_copied(solver):
    # Both solvers write their state through views of their own arrays, so
    # an explicit start must be copied before the run writes into it: an
    # int8 array, a strided int8 view, a bool array and a list all start
    # the same run, and the caller's data is left as it was.
    q = mis_to_qubo(generate_mis_graph(40, 0.2, 3), 8)
    bits = np.random.default_rng(5).integers(0, 2, size=2 * q.n).astype(np.int8)
    longer = bits.copy()
    inits = [longer[::2].copy(), longer[::2], longer[::2].astype(bool), longer[::2].tolist()]
    saved = [np.array(init, copy=True) for init in inits]
    extra = {"record_decisions": True} if solver is sequential_sa else {}
    results = [solver(q, 1, max_steps=30, init=init, **extra) for init in inits]
    assert all(res == results[0] for res in results)
    # The runs moved away from their start, so they wrote their state.
    assert not np.array_equal(results[0].best_assignment, bits[::2])
    assert np.array_equal(longer, bits)
    for init, before in zip(inits, saved):
        assert np.array_equal(np.asarray(init), before)


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

    @pytest.mark.parametrize("value", [True, False, "1", 1j])
    @pytest.mark.parametrize("key", ["t0", "t_min", "alpha"])
    def test_non_number_refused(self, key, value):
        with pytest.raises(ValueError, match=rf"^{key} must be a real number, got {value!r}$"):
            CoolingSchedule(**{key: value})

    @pytest.mark.parametrize("key", ["t0", "t_min", "alpha"])
    def test_nan_refused(self, key):
        # An infinite temperature would pass every uphill move.
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=key):
                CoolingSchedule(**{key: value})


class TestSequentialSa:
    def test_zero_sweeps_returns_initial(self):
        rng = np.random.default_rng(0)
        q = random_qubo(rng, 10, density=0.3)
        res = sequential_sa(q, 3, max_steps=0)
        assert res.steps == 0
        assert res.best_cost == evaluate_cost(q, res.best_assignment)

    def test_shares_initial_state_with_network(self):
        # Both solver families draw the start from the same dedicated stream,
        # so equal seeds mean equal starting points across solvers.
        rng = np.random.default_rng(1)
        q = random_qubo(rng, 25, density=0.3)
        net = network_from_qubo(q, 7)
        res = sequential_sa(q, 7, max_steps=0)
        assert np.array_equal(res.best_assignment, net.x)

    def test_greedy_limit_sets_exactly_one_of_coupled_pair(self):
        # diag -1, -1 with a +3 coupling: after one bit is on, the second
        # flip costs -1 + 2*3 = 5 and a cold annealer never takes it.
        q = build_qubo(2, [(0, 0, -1), (1, 1, -1), (0, 1, 3)])
        cold = CoolingSchedule(t0=1e-6, alpha=0.5, t_min=1e-9)
        for seed in range(6):
            res = sequential_sa(
                q, seed, max_steps=30, schedule=cold, init="zeros"
            )
            assert res.best_cost == -1
            assert int(res.best_assignment.sum()) == 1

    def test_decision_log_audit(self):
        rng = np.random.default_rng(2)
        q = random_qubo(rng, 12, density=0.4, lo=-6, hi=6)
        res = sequential_sa(q, 5, max_steps=8, record_decisions=True)
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
        res = sequential_sa(q, 9, max_steps=12, record_decisions=True)
        x = sequential_sa(q, 9, max_steps=0).best_assignment.copy()
        best = evaluate_cost(q, x)
        for d in res.decision_log:
            if d.accepted:
                x[d.index] ^= 1
                best = min(best, evaluate_cost(q, x))
        assert best == res.best_cost

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        q = random_qubo(rng, 20, density=0.3)
        a = sequential_sa(q, 11, max_steps=50)
        b = sequential_sa(q, 11, max_steps=50)
        assert a == b

    def test_reaches_small_mis_optimum(self):
        g = generate_mis_graph(10, 0.3, 0)
        q = mis_to_qubo(g)
        opt = -brute_force_mis(g)[0]
        res = sequential_sa(q, 0, max_steps=10_000, target_cost=opt)
        assert res.best_cost == opt

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 60])
    def test_matches_scalar_reference(self, n):
        # The per-sweep batched draws replay the one-draw-at-a-time loop:
        # same permutation, same u per visit, same log and result.
        rng = np.random.default_rng(100 + n)
        # Beside a random and an MIS instance: empty adjacency rows, a star,
        # and coefficients up to 2^40, far above the MIS encodings' weights.
        problems = [random_qubo(rng, n, density=0.4, lo=-9, hi=9),
                    mis_to_qubo(generate_mis_graph(n, 0.3, n), 8),
                    isolated_qubo(rng, n, 0.5, -9, 9),
                    star_qubo(n),
                    random_qubo(rng, n, density=0.4, lo=-2**40, hi=2**40)]
        specs = [
            dict(max_steps=15),
            dict(max_steps=12, init="zeros"),
            dict(max_steps=10, schedule=CoolingSchedule(t0=2.5, alpha=0.8, t_min=0.1)),
            dict(max_steps=500, target_cost=-2),
            # The far ends of the reject bounds: c = -T ln u up to 4e13 and,
            # once cooled to T = 1e-6, below 4e-5.
            dict(max_steps=6, schedule=CoolingSchedule(t0=1e12)),
            dict(max_steps=40, schedule=CoolingSchedule(t_min=1e-6, alpha=0.5)),
        ]
        for q in problems:
            for seed in (0, 9):
                for spec in specs:
                    want = reference_sa(q, seed, record_decisions=True, **spec)
                    got = sequential_sa(q, seed, record_decisions=True, **spec)
                    assert got == want

    @staticmethod
    def _pinned(schedule):
        q = mis_to_qubo(generate_mis_graph(1000, 0.15, 0), 8)
        res = sequential_sa(q, 7, max_steps=100, schedule=schedule)
        return (res.steps, res.best_cost, int(res.flips_per_step.sum()),
                hashlib.sha256(res.best_assignment.astype(np.int8).tobytes()).hexdigest(),
                hashlib.sha256(res.flips_per_step.astype(np.int64).tobytes()).hexdigest())

    def test_pinned_run(self):
        # From the derived T0, max(1, max|h| >> 3) = 209.0 at seed 7.
        assert self._pinned(None) == (
            100, -32, 10522,
            "86567f71c8ab9ceb3f4b5b8ba16ec0bdc4df6147ac3c64a31ed27a70f1172b2f",
            "eda49c48b0fdbae10b428083629e559dba3bef5536dbcb5f6dd7cde1a90ead04",
        )

    def test_pinned_run_explicit_t0(self):
        # From T0 = max|h| = 1679, the value derived before the shift,
        # recorded from the one-draw-at-a-time annealer: an explicit t0
        # reproduces it bit for bit.
        assert self._pinned(CoolingSchedule(t0=1679.0)) == (
            100, 86, 30285,
            "1a151ad30004e6eb89c2c57c217604bf30bb528a6bbb699da37dd655e2042218",
            "da6d6d85e00bf1c3fea3d3fab49d657e370e0531c71548dba8b841ad6fde9898",
        )

    @staticmethod
    def _visit_clock(monkeypatch):
        # A clock that reads the number of visits made so far, in seconds.
        # The annealer builds one Decision per visit when it records them;
        # exact_accept runs only on uphill visits at or below their bound.
        visits = [0]
        decision = baselines.Decision

        def counting_decision(*args):
            visits[0] += 1
            return decision(*args)

        monkeypatch.setattr(baselines, "Decision", counting_decision)
        monkeypatch.setattr(result.time, "perf_counter", lambda: float(visits[0]))

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
        x = sequential_sa(q, 3, max_steps=0).best_assignment.copy()
        best = evaluate_cost(q, x)
        for d in res.decision_log:
            if d.accepted:
                x[d.index] ^= 1
                best = min(best, evaluate_cost(q, x))
        assert best == res.best_cost
        assert evaluate_cost(q, res.best_assignment) == res.best_cost

    def test_unexpired_deadline_changes_nothing(self, monkeypatch):
        q = mis_to_qubo(generate_mis_graph(600, 0.02, 2), 8)
        want = sequential_sa(q, 4, max_steps=3, record_decisions=True)
        self._visit_clock(monkeypatch)
        got = sequential_sa(q, 4, max_steps=3, max_seconds=1e9, record_decisions=True)
        assert got == want

    def test_validation(self):
        q = build_qubo(2, [])
        with pytest.raises(ValueError):
            sequential_sa(q, 0)
        with pytest.raises(ValueError):
            sequential_sa(q, 0, max_steps=-1)
        with pytest.raises(ValueError):
            sequential_sa(build_qubo(0, []), 0, max_steps=1)


def mirror_tabu(q, seed, sweeps, tenure, restart_after):
    """Documented tabu rule, re-derived with dense recomputes per sweep.

    Besides the best cost and assignment it returns how often each rule
    decided a move: ``restarts``, ``aspiration`` (a tabu move taken because it
    beats the best), ``all_tabu`` (every move tabu, none aspirating) and
    ``re_moved`` (a variable moved again while still tabu, by either of the
    last two); the best cost after each sweep; and the state each restart
    drew.
    """
    # Initial state comes from the shared init stream.
    x = sequential_sa(q, seed, max_steps=0).best_assignment.copy()
    cost = evaluate_cost(q, x)
    best_cost, best_x = cost, x.copy()
    tabu_until = [-1] * q.n
    restart_rng = Rng24(stream_seed(seed, DECISION_STREAM))
    last_improve = 0
    events = {"restarts": 0, "aspiration": 0, "all_tabu": 0, "re_moved": 0}
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
        if sweep <= tabu_until[i]:
            events["re_moved"] += 1
            if cost + deltas[i] < best_cost:
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
        res = tabu_search(q, 0, max_steps=3, init="zeros")
        assert res.best_cost == -6

    def test_tie_breaks_toward_lowest_index(self):
        q = build_qubo(2, [(0, 0, -1), (1, 1, -1)])
        res = tabu_search(q, 0, max_steps=1, init="zeros")
        assert res.best_assignment.tolist() == [1, 0]

    def test_forced_uphill_escape(self):
        # Single deep minimum at [1]: the search flips in, then tenure forces
        # the uphill flip out, and the best must still report the minimum.
        q = build_qubo(1, [(0, 0, -5)])
        res = tabu_search(q, 0, max_steps=6, init="zeros", tenure=2)
        assert res.best_cost == -5
        assert res.best_assignment.tolist() == [1]

    @staticmethod
    def _restart_states(monkeypatch):
        # tabu_search calls baselines.local_fields once per restart and nowhere
        # else (initial_state builds the start's fields through qubo's own
        # name), so the states it is called with are the states the restarts
        # drew.
        states = []
        fields = baselines.local_fields

        def record(q, x):
            states.append(x.tolist())
            return fields(q, x)

        monkeypatch.setattr(baselines, "local_fields", record)
        return states

    def test_one_field_build_per_restart(self, monkeypatch):
        # A restart builds its fields once and prices them with the run's
        # probe: no second build through evaluate_cost.
        q = random_qubo(np.random.default_rng(0), 20, density=0.3, lo=-8, hi=8)
        *_, events, _, _ = mirror_tabu(q, 0, 100, 3, 5)
        assert events["restarts"] == 16
        calls = {"local_fields": 0, "evaluate_cost": 0}
        for name in calls:
            def count(*args, _name=name, _f=getattr(baselines, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(baselines, name, count)
        tabu_search(q, 0, max_steps=100, tenure=3, restart_after=5)
        assert calls == {"local_fields": 16, "evaluate_cost": 0}

    def test_restart_priced_exactly_where_the_cost_bound_reaches_2_62(self):
        # Every |h_i| fits int64, but B = 3 * 2^61 + 4 reaches 2^62, so the
        # run prices its states by summing in Python ints. A restart priced
        # by state_cost would wrap whenever it draws x_0 = x_1 = 1.
        q = build_qubo(3, [(0, 0, 2**61), (1, 1, 2**61), (2, 2, -(2**61)),
                           (0, 1, 1), (1, 2, -1)])
        # the default tenure, max(7, n // 10) = 7
        want_cost, want_x, events, _, _ = mirror_tabu(q, 0, 50, 7, 1)
        assert events["restarts"] == 49
        res = tabu_search(q, 0, max_steps=50, restart_after=1)
        assert res.best_cost == want_cost
        assert np.array_equal(res.best_assignment, want_x)
        assert res.best_cost == evaluate_cost(q, res.best_assignment)

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
            # a variable moved again while still tabu, here by aspiration: the
            # unblock due from its earlier move must not free it early
            pytest.param(385, 16, 0.3, 385, 80, 14, None, {"re_moved": 2, "all_tabu": 0},
                         id="re-moved"),
            # a restart clears the tabu mask and the unblocks still pending
            pytest.param(1967, 16, 0.5, 1967, 100, 12, 23, {"restarts": 3, "re_moved": 1},
                         id="restart-clears-mask"),
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
        trail = [tabu_search(q, seed, max_steps=k, tenure=tenure, restart_after=restart_after)
                 .best_cost for k in range(1, sweeps + 1)]
        assert trail == best_trail
        drawn = self._restart_states(monkeypatch)
        res = tabu_search(q, seed, max_steps=sweeps, tenure=tenure, restart_after=restart_after)
        assert drawn == restart_states
        assert res.best_cost == want_cost
        assert np.array_equal(res.best_assignment, want_x)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(inst=st.integers(0, 2**32 - 1), n=st.integers(1, 16),
           density=st.sampled_from([0.2, 0.5, 0.9]), scale=st.sampled_from([1, 3, 8]),
           seed=st.integers(0, 2**20), data=st.data(),
           restart_after=st.one_of(st.none(), st.integers(1, 30)),
           sweeps=st.integers(0, 80))
    def test_matches_rule_mirror_on_random_settings(self, inst, n, density, scale, seed, data,
                                                    restart_after, sweeps):
        tenure = data.draw(st.integers(1, 2 * n), label="tenure")
        q = random_qubo(np.random.default_rng(inst), n, density, -scale, scale)
        want_cost, want_x, _, _, restart_states = mirror_tabu(
            q, seed, sweeps, tenure, restart_after)
        with pytest.MonkeyPatch.context() as mp:
            drawn = self._restart_states(mp)
            res = tabu_search(q, seed, max_steps=sweeps, tenure=tenure,
                              restart_after=restart_after)
        assert drawn == restart_states
        assert res.best_cost == want_cost
        assert np.array_equal(res.best_assignment, want_x)

    def test_matches_rule_mirror_with_isolated_vertices(self, monkeypatch):
        # A move of a variable with no neighbour patches no other delta.
        q = isolated_qubo(np.random.default_rng(77), 18, 0.4, -8, 8)
        want_cost, want_x, events, _, restart_states = mirror_tabu(
            q, 3, sweeps=120, tenure=4, restart_after=20)
        assert events["restarts"] >= 1
        drawn = self._restart_states(monkeypatch)
        res = tabu_search(q, 3, max_steps=120, tenure=4, restart_after=20)
        assert drawn == restart_states
        assert res.best_cost == want_cost
        assert np.array_equal(res.best_assignment, want_x)

    def test_mirror_agreement_without_restarts(self):
        rng = np.random.default_rng(50)
        q = random_qubo(rng, 12, density=0.4, lo=-5, hi=5)
        want_cost, want_x, *_ = mirror_tabu(
            q, 2, sweeps=40, tenure=3, restart_after=None
        )
        res = tabu_search(q, 2, max_steps=40, tenure=3, restart_after=None)
        assert res.best_cost == want_cost
        assert np.array_equal(res.best_assignment, want_x)

    def test_pinned_run(self, monkeypatch):
        # Recorded from the tabu search that recomputed every delta per move
        # and drew each restart one value at a time.
        restarts = self._restart_states(monkeypatch)
        q = mis_to_qubo(generate_mis_graph(1000, 0.15, 0), 8)
        res = tabu_search(q, 0, max_steps=10_000)
        assert res.steps == 10_000
        assert res.best_cost == -39
        assert len(restarts) == 23
        assert hashlib.sha256(res.best_assignment.astype(np.int8).tobytes()).hexdigest() == (
            "2819448817757bcc65e90e69bfb98ec1081f673e913fd16448679bd513ff464f")

    def test_best_matches_reevaluation(self):
        rng = np.random.default_rng(60)
        q = random_qubo(rng, 30, density=0.25)
        res = tabu_search(q, 4, max_steps=200)
        assert res.best_cost == evaluate_cost(q, res.best_assignment)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(70)
        q = random_qubo(rng, 25, density=0.3)
        assert tabu_search(q, 8, max_steps=100) == tabu_search(q, 8, max_steps=100)

    def test_small_mis_all_seeds_within_budget(self):
        # Frozen target: every n=10 instance seed solved inside 10^3 sweeps.
        for iseed in range(5):
            g = generate_mis_graph(10, 0.3, iseed)
            q = mis_to_qubo(g)
            opt = -brute_force_mis(g)[0]
            res = tabu_search(q, 0, max_steps=1000, target_cost=opt)
            assert res.best_cost == opt

    def test_validation(self):
        q = build_qubo(2, [])
        with pytest.raises(ValueError):
            tabu_search(q, 0)
        with pytest.raises(ValueError):
            tabu_search(q, 0, max_steps=10, tenure=0)
        with pytest.raises(ValueError):
            tabu_search(q, 0, max_steps=10, restart_after=0)
        with pytest.raises(ValueError):
            tabu_search(build_qubo(0, []), 0, max_steps=1)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    @pytest.mark.parametrize("key", ["tenure", "restart_after"])
    def test_non_integer_setting_refused(self, key, value):
        # tenure=2.5 was stored into the int64 tabu list as sweep + 2.5.
        q = mis_to_qubo(generate_mis_graph(10, 0.3, 0))
        with pytest.raises(ValueError, match=rf"^{key} must be an integer >= 1, got {value!r}$"):
            tabu_search(q, 0, max_steps=50, **{key: value})
        assert tabu_search(q, 0, max_steps=50, **{key: np.int64(3)}).steps == 50
