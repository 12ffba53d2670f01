"""Acceptance gate: eight shipping criteria, one printed verdict line each.

Every criterion is a separate test. Verdict lines go to the real stdout so
they survive pytest's capture even on success; budgets and tolerances are
frozen here on purpose and should not be loosened to make a red line green.
"""

import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import numpy as np

import conftest
import helpers
from nebm import (
    GeometricSchedule,
    RefractoryPolicy,
    brute_force_mis,
    compute_bks,
    fixed_accept_probability,
    gap_percent,
    generate_mis_graph,
    mis_to_qubo,
    network_from_qubo,
    sequential_sa,
    solve_qubo,
    tabu_search,
)
from nebm.metropolis import clz24_array


def emit(line):
    conftest.verdict_lines.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def verdict(num, title):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException as e:
        emit(f"criterion {num} ({title}): FAIL [{type(e).__name__}: {e}]")
        raise
    dt = time.perf_counter() - t0
    emit(f"criterion {num} ({title}): PASS ({dt:.1f}s)")


@lru_cache(maxsize=1)
def corpus():
    """1000 random instances, n <= 64, integer weights in [-128, 127]."""
    rng = np.random.default_rng(20260822)
    out = []
    for _ in range(1000):
        n = int(rng.integers(4, 65))
        density = float(rng.uniform(0.05, 0.6))
        out.append(helpers.random_qubo(rng, n, density))
    return out


def test_criterion_1_cost_pipeline_probe():
    """Emitted cost at step t+2 is the true cost of the step-t assignment."""
    with verdict(1, "two-step cost probe"):
        t0 = time.perf_counter()
        for k, q in enumerate(corpus()):
            m = helpers.dense_matrix(q)
            net = network_from_qubo(q, seed=k)
            history = [net.x.copy()]
            emitted = [net.cost_emitted]
            for _ in range(200):
                net.step()
                history.append(net.x.copy())
                emitted.append(net.cost_emitted)
            h = np.asarray(history, dtype=np.int64)
            true_costs = np.einsum("sn,nm,sm->s", h, m, h)
            # Step s reports the assignment from step max(0, s-2).
            lag = np.maximum(np.arange(201) - 2, 0)
            assert np.array_equal(np.asarray(emitted), true_costs[lag]), (
                f"instance {k}: probe mismatch"
            )
        assert time.perf_counter() - t0 < 60.0


def test_criterion_2_delta_cost_oracle():
    """The flip delta ``(1 - 2 x_i) h_i`` agrees with a full recompute for
    every bit of every state."""
    with verdict(2, "delta-cost vs recompute"):
        rng = np.random.default_rng(77)
        for k, q in enumerate(corpus()):
            m = helpers.dense_matrix(q)
            idx = np.arange(q.n)
            for _ in range(100):
                x = helpers.random_bits(rng, q.n)
                h = helpers.flip_magnitudes(q, x)
                deltas = (1 - 2 * x.astype(np.int64)) * h
                flipped = np.tile(x.astype(np.int64), (q.n, 1))
                flipped[idx, idx] ^= 1
                base = int(x.astype(np.int64) @ m @ x.astype(np.int64))
                # Row i is x with bit i flipped; (F @ M) * F summed over each
                # row is its full cost, as the einsum "in,nm,im->i" would give.
                recomputed = ((flipped @ m) * flipped).sum(1) - base
                assert np.array_equal(deltas, recomputed), f"instance {k}"


def test_criterion_3_acceptance_distribution():
    """Accept rate over seeded draws matches the closed-form probability."""
    with verdict(3, "fixed-point accept law"):
        t0 = time.perf_counter()
        draws = np.random.default_rng(7).integers(
            0, 1 << 24, size=1_000_000, dtype=np.int64
        )
        # Independent leading-zero count: 24 - bit_length via power table.
        powers = (1 << np.arange(25)).astype(np.int64)
        clz_oracle = 24 - np.searchsorted(powers, draws, side="right")
        assert np.array_equal(clz_oracle, clz24_array(draws))
        n = draws.size
        for dc in range(10):
            for t_hat in range(1, 11):
                accepted = int(
                    np.count_nonzero(
                        (draws == 0) | (dc < t_hat * clz_oracle)
                    )
                )
                p = fixed_accept_probability(dc, t_hat)
                mean = n * p
                sigma = float(n * p * (1 - p)) ** 0.5
                assert abs(accepted - mean) <= 3.0 * sigma, (
                    f"dc={dc} t_hat={t_hat}: {accepted} vs {float(mean):.1f}"
                )
        # Exhaustive enumeration over every 24-bit rand at three grid points.
        for dc, t_hat in ((3, 2), (0, 1), (5, 1)):
            total = 0
            for lo in range(0, 1 << 24, 1 << 21):
                u = np.arange(lo, lo + (1 << 21), dtype=np.int64)
                clz = 24 - np.searchsorted(powers, u, side="right")
                total += int(np.count_nonzero((u == 0) | (dc < t_hat * clz)))
            p = fixed_accept_probability(dc, t_hat)
            assert Fraction(total, 1 << 24) == p, f"dc={dc} t_hat={t_hat}"
        assert time.perf_counter() - t0 < 300.0


def test_criterion_4_refractory_invariants():
    """No neuron fires while locked out; lockouts cut flips without hurting."""
    with verdict(4, "refractory lockout and benefit"):
        # Part 1: a flipped neuron always had a zero counter entering the step.
        q_small = mis_to_qubo(generate_mis_graph(120, 0.25, 0))
        for seed in (0, 1):
            net = network_from_qubo(q_small, seed=seed)
            for _ in range(800):
                before = net.refractory.copy()
                flipped = net.step()
                assert not np.any(before[flipped] > 0)

        # Part 2: [1,8] vs [0,0] on n=250, d=0.30 at a 20000-step budget,
        # averaged over instance seeds 0..4.
        flips = {"on": [], "off": []}
        gaps = {"on": [], "off": []}
        for inst in range(5):
            q = mis_to_qubo(generate_mis_graph(250, 0.30, inst))
            bks, _ = compute_bks(250, 0.30, inst, tabu_sweeps=10_000)
            for label, policy in (
                ("on", RefractoryPolicy(1, 8)),
                ("off", RefractoryPolicy(0, 0)),
            ):
                res = solve_qubo(
                    q, 1, max_steps=20_000, refractory=policy
                )
                flips[label].append(float(res.flips_per_step.mean()))
                gaps[label].append(gap_percent(res.best_cost, bks))
        mean = lambda v: sum(v) / len(v)
        assert mean(flips["on"]) < mean(flips["off"])
        assert mean(gaps["on"]) <= mean(gaps["off"])


def test_criterion_5_desk_scale_optimality():
    """All solvers hit the exact optimum on the small-instance grid."""
    with verdict(5, "exact optima at desk scale"):
        t0 = time.perf_counter()
        for n in (10, 25):
            for density in (0.05, 0.15, 0.30):
                for inst in range(5):
                    g = generate_mis_graph(n, density, inst)
                    q = mis_to_qubo(g)
                    size, _ = brute_force_mis(g)
                    target = -size
                    tabu_sweeps = 1_000 if n == 10 else 10_000
                    runs = {
                        "nebm": lambda s: solve_qubo(
                            q, s, max_steps=100_000, target_cost=target
                        ),
                        "sa": lambda s: sequential_sa(
                            q, s, max_steps=10_000, target_cost=target
                        ),
                        "tabu": lambda s: tabu_search(
                            q, s, max_steps=tabu_sweeps, target_cost=target
                        ),
                    }
                    for solver, fn in runs.items():
                        hits = sum(fn(s).best_cost == target for s in range(5))
                        assert hits >= 4, (
                            f"{solver} n={n} d={density} inst={inst}: "
                            f"{hits}/5 runs found {target}"
                        )
        assert time.perf_counter() - t0 < 600.0


def test_criterion_6_gap_metric_endpoints():
    """Gap is 0 at the optimum, 100 at cost 0, monotone in between."""
    with verdict(6, "gap endpoints and monotonicity"):
        rng = np.random.default_rng(5)
        for _ in range(100):
            bks = -int(rng.integers(1, 100_000))
            assert gap_percent(bks, bks) == 0.0
            assert gap_percent(0, bks) == 100.0
        for _ in range(10_000):
            bks = -int(rng.integers(1, 1000))
            c = int(rng.integers(bks, 2000))
            g = gap_percent(c, bks)
            assert 0.0 <= g <= 100.0
            if c > bks:
                assert gap_percent(c - 1, bks) <= g


def test_criterion_7_determinism():
    """Same seed means bit-identical results, and no step depends on the
    order in which neurons are visited: a scalar replay that visits them in
    a fresh random permutation every step matches the run step by step."""
    with verdict(7, "seeded determinism, any visit order"):
        q = mis_to_qubo(generate_mis_graph(60, 0.2, 3))
        base = solve_qubo(q, 5, max_steps=1500)
        for _ in range(2):
            assert solve_qubo(q, 5, max_steps=1500) == base
        res = helpers.mirror_check(
            q, 5, GeometricSchedule(), RefractoryPolicy(), 1500,
            order_rng=np.random.default_rng(7),
        )
        assert res.best_cost == base.best_cost
        sa = sequential_sa(q, 5, max_steps=200)
        assert sequential_sa(q, 5, max_steps=200) == sa
        tb = tabu_search(q, 5, max_steps=200)
        assert tabu_search(q, 5, max_steps=200) == tb


def test_criterion_8_scaled_quality_trend():
    """Every solver stays within a 20% gap at a generous budget; the
    small-budget ordering is reported, not enforced."""
    with verdict(8, "quality at scale"):
        budgets = {
            "nebm": ("steps", 20_000),
            "sa": ("sweeps", 2_000),
            "tabu": ("sweeps", 2_000),
        }
        small = {"nebm": 2_000, "sa": 200, "tabu": 200}

        def one_run(solver, q, budget):
            if solver == "nebm":
                return solve_qubo(q, 1, max_steps=budget)
            if solver == "sa":
                return sequential_sa(q, 1, max_steps=budget)
            return tabu_search(q, 1, max_steps=budget)

        report = []
        for n in (50, 100, 250):
            instances = []
            for inst in range(5):
                q = mis_to_qubo(generate_mis_graph(n, 0.15, inst))
                bks, _ = compute_bks(n, 0.15, inst, tabu_sweeps=10_000)
                instances.append((q, bks))
            for solver, (_, budget) in budgets.items():
                gaps = [
                    gap_percent(one_run(solver, q, budget).best_cost, bks)
                    for q, bks in instances
                ]
                mean_gap = sum(gaps) / len(gaps)
                assert mean_gap <= 20.0, (
                    f"{solver} n={n}: mean gap {mean_gap:.2f}%"
                )
            small_gaps = {
                solver: sum(
                    gap_percent(one_run(solver, q, small[solver]).best_cost, bks)
                    for q, bks in instances
                ) / len(instances)
                for solver in budgets
            }
            order = sorted(small_gaps, key=small_gaps.get)
            report.append(
                f"  n={n} small-budget mean gaps: "
                + ", ".join(f"{s}={small_gaps[s]:.1f}%" for s in order)
            )
        emit("criterion 8 small-budget ordering (informational):")
        for line in report:
            emit(line)
