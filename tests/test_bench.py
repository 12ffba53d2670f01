"""Gap metric, plans, BKS cache, record files, and the run dispatcher."""

import inspect
import json
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from nebm import (
    BenchmarkPlan,
    BenchmarkRecord,
    CoolingSchedule,
    GeometricSchedule,
    MissingBksError,
    brute_force_mis,
    compute_bks,
    ensure_bks,
    evaluate_cost,
    gap_percent,
    generate_mis_graph,
    load_bks,
    load_records,
    mis_to_qubo,
    RefractoryPolicy,
    run_plan,
    run_solver,
    save_bks,
    save_qubo,
    save_records,
    save_summary,
    sequential_sa,
    solve_qubo,
    summarize,
    tabu_search,
)
from nebm import bench
from nebm.bench import (
    BKS_HEADER,
    RESULTS_HEADER,
    SOLVERS,
    SUMMARY_HEADER,
    config_hash,
    fmt_density,
    instance_key,
    load_assignments,
)
from nebm.cli import main
from nebm.qubo import initial_state


class TestGapPercent:
    def test_exact_match_is_zero(self):
        assert gap_percent(-20, -20) == 0.0

    def test_zero_cost_is_hundred(self):
        assert gap_percent(0, -7) == 100.0

    def test_positive_cost_truncated(self):
        assert gap_percent(55, -7) == 100.0

    def test_hand_value(self):
        assert gap_percent(-15, -20) == 25.0

    def test_beating_the_bks_is_zero(self):
        # A heuristic BKS can be beaten; that is no gap, not a larger one.
        assert gap_percent(-36, -35) == 0.0

    def test_requires_negative_bks(self):
        with pytest.raises(ValueError):
            gap_percent(-5, 0)
        with pytest.raises(ValueError):
            gap_percent(-5, 3)

    def test_endpoints_for_random_bks(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            bks = -int(rng.integers(1, 10_000))
            assert gap_percent(bks, bks) == 0.0
            assert gap_percent(0, bks) == 100.0

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            bks = -int(rng.integers(1, 1000))
            c = int(rng.integers(bks, 500))
            g = gap_percent(c, bks)
            assert 0.0 <= g <= 100.0
            # One step closer to the optimum never increases the gap.
            if c > bks:
                assert gap_percent(c - 1, bks) <= g


class TestFormatting:
    def test_density_text_is_canonical(self):
        assert fmt_density(0.05) == "0.05"
        assert fmt_density(0.30) == "0.3"
        assert fmt_density(0.15) == "0.15"
        assert instance_key(10, 0.30, 2) == (10, "0.3", 2)

    def test_config_hash_properties(self):
        a = config_hash({"name": "nebm", "r_min": 1})
        b = config_hash({"r_min": 1, "name": "nebm"})
        assert a == b
        assert len(a) == 12
        assert int(a, 16) >= 0
        assert config_hash({"name": "nebm", "r_min": 2}) != a


class TestInteger:
    @pytest.mark.parametrize("value, want", [
        (3, 3), (np.int64(3), 3), (np.uint8(3), 3), (2.0, 2), (np.float64(-4.0), -4),
        (Fraction(6, 2), 3), (2**70, 2**70),
    ], ids=repr)
    def test_whole_values_are_exact(self, value, want):
        got = bench.integer(value)
        assert got == want and type(got) is int

    @pytest.mark.parametrize("value", [
        2.5, Fraction(5, 2), Decimal("2.5"), Decimal("2"), float("inf"),
        float("nan"), None, [2], "2", True, False, 2j,
    ], ids=repr)
    def test_everything_else_is_refused(self, value):
        # Fraction(5, 2) and Decimal("2.5") were truncated to 2, and None or a
        # list leaked int()'s own message.
        with pytest.raises(ValueError, match=r"^not an integer$"):
            bench.integer(value)


class TestBenchmarkPlan:
    def test_default_grid_shape(self):
        plan = BenchmarkPlan()
        cells = list(plan.instances())
        assert len(cells) == 7 * 3 * 5
        assert cells[0] == (10, 0.05, 0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown plan fields"):
            BenchmarkPlan.from_dict({"nodes": [10], "sweeps": 3})

    def test_from_dict_converts_lists(self):
        plan = BenchmarkPlan.from_dict(
            {"nodes": [10], "densities": [0.3], "instance_seeds": [0, 1]}
        )
        assert plan.nodes == (10,)
        assert list(plan.instances()) == [(10, 0.3, 0), (10, 0.3, 1)]

    @pytest.mark.parametrize("field, value, got", [
        ("nodes", "10", "str"),
        ("densities", "0.3", "str"),
        ("instance_seeds", 3, "int"),
        ("budgets", 500.0, "float"),
        ("solvers", {"name": "nebm"}, "dict"),
    ])
    def test_list_field_of_another_type_refused(self, field, value, got):
        # tuple(value) used to iterate a string into its characters and a
        # solver object into its keys.
        with pytest.raises(ValueError, match=(
                rf"^bad plan field type: {field} must be a list, got {got}$")):
            BenchmarkPlan.from_dict({field: value})

    def test_integral_floats_become_ints(self):
        plan = BenchmarkPlan.from_dict({"nodes": [12.0], "instance_seeds": [1.0],
                                        "repetitions": 2.0, "penalty": 8.0})
        assert (plan.nodes, plan.instance_seeds, plan.repetitions, plan.penalty) == (
            (12,), (1,), 2, 8)
        assert all(type(v) is int for v in (*plan.nodes, *plan.instance_seeds))

    @pytest.mark.parametrize("text, where, message", [
        ('{"nodes": [10],}', ":1:", "property name"),
        ('{"nodes": [10],\n "densities": [0.3]\n "budgets": [5]}', ":3:", "delimiter"),
        ('{"nodes": [10], "bogus": 1}', ": ", "unknown plan fields: ['bogus']"),
        ('[10]', ": ", "a plan must be a JSON object"),
        ('{"nodes": 10}', ": ", "bad plan field type"),
        ('{"repetitions": "2"}', ": ", "bad plan field type"),
        ('{"solvers": [{"name": "sa", "tenure": 3}]}', ": ", "unknown solver parameters"),
        ('{"nodes": [12.5]}', ": ", "nodes must be an integer, got 12.5"),
        ('{"instance_seeds": [0.5]}', ": ", "instance_seeds must be an integer, got 0.5"),
        ('{"repetitions": 1.5}', ": ", "repetitions must be an integer, got 1.5"),
        ('{"penalty": 8.5}', ": ", "penalty must be an integer, got 8.5"),
        ('{"repetitions": true}', ": ", "repetitions must be an integer, got True"),
        ('{"solvers": [{"name": "nebm", "refresh": "2"}]}', ": ",
         "bad nebm parameter refresh='2': not an integer"),
        ('{"solvers": [{"name": "tabu", "tenure": true}]}', ": ",
         "bad tabu parameter tenure=True: not an integer"),
        ('{"nodes": [10, 0]}', ": ", "nodes must be >= 1"),
        ('{"densities": [1.5]}', ": ", "densities must be in [0, 1]"),
        ('{"densities": [true]}', ": ", "densities must be a number, got True"),
        ('{"densities": ["0.15"]}', ": ", "densities must be a number, got '0.15'"),
        ('{"budget_kind": "seconds", "budgets": [true]}', ": ",
         "budgets must be a number, got True"),
        ('{"budget_kind": "seconds", "budgets": ["1"]}', ": ",
         "budgets must be a number, got '1'"),
        ('{"solvers": [{"name": "sa", "t0": "3"}]}', ": ",
         "bad sa parameter t0='3': not a number"),
        ('{"densities": [-0.1]}', ": ", "densities must be in [0, 1]"),
    ])
    def test_file_errors_name_the_file(self, tmp_path, text, where, message):
        path = tmp_path / "plan.json"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            BenchmarkPlan.from_file(path)
        assert str(err.value).startswith(f"{path}{where}")
        assert message in str(err.value)

    def test_infinite_seconds_budget_refused(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"budget_kind": "seconds", "budgets": [1, Infinity]}')
        with pytest.raises(ValueError, match="a time budget must be finite, got inf$") as e:
            BenchmarkPlan.from_file(path)
        assert str(e.value).startswith(f"{path}: ")

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchmarkPlan(budget_kind="minutes")
        with pytest.raises(ValueError):
            BenchmarkPlan(budgets=(0,))
        with pytest.raises(ValueError):
            BenchmarkPlan(repetitions=0)
        with pytest.raises(ValueError):
            BenchmarkPlan(penalty=1)
        with pytest.raises(ValueError):
            BenchmarkPlan(solvers=({"name": "cplex"},))

    @pytest.mark.parametrize("budget", [0.5, 2.7, Fraction(7, 2)])
    def test_fractional_step_budget_refused(self, budget):
        with pytest.raises(ValueError, match="step budget must be an integer"):
            BenchmarkPlan(budgets=(budget,))
        assert BenchmarkPlan(budget_kind="seconds", budgets=(budget,)).budgets == (budget,)

    def test_solver_parameters_checked_when_built(self):
        # Caught before any cell or BKS run, not when run_plan reaches it.
        with pytest.raises(ValueError, match="unknown solver parameters"):
            BenchmarkPlan(solvers=({"name": "sa", "tenure": 3},))
        with pytest.raises(ValueError, match="t0"):
            BenchmarkPlan(solvers=({"name": "nebm", "t0": 2.7},))
        with pytest.raises(ValueError, match="alpha"):
            BenchmarkPlan(solvers=({"name": "sa", "alpha": "fast"},))


    @pytest.mark.parametrize("spec, message", [
        ({"name": "tabu", "tenure": 0}, "tenure must be an integer >= 1, got 0"),
        ({"name": "tabu", "restart_after": -1}, "restart_after must be an integer >= 1, got -1"),
        ({"name": "tabu", "init": "ones"}, "unknown init 'ones'"),
        ({"name": "nebm", "init": [0, 2]}, "assignment entries must be 0 or 1"),
        ({"name": "nebm", "alpha": "1/0"}, "bad nebm parameter alpha='1/0': a zero denominator"),
    ])
    def test_bad_solver_setting_refused_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                        spec, message):
        # A setting the solver would refuse at run time is refused when the
        # plan loads, naming the file: no instance is built and no cell runs,
        # not even those of the solvers listed before it.
        for name in ("compute_bks", "generate_mis_graph", "run_solver"):
            monkeypatch.setattr(bench, name, lambda *a, **k: pytest.fail("a cell ran"))
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"nodes": [10], "densities": [0.3], "instance_seeds": [0],
                                    "solvers": [{"name": "sa"}, spec], "budgets": [5]}))
        out = tmp_path / "r.csv"
        assert main(["bench", "--plan", str(plan), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {plan}: {message}\n"
        assert not out.exists()


class TestBksCache:
    def test_exact_for_small_instances(self):
        cost, prov = compute_bks(10, 0.3, 0)
        assert prov == "exact"
        assert cost == -brute_force_mis(generate_mis_graph(10, 0.3, 0))[0]
        assert cost < 0

    def test_tabu_provenance_for_large_instances(self):
        cost, prov = compute_bks(40, 0.15, 1, tabu_sweeps=300)
        assert prov == "tabu:300"
        assert cost < 0
        again, _ = compute_bks(40, 0.15, 1, tabu_sweeps=300)
        assert again == cost

    def test_ensure_fills_only_missing(self):
        plan = BenchmarkPlan(
            nodes=(10,), densities=(0.3,), instance_seeds=(0, 1), repetitions=1
        )
        cache = {}
        added = ensure_bks(plan, cache)
        assert len(added) == 2
        assert ensure_bks(plan, cache) == []

    def test_ensure_refuses_a_non_negative_bks(self):
        # compute_bks reports what the search found; ensure_bks stores only
        # a cost that can be a BKS.
        assert compute_bks(40, 0.15, 0, tabu_sweeps=2) == (193, "tabu:2")
        plan = BenchmarkPlan(nodes=(40,), densities=(0.15,), instance_seeds=(0,))
        cache = {}
        with pytest.raises(ValueError, match=r"n=40 density=0.15 seed=0 came out "
                                             r"193 after 2 tabu sweeps"):
            ensure_bks(plan, cache, tabu_sweeps=2)
        assert cache == {}

    @pytest.mark.parametrize("sweeps", [-1, 2.5, True])
    def test_ensure_names_a_bad_sweep_count(self, tmp_path, capsys, monkeypatch, sweeps):
        # Refused up front and named as tabu_sweeps, also where every
        # instance is small enough for the exact oracle.
        monkeypatch.setattr(bench, "compute_bks", lambda *a, **k: pytest.fail("computed"))
        plan = BenchmarkPlan(nodes=(10, 40), densities=(0.3,), instance_seeds=(0,))
        message = f"tabu_sweeps must be a non-negative integer, got {sweeps!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ensure_bks(plan, {}, tabu_sweeps=sweeps)
        cache = tmp_path / "bks.csv"
        assert main(["bks", "--nodes", "10", "--densities", "0.3", "--seeds", "0",
                     "--tabu-sweeps", "-1", "--cache", str(cache)]) == 2
        assert capsys.readouterr().err == (
            "error: tabu_sweeps must be a non-negative integer, got -1\n")
        assert not cache.exists()

    def test_round_trip(self, tmp_path):
        cache = {
            (10, "0.3", 0): (-5, "exact"),
            (50, "0.15", 2): (-21, "tabu:10000"),
        }
        path = tmp_path / "bks.csv"
        save_bks(path, cache)
        assert load_bks(path) == cache
        assert path.read_text().splitlines()[0] == BKS_HEADER

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError, match="header"):
            load_bks(path)

    @pytest.mark.parametrize(
        "row",
        [
            "10,0.3,0,zero,exact",
            "ten,0.3,0,-5,exact",
            "10,dense,0,-5,exact",
            "10,0.3,0.5,-5,exact",
            "10,0.3,0,-5",
            "10,0.3,0,5,exact",
            "10,0.3,0,0,exact",
        ],
    )
    def test_bad_row_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "bks.csv"
        path.write_text(f"{BKS_HEADER}\n10,0.3,1,-4,exact\n\n{row}\n")
        with pytest.raises(ValueError) as e:
            load_bks(path)
        assert str(e.value).startswith(f"{path}:4: ")

    def test_repeated_instance_names_both_lines(self, tmp_path):
        # Another spelling of the same density, and another cost.
        path = tmp_path / "bks.csv"
        path.write_text(f"{BKS_HEADER}\n10,0.3,1,-4,exact\n10,0.3,2,-4,exact\n10,0.30,1,-5,exact\n")
        with pytest.raises(ValueError, match="repeats line 2$") as e:
            load_bks(path)
        assert str(e.value).startswith(f"{path}:4: ")


def small_plan(**overrides):
    base = dict(
        nodes=(10,),
        densities=(0.3,),
        instance_seeds=(0,),
        solvers=({"name": "sa"}, {"name": "tabu"}),
        budgets=(50,),
        repetitions=5,
    )
    base.update(overrides)
    return BenchmarkPlan(**base)


class TestRunPlan:
    def test_cardinality(self):
        records = run_plan(small_plan())
        assert len(records) == 1 * 2 * 1 * 5

    def test_records_are_coherent(self):
        records = run_plan(small_plan())
        g = generate_mis_graph(10, 0.3, 0)
        q = mis_to_qubo(g)
        for rec in records:
            assert 0.0 <= rec.gap_percent <= 100.0
            assert rec.best_cost == evaluate_cost(q, rec.assignment)
            assert rec.bks_cost == -brute_force_mis(g)[0]
            assert rec.steps <= 50

    def test_small_instances_get_inline_exact_bks(self):
        cache = {}
        run_plan(small_plan(), cache)
        key = instance_key(10, 0.3, 0)
        assert cache[key][1] == "exact"

    def test_large_instances_require_cache(self):
        plan = small_plan(nodes=(40,))
        with pytest.raises(MissingBksError, match="bks subcommand"):
            run_plan(plan)
        # With a cache entry present the plan runs.
        cache = {instance_key(40, 0.3, 0): compute_bks(40, 0.3, 0, tabu_sweeps=200)}
        records = run_plan(plan, cache)
        assert len(records) == 10

    def test_step_mode_is_reproducible(self):
        rows_a = [r.csv_row() for r in run_plan(small_plan())]
        rows_b = [r.csv_row() for r in run_plan(small_plan())]
        # Wall time differs; everything before it must not.
        strip = lambda row: row.rsplit(",", 1)[0]
        assert [strip(r) for r in rows_a] == [strip(r) for r in rows_b]

    def test_parallel_solver_hits_frozen_quality_bar(self):
        # n=10, d=0.3 grid at a 10^4-step budget: every gap at most 20,
        # mean at most 5.
        plan = BenchmarkPlan(
            nodes=(10,),
            densities=(0.3,),
            instance_seeds=(0, 1, 2, 3, 4),
            solvers=({"name": "nebm"},),
            budgets=(10_000,),
            repetitions=5,
        )
        records = run_plan(plan)
        gaps = [r.gap_percent for r in records]
        assert max(gaps) <= 20.0
        assert sum(gaps) / len(gaps) <= 5.0


class TestRunSolver:
    def setup_method(self):
        g = generate_mis_graph(10, 0.3, 0)
        self.q = mis_to_qubo(g)

    def test_unknown_solver_name(self):
        with pytest.raises(ValueError, match="unknown solver"):
            run_solver({"name": "cplex"}, self.q, 0, "steps", 10)

    def test_spec_that_is_not_a_mapping(self):
        with pytest.raises(ValueError, match="a solver must be an object with a name, got 'nebm'"):
            run_solver("nebm", self.q, 0, "steps", 10)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown solver parameters"):
            run_solver({"name": "sa", "tenure": 3}, self.q, 0, "steps", 10)
        with pytest.raises(ValueError, match="unknown solver parameters"):
            run_solver({"name": "nebm", "sweeps": 5}, self.q, 0, "steps", 10)
        # The decision phase has no thread count to set.
        with pytest.raises(ValueError, match=r"unknown solver parameters: \['workers'\]"):
            run_solver({"name": "nebm", "workers": 2}, self.q, 0, "steps", 10)

    def test_bad_budget_kind(self):
        with pytest.raises(ValueError, match="budget_kind"):
            run_solver({"name": "sa"}, self.q, 0, "minutes", 10)

    def test_trace_only_for_parallel_solver(self):
        import io

        with pytest.raises(ValueError, match="trace"):
            run_solver({"name": "sa"}, self.q, 0, "steps", 10, trace=io.StringIO())

    @pytest.mark.parametrize(
        "spec, direct",
        [
            (
                {"name": "nebm", "t0": 30, "alpha": "4/5", "refresh": 5, "t_min": 3,
                 "r_min": 2, "r_max": 5, "init": "zeros"},
                lambda q: solve_qubo(
                    q, 3, max_steps=200,
                    schedule=GeometricSchedule(t0=30, alpha=Fraction(4, 5),
                                               refresh_every=5, t_min=3),
                    refractory=RefractoryPolicy(2, 5), init="zeros",
                ),
            ),
            (
                {"name": "sa", "alpha": 0.9, "t_min": 0.25, "init": "zeros"},
                lambda q: sequential_sa(
                    q, 3, max_steps=200,
                    schedule=CoolingSchedule(alpha=0.9, t_min=0.25), init="zeros",
                ),
            ),
            (
                {"name": "tabu", "tenure": 3, "restart_after": None, "init": "zeros"},
                lambda q: tabu_search(
                    q, 3, max_steps=200, tenure=3, restart_after=None, init="zeros",
                ),
            ),
        ],
        ids=["nebm", "sa", "tabu"],
    )
    def test_schedule_spec_matches_direct_call(self, spec, direct):
        assert run_solver(spec, self.q, 3, "steps", 200) == direct(self.q)

    def test_integer_fields_reject_fractions(self):
        # Fraction(5, 2) and Decimal("2.5") ran as t0 = 2.
        for value in (2.7, Fraction(5, 2), Decimal("2.5")):
            with pytest.raises(ValueError, match="^bad nebm parameter t0="):
                run_solver({"name": "nebm", "t0": value}, self.q, 0, "steps", 10)
        # An integral float or fraction is exact and accepted.
        want = run_solver({"name": "nebm", "t0": 2}, self.q, 0, "steps", 50)
        for value in (2.0, Fraction(4, 2)):
            assert run_solver({"name": "nebm", "t0": value}, self.q, 0, "steps", 50) == want

    @pytest.mark.parametrize("value", [Fraction(5, 2), None, [2]], ids=repr)
    def test_integer_setting_of_another_type_refused(self, value):
        # None or a list leaked int()'s own message.
        message = f"^bad nebm parameter refresh={re.escape(repr(value))}: not an integer$"
        with pytest.raises(ValueError, match=message):
            run_solver({"name": "nebm", "refresh": value}, self.q, 0, "steps", 10)

    @pytest.mark.parametrize("key, value", [("schedule", "linear"), ("delta", 2)])
    def test_removed_schedule_keys_refused(self, tmp_path, capsys, key, value):
        # nebm has one cooling rule: the keys and flags that chose and tuned
        # a second one are refused as a spec, a flag and a config key alike.
        with pytest.raises(ValueError, match=rf"unknown solver parameters: \['{key}'\]"):
            run_solver({"name": "nebm", key: value}, self.q, 0, "steps", 10)
        path = tmp_path / "inst.qubo"
        save_qubo(self.q, path)
        assert main(["solve", str(path), "--" + key, str(value)]) == 2
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        assert main(["solve", str(path), "--config", str(config)]) == 2
        assert f"unknown config keys ['{key}']" in capsys.readouterr().err

    def test_alpha_accepts_fraction_text(self):
        spec = {"name": "nebm", "alpha": "9/10"}
        via_spec = run_solver(spec, self.q, 1, "steps", 100)
        direct = solve_qubo(
            self.q,
            1,
            max_steps=100,
            schedule=GeometricSchedule(alpha=Fraction(9, 10)),
        )
        assert via_spec == direct

    def test_seconds_budget(self):
        res = run_solver({"name": "tabu"}, self.q, 0, "seconds", 0.02)
        assert res.steps > 0

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_infinite_seconds_budget_refused(self, name):
        # Even with a target: the harness never runs without a deadline.
        with pytest.raises(ValueError, match="^a time budget must be finite, got inf$"):
            run_solver({"name": name}, self.q, 0, "seconds", float("inf"), target_cost=-100)

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    @pytest.mark.parametrize("budget", [0.5, 2.7, Fraction(7, 2), Decimal("3"), None],
                             ids=repr)
    def test_fractional_step_budget_refused(self, name, budget):
        # Fraction(7, 2) ran 3 steps.
        with pytest.raises(ValueError, match="step budget must be an integer"):
            run_solver({"name": name}, self.q, 0, "steps", budget)
        assert run_solver({"name": name}, self.q, 0, "steps", 2.0).steps == 2
        assert run_solver({"name": name}, self.q, 0, "steps", Fraction(6, 2)).steps == 3


@pytest.mark.parametrize("name", sorted(SOLVERS))
class TestSolverContract:
    """Every entry point in the solver table takes one budget and stops by one rule."""

    @staticmethod
    def entry(name):
        return getattr(SOLVERS[name].module, SOLVERS[name].entry)

    def test_keyword_only_budget_and_init(self, name):
        params = inspect.signature(self.entry(name)).parameters
        for key in ("max_steps", "max_seconds", "target_cost", "init"):
            assert params[key].kind is inspect.Parameter.KEYWORD_ONLY

    def test_same_budget_errors(self, name):
        q = mis_to_qubo(generate_mis_graph(10, 0.3, 0))
        with pytest.raises(ValueError, match=r"^need max_steps and/or max_seconds$"):
            self.entry(name)(q, 0)
        with pytest.raises(ValueError, match=r"^max_steps must be non-negative, got -1$"):
            self.entry(name)(q, 0, max_steps=-1)

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, "3"])
    def test_non_integer_step_cap_refused(self, name, steps):
        # A float or a bool was run as a step count: 2.5 as 3 steps, True as 1.
        q = mis_to_qubo(generate_mis_graph(10, 0.3, 0))
        with pytest.raises(ValueError, match=rf"^max_steps must be an integer, got {steps!r}$"):
            self.entry(name)(q, 0, max_steps=steps)
        assert self.entry(name)(q, 0, max_steps=np.int64(3)).steps == 3

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint64, np.int8])
    def test_numpy_seed_runs_as_its_int(self, name, kind):
        # A signed NumPy seed overflowed a C long in ``seed & MASK64``, and an
        # unsigned one warned of an overflow in the scalar mix.
        q = mis_to_qubo(generate_mis_graph(20, 0.3, 3))
        assert self.entry(name)(q, kind(3), max_steps=30) == self.entry(name)(q, 3, max_steps=30)

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_non_integer_seed_refused(self, name, seed):
        q = mis_to_qubo(generate_mis_graph(10, 0.3, 0))
        message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            self.entry(name)(q, seed, max_steps=5)

    @pytest.mark.parametrize("seconds", [float("nan"), -1.0, -float("inf")])
    def test_bad_time_budget_refused(self, name, seconds):
        # A NaN deadline never passes, so a run under it would only stop at
        # its step cap, or never.
        q = mis_to_qubo(generate_mis_graph(10, 0.3, 0))
        with pytest.raises(ValueError, match=r"^max_seconds must be non-negative, got "):
            self.entry(name)(q, 0, max_steps=5, max_seconds=seconds)

    @pytest.mark.parametrize("init", ["random", "zeros"])
    def test_no_step_returns_the_start_state(self, name, init):
        q = mis_to_qubo(generate_mis_graph(30, 0.2, 1))
        x, h, price = initial_state(q, 4, init)
        start = price(q, x, h)
        for budget in (
            dict(max_steps=0),
            dict(max_steps=50, target_cost=start),
            dict(max_seconds=60.0, target_cost=start + 3),
            dict(max_seconds=0.0),
            dict(max_seconds=float("inf"), target_cost=start),
        ):
            res = self.entry(name)(q, 4, init=init, **budget)
            assert res.steps == 0
            assert res.best_cost == start
            assert np.array_equal(res.best_assignment, x)


class TestRecordFiles:
    def test_round_trip_and_reverification(self, tmp_path):
        records = run_plan(small_plan())
        out = tmp_path / "results.csv"
        save_records(out, records)
        assert out.read_text().splitlines()[0] == RESULTS_HEADER
        loaded = load_records(out)
        assert len(loaded) == len(records)
        for rec, row in zip(records, loaded):
            assert row.solver == rec.solver
            assert row.best_cost == rec.best_cost
            assert row.gap_percent == pytest.approx(rec.gap_percent, abs=1e-6)
            assert row.assignment is None
        q = mis_to_qubo(generate_mis_graph(10, 0.3, 0))
        stored = load_assignments(str(out) + ".assignments")
        for i, row in enumerate(loaded):
            assert evaluate_cost(q, stored[i]) == row.best_cost

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="header"):
            load_records(path)

    @pytest.mark.parametrize(
        "field, value",
        [("instance_n", "ten"), ("density", "dense"), ("best_cost", "-3.5"),
         ("wall_ms", "fast"), ("steps", "")],
    )
    def test_bad_field_names_path_and_line(self, tmp_path, field, value):
        good = BenchmarkRecord(
            instance_n=10, density=0.3, instance_seed=0, solver="sa",
            config_hash="0" * 12, budget_kind="steps", budget=100, run_seed=0,
            best_cost=-1, bks_cost=-2, gap_percent=50.0, steps=100, wall_ms=1.0,
        ).csv_row()
        names = RESULTS_HEADER.split(",")
        parts = good.split(",")
        parts[names.index(field)] = value
        path = tmp_path / "r.csv"
        path.write_text(f"{RESULTS_HEADER}\n{good}\n{','.join(parts)}\n")
        with pytest.raises(ValueError) as e:
            load_records(path)
        assert str(e.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize(
        "line",
        ["1 3 0101", "1 3", "1 3 011 extra", "one 3 011", "1 three 011", "1 3 021"],
    )
    def test_bad_assignment_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "r.csv.assignments"
        path.write_text(f"0 3 101\n{line}\n")
        with pytest.raises(ValueError) as e:
            load_assignments(path)
        assert str(e.value).startswith(f"{path}:2: ")

    def test_repeated_assignment_row_names_both_lines(self, tmp_path):
        path = tmp_path / "r.csv.assignments"
        path.write_text("0 3 101\n1 3 011\n\n0 3 110\n")
        with pytest.raises(ValueError, match="row 0 repeats line 1$") as e:
            load_assignments(path)
        assert str(e.value).startswith(f"{path}:4: ")


class TestSummarize:
    def test_single_record_group(self):
        records = run_plan(small_plan(solvers=({"name": "tabu"},), repetitions=1))
        summary = summarize(records)
        assert len(summary) == 1
        g = summary[0]
        assert g["runs"] == 1
        assert g["gap_mean"] == g["gap_min"] == g["gap_max"]

    def test_known_mean(self):
        rows = [
            BenchmarkRecord(
                instance_n=10,
                density=0.3,
                instance_seed=0,
                solver="sa",
                config_hash="0" * 12,
                budget_kind="steps",
                budget=100,
                run_seed=0,
                best_cost=-1,
                bks_cost=-2,
                gap_percent=gp,
                steps=100,
                wall_ms=1.0,
            )
            for gp in (0.0, 50.0, 100.0)
        ]
        summary = summarize(rows)
        assert summary[0]["gap_mean"] == 50.0
        assert summary[0]["gap_min"] == 0.0
        assert summary[0]["gap_max"] == 100.0

    def test_permutation_invariant(self):
        records = run_plan(small_plan())
        shuffled = list(records)
        np.random.default_rng(0).shuffle(shuffled)
        assert summarize(records) == summarize(shuffled)

    def test_save_summary(self, tmp_path):
        records = run_plan(small_plan(repetitions=2))
        path = tmp_path / "summary.csv"
        save_summary(path, summarize(records))
        lines = path.read_text().splitlines()
        assert lines[0] == SUMMARY_HEADER
        assert len(lines) == 1 + 2  # two solvers, one group each
