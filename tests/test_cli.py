"""End-to-end runs of the command-line interface, in process via main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nebm
from nebm import (
    CoolingSchedule,
    MisGraph,
    brute_force_mis,
    build_qubo,
    evaluate_cost,
    generate_mis_graph,
    load_bks,
    load_qubo,
    mis_to_qubo,
    save_graph,
    save_qubo,
    sequential_sa,
    tabu_search,
)
from nebm.bench import RESULTS_HEADER, SOLVERS
from nebm.cli import build_parser, main


def read_bits(path):
    return np.array([int(c) for c in path.read_text().strip()], dtype=np.uint8)


def save_and_read(tmp_path, q):
    path = tmp_path / "expected.qubo"
    save_qubo(q, path)
    return path.read_text()


class TestGenerate:
    def test_writes_graph_and_qubo(self, tmp_path, capsys):
        out = tmp_path / "inst"
        rc = main(
            ["generate", "--n", "12", "--density", "0.5", "--seed", "3",
             "--out", str(out)]
        )
        assert rc == 0
        line = capsys.readouterr().out.strip()
        g = generate_mis_graph(12, 0.5, 3)
        assert line == (
            f"wrote {out}.graph (n=12 edges={g.m}) and "
            f"{out}.qubo (nnz={12 + g.m})"
        )
        q = load_qubo(f"{out}.qubo")
        assert q.n == 12

    def test_density_zero_has_no_edges(self, tmp_path, capsys):
        out = tmp_path / "empty"
        assert main(["generate", "--n", "6", "--density", "0", "--out", str(out)]) == 0
        assert "edges=0" in capsys.readouterr().out
        assert "e " not in (tmp_path / "empty.graph").read_text()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["generate", "--n", "15", "--density", "0.3", "--seed", "9",
                  "--out", str(out)])
        assert (tmp_path / "a.graph").read_bytes() == (tmp_path / "b.graph").read_bytes()
        assert (tmp_path / "a.qubo").read_bytes() == (tmp_path / "b.qubo").read_bytes()

    def test_missing_required_args(self, tmp_path, capsys):
        assert main(["generate", "--n", "6", "--out", str(tmp_path / "x")]) == 2
        assert "density" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n", "seed", "penalty"])
    def test_config_integers_must_be_integral(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        fields = {"n": 12, "density": 0.5, "seed": 3, "penalty": 8,
                  "out": str(tmp_path / "inst")}
        for bad in (2.7, "12", True):
            cfg.write_text(json.dumps({**fields, key: bad}))
            assert main(["generate", "--config", str(cfg)]) == 2
            assert capsys.readouterr().err == f"error: {key} must be an integer, got {bad!r}\n"
            assert not (tmp_path / "inst.graph").exists()
        cfg.write_text(json.dumps({**fields, key: float(fields[key])}))
        assert main(["generate", "--config", str(cfg)]) == 0
        assert (tmp_path / "inst.qubo").read_text() == save_and_read(
            tmp_path, mis_to_qubo(generate_mis_graph(12, 0.5, 3), 8)
        )

    @pytest.mark.parametrize("flag", ["--n", "--seed", "--penalty"])
    def test_fractional_integer_flags_are_usage_errors(self, tmp_path, capsys, flag):
        args = {"--n": "12", "--density": "0.5", "--seed": "3", "--penalty": "8",
                "--out": str(tmp_path / "inst")}
        args[flag] = "2.7"
        assert main(["generate", *[t for kv in args.items() for t in kv]]) == 2
        assert "invalid int value: '2.7'" in capsys.readouterr().err


@pytest.fixture
def one_var_qubo(tmp_path):
    path = tmp_path / "one.qubo"
    save_qubo(build_qubo(1, [(0, 0, -1)]), path)
    return path


@pytest.fixture
def diag_qubo(tmp_path):
    # Unique optimum 1010 with cost -5.
    path = tmp_path / "diag.qubo"
    save_qubo(build_qubo(4, [(0, 0, -3), (1, 1, 5), (2, 2, -2), (3, 3, 7)]), path)
    return path


class TestSolve:
    def test_single_variable(self, one_var_qubo, capsys):
        assert main(["solve", str(one_var_qubo), "--max-steps", "10"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("best_cost=-1 steps=10 wall_ms=")

    def test_finds_diagonal_optimum(self, diag_qubo, tmp_path, capsys):
        bits_path = tmp_path / "bits.txt"
        rc = main(
            ["solve", str(diag_qubo), "--max-steps", "200", "--out", str(bits_path)]
        )
        assert rc == 0
        assert "best_cost=-5 " in capsys.readouterr().out
        assert bits_path.read_text() == "1010\n"

    def test_deterministic_reruns(self, diag_qubo, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            path = tmp_path / name
            main(["solve", str(diag_qubo), "--seed", "7", "--max-steps", "120",
                  "--out", str(path)])
            head = capsys.readouterr().out.rsplit("wall_ms=", 1)[0]
            outs.append((head, path.read_bytes()))
        assert outs[0] == outs[1]

    def test_each_solver_runs(self, diag_qubo, capsys):
        for solver in ("nebm", "sa", "tabu"):
            rc = main(["solve", str(diag_qubo), "--solver", solver,
                       "--max-steps", "60"])
            assert rc == 0
            assert "best_cost=-5 " in capsys.readouterr().out

    def test_tabu_restart_flag_zero_disables(self, tmp_path, capsys):
        out = tmp_path / "g"
        main(["generate", "--n", "20", "--density", "0.3", "--out", str(out)])
        capsys.readouterr()
        rc = main(["solve", f"{out}.qubo", "--solver", "tabu",
                   "--max-steps", "50", "--restart-after", "0"])
        assert rc == 0
        cost = int(capsys.readouterr().out.split()[0].split("=")[1])
        q = load_qubo(f"{out}.qubo")
        direct = tabu_search(q, 0, max_steps=50, restart_after=None)
        assert cost == direct.best_cost

    def test_sa_alpha_flag(self, tmp_path, capsys):
        out = tmp_path / "g"
        main(["generate", "--n", "20", "--density", "0.3", "--out", str(out)])
        capsys.readouterr()
        bits = tmp_path / "bits.txt"
        rc = main(["solve", f"{out}.qubo", "--solver", "sa", "--alpha", "0.9",
                   "--max-steps", "40", "--out", str(bits)])
        assert rc == 0
        cost = int(capsys.readouterr().out.split()[0].split("=")[1])
        q = load_qubo(f"{out}.qubo")
        direct = sequential_sa(q, 0, schedule=CoolingSchedule(alpha=0.9), max_steps=40)
        assert cost == direct.best_cost
        assert np.array_equal(read_bits(bits), direct.best_assignment)

    def test_bad_solver_parameter_is_usage_error(self, diag_qubo, capsys):
        # A fractional integer temperature is refused, not truncated.
        assert main(["solve", str(diag_qubo), "--t0", "2.7"]) == 2
        assert "t0" in capsys.readouterr().err
        assert main(["solve", str(diag_qubo), "--solver", "sa", "--alpha", "fast"]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--max-seconds", "nan"],
            ["--max-seconds", "-1"],
            ["--solver", "sa", "--t-min", "nan"],
            ["--solver", "sa", "--t0", "nan"],
        ],
    )
    def test_nan_or_negative_setting_is_usage_error(self, diag_qubo, argv, capsys):
        assert main(["solve", str(diag_qubo), *argv]) == 2
        assert argv[-2].lstrip("-").replace("-", "_") in capsys.readouterr().err

    @pytest.mark.parametrize("argv, shown", [
        (["--max-seconds", "inf"], "a time budget must be finite"),
        (["--solver", "sa", "--t-min", "inf", "--max-steps", "5"], "t_min must be finite"),
        (["--solver", "sa", "--t0", "inf", "--max-steps", "5"], "t0 must be finite"),
        (["--t0", "1e30", "--max-steps", "5"], "t0 must be an integer in [0, "),
        (["--t0", str(2**60), "--max-steps", "5"], "t0 must be an integer in [0, "),
        (["--t-min", "inf", "--max-steps", "5"], "bad nebm parameter t_min=inf"),
        (["--r-max", str(10**30), "--max-steps", "5"], "r_max must be an integer in [1, "),
        # An integer literal beyond the largest double: refused, not a crash.
        pytest.param(["--solver", "sa", "--t0", "9" * 400, "--max-steps", "5"],
                     "bad sa parameter t0=" + "9" * 400 + ": too large for a float",
                     id="sa-t0-beyond-double"),
    ])
    def test_infinite_or_huge_setting_is_usage_error(self, diag_qubo, capsys, argv, shown):
        assert main(["solve", str(diag_qubo), *argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {shown}")

    def test_flag_of_other_solver_is_usage_error(self, diag_qubo, tmp_path, capsys):
        rc = main(["solve", str(diag_qubo), "--solver", "sa", "--tenure", "3",
                   "--r-max", "2", "--max-steps", "5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--tenure" in err and "--r-max" in err
        assert main(["solve", str(diag_qubo), "--tenure", "3"]) == 2
        assert "solver nebm does not take --tenure" in capsys.readouterr().err
        assert main(["solve", str(diag_qubo), "--solver", "tabu", "--t-min", "1"]) == 2
        assert "--t-min" in capsys.readouterr().err
        # A config file may hold defaults for several solvers.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tenure": 3, "r_max": 2}))
        rc = main(["solve", str(diag_qubo), "--solver", "sa", "--max-steps", "5",
                   "--config", str(cfg)])
        assert rc == 0

    def test_workers_is_gone(self, diag_qubo, tmp_path, capsys):
        # No --workers flag, and a config that still names it is refused,
        # not silently ignored.
        assert main(["solve", str(diag_qubo), "--workers", "2"]) == 2
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 2, "max_steps": 5}))
        assert main(["solve", str(diag_qubo), "--config", str(cfg)]) == 2
        assert "unknown config keys ['workers']" in capsys.readouterr().err

    def test_solver_flags_match_solver_table(self):
        # Every key of every solver has a flag on solve, and every solver
        # flag on solve is a key of at least one solver.
        solve = build_parser()._subparsers._group_actions[0].choices["solve"]
        generic = {"help", "qubo", "solver", "seed", "max_steps", "max_seconds",
                   "out", "trace_out", "config"}
        flags = {a.dest for a in solve._actions} - generic
        keys = set().union(*(s.params for s in SOLVERS.values()))
        assert flags == keys

    def test_budget_flags_are_exclusive(self, one_var_qubo, capsys):
        rc = main(["solve", str(one_var_qubo), "--max-steps", "5",
                   "--max-seconds", "0.1"])
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_seconds_budget(self, diag_qubo, capsys):
        assert main(["solve", str(diag_qubo), "--max-seconds", "0.05"]) == 0
        assert "best_cost=-5 " in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "ghost.qubo")]) == 2


#: Values given to every solver setting in each way in: an integral float,
#: a fractional one, a numeric string, a bool, a fraction with a zero
#: denominator, a zero (no restarts for restart_after, refused as a tenure),
#: a name that no init has, and null (the solver's default where the
#: setting takes one, refused elsewhere).
ANY_VALUE = [2.0, 2.5, "2", True, "1/0", 0, "ones", None]


@pytest.mark.parametrize("value", ANY_VALUE, ids=repr)
@pytest.mark.parametrize("solver, key", [
    (name, key) for name, entry in SOLVERS.items() for key in entry.params
])
def test_every_way_in_makes_the_same_call(tmp_path, monkeypatch, capsys, solver, key, value):
    # A setting given as a run_solver spec, a plan entry and a --config key
    # reaches the entry point as the same keyword arguments, or is refused
    # with the same message and status 2. A flag's text goes through the
    # setting's parse, then on as that spec; text the parse refuses is
    # argparse's usage error.
    entry, setting = SOLVERS[solver], SOLVERS[solver].params[key]
    calls = []

    def fake_entry(q, seed, **kwargs):
        calls.append(kwargs)
        return nebm.RunResult(0, np.zeros(q.n, dtype=np.int8), 0, 0.0)

    monkeypatch.setattr(entry.module, entry.entry, fake_entry)
    q = mis_to_qubo(generate_mis_graph(5, 0.5, 0))
    path = tmp_path / "inst.qubo"
    save_qubo(q, path)

    def way(run):
        calls.clear()
        try:
            status, shown = run(), capsys.readouterr().err
        except ValueError as e:
            status, shown = 2, str(e)
        return status, shown, calls[:1]

    def spec(v):
        # the outcome as nebm would print it, with the error line main gives
        status, shown, called = way(
            lambda: nebm.run_solver({"name": solver, key: v}, q, 0, "steps", 3) and 0)
        return status, f"error: {shown}\n" if status else "", called

    def cli(*argv, **files):
        for name, content in files.items():
            (tmp_path / name).write_text(json.dumps(content))
        return way(lambda: main([*argv]))

    want = spec(value)
    config = cli("solve", str(path), "--config", str(tmp_path / "c.json"),
                 **{"c.json": {"solver": solver, key: value, "max_steps": 3}})
    plan_path, out = tmp_path / "p.json", tmp_path / "r.csv"
    plan = cli("bench", "--plan", str(plan_path), "--out", str(out), **{"p.json": {
        "nodes": [5], "densities": [0.5], "instance_seeds": [0], "repetitions": 1,
        "solvers": [{"name": solver, key: value}], "budgets": [3]}})
    assert config == want
    if want[0] == 0:
        assert plan == want
    else:
        assert want[2] == [] and not out.exists()
        assert plan == (2, want[1].replace("error: ", f"error: {plan_path}: ", 1), [])

    flag = cli("solve", str(path), "--solver", solver, "--max-steps", "3",
               "--" + key.replace("_", "-"), str(value))
    try:
        parsed = setting.parse(str(value))
    except ValueError:
        assert flag[0] == 2 and "invalid" in flag[1]
    else:
        assert flag == spec(parsed)

    refused = {("alpha", "1/0"), ("tenure", 0), ("init", "ones")}
    if (key, value) in refused:
        assert want[0] == flag[0] == 2
    if (key, value) == ("restart_after", 0):
        assert want[2][0]["restart_after"] is None


class TestTrace:
    def test_trace_file_format(self, diag_qubo, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        rc = main(["solve", str(diag_qubo), "--max-steps", "60",
                   "--trace-out", str(trace)])
        assert rc == 0
        summary = capsys.readouterr().out
        assert "steps=60" in summary
        lines = trace.read_text().splitlines()
        assert len(lines) == 60
        for i, line in enumerate(lines):
            step, flips, cost, t_hat = (int(tok) for tok in line.split())
            assert step == i + 1
            assert flips >= 0
            assert t_hat >= 0

    def test_integer_temperatures_stay_exact(self, diag_qubo, capsys):
        # 2^53 + 1 and 2^53 + 3 have no double: parsed as floats, both
        # flags would round to an even neighbour.
        t0, t_min = 2**53 + 1, 2**53 + 3
        assert main(["solve", str(diag_qubo), "--max-steps", "2", "--refresh", "2",
                     "--t0", str(t0), "--t-min", str(t_min), "--trace-out", "-"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [int(line.split()[3]) for line in lines[:2]] == [t0, t_min]

    def test_trace_to_stdout(self, diag_qubo, capsys):
        assert main(["solve", str(diag_qubo), "--max-steps", "5", "--trace-out", "-"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # 5 trace lines then the summary line.
        assert len(lines) == 6
        assert lines[-1].startswith("best_cost=")
        assert [int(l.split()[0]) for l in lines[:5]] == [1, 2, 3, 4, 5]

    def test_reader_leaving_early_is_quiet(self, diag_qubo):
        # `nebm solve ... --trace-out - | head -1`, in a child process: 20 000
        # lines overfill the pipe, so the run is still writing when the
        # reader closes it.
        env = {**os.environ, "PYTHONPATH": str(Path(nebm.__file__).resolve().parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "nebm.cli", "solve", str(diag_qubo),
             "--max-steps", "20000", "--trace-out", "-"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"1 ")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"")

    def test_trace_rejects_sequential_solvers(self, diag_qubo, tmp_path, capsys):
        trace = tmp_path / "t.txt"
        rc = main(["solve", str(diag_qubo), "--solver", "sa", "--max-steps", "5",
                   "--trace-out", str(trace)])
        assert rc == 2
        assert "trace" in capsys.readouterr().err
        assert not trace.exists()

    def test_refused_run_leaves_no_trace_file(self, diag_qubo, tmp_path, capsys):
        trace = tmp_path / "t.txt"
        for argv in (
            [str(tmp_path / "ghost.qubo")],
            [str(diag_qubo), "--t0", "2.5"],
            [str(diag_qubo), "--max-steps", "5", "--max-seconds", "1"],
        ):
            assert main(["solve", *argv, "--trace-out", str(trace)]) == 2
            assert not trace.exists()
        capsys.readouterr()

    def test_empty_run_writes_empty_trace(self, diag_qubo, tmp_path, capsys):
        trace = tmp_path / "t.txt"
        assert main(["solve", str(diag_qubo), "--max-steps", "0",
                     "--trace-out", str(trace)]) == 0
        assert trace.read_text() == ""

    def test_trace_subcommand_is_gone(self, diag_qubo, capsys):
        assert main(["trace", str(diag_qubo), "--max-steps", "5"]) == 2
        assert "invalid choice: 'trace'" in capsys.readouterr().err

    def test_config_trace_out(self, diag_qubo, tmp_path, capsys):
        trace = tmp_path / "t.txt"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trace_out": str(trace), "max_steps": 7}))
        assert main(["solve", str(diag_qubo), "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("best_cost=")
        assert len(trace.read_text().splitlines()) == 7


class TestBks:
    def test_exact_cache_for_small_instance(self, tmp_path, capsys):
        cache_path = tmp_path / "bks.csv"
        rc = main(["bks", "--nodes", "5", "--densities", "0.5", "--seeds", "0",
                   "--cache", str(cache_path)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == (
            f"bks cache {cache_path}: 1 computed, 1 total"
        )
        cache = load_bks(cache_path)
        cost, prov = cache[(5, "0.5", 0)]
        assert prov == "exact"
        assert cost == -brute_force_mis(generate_mis_graph(5, 0.5, 0))[0]

    def test_second_run_adds_nothing(self, tmp_path, capsys):
        cache_path = tmp_path / "bks.csv"
        args = ["bks", "--nodes", "5,8", "--densities", "0.5", "--seeds", "0",
                "--cache", str(cache_path)]
        main(args)
        capsys.readouterr()
        assert main(args) == 0
        assert "0 computed, 2 total" in capsys.readouterr().out

    def test_requires_cache_path(self, capsys):
        assert main(["bks", "--nodes", "5"]) == 2
        assert "cache" in capsys.readouterr().err

    def test_config_sweeps_must_be_integral(self, tmp_path, capsys):
        cache_path = tmp_path / "bks.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tabu_sweeps": 300.5, "nodes": "40",
                                   "densities": "0.15", "seeds": "1"}))
        assert main(["bks", "--config", str(cfg), "--cache", str(cache_path)]) == 2
        assert capsys.readouterr().err == "error: tabu_sweeps must be an integer, got 300.5\n"
        assert not cache_path.exists()
        assert main(["bks", "--nodes", "40", "--densities", "0.15", "--seeds", "1",
                     "--tabu-sweeps", "300.5", "--cache", str(cache_path)]) == 2
        assert "invalid int value: '300.5'" in capsys.readouterr().err
        cfg.write_text(json.dumps({"tabu_sweeps": 300.0, "nodes": "40",
                                   "densities": "0.15", "seeds": "1"}))
        assert main(["bks", "--config", str(cfg), "--cache", str(cache_path)]) == 0
        assert load_bks(cache_path)[(40, "0.15", 1)][1] == "tabu:300"

    def test_too_short_search_stores_nothing(self, tmp_path, capsys):
        # Two sweeps leave G(40, .15, 0) at cost +193, which is no BKS.
        cache_path = tmp_path / "bks.csv"
        rc = main(["bks", "--nodes", "40", "--densities", "0.15", "--seeds", "0",
                   "--tabu-sweeps", "2", "--cache", str(cache_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: BKS of instance n=40 density=0.15 seed=0 came out 193 after "
            "2 tabu sweeps; a BKS must be negative, so raise the sweep budget\n"
        )
        assert not cache_path.exists()

    @pytest.mark.parametrize("flag, items, bad, kind", [
        ("--nodes", "10,x", "x", "an integer"),
        ("--densities", "0.1,zz", "zz", "a number"),
        ("--seeds", "0,1.5", "1.5", "an integer"),
    ])
    def test_bad_list_item_names_flag_and_item(self, tmp_path, capsys, flag, items, bad, kind):
        lists = {"--nodes": "10", "--densities": "0.3", "--seeds": "0", flag: items}
        flags = [text for pair in lists.items() for text in pair]
        for command, out in (("bks", "--cache"), ("bench", "--out")):
            path = tmp_path / f"{command}.csv"
            assert main([command, *flags, out, str(path)]) == 2
            assert capsys.readouterr().err == f"error: {flag}: item {bad!r} is not {kind}\n"
            assert not path.exists()


def write_plan(path, **fields):
    base = dict(
        nodes=[10],
        densities=[0.3],
        instance_seeds=[0],
        solvers=[{"name": "tabu"}],
        budgets=[40],
        repetitions=2,
    )
    base.update(fields)
    path.write_text(json.dumps(base))
    return path


class TestBench:
    def test_empty_plan_writes_header_only(self, tmp_path, capsys):
        plan = write_plan(tmp_path / "plan.json", instance_seeds=[])
        out = tmp_path / "results.csv"
        rc = main(["bench", "--plan", str(plan), "--out", str(out)])
        assert rc == 0
        assert "wrote 0 records" in capsys.readouterr().out
        assert out.read_text() == RESULTS_HEADER + "\n"

    def test_small_plan_end_to_end(self, tmp_path, capsys):
        plan = write_plan(tmp_path / "plan.json")
        out = tmp_path / "results.csv"
        bks = tmp_path / "bks.csv"
        summary = tmp_path / "summary.csv"
        rc = main(["bench", "--plan", str(plan), "--out", str(out),
                   "--bks", str(bks), "--summary", str(summary)])
        assert rc == 0
        assert "wrote 2 records" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 3
        assert summary.exists()
        # The inline exact value was persisted for reuse.
        assert load_bks(bks)[(10, "0.3", 0)][1] == "exact"

    def test_rerun_reproduces_gap_columns(self, tmp_path, capsys):
        plan = write_plan(tmp_path / "plan.json")

        def run(name):
            out = tmp_path / name
            main(["bench", "--plan", str(plan), "--out", str(out)])
            capsys.readouterr()
            rows = out.read_text().splitlines()[1:]
            return [r.rsplit(",", 1)[0] for r in rows]

        assert run("a.csv") == run("b.csv")

    @pytest.mark.parametrize("text", [
        '{"nodes": [10],}',
        '{"nodes": [10], "bogus": 1}',
        # a solver that is not an object: a list of names, or one bare object
        '{"nodes": [10], "solvers": ["nebm"]}',
        '{"nodes": [10], "solvers": {"name": "nebm"}}',
    ])
    def test_bad_plan_file_is_usage_error(self, tmp_path, capsys, text):
        plan = tmp_path / "plan.json"
        plan.write_text(text)
        rc = main(["bench", "--plan", str(plan), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert str(plan) in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"nodes": "10"}', "nodes must be a list, got str"),
        ('{"nodes": [10], "densities": 0.15}', "densities must be a list, got float"),
        ('{"nodes": [10], "solvers": {"name": "nebm"}}', "solvers must be a list, got dict"),
    ])
    def test_list_field_of_another_type_is_usage_error(self, tmp_path, capsys, text, message):
        plan = tmp_path / "plan.json"
        plan.write_text(text)
        rc = main(["bench", "--plan", str(plan), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert f"{plan}: bad plan field type: {message}" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_missing_bks_is_exit_3(self, tmp_path, capsys):
        plan = write_plan(tmp_path / "plan.json", nodes=[50])
        rc = main(["bench", "--plan", str(plan), "--out", str(tmp_path / "r.csv")])
        assert rc == 3
        assert "bks subcommand" in capsys.readouterr().err


class TestOracle:
    def test_five_cycle(self, tmp_path, capsys):
        path = tmp_path / "c5.graph"
        save_graph(MisGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), path)
        assert main(["oracle", str(path)]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("mis_size=2 cost=-2 bits=")
        bits = out.split("bits=")[1]
        assert len(bits) == 5
        assert bits.count("1") == 2


class TestConfigAndExitCodes:
    def test_config_supplies_defaults(self, diag_qubo, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_steps": 37, "seed": 2}))
        assert main(["solve", str(diag_qubo), "--config", str(cfg)]) == 0
        assert "steps=37 " in capsys.readouterr().out

    def test_flag_overrides_config(self, diag_qubo, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_steps": 37}))
        rc = main(["solve", str(diag_qubo), "--config", str(cfg),
                   "--max-steps", "21"])
        assert rc == 0
        assert "steps=21 " in capsys.readouterr().out

    def test_config_out(self, diag_qubo, tmp_path, capsys):
        bits_path = tmp_path / "bits.txt"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(bits_path), "max_steps": 200}))
        assert main(["solve", str(diag_qubo), "--config", str(cfg)]) == 0
        assert "best_cost=-5 " in capsys.readouterr().out
        assert bits_path.read_text() == "1010\n"

    def test_config_solver_params_flow_through(self, diag_qubo, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": "tabu", "tenure": 3, "max_steps": 30}))
        assert main(["solve", str(diag_qubo), "--config", str(cfg)]) == 0
        assert "best_cost=-5 " in capsys.readouterr().out

    def test_non_object_config(self, diag_qubo, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["solve", str(diag_qubo), "--config", str(cfg)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_unknown_config_key(self, diag_qubo, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_step": 37}))
        assert main(["solve", str(diag_qubo), "--config", str(cfg)]) == 2
        assert "['max_step']" in capsys.readouterr().err
        # "func" and "command" are parser internals, not flags.
        cfg.write_text(json.dumps({"func": "oracle"}))
        assert main(["solve", str(diag_qubo), "--config", str(cfg)]) == 2

    def test_bad_json_config_names_path_and_line(self, diag_qubo, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"max_steps": 5,\n "seed": 1,}')
        assert main(["solve", str(diag_qubo), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}:2: Expecting property name")

    @pytest.mark.parametrize("steps, rc, shown", [
        (2.7, 2, "error: a step budget must be an integer, got 2.7"),
        (0.5, 2, "error: a step budget must be an integer, got 0.5"),
        ("50", 2, "error: a step budget must be an integer, got '50'"),
        (True, 2, "error: a step budget must be an integer, got True"),
        (2.0, 0, "best_cost=-5 steps=2 "),
    ])
    def test_config_step_budget_must_be_integral(self, diag_qubo, tmp_path, capsys,
                                                 steps, rc, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_steps": steps, "solver": "tabu"}))
        assert main(["solve", str(diag_qubo), "--config", str(cfg)]) == rc
        out = capsys.readouterr()
        assert (out.err if rc else out.out).startswith(shown)

    @pytest.mark.parametrize("command, fields, shown", [
        ("solve", {"solver": "sa", "t0": "3", "t_min": "0.5", "max_steps": 5},
         "error: bad sa parameter t0='3': not a number"),
        ("solve", {"solver": "sa", "t_min": "0.5", "max_steps": 5},
         "error: bad sa parameter t_min='0.5': not a number"),
        ("solve", {"solver": "sa", "alpha": True, "max_steps": 5},
         "error: bad sa parameter alpha=True: not a number"),
        ("solve", {"max_seconds": "0.05"}, "error: max_seconds must be a number, got '0.05'"),
        ("solve", {"max_seconds": True}, "error: max_seconds must be a number, got True"),
        ("generate", {"n": 20, "density": "0.15"},
         "error: density must be a number, got '0.15'"),
        ("generate", {"n": 20, "density": True}, "error: density must be a number, got True"),
    ])
    def test_config_reals_must_be_numbers(self, diag_qubo, tmp_path, capsys,
                                          command, fields, shown):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "inst"
        if command == "generate":
            fields = {**fields, "out": str(out)}
        cfg.write_text(json.dumps(fields))
        args = [command, str(diag_qubo)] if command == "solve" else [command]
        assert main([*args, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == shown + "\n"
        assert not (tmp_path / "inst.qubo").exists()

    def test_config_seed_must_be_integral(self, diag_qubo, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for bad in (2.7, "3", False):
            cfg.write_text(json.dumps({"seed": bad, "max_steps": 5}))
            assert main(["solve", str(diag_qubo), "--config", str(cfg)]) == 2
            assert capsys.readouterr().err == f"error: seed must be an integer, got {bad!r}\n"
        assert main(["solve", str(diag_qubo), "--seed", "2.7"]) == 2
        assert "invalid int value: '2.7'" in capsys.readouterr().err
        outs = []
        for seed in (2.0, 2):
            cfg.write_text(json.dumps({"seed": seed, "max_steps": 5}))
            out = tmp_path / f"x{seed}.txt"
            assert main(["solve", str(diag_qubo), "--config", str(cfg),
                         "--out", str(out)]) == 0
            capsys.readouterr()
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_missing_config_file(self, diag_qubo, tmp_path, capsys):
        rc = main(["solve", str(diag_qubo), "--config", str(tmp_path / "no.json")])
        assert rc == 2

    def test_parse_errors(self, capsys):
        assert main(["frobnicate"]) == 2
        assert main(["solve"]) == 2
        assert main(["solve", "x.qubo", "--solver", "gurobi"]) == 2
        capsys.readouterr()

    def test_corrupt_qubo_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.qubo"
        bad.write_text("qubo x y\n")
        assert main(["solve", str(bad)]) == 2
