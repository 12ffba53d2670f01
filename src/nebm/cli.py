"""Command-line front end: generate, solve, bench, bks, oracle.

Every subcommand is non-interactive and writes only to the paths named in
its arguments; ``solve --trace-out PATH`` (nebm only) streams one ``step
flips cost_emitted t_hat`` line per step there, or to stdout for ``-``.
An optional ``--config FILE`` supplies defaults as JSON (keys match the
long flag names with underscores; any other key is refused); explicit
flags override the file. Exit codes: 0 success, 1 internal failure or a
reader that closed stdout early (``| head``), 2 bad usage or unparseable
input, 3 missing best-known-solution cache entries.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import bench as bench_mod, mis
from .bench import integer, real
from .mis import brute_force_mis, generate_mis_graph, load_graph, mis_to_qubo, save_graph
from .qubo import _write_lines, load_qubo, save_qubo

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_MISSING_BKS = 3


def _merge(args, cfg: dict, name: str, default=None, convert=None):
    # precedence: explicit flag > config file > default; a value that is
    # there goes through convert, and a refusal names the setting
    v = getattr(args, name, None)
    v = v if v is not None else cfg.get(name, default)
    return v if v is None or convert is None else bench_mod.setting_value(name, convert, v)


def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if path is None:
        return {}
    cfg = bench_mod.load_json(path)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    # A key no flag of this command reads would be dropped without a word.
    unknown = set(cfg) - (set(vars(args)) - {"command", "func", "config"})
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return cfg


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    n = _merge(args, cfg, "n", convert=integer)
    density = _merge(args, cfg, "density", convert=real)
    if n is None or density is None:
        raise ValueError("generate requires --n and --density")
    seed = _merge(args, cfg, "seed", 0, integer)
    penalty = _merge(args, cfg, "penalty", mis.DEFAULT_PENALTY, integer)
    out = _merge(args, cfg, "out")
    if out is None:
        raise ValueError("generate requires --out (output path prefix)")
    g = generate_mis_graph(n, density, seed)
    q = mis_to_qubo(g, penalty)
    graph_path = f"{out}.graph"
    qubo_path = f"{out}.qubo"
    save_graph(g, graph_path)
    save_qubo(q, qubo_path)
    print(
        f"wrote {graph_path} (n={g.n} edges={g.m}) and "
        f"{qubo_path} (nnz={g.n + g.m})"
    )
    return EXIT_OK


def _solver_settings() -> dict:
    """Each solver key, with the settings of the solvers that take it: one
    ``nebm solve`` flag and ``--config`` key per key."""
    keys = {}
    for name, solver in bench_mod.SOLVERS.items():
        for key, setting in solver.params.items():
            keys.setdefault(key, {})[name] = setting
    return keys


def _solver_spec(args, cfg) -> dict:
    name = _merge(args, cfg, "solver", "nebm")
    params = bench_mod.solver_entry(name).params
    # A flag of another solver would otherwise be dropped without a word.
    foreign = [
        "--" + key.replace("_", "-")
        for key in _solver_settings()
        if key not in params and getattr(args, key) is not None
    ]
    if foreign:
        raise ValueError(f"solver {name} does not take {', '.join(foreign)}")
    spec = {"name": name}
    for key in params:
        v = _merge(args, cfg, key)
        # A config key present with null is passed on as None, as a plan's is.
        if v is not None or key in cfg:
            spec[key] = v
    return spec


def _budget(args, cfg) -> tuple[str, float]:
    # run_solver converts and checks the value: a step budget must be integral.
    steps = _merge(args, cfg, "max_steps")
    seconds = _merge(args, cfg, "max_seconds", convert=real)
    if steps is not None and seconds is not None:
        raise ValueError("--max-steps and --max-seconds are mutually exclusive")
    if seconds is not None:
        return "seconds", seconds
    return "steps", 10_000 if steps is None else steps


class _TraceFile(contextlib.AbstractContextManager):
    """``--trace-out``'s streaming UTF-8 file. It is opened at the first line, so
    a run refused before its first step leaves no file, and left empty by a run
    with none."""

    def __init__(self, path):
        self.path, self.file = path, None

    def write(self, text: str) -> None:
        if self.file is None:
            self.file = open(self.path, "w", encoding="utf-8")
        self.file.write(text)

    def __exit__(self, exc_type, *_):
        if exc_type is None:
            self.write("")
        if self.file is not None:
            self.file.close()


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    q = load_qubo(args.qubo)
    spec = _solver_spec(args, cfg)
    kind, value = _budget(args, cfg)
    seed = _merge(args, cfg, "seed", 0, integer)
    trace_out = _merge(args, cfg, "trace_out")
    if trace_out is None or trace_out == "-":
        sink = contextlib.nullcontext(None if trace_out is None else sys.stdout)
    else:
        sink = _TraceFile(trace_out)
    with sink as trace:
        res = bench_mod.run_solver(spec, q, seed, kind, value, trace=trace)
    out = _merge(args, cfg, "out")
    if out is not None:
        _write_lines(out, ["".join(map(str, res.best_assignment.tolist()))])
    print(
        f"best_cost={res.best_cost} steps={res.steps} "
        f"wall_ms={res.elapsed_s * 1000.0:.3f}"
    )
    return EXIT_OK


def _plan_from_args(args, cfg) -> bench_mod.BenchmarkPlan:
    plan_path = _merge(args, cfg, "plan")
    if plan_path is not None:
        return bench_mod.BenchmarkPlan.from_file(plan_path)
    fields = {}
    lists = (("nodes", "nodes", int, "an integer"),
             ("densities", "densities", float, "a number"),
             ("seeds", "instance_seeds", int, "an integer"))
    for key, field, convert, kind in lists:
        # A flag or config string is a comma list; a config file may give a JSON list.
        v = _merge(args, cfg, key)
        if isinstance(v, (list, tuple)):
            fields[field] = v
        elif v is not None:
            items = []
            for text in str(v).split(","):
                try:
                    items.append(convert(text))
                except ValueError:
                    raise ValueError(f"--{key}: item {text!r} is not {kind}") from None
            fields[field] = items
    return bench_mod.BenchmarkPlan.from_dict(fields)


def _bks_cache(path) -> dict:
    # A cache file that does not exist yet is an empty cache.
    try:
        return bench_mod.load_bks(path)
    except FileNotFoundError:
        return {}


def cmd_bks(args) -> int:
    cfg = _load_config(args)
    plan = _plan_from_args(args, cfg)
    cache_path = _merge(args, cfg, "cache")
    if cache_path is None:
        raise ValueError("bks requires --cache (cache file path)")
    cache = _bks_cache(cache_path)
    sweeps = _merge(args, cfg, "tabu_sweeps", bench_mod.DEFAULT_BKS_SWEEPS, integer)
    added = bench_mod.ensure_bks(plan, cache, tabu_sweeps=sweeps)
    bench_mod.save_bks(cache_path, cache)
    print(f"bks cache {cache_path}: {len(added)} computed, {len(cache)} total")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    plan = _plan_from_args(args, cfg)
    out = _merge(args, cfg, "out")
    if out is None:
        raise ValueError("bench requires --out (results file path)")
    bks_path = _merge(args, cfg, "bks")
    cache = {} if bks_path is None else _bks_cache(bks_path)
    before = len(cache)
    records = bench_mod.run_plan(plan, cache)
    bench_mod.save_records(out, records)
    if bks_path is not None and len(cache) != before:
        bench_mod.save_bks(bks_path, cache)
    summary_path = _merge(args, cfg, "summary")
    if summary_path is not None:
        bench_mod.save_summary(summary_path, bench_mod.summarize(records))
    print(f"wrote {len(records)} records to {out}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = load_graph(args.graph)
    size, witness = brute_force_mis(g)
    bits = "".join(map(str, witness.tolist()))
    print(f"mis_size={size} cost={-size} bits={bits}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nebm",
        description=(
            "Parallel annealing QUBO solver with sequential baselines and a "
            "maximum-independent-set benchmarking harness."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_config(sp):
        sp.add_argument(
            "--config",
            metavar="FILE",
            help="JSON file of defaults; explicit flags override it",
        )

    g = sub.add_parser(
        "generate", help="generate a random MIS instance (graph + QUBO files)"
    )
    g.add_argument("--n", type=int, help="node count")
    g.add_argument("--density", type=float, help="edge probability in [0,1]")
    g.add_argument("--seed", type=int, help="instance seed (default 0)")
    g.add_argument("--penalty", type=int,
                   help=f"edge penalty in the QUBO encoding (default {mis.DEFAULT_PENALTY})")
    g.add_argument(
        "--out", help="output path prefix; writes <out>.graph and <out>.qubo"
    )
    add_config(g)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve a QUBO file, print a one-line summary")
    s.add_argument("qubo", help="QUBO instance file")
    s.add_argument(
        "--solver",
        choices=tuple(bench_mod.SOLVERS),
        help="solver to run (default nebm)",
    )
    s.add_argument("--seed", type=int, help="run seed (default 0)")
    s.add_argument(
        "--max-steps",
        type=int,
        help="step/sweep budget (default 10000 when no budget given)",
    )
    s.add_argument(
        "--max-seconds",
        type=float,
        help="wall-clock budget in seconds (excludes --max-steps)",
    )
    for key, settings in _solver_settings().items():
        # A key several solvers share is one flag: its text is read one way,
        # and its help gives each solver's line.
        lines = {}
        for name, setting in settings.items():
            lines.setdefault(setting.help, []).append(name)
        s.add_argument(
            "--" + key.replace("_", "-"),
            type=next(iter(settings.values())).parse,
            help="; ".join(f"{'/'.join(names)}: {text}" for text, names in lines.items()),
        )
    s.add_argument("--out", help="write the best assignment to this file")
    s.add_argument(
        "--trace-out",
        metavar="PATH",
        help="nebm only: write one 'step flips cost_emitted t_hat' line per "
        "step to PATH ('-' for stdout, before the summary)",
    )
    add_config(s)
    s.set_defaults(func=cmd_solve)

    def add_plan_args(sp):
        sp.add_argument("--plan", help="benchmark plan JSON file")
        sp.add_argument(
            "--nodes", help="comma list of node counts (when no --plan given)"
        )
        sp.add_argument("--densities", help="comma list of densities")
        sp.add_argument("--seeds", help="comma list of instance seeds")

    b = sub.add_parser("bench", help="run a benchmark plan, write results CSV")
    add_plan_args(b)
    b.add_argument("--bks", help="best-known-solution cache file")
    b.add_argument("--out", help="results CSV path (sidecar: <out>.assignments)")
    b.add_argument("--summary", help="also write an aggregate table here")
    add_config(b)
    b.set_defaults(func=cmd_bench)

    k = sub.add_parser(
        "bks", help="compute and cache best-known solutions for an instance set"
    )
    add_plan_args(k)
    k.add_argument("--cache", help="cache file to create or extend")
    k.add_argument(
        "--tabu-sweeps",
        type=int,
        help=f"sweep budget for large instances (default {bench_mod.DEFAULT_BKS_SWEEPS})",
    )
    add_config(k)
    k.set_defaults(func=cmd_bks)

    o = sub.add_parser(
        "oracle", help="exact maximum independent set of a graph file (n <= 30)"
    )
    o.add_argument("graph", help="graph file")
    o.set_defaults(func=cmd_oracle)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a reader that left shows up here, not at exit
        return rc
    except BrokenPipeError:
        # Quietly; stdout goes to devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INTERNAL
    except bench_mod.MissingBksError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING_BKS
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
