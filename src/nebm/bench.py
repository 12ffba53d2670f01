"""Benchmark harness: plans, best-known-solution cache, gap metric, results.

A plan is a grid of MIS instances times solvers times budgets times
repetitions. Each cell regenerates its instance from ``(n, density, seed)``,
resolves the best-known cost from a cache (exact for small instances,
recorded long tabu runs otherwise), runs the solver under a step or
wall-clock budget, and emits one record. Step-budget cells are bit
reproducible; wall-clock cells are measurement-only.

Result files are plain CSV (one fixed header, one row per record) with the
best assignments persisted in a sidecar so every ``best_cost`` can be
re-verified by re-evaluating the stored bits.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields as dc_fields
from fractions import Fraction

import numpy as np

from . import baselines, mis, network
from .mis import BRUTE_FORCE_LIMIT, brute_force_mis, generate_mis_graph, mis_to_qubo
from .qubo import QuboMatrix, _LineReader, _not_utf8, _write_lines, check_init
from .result import RunResult, is_number

RESULTS_HEADER = (
    "instance_n,density,instance_seed,solver,config_hash,budget_kind,"
    "budget,run_seed,best_cost,bks_cost,gap_percent,steps,wall_ms"
)
BKS_HEADER = "instance_n,density,instance_seed,bks_cost,provenance"
SUMMARY_HEADER = (
    "solver,instance_n,density,budget_kind,budget,runs,"
    "gap_mean,gap_min,gap_max,steps_mean,wall_ms_mean"
)

#: Long-run sweep budget used when an instance is too big for brute force.
DEFAULT_BKS_SWEEPS = 10_000


def integer(value) -> int:
    """``value`` as an int: an integer (a NumPy one too), or a float or a
    ``Fraction`` whose value is whole, such as JSON's ``2.0``. A fractional
    value is refused, not truncated, and so is every other type: a string or
    a bool is a value of the wrong type, not a number to parse."""
    if is_number(value) or (
        isinstance(value, float) and value.is_integer()
        or isinstance(value, Fraction) and value.denominator == 1
    ):
        return int(value)
    raise ValueError("not an integer")


def real(value) -> float:
    """``value`` as a float: an int, a float or a ``Fraction`` (a flag's exact
    ``--alpha``) is a number; a string or a bool is refused, as by :func:`integer`."""
    if not is_number(value, numbers.Real):
        raise ValueError("not a number")
    try:
        return float(value)
    except OverflowError:  # an int beyond the largest double
        raise ValueError("too large for a float") from None


def fraction(value) -> Fraction:
    """``value`` as an exact fraction, read through its text, so 0.95 means
    19/20 and not the nearest double; the text of a flag reads the same way."""
    try:
        return Fraction(str(value))
    except ZeroDivisionError:  # "1/0"
        raise ValueError("a zero denominator") from None


def number(text: str):
    """A flag's number: an integer literal stays an exact int, since nebm's
    temperatures are integers that a double would round above 2^53, and any
    other number is a float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def setting_value(what: str, convert, value):
    """``convert(value)``; a refusal is a ``ValueError`` that names the
    setting as ``what``."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        kind = "an integer" if convert is integer else "a number"
        raise ValueError(f"{what} must be {kind}, got {value!r}") from None


@dataclass(frozen=True)
class Setting:
    """One solver setting, declared once for every way in.

    ``convert`` turns a spec, plan or ``--config`` value into its owner's
    type (``None`` takes it as given); the owner checks its range. ``owner``
    is the entry keyword it sets, or ``"<group>.<field>"``. ``null`` lets
    ``None`` through unconverted. ``parse`` reads a ``nebm solve`` flag's
    text, and ``help`` is this solver's line of the flag's help.
    """

    convert: Callable | None
    owner: str
    parse: Callable
    help: str
    null: bool = False


@dataclass(frozen=True)
class Solver:
    """How a solver spec becomes one call of ``module.<entry>``.

    ``params`` maps each spec key to its :class:`Setting`. A group is built
    as ``groups[<group>](**fields)`` from the fields a spec gives (a group
    with none is left to the solver's default), so the class checks them;
    ``check`` is the entry point's own check of its other keywords. Every
    entry point takes the budget as :class:`~nebm.result.Budget`'s
    keywords. ``entry`` is looked up at call time, so a wrapper installed on
    the module attribute is honoured.
    """

    module: object
    entry: str
    takes_trace: bool
    params: dict
    groups: dict = field(default_factory=dict)
    check: Callable = check_init


_INIT = Setting(None, "init", str, "initial assignment, random or zeros (default random)")

#: Every solver a spec can name, with its settings; a plan's ``solvers``
#: entries, ``nebm solve``'s flags and its ``--config`` keys are these.
SOLVERS = {
    "nebm": Solver(network, "solve_qubo", True, {
        "t0": Setting(integer, "schedule.t0", number,
                      "start temperature in integer t_hat units (default max|h| >> 3)",
                      null=True),
        "alpha": Setting(fraction, "schedule.alpha", fraction,
                         "exact cooling ratio such as 19/20 (default 19/20)"),
        "refresh": Setting(integer, "schedule.refresh_every", int,
                           "steps between temperature updates (default 10)"),
        "t_min": Setting(integer, "schedule.t_min", number, "integer floor of t_hat (default 1)"),
        "r_min": Setting(integer, "refractory.r_min", int, "refractory minimum (default 1)"),
        "r_max": Setting(integer, "refractory.r_max", int, "refractory maximum (default 8)"),
        "init": _INIT,
    }, {"schedule": network.GeometricSchedule, "refractory": network.RefractoryPolicy}),
    "sa": Solver(baselines, "sequential_sa", False, {
        "t0": Setting(real, "schedule.t0", number,
                      "real start temperature (default max(1, max|h| >> 3))", null=True),
        "alpha": Setting(real, "schedule.alpha", fraction, "cooling ratio (default 0.95)"),
        "t_min": Setting(real, "schedule.t_min", number, "real temperature floor (default 0.5)"),
        "init": _INIT,
    }, {"schedule": baselines.CoolingSchedule}),
    "tabu": Solver(baselines, "tabu_search", False, {
        "tenure": Setting(integer, "tenure", int, "tenure in sweeps (default max(7, n//10))",
                          null=True),
        # 0 means no restarts, as None does
        "restart_after": Setting(lambda v: integer(v) or None, "restart_after", int,
                                 "sweeps without improvement before a restart; 0 disables "
                                 "(default 400)", null=True),
        "init": _INIT,
    }, check=baselines.check_tabu),
}


def solver_entry(name) -> Solver:
    """The :data:`SOLVERS` entry for ``name``; ``ValueError`` if there is none."""
    if name not in SOLVERS:
        raise ValueError(f"unknown solver {name!r}; expected one of {tuple(SOLVERS)}")
    return SOLVERS[name]


def _solver_kwargs(spec: dict) -> tuple[Solver, dict]:
    """Check ``spec`` against its solver's entry; return it and the keyword arguments.

    A spec that is not a mapping, unknown keys, values that do not convert
    and values their owner refuses raise ``ValueError``.
    """
    if not isinstance(spec, Mapping):
        raise ValueError(f"a solver must be an object with a name, got {spec!r}")
    name = spec.get("name")
    solver = solver_entry(name)
    extra = set(spec) - {"name"} - set(solver.params)
    if extra:
        raise ValueError(f"unknown solver parameters: {sorted(extra)}")
    kwargs, groups = {}, {}
    for key, value in spec.items():
        if key == "name":
            continue
        param = solver.params[key]
        if param.convert is not None and not (value is None and param.null):
            try:
                value = param.convert(value)
            except (TypeError, ValueError) as e:
                raise ValueError(f"bad {name} parameter {key}={value!r}: {e}") from None
        group, _, arg = param.owner.rpartition(".")
        (groups.setdefault(group, {}) if group else kwargs)[arg] = value
    solver.check(**kwargs)
    for group, group_fields in groups.items():
        kwargs[group] = solver.groups[group](**group_fields)
    return solver, kwargs


def _budget_kwargs(budget_kind: str, budget) -> dict:
    """A plan cell's budget as its solver's keyword: a whole number of steps,
    or a finite number of seconds, since the harness never runs without a
    deadline."""
    if budget_kind == "steps":
        return {"max_steps": setting_value("a step budget", integer, budget)}
    if budget_kind == "seconds":
        seconds = setting_value("a time budget", real, budget)
        if math.isinf(seconds):
            raise ValueError(f"a time budget must be finite, got {seconds}")
        return {"max_seconds": seconds}
    raise ValueError(f"budget_kind must be steps|seconds, got {budget_kind!r}")


class MissingBksError(RuntimeError):
    """A plan referenced an instance with no cached best-known solution."""

    def __init__(self, n, density, seed):
        self.instance = (n, density, seed)
        super().__init__(
            f"no best-known solution cached for instance "
            f"(n={n}, density={fmt_density(density)}, seed={seed}); "
            f"run the bks subcommand over this instance set first"
        )


def fmt_density(d) -> str:
    """Canonical text form of a density, used in files and cache keys."""
    return format(float(d), ".6g")


_SIX, _THREE = "{:.6f}".format, "{:.3f}".format

#: The text form of each CSV column that is not ``str``. A budget in
#: seconds has a density's form; one in steps is an integer.
_TEXT_FORMS = {
    "density": fmt_density, "budget": fmt_density,
    "gap_percent": _SIX, "gap_mean": _SIX, "gap_min": _SIX, "gap_max": _SIX,
    "wall_ms": _THREE, "steps_mean": _THREE, "wall_ms_mean": _THREE,
}


def _csv_line(row, header: str) -> str:
    """The CSV line of ``row``, a mapping of column names to values, with
    ``header``'s columns in order, each cell in its one text form."""
    def cell(name):
        if name == "budget" and row["budget_kind"] == "steps":
            return str(int(row[name]))
        return _TEXT_FORMS.get(name, str)(row[name])
    return ",".join(map(cell, header.split(",")))


def gap_percent(cost, bks) -> float:
    """Percentage gap ``100 * max(0, min(cost, 0) - bks) / |bks|``.

    Costs above zero are truncated to zero first, so the empty assignment
    always scores 100; a cost below a (heuristic) best-known value scores 0.
    ``bks`` must be negative (a nontrivial best-known solution must exist).
    """
    bks = int(bks)
    if bks >= 0:
        raise ValueError(f"bks must be < 0, got {bks}")
    c = min(int(cost), 0)
    return 100.0 * max(0, c - bks) / abs(bks)


def load_json(path):
    """Parse a JSON file; a syntax error, or text that is not UTF-8, is a
    ``ValueError`` naming ``path:line``, and any other refusal names ``path``."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{e.lineno}: {e.msg} (column {e.colno})") from None
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
        except (ValueError, RecursionError) as e:  # an over-long number, or too deep
            raise ValueError(f"{path}: {e}") from None


def config_hash(config: dict) -> str:
    """12-hex-digit digest of a canonicalised config mapping."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _plan_integer(what: str, value) -> int:
    # A JSON string is a field of the wrong type, not a number to parse.
    if isinstance(value, str):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return setting_value(what, integer, value)


@dataclass(frozen=True)
class BenchmarkPlan:
    """Instance grid x solver list x budget grid x repetitions.

    Defaults cover the full benchmark grid: n in {10, 25, 50, 100, 250,
    500, 1000}, densities {5%, 15%, 30%}, instance seeds 0..4, five
    repetitions per cell.
    """

    nodes: tuple = (10, 25, 50, 100, 250, 500, 1000)
    densities: tuple = (0.05, 0.15, 0.30)
    instance_seeds: tuple = (0, 1, 2, 3, 4)
    solvers: tuple = ({"name": "nebm"}, {"name": "sa"}, {"name": "tabu"})
    budget_kind: str = "steps"
    budgets: tuple = (10_000,)
    repetitions: int = 5
    penalty: int = mis.DEFAULT_PENALTY

    def __post_init__(self):
        # Frozen: the integral values are stored back as ints through object.
        for name in ("nodes", "instance_seeds"):
            values = tuple(_plan_integer(name, v) for v in getattr(self, name))
            object.__setattr__(self, name, values)
        for name in ("repetitions", "penalty"):
            object.__setattr__(self, name, _plan_integer(name, getattr(self, name)))
        reals = ("densities",) + (("budgets",) if self.budget_kind == "seconds" else ())
        for name in reals:
            values = tuple(setting_value(name, real, v) for v in getattr(self, name))
            object.__setattr__(self, name, values)
        if not all(n >= 1 for n in self.nodes):
            raise ValueError(f"nodes must be >= 1, got {list(self.nodes)}")
        if not all(0 <= d <= 1 for d in self.densities):
            raise ValueError(f"densities must be in [0, 1], got {list(self.densities)}")
        if self.budget_kind not in ("steps", "seconds"):
            raise ValueError(f"budget_kind must be steps|seconds, got {self.budget_kind!r}")
        if not all(b > 0 for b in self.budgets):
            raise ValueError("budgets must be positive")
        for b in self.budgets:
            _budget_kwargs(self.budget_kind, b)
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.penalty < 2:
            raise ValueError("penalty must be >= 2")
        for spec in self.solvers:
            _solver_kwargs(spec)

    @classmethod
    def from_dict(cls, d: dict) -> "BenchmarkPlan":
        if not isinstance(d, dict):
            raise ValueError(f"a plan must be a JSON object, got {type(d).__name__}")
        known = {f.name for f in dc_fields(cls)}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown plan fields: {sorted(extra)}")
        kw = dict(d)
        try:
            for key in ("nodes", "densities", "instance_seeds", "budgets", "solvers"):
                if key in kw:
                    # tuple("10") would iterate the text instead of refusing it
                    if not isinstance(kw[key], (list, tuple)):
                        raise TypeError(f"{key} must be a list, got {type(kw[key]).__name__}")
                    kw[key] = tuple(kw[key])
            return cls(**kw)
        except TypeError as e:
            # a field of the wrong JSON type, e.g. "nodes": 10 or "repetitions": "2"
            raise ValueError(f"bad plan field type: {e}") from None

    @classmethod
    def from_file(cls, path) -> "BenchmarkPlan":
        """Load a JSON plan; every error names the file (``path:line`` for bad JSON)."""
        d = load_json(path)
        try:
            return cls.from_dict(d)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None

    def instances(self):
        for n in self.nodes:
            for d in self.densities:
                for s in self.instance_seeds:
                    yield n, d, s


@dataclass(eq=False)
class BenchmarkRecord:
    """One (instance, solver, budget, repetition) outcome row."""

    instance_n: int
    density: float
    instance_seed: int
    solver: str
    config_hash: str
    budget_kind: str
    budget: float
    run_seed: int
    best_cost: int
    bks_cost: int
    gap_percent: float
    steps: int
    wall_ms: float
    assignment: np.ndarray = field(default=None, repr=False)

    def csv_row(self) -> str:
        return _csv_line(vars(self), RESULTS_HEADER)


def instance_key(n, density, seed) -> tuple:
    return (int(n), fmt_density(density), int(seed))


def compute_bks(
    n, density, seed, *, penalty: int = mis.DEFAULT_PENALTY, tabu_sweeps: int = DEFAULT_BKS_SWEEPS
) -> tuple[int, str]:
    """Best-known cost for one instance plus its provenance tag.

    Exact branch-and-bound up to n = 30 (``"exact"``); above that, one long
    deterministic tabu run whose sweep budget is recorded
    (``"tabu:<sweeps>"``).
    """
    g = generate_mis_graph(n, density, seed)
    if n <= BRUTE_FORCE_LIMIT:
        size, _ = brute_force_mis(g)
        return -size, "exact"
    q = mis_to_qubo(g, penalty)
    res = baselines.tabu_search(q, 0, max_steps=tabu_sweeps, init="random")
    return res.best_cost, f"tabu:{tabu_sweeps}"


def ensure_bks(
    plan: BenchmarkPlan,
    cache: dict,
    *,
    tabu_sweeps: int = DEFAULT_BKS_SWEEPS,
) -> list[tuple]:
    """Fill ``cache`` for every instance in ``plan``; return the keys added.

    A computed BKS that is not negative is a ``ValueError``, never stored,
    and so is a ``tabu_sweeps`` that is not a non-negative integer, before
    any instance is built.
    """
    if not (is_number(tabu_sweeps) and tabu_sweeps >= 0):
        raise ValueError(f"tabu_sweeps must be a non-negative integer, got {tabu_sweeps!r}")
    added = []
    for n, d, s in plan.instances():
        key = instance_key(n, d, s)
        if key in cache:
            continue
        cost, prov = compute_bks(
            n, d, s, penalty=plan.penalty, tabu_sweeps=tabu_sweeps
        )
        # Every instance has a non-empty independent set, so only a search
        # too short to leave the penalties behind ends at or above zero.
        if cost >= 0:
            raise ValueError(
                f"BKS of instance n={key[0]} density={key[1]} seed={key[2]} "
                f"came out {cost} after {tabu_sweeps} tabu sweeps; a BKS must "
                "be negative, so raise the sweep budget"
            )
        cache[key] = (cost, prov)
        added.append(key)
    return added


def save_bks(path, cache: dict) -> None:
    """Write ``cache`` as :data:`BKS_HEADER` then one row per instance, sorted, as UTF-8."""
    _write_lines(path, [BKS_HEADER, *(f"{n},{dens},{seed},{cost},{prov}"
                                      for (n, dens, seed), (cost, prov) in sorted(cache.items()))])


def load_bks(path) -> dict:
    """Read a cache written by :func:`save_bks`; an instance must not repeat,
    and every BKS must be negative, as :func:`ensure_bks` stores it."""
    cache = {}
    with _LineReader(path, first=BKS_HEADER) as lines:
        for line in lines:
            parts = line.split(",")
            if len(parts) != 5:
                raise ValueError("expected 5 fields")
            n, dens, seed, cost, prov = parts
            key, cost = instance_key(n, dens, seed), int(cost)
            if cost >= 0:
                raise ValueError(f"a BKS must be negative, got {cost}")
            lines.once(key, "instance")
            cache[key] = (cost, prov)
    return cache


def run_solver(
    spec: dict,
    q: QuboMatrix,
    seed: int,
    budget_kind: str,
    budget,
    *,
    target_cost=None,
    trace=None,
) -> RunResult:
    """Dispatch one run of solver ``spec`` on ``q`` under the given budget.

    ``spec`` is the plan's solver mapping (``name`` plus parameters from the
    solver's :data:`SOLVERS` entry); unknown parameters are rejected rather
    than ignored. ``trace`` (a text sink for per-step records) only exists
    for solvers whose entry takes it.
    """
    solver, kwargs = _solver_kwargs(spec)
    if trace is not None:
        if not solver.takes_trace:
            raise ValueError(f"the {spec['name']} solver has no trace output")
        kwargs["trace"] = trace
    kwargs.update(_budget_kwargs(budget_kind, budget))
    solve = getattr(solver.module, solver.entry)
    return solve(q, seed, target_cost=target_cost, **kwargs)


def run_plan(plan: BenchmarkPlan, bks: dict | None = None) -> list[BenchmarkRecord]:
    """Execute every cell of ``plan``; return one record per cell.

    ``bks`` is the best-known-solution cache (see :func:`load_bks`).
    Instances small enough for the exact oracle get their entry computed on
    the spot (and inserted into ``bks``); anything larger must already be
    cached or :class:`MissingBksError` is raised.
    """
    if bks is None:
        bks = {}
    records = []
    for n, density, iseed in plan.instances():
        key = instance_key(n, density, iseed)
        if key not in bks:
            if n <= BRUTE_FORCE_LIMIT:
                bks[key] = compute_bks(n, density, iseed, penalty=plan.penalty)
            else:
                raise MissingBksError(n, density, iseed)
        bks_cost, _prov = bks[key]
        g = generate_mis_graph(n, density, iseed)
        q = mis_to_qubo(g, plan.penalty)
        for spec in plan.solvers:
            chash = config_hash({"penalty": plan.penalty, **spec})
            for budget in plan.budgets:
                for run_seed in range(plan.repetitions):
                    res = run_solver(spec, q, run_seed, plan.budget_kind, budget)
                    records.append(
                        BenchmarkRecord(
                            instance_n=n,
                            density=density,
                            instance_seed=iseed,
                            solver=spec["name"],
                            config_hash=chash,
                            budget_kind=plan.budget_kind,
                            budget=budget,
                            run_seed=run_seed,
                            best_cost=res.best_cost,
                            bks_cost=bks_cost,
                            gap_percent=gap_percent(res.best_cost, bks_cost),
                            steps=res.steps,
                            wall_ms=res.elapsed_s * 1000.0,
                            assignment=res.best_assignment,
                        )
                    )
    return records


def save_records(path, records) -> None:
    """Write the results CSV plus the assignments sidecar ``<path>.assignments``.

    The sidecar holds one ``<row> <n> <bits>`` line per record (row numbers
    match CSV data-row order) so best costs stay re-verifiable. A record
    with no assignment, as :func:`load_records` gives, is a ``ValueError``
    before either file is opened. Both files are UTF-8.
    """
    for row, rec in enumerate(records):
        if rec.assignment is None:
            raise ValueError(f"record {row} has no assignment to write to the sidecar")
    _write_lines(path, [RESULTS_HEADER, *(rec.csv_row() for rec in records)])
    _write_lines(str(path) + ".assignments", (
        f"{row} {rec.instance_n} {''.join(map(str, rec.assignment.tolist()))}"
        for row, rec in enumerate(records)
    ))


def load_records(path) -> list[BenchmarkRecord]:
    """Read a results CSV back into records (``assignment`` is None)."""
    out = []
    names = RESULTS_HEADER.split(",")
    types = {"int": int, "float": float, "str": str}
    convert = {f.name: types[f.type] for f in dc_fields(BenchmarkRecord) if f.name in names}
    with _LineReader(path, first=RESULTS_HEADER) as lines:
        for line in lines:
            parts = line.split(",")
            if len(parts) != len(names):
                raise ValueError(f"expected {len(names)} fields")
            out.append(BenchmarkRecord(**{k: convert[k](v) for k, v in zip(names, parts)}))
    return out


def load_assignments(path) -> dict[int, np.ndarray]:
    """Read the ``<row> <n> <bits>`` sidecar of :func:`save_records`; a row must not repeat."""
    out = {}
    with _LineReader(path) as lines:
        for line in lines:
            parts = line.split()
            if len(parts) != 3:
                raise ValueError("expected '<row> <n> <bits>'")
            row, n = int(parts[0]), int(parts[1])
            lines.once(row, "row")
            arr = np.frombuffer(parts[2].encode(), dtype=np.uint8) - ord("0")
            if arr.size != n:
                raise ValueError(f"row {row} has {arr.size} bits, expected {n}")
            if np.any(arr > 1):
                raise ValueError("bits must be 0 or 1")
            out[row] = arr.astype(np.int8)
    return out


def summarize(records) -> list[dict]:
    """Aggregate gap and timing per (solver, n, density, budget) group.

    Output order is canonical (sorted group keys), so summaries are
    invariant to the input record order.
    """
    groups: dict[tuple, list] = {}
    for rec in records:
        key = (rec.solver, rec.instance_n, rec.density, rec.budget_kind, rec.budget)
        groups.setdefault(key, []).append((rec.gap_percent, rec.steps, rec.wall_ms))
    out = []
    for key in sorted(groups):
        gaps, steps, walls = zip(*groups[key])
        runs = len(gaps)
        stats = (runs, sum(gaps) / runs, min(gaps), max(gaps), sum(steps) / runs,
                 sum(walls) / runs)
        # The key and the statistics, in SUMMARY_HEADER's column order.
        out.append(dict(zip(SUMMARY_HEADER.split(","), key + stats)))
    return out


def save_summary(path, summary: list[dict]) -> None:
    """Write :func:`summarize`'s groups under :data:`SUMMARY_HEADER`, as UTF-8."""
    _write_lines(path, [SUMMARY_HEADER, *(_csv_line(g, SUMMARY_HEADER) for g in summary)])


__all__ = [
    "BenchmarkPlan",
    "BenchmarkRecord",
    "MissingBksError",
    "compute_bks",
    "ensure_bks",
    "gap_percent",
    "load_bks",
    "load_records",
    "run_plan",
    "run_solver",
    "save_bks",
    "save_records",
    "save_summary",
    "summarize",
]
