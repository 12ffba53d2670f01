"""Parallel annealing QUBO solver with baselines and a MIS benchmark harness.

The solver is a network of binary stochastic neurons: every neuron runs an
integer-only Metropolis test on its own flip each step (24-bit draws, a
count-leading-zeros surrogate for the log of the uniform), all in parallel,
with randomized refractory lockouts damping the oscillations that naive
parallel flips would cause. Exact integer cost accounting, two sequential
reference solvers, an Erdos-Renyi MIS instance generator with an exact
small-instance oracle, and a gap-metric benchmarking harness round it out.
"""

from .baselines import CoolingSchedule, Decision, sequential_sa, tabu_search
from .bench import (
    BenchmarkPlan,
    BenchmarkRecord,
    MissingBksError,
    compute_bks,
    config_hash,
    ensure_bks,
    gap_percent,
    load_bks,
    load_records,
    run_plan,
    run_solver,
    save_bks,
    save_records,
    save_summary,
    summarize,
)
from .metropolis import (
    Rng24,
    clz24,
    clz24_array,
    exact_accept,
    fixed_accept,
    fixed_accept_probability,
    mix64,
    rand24_stream,
    stream_seed,
    unit_stream,
)
from .mis import (
    MisGraph,
    brute_force_mis,
    check_independent,
    decode_mis,
    generate_mis_graph,
    load_graph,
    mis_to_qubo,
    save_graph,
)
from .network import (
    GeometricSchedule,
    LinearSchedule,
    Network,
    RefractoryPolicy,
    network_from_qubo,
    solve_qubo,
)
from .qubo import (
    QuboMatrix,
    apply_flips,
    as_assignment,
    build_qubo,
    evaluate_cost,
    load_qubo,
    local_fields,
    save_qubo,
)
from .result import RunResult

__version__ = "0.1.0"

__all__ = [
    "BenchmarkPlan",
    "BenchmarkRecord",
    "CoolingSchedule",
    "Decision",
    "GeometricSchedule",
    "LinearSchedule",
    "MisGraph",
    "MissingBksError",
    "Network",
    "QuboMatrix",
    "RefractoryPolicy",
    "Rng24",
    "RunResult",
    "apply_flips",
    "as_assignment",
    "brute_force_mis",
    "build_qubo",
    "check_independent",
    "clz24",
    "clz24_array",
    "compute_bks",
    "config_hash",
    "decode_mis",
    "ensure_bks",
    "evaluate_cost",
    "exact_accept",
    "fixed_accept",
    "fixed_accept_probability",
    "gap_percent",
    "generate_mis_graph",
    "load_bks",
    "load_graph",
    "load_qubo",
    "load_records",
    "local_fields",
    "mis_to_qubo",
    "mix64",
    "network_from_qubo",
    "rand24_stream",
    "run_plan",
    "run_solver",
    "save_bks",
    "save_graph",
    "save_qubo",
    "save_records",
    "save_summary",
    "sequential_sa",
    "solve_qubo",
    "stream_seed",
    "summarize",
    "tabu_search",
    "unit_stream",
]
