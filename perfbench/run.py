"""Benchmark of nebm: time-to-target, proposal throughput and set-up cost.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mid-nebm --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
runs the workload's operations once untraced and then replays them with a
span on each layer boundary, and reports the per-layer metrics. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report. The exit status is 0 only when every output check
passed. See NOTES.md for the workloads and the metric definitions.
"""

import os

# One caller and no extra threads: pin the BLAS pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from statistics import median  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def import_package():
    """Import nebm from this checkout's ``src``, and from nowhere else."""
    init = SRC / "nebm" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no nebm sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import nebm

    if Path(nebm.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported nebm from {nebm.__file__}, not from {SRC}")
    return nebm


def run_record() -> str:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    threads = " ".join(f"{v}={os.environ[v]}" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"))
    return (
        f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
        f"numpy={numpy.__version__} {threads}"
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def count_failures(ops) -> int:
    """Print the failed checks of ``ops`` to stderr; return how many failed."""
    bad = [r for r in ops if r.problems]
    for r in bad[:10]:
        print(f"check failed: {r.op}: {'; '.join(r.problems)}", file=sys.stderr)
    if len(bad) > 10:
        print(f"check failed: ... and {len(bad) - 10} more operations", file=sys.stderr)
    return len(bad)


def end_to_end(wl, w, seed: int, seconds: float):
    speed = wl.Speed()
    setups = []
    for _ in range(wl.SETUPS):
        secs, insts = wl.setup_pass(w, seed, speed)
        setups.append(secs)
    runner = wl.Runner(w, insts, speed)
    prep = runner.prepare_bks(wl.check_instances(insts))
    # A workload with few instances recomputes them until bks_s has enough
    # samples; each recomputation must equal the first.
    while len(prep) < wl.BKS_SAMPLES:
        prep += [runner.run(("bks", i, None)) for i in range(len(insts))]
    recs = runner.measure(runner.operations(seed), seconds)
    runner.self_test(recs)
    ops = prep + recs
    failed = count_failures(ops)

    # Per instance size, then the geometric mean over sizes (see NOTES.md).
    times = runner.solve_times(recs)
    solve_s = wl.geomean(median(v) for v in times.values())
    if math.isinf(solve_s):
        raise RuntimeError("more than half of the solves of a size missed the target or failed")
    per_s = runner.proposals_per_s(recs)
    bks = runner.bks_times(prep + recs)
    quality = runner.quality(recs)
    raw = [r.wall for r in recs if r.op[0] == "solve"]

    solver = w.solver
    tts = f"{solver}.tts_s" if w.target_gap_pct is not None else f"{solver}.solve_s"
    sizes = "/".join(map(str, times))
    rows = [
        ("setup_s", "setup_s", median(setups), "s", f"median of {len(setups)} set-ups"),
        ("solve_s", tts, solve_s, "s",
         f"n={sizes}: " + "; ".join(
             f"median of {len(v)}{wl.tail(v)}, {sum(map(math.isinf, v))} missed"
             for v in times.values()) + f"; unscaled median {median(raw):.4g} s"),
        ("proposals_per_s", f"{solver}.proposals_per_s",
         wl.geomean(median(v) for v in per_s.values()), "1/s",
         f"n={sizes}: " + ", ".join(f"median {median(v):.4g} of {len(v)}" for v in per_s.values())),
        ("bks_s", "bks_s", wl.geomean(median(v) for v in bks.values()), "s",
         f"median of {sum(map(len, bks.values()))} compute_bks"),
        ("peak_rss_mb", "peak_rss_mb", peak_rss_mb(), "MB", "whole process"),
    ]
    metrics = {key: {"value": value, "unit": unit} for key, _l, value, unit, _n in rows}
    # Exact figures of a fixed set of solves: reported, but not end-to-end
    # metrics of the benchmark (see NOTES.md).
    report = [(label, value, unit, note) for _key, label, value, unit, note in rows]
    n = len(quality["gaps"])
    report.append(("gap_pct", sum(quality["gaps"]) / n, "%",
                   f"mean of {n} fixed solves, {quality['beats']} beat the BKS"))
    if w.target_gap_pct is not None:
        report.append(("hit_rate", quality["hits"] / n, "share",
                       f"{quality['hits']} of {n} fixed solves within {w.cap}"))
    report.append(("host_speed", wl.REF_CAL_S / speed.last, "ratio",
                   "the host's speed at the end of the run; 1 is the reference speed"))
    return report, metrics, len(ops), failed


def traced(wl, nebm, w, seed: int, seconds: float):
    from tracer import Tracer, layer_metrics

    setup_tr, tr = Tracer(nebm), Tracer(nebm)
    speed = wl.Speed()
    with setup_tr:
        _, insts = wl.setup_pass(w, seed, speed)
    runner = wl.Runner(w, insts, speed)
    prep = runner.prepare_bks(wl.check_instances(insts))
    peak_mb = wl.generate_peak_mb(insts)
    recs = runner.measure(runner.operations(seed), seconds / 2)
    runner.self_test(recs)
    with tr:
        replay = [runner.run(r.op) for r in recs]
    for plain, rec in zip(recs, replay):
        if plain.out != rec.out:
            rec.problems.append(f"traced result of {rec.op} differs from the untraced one")

    solves = [r for r in replay if r.op[0] == "solve" and r.out is not None]
    sa = solves if w.solver == "sa" else []
    plain_s = sum(r.scaled for r in recs)
    extra = {
        # one SA sweep visits each of the n variables once
        "sa_visits": sum(r.out.steps * runner.insts[r.op[1]].n for r in sa),
        "sa_flips": int(sum(r.out.flips_per_step.sum() for r in sa)),
        "solver_elapsed_s": sum(r.out.elapsed_s for r in solves),
        "generate_peak_mb": peak_mb,
        "edges": sum(inst.m for inst in insts),
        "beats_bks": runner.quality(replay)["beats"],
        "overhead_pct": 100 * (sum(r.scaled for r in replay) - plain_s) / plain_s,
    }
    metrics = layer_metrics(setup_tr, tr, extra)
    ops = prep + recs + replay
    failed = count_failures(ops)
    report = [(k, m["value"], m["unit"], "") for k, m in metrics.items()]
    return report, metrics, len(ops), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    nebm = import_package()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    print(f"workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"run: {run_record()}")
    if args.trace:
        report, metrics, attempted, failed = traced(wl, nebm, w, args.seed, args.seconds)
    else:
        report, metrics, attempted, failed = end_to_end(wl, w, args.seed, args.seconds)
    report.append(("error_rate", failed / attempted, "share", f"{failed} of {attempted} operations"))
    for name, value, unit, note in report:
        print(f"  {name:<30} {value:>14.6g} {unit:<6} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
