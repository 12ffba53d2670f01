"""The benchmark's workloads: instances, operations, output checks, metrics.

A workload is a closed loop: one caller runs operations back to back in
one process, with ``workers=1``. An operation is either a solve, one
``bench.run_solver(spec, q, seed, "steps", cap, target_cost=...)`` call as
``nebm bench`` makes it, or a best-known-solution (BKS) computation,
one ``bench.compute_bks`` call as ``nebm bks`` makes it.

Every run first sets the workload up (generate each instance, encode it,
look up the BKS file), checks each instance against its recorded
fingerprint, and recomputes each BKS with ``compute_bks``, which also covers
instances of seeds that the reference file does not hold. The measured
phase then cycles through the instances until the time is up, and always
completes at least ``MIN_CYCLES`` cycles: that prefix is a fixed set of
solves for a given seed, so ``gap_pct`` and ``hit_rate`` over it are exact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from nebm import bench, mis, qubo

HERE = Path(__file__).resolve().parent
BKS_FILE = HERE / "bks.csv"
FINGERPRINT_FILE = HERE / "instances.json"

PENALTY = 8
#: Set-up passes per run; ``setup_s`` is their median.
SETUPS = 3
#: Least number of ``compute_bks`` calls a run times before its solves.
BKS_SAMPLES = 6
#: Cycles over the instances that every run completes, however slow.
MIN_CYCLES = 2

#: Time of one ``calibrate`` pass at the reference speed: its fast regime on
#: the 2-core Intel Xeon host the benchmark was tuned on (NOTES.md).
REF_CAL_S = 0.004
_CAL = np.arange(512, dtype=np.int64)


def calibrate() -> float:
    """Seconds for a fixed loop of small numpy calls: the host's speed now.

    The loop mixes interpreter work and small-array numpy calls, as nebm's
    solvers do, so it slows down with them when the host does. The fastest
    of three passes discards a pass that an interrupt happened to hit.
    """
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(1500):
            acc += int((_CAL[i & 255:] * 3).sum()) + i * i
        best = min(best, perf_counter() - t0)
    return best


class Speed:
    """Scales wall times to the reference speed.

    The host's speed drifts by up to 1.6x over seconds. Each timed interval
    is scaled by the calibration passes just before and just after it, so a
    scaled time reads as the interval would take at the reference speed.
    """

    def __init__(self):
        calibrate()  # warm-up
        self.last = calibrate()

    def scale(self, wall: float) -> float:
        now = calibrate()
        factor = REF_CAL_S / ((self.last + now) / 2)
        self.last = now
        return wall * factor


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str  # the solver every solve runs: "nebm" or "sa"
    sizes: tuple  # ((n, density), ...)
    instances_per_size: int
    cap: int  # step (nebm) or sweep (sa) budget of one solve
    target_gap_pct: int | None  # None: spend the whole budget, no target
    bks_ops: bool = False  # end each cycle with one BKS recomputation


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mid-nebm",
            solver="nebm",
            sizes=((100, 0.15), (250, 0.15)),
            instances_per_size=10,
            cap=20_000,
            target_gap_pct=20,
        ),
        Workload(
            "large-sparse",
            solver="nebm",
            sizes=((5000, 0.02),),
            instances_per_size=1,
            cap=250,
            target_gap_pct=None,
        ),
        Workload(
            "baselines",
            solver="sa",
            sizes=((1000, 0.15),),
            instances_per_size=10,
            cap=2_000,
            target_gap_pct=5,
            bks_ops=True,
        ),
    )
}


@dataclass
class Instance:
    n: int
    density: float
    seed: int
    q: object
    m: int
    edges_sha256: str
    recorded_bks: tuple | None  # (cost, provenance) from the BKS file
    bks: int | None = None

    @property
    def key(self) -> str:
        return ",".join(map(str, bench.instance_key(self.n, self.density, self.seed)))

    def target(self, gap_pct) -> int | None:
        """Largest cost whose gap to the BKS is at most ``gap_pct`` percent."""
        if gap_pct is None:
            return None
        return self.bks + (abs(self.bks) * gap_pct) // 100


@dataclass
class OpRecord:
    op: tuple  # ("solve", instance, run_seed) or ("bks", instance, None)
    wall: float
    scaled: float  # wall time at the reference speed
    out: object  # RunResult of a solve, (cost, provenance) of a BKS
    problems: list = field(default_factory=list)


def gap_pct(cost: int, bks: int) -> float:
    """Gap to the BKS that does not punish beating it: 100 max(0, c-b)/|b|."""
    return 100.0 * max(0, cost - bks) / abs(bks)


def fingerprint(g) -> str:
    edges = np.ascontiguousarray(g.edges, dtype="<i8")
    return hashlib.sha256(edges.tobytes()).hexdigest()


def instance_seeds(w: Workload, seed: int):
    """(n, density, instance seed) of every instance of ``w`` for ``seed``."""
    k = w.instances_per_size
    return [(n, d, seed * k + j) for n, d in w.sizes for j in range(k)]


def setup_pass(w: Workload, seed: int, speed: Speed) -> tuple[float, list[Instance]]:
    """Generate and encode every instance and look the BKS file up.

    Returns the scaled seconds this took, timed per instance so that the
    scaling follows the host's speed through a long pass.
    """
    secs = 0.0
    out = []
    for n, d, s in instance_seeds(w, seed):
        t0 = perf_counter()
        g = mis.generate_mis_graph(n, d, s)
        q = mis.mis_to_qubo(g, PENALTY)
        secs += speed.scale(perf_counter() - t0)
        out.append(Instance(n, d, s, q, g.m, fingerprint(g), None))
    t0 = perf_counter()
    cache = bench.load_bks(BKS_FILE)
    for inst in out:
        inst.recorded_bks = cache.get(bench.instance_key(inst.n, inst.density, inst.seed))
    return secs + speed.scale(perf_counter() - t0), out


def check_instances(insts: list[Instance]) -> dict[int, list[str]]:
    """Fingerprint mismatches against the reference, by instance index."""
    with open(FINGERPRINT_FILE) as f:
        ref = json.load(f)["instances"]
    bad = {}
    for i, inst in enumerate(insts):
        rec = ref.get(inst.key)
        got = {"n": inst.n, "m": inst.m, "edges_sha256": inst.edges_sha256}
        if rec is not None and rec != got:
            bad[i] = [f"instance {inst.key} differs from its recorded fingerprint"]
    return bad


def check_solve(res, inst: Instance, cap: int, target) -> list[str]:
    problems = []
    x = np.asarray(res.best_assignment)
    if x.shape != (inst.n,) or not np.isin(x, (0, 1)).all():
        problems.append(f"best_assignment is not {inst.n} bits of 0/1")
    elif qubo.evaluate_cost(inst.q, x) != res.best_cost:
        problems.append("evaluate_cost(q, best_assignment) != best_cost")
    if not 0 <= res.steps <= cap:
        problems.append(f"steps {res.steps} outside [0, {cap}]")
    if target is None:
        if res.steps != cap:
            problems.append(f"stopped after {res.steps} of a fixed {cap} steps")
    elif res.steps < cap and res.best_cost > target:
        problems.append("stopped before the cap without reaching the target")
    return problems


class Runner:
    """Runs and checks the operations of one workload on its instances."""

    def __init__(self, w: Workload, insts: list[Instance], speed: Speed):
        self.w = w
        self.insts = insts
        self.speed = speed
        self.spec = {"name": w.solver}

    def operations(self, seed: int):
        k = 0
        for cycle in itertools.count():
            for i in range(len(self.insts)):
                yield ("solve", i, (seed << 20) + k)
                k += 1
            if self.w.bks_ops:
                yield ("bks", cycle % len(self.insts), None)

    @property
    def per_cycle(self) -> int:
        return len(self.insts) + (1 if self.w.bks_ops else 0)

    def run(self, op) -> OpRecord:
        kind, i, run_seed = op
        inst = self.insts[i]
        t0 = perf_counter()
        try:
            if kind == "solve":
                target = inst.target(self.w.target_gap_pct)
                out = bench.run_solver(
                    self.spec, inst.q, run_seed, "steps", self.w.cap, target_cost=target
                )
            else:
                out = bench.compute_bks(inst.n, inst.density, inst.seed, penalty=PENALTY)
        except Exception as exc:  # an operation that raises counts as failed
            wall = perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            return OpRecord(op, wall, self.speed.scale(wall), None, [f"raised {exc!r}"])
        wall = perf_counter() - t0
        rec = OpRecord(op, wall, self.speed.scale(wall), out)
        if kind == "solve":
            rec.problems = check_solve(out, inst, self.w.cap, target)
        elif inst.bks is not None and out[0] != inst.bks:
            rec.problems = [f"BKS of {inst.key} recomputed as {out[0]}, first as {inst.bks}"]
        return rec

    def prepare_bks(self, mismatched: dict) -> list[OpRecord]:
        """Compute every instance's BKS, timed; check it against the reference."""
        recs = []
        for i, inst in enumerate(self.insts):
            rec = self.run(("bks", i, None))
            rec.problems += mismatched.get(i, [])
            recorded = inst.recorded_bks
            if rec.out is None:
                if recorded is None:
                    raise RuntimeError(f"no BKS for instance {inst.key}")
                inst.bks = recorded[0]
            else:
                if recorded is not None and tuple(rec.out) != tuple(recorded):
                    rec.problems.append(f"BKS of {inst.key} is {rec.out}, recorded {recorded}")
                if rec.out[0] >= 0:
                    rec.problems.append(f"BKS of {inst.key} is {rec.out[0]}, not negative")
                # a non-negative BKS has already failed the run; -1 keeps gaps defined
                inst.bks = min(rec.out[0], -1)
            recs.append(rec)
        return recs

    def measure(self, ops, seconds: float) -> list[OpRecord]:
        """Run ``ops`` until ``seconds`` have passed and ``MIN_CYCLES`` are done."""
        end = perf_counter() + seconds
        recs = []
        for op in ops:
            if len(recs) >= MIN_CYCLES * self.per_cycle and perf_counter() >= end:
                break
            recs.append(self.run(op))
        return recs

    def self_test(self, recs: list[OpRecord]) -> None:
        """A doctored result (a wrong ``best_cost``) must fail the checks."""
        rec = next(r for r in recs if r.op[0] == "solve" and r.out is not None)
        inst = self.insts[rec.op[1]]
        bad = dataclasses.replace(rec.out, best_cost=rec.out.best_cost - 1)
        if not check_solve(bad, inst, self.w.cap, inst.target(self.w.target_gap_pct)):
            raise RuntimeError("self-test: a doctored best_cost passed the output checks")

    def prefix(self, recs: list[OpRecord]) -> list[OpRecord]:
        """The solves of the fixed first ``MIN_CYCLES`` cycles."""
        head = recs[: MIN_CYCLES * self.per_cycle]
        return [r for r in head if r.op[0] == "solve"]

    def quality(self, recs: list[OpRecord]) -> dict:
        """Gap, hits and BKS beats over the fixed prefix of solves."""
        gaps, hits, beats = [], 0, 0
        for r in self.prefix(recs):
            if r.out is None:
                continue
            inst = self.insts[r.op[1]]
            gaps.append(gap_pct(r.out.best_cost, inst.bks))
            target = inst.target(self.w.target_gap_pct)
            hits += target is None or r.out.best_cost <= target
            beats += r.out.best_cost < inst.bks
        return {"gaps": gaps, "hits": hits, "beats": beats}

    def solve_times(self, recs: list[OpRecord]) -> dict[int, list[float]]:
        """Scaled time of each solve by instance size; a miss or a failure is infinite."""
        times = {}
        for r in recs:
            if r.op[0] != "solve":
                continue
            inst = self.insts[r.op[1]]
            target = inst.target(self.w.target_gap_pct)
            missed = r.out is None or (target is not None and r.out.best_cost > target)
            times.setdefault(inst.n, []).append(math.inf if missed or r.problems else r.scaled)
        return times

    def proposals_per_s(self, recs: list[OpRecord]) -> dict[int, list[float]]:
        """Proposals (steps x n) per scaled second of each solve, by instance size."""
        rates = {}
        for r in recs:
            if r.op[0] == "solve" and r.out is not None:
                n = self.insts[r.op[1]].n
                rates.setdefault(n, []).append(r.out.steps * n / r.scaled)
        return rates

    def bks_times(self, recs: list[OpRecord]) -> dict[int, list[float]]:
        """Scaled time of each BKS computation by instance size."""
        times = {}
        for r in recs:
            if r.op[0] == "bks" and r.out is not None:
                times.setdefault(self.insts[r.op[1]].n, []).append(r.scaled)
        return times


def geomean(values) -> float:
    """Geometric mean; a workload with two instance sizes weighs them equally."""
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values) -> str:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    vals = sorted(values)
    for p in (99.9, 99.0, 90.0):
        if len(vals) * (100 - p) / 100 >= 10:
            rank = math.ceil(p / 100 * len(vals)) - 1
            return f", p{p:g} {vals[rank]:.4g}"
    return ""


def generate_peak_mb(insts: list[Instance]) -> float:
    """Peak traced allocation of one ``generate_mis_graph`` call, max over instances.

    Measured on separate calls, because tracemalloc slows the calls it watches.
    """
    import tracemalloc

    peak = 0
    for inst in insts:
        tracemalloc.start()
        try:
            mis.generate_mis_graph(inst.n, inst.density, inst.seed)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20
