"""Outside-in layer tracer: times calls into nebm's public names.

Every span wraps one public name at the module that looks it up at call
time, so the package itself is never edited: ``network`` binds
``apply_flips`` with ``from .qubo import ...``, so the span goes on
``nebm.network.apply_flips``, not on ``nebm.qubo.apply_flips``. A name that
a later refactor removes or moves is recorded as missing; the metrics that
need it are then left out with a warning instead of failing the run.

Spans are flat: each keeps a call count, total seconds and optional work
units. A parent's self time is its total minus the spans known to run only
inside it, which holds for the call graph at the time of writing and is
spelled out next to each metric in ``layer_metrics``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _len(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


def _free_neurons(net) -> dict:
    # Read just before Network.step: neurons that are not refractory are the
    # ones that draw and test a flip this step.
    return {
        "network.free": int(np.count_nonzero(net.refractory == 0)),
        "network.neurons": int(net.refractory.size),
    }


class Tracer:
    """Patch spans onto nebm's modules while installed; restore them after."""

    def __init__(self, nebm):
        self.nebm = nebm
        # spans that were installed at least once; a missing key means the
        # wrapped name no longer exists
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.units: Counter = Counter()
        self.missing: set[str] = set()
        self.broken: set[str] = set()
        self._undo: list = []

    # -- installation -----------------------------------------------------

    def _timed(self, fn, span, before=None, after=None):
        self.seconds.setdefault(span, 0.0)
        self.calls.setdefault(span, 0)
        calls, seconds, units = self.calls, self.seconds, self.units
        clock = time.perf_counter

        def count(hook, *args):
            # A hook that no longer fits the wrapped name's signature marks
            # the span broken instead of failing the run.
            try:
                add = hook(*args)
            except (TypeError, IndexError, AttributeError):
                self.broken.add(span)
                return
            units.update(add if isinstance(add, dict) else {span: add})

        def wrapper(*args, **kwargs):
            if before is not None:
                count(before, *args)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds[span] += clock() - t0
                calls[span] += 1
            if after is not None:
                count(after, out)
            return out

        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, module: str, name: str, span: str, before=None, after=None):
        owner = getattr(self.nebm, module)
        path = f"nebm.{module}.{name}"
        if "." in name:
            cls_name, name = name.split(".")
            owner = getattr(owner, cls_name, None)
        fn = getattr(owner, name, None)
        if not callable(fn):
            self.missing.add(path)
            return
        self._patch(owner, name, self._timed(fn, span, before, after))

    def wrap_methods(self, module: str, cls_name: str, methods, span: str):
        """Swap ``module.cls_name`` for a subclass whose methods are spans."""
        owner = getattr(self.nebm, module)
        cls = getattr(owner, cls_name, None)
        found = [m for m in methods if callable(getattr(cls, m, None))]
        for m in methods:
            if m not in found:
                self.missing.add(f"nebm.{module}.{cls_name}.{m}")
        if not found:
            return
        ns = {m: self._timed(getattr(cls, m), span) for m in found}
        if "__slots__" in vars(cls):
            ns["__slots__"] = ()
        self._patch(owner, cls_name, type(cls_name, (cls,), ns))

    def install(self) -> "Tracer":
        w = self.wrap
        # set-up layers, as the benchmark and mis_to_qubo call them
        w("mis", "generate_mis_graph", "mis.generate")
        w("mis", "mis_to_qubo", "mis.to_qubo")
        w("mis", "build_qubo", "qubo.build", before=lambda *a: _len(a[1]))
        w("bench", "load_bks", "bench.load_bks")
        # harness
        w("bench", "run_solver", "bench.run_solver")
        w("bench", "compute_bks", "bench.compute_bks")
        # parallel network
        w("network", "solve_qubo", "network.solve")
        w("network", "network_from_qubo", "network.setup")
        w("network", "Network.step", "network.step", before=_free_neurons)
        w("network", "apply_flips", "qubo.apply_flips", before=lambda *a: _size(a[3]))
        w("network", "advance24_array", "metropolis.advance24", before=lambda *a: _size(a[1]))
        w("network", "clz24_array", "metropolis.clz24")
        # sequential baselines
        w("baselines", "sequential_sa", "sa.solve")
        w("baselines", "tabu_search", "tabu.solve", after=lambda res: res.steps)
        w("baselines", "exact_accept", "metropolis.exact_accept")
        w("baselines", "local_fields", "qubo.local_fields")
        w("baselines", "evaluate_cost", "qubo.evaluate_cost")
        self.wrap_methods("baselines", "Rng24", ("next24", "next_unit"), "metropolis.rng24")
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _ratio(a, b) -> float:
    # A layer that did no work on this workload reads 0, not an error.
    return a / b if b else 0.0


def layer_metrics(setup: Tracer, tr: Tracer, extra: dict) -> dict:
    """Per-layer metrics from two traces plus harness-side ``extra``.

    ``setup`` traced one set-up pass over the workload's instances and
    ``tr`` the replay of its operations; the instance layers read the first,
    so that the encodings inside ``compute_bks`` stay out of them. ``extra`` carries what the benchmark itself observed: set-up pass
    figures, SA run results, solver ``elapsed_s`` totals and the trace
    overhead. A metric whose span is missing is omitted with a warning on
    stderr.
    """
    s, c, u = tr.seconds, tr.calls, tr.units
    ss, sc, su = setup.seconds, setup.calls, setup.units
    step = "network.step"
    flips, adv, clz = "qubo.apply_flips", "metropolis.advance24", "metropolis.clz24"
    # name: (unit, spans it needs, value)
    spec = {
        # qubo kernel as the network uses it
        "qubo.apply_flips_share": ("ratio", (flips, step), lambda: _ratio(s[flips], s[step])),
        "qubo.apply_flips_us_per_flip": ("us", (flips,), lambda: 1e6 * _ratio(s[flips], u[flips])),
        "qubo.flips": ("count", (flips,), lambda: u[flips]),
        # Network.step and its self time (delay line, observe, schedule):
        # apply_flips, advance24_array and clz24_array run only inside it.
        "network.step_us": ("us", (step,), lambda: 1e6 * _ratio(s[step], c[step])),
        "network.step_self_share": ("ratio", (step, flips, adv, clz), lambda: _ratio(
            s[step] - s[flips] - s[adv] - s[clz], s[step])),
        "metropolis.draws": ("count", (adv,), lambda: u[adv]),
        "metropolis.advance24_share": ("ratio", (adv, step), lambda: _ratio(s[adv], s[step])),
        "metropolis.clz24_share": ("ratio", (clz, step), lambda: _ratio(s[clz], s[step])),
        # scalar path of the sequential baselines
        "metropolis.rng24_calls": ("count", ("metropolis.rng24",), lambda: c["metropolis.rng24"]),
        "metropolis.rng24_share": ("ratio", ("metropolis.rng24", "sa.solve", "tabu.solve"),
                                   lambda: _ratio(s["metropolis.rng24"],
                                                  s["sa.solve"] + s["tabu.solve"])),
        "metropolis.exact_accept_calls": ("count", ("metropolis.exact_accept",),
                                          lambda: c["metropolis.exact_accept"]),
        "sa.us_per_visit": ("us", ("sa.solve",), lambda: 1e6 * _ratio(s["sa.solve"], extra["sa_visits"])),
        "sa.visits": ("count", (), lambda: extra["sa_visits"]),
        "sa.accept_ratio": ("ratio", (), lambda: _ratio(extra["sa_flips"], extra["sa_visits"])),
        "tabu.us_per_move": ("us", ("tabu.solve",), lambda: 1e6 * _ratio(s["tabu.solve"], u["tabu.solve"])),
        "tabu.moves": ("count", ("tabu.solve",), lambda: u["tabu.solve"]),
        # tabu_search calls evaluate_cost once per restart and nowhere else
        "tabu.restarts": ("count", ("qubo.evaluate_cost",), lambda: c["qubo.evaluate_cost"]),
        "qubo.local_fields_calls": ("count", ("qubo.local_fields",), lambda: c["qubo.local_fields"]),
        "qubo.evaluate_cost_calls": ("count", ("qubo.evaluate_cost",), lambda: c["qubo.evaluate_cost"]),
        # instance set-up, one traced pass over the workload's instances
        "mis.generate_s": ("s", ("mis.generate",), lambda: ss["mis.generate"]),
        "mis.generate_peak_mb": ("MB", (), lambda: extra["generate_peak_mb"]),
        "mis.edges": ("count", (), lambda: extra["edges"]),
        "mis.to_qubo_self_s": ("s", ("mis.to_qubo", "qubo.build"),
                               lambda: ss["mis.to_qubo"] - ss["qubo.build"]),
        "qubo.build_s": ("s", ("qubo.build",), lambda: ss["qubo.build"]),
        "qubo.build_entries": ("count", ("qubo.build",), lambda: su["qubo.build"]),
        "network.setup_s": ("s", ("network.setup",), lambda: _ratio(s["network.setup"], c["network.setup"])),
        # exact counts: a bit-identical change leaves them equal
        "network.steps": ("count", (step,), lambda: c[step]),
        "network.flips_per_step": ("flips/step", (step, flips), lambda: _ratio(u[flips], c[step])),
        "network.accept_ratio": ("ratio", (step, flips), lambda: _ratio(u[flips], u["network.free"])),
        "network.refractory_occupancy": ("ratio", (step,), lambda: _ratio(
            u["network.neurons"] - u["network.free"], u["network.neurons"])),
        # harness
        "bench.run_solver_overhead_us": ("us", ("bench.run_solver",), lambda: 1e6 * _ratio(
            s["bench.run_solver"] - extra["solver_elapsed_s"], c["bench.run_solver"])),
        "bench.load_bks_s": ("s", ("bench.load_bks",), lambda: _ratio(ss["bench.load_bks"], sc["bench.load_bks"])),
        "bench.beats_bks": ("count", (), lambda: extra["beats_bks"]),
        "trace.overhead_pct": ("%", (), lambda: extra["overhead_pct"]),
    }
    out = {}
    for name, (unit, needs, value) in spec.items():
        absent = [span for span in needs if span not in s or span in tr.broken
                  or span in setup.broken]
        if absent:
            print(f"warning: {name} not measured: span {', '.join(absent)} is gone "
                  f"or no longer fits (names not found: {', '.join(sorted(tr.missing)) or 'none'})",
                  file=sys.stderr)
            continue
        out[name] = {"value": float(value()), "unit": unit}
    return out
