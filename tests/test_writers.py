"""Every output file is written as UTF-8 text, the encoding its reader takes,
and byte for byte as recorded here, whatever the locale of the host."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nebm import (
    build_qubo,
    generate_mis_graph,
    load_bks,
    load_records,
    mis_to_qubo,
    save_bks,
    save_graph,
    save_qubo,
)
from nebm.bench import BenchmarkRecord, save_records, save_summary, summarize
from nebm.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def record(kind, budget, wall_ms, gap, steps, *, density=0.15, solver="nebm", seed=0,
           bits=(1, 0, 1)):
    return BenchmarkRecord(
        instance_n=3, density=density, instance_seed=2, solver=solver,
        config_hash="0123456789ab", budget_kind=kind, budget=budget, run_seed=seed,
        best_cost=-2, bks_cost=-3, gap_percent=gap, steps=steps, wall_ms=wall_ms,
        assignment=np.array(bits, dtype=np.int8),
    )


#: Records with fixed wall times, covering each budget's text form: seconds
#: in plain and in exponent notation, and a step count past six digits.
RECORDS = [
    record("seconds", 0.01, 10.0004, 100 / 3, 7),
    record("seconds", 1e-07, 0.0001, 0.0, 0, density=1 / 3, solver="sa"),
    record("seconds", 12345678.9, 12345678.9, 100.0, 123456, solver="tabu", bits=(0, 0, 0)),
    record("steps", 12345678, 2.5, 0.0, 12345678, seed=0),
    record("steps", 12345678, 3.25, 33.3333333, 12345678, seed=1, bits=(0, 1, 0)),
    record("steps", 12345678, 1.0, 50.0, 12345677, seed=2),
]

RESULTS = """\
instance_n,density,instance_seed,solver,config_hash,budget_kind,budget,run_seed,best_cost,bks_cost,gap_percent,steps,wall_ms
3,0.15,2,nebm,0123456789ab,seconds,0.01,0,-2,-3,33.333333,7,10.000
3,0.333333,2,sa,0123456789ab,seconds,1e-07,0,-2,-3,0.000000,0,0.000
3,0.15,2,tabu,0123456789ab,seconds,1.23457e+07,0,-2,-3,100.000000,123456,12345678.900
3,0.15,2,nebm,0123456789ab,steps,12345678,0,-2,-3,0.000000,12345678,2.500
3,0.15,2,nebm,0123456789ab,steps,12345678,1,-2,-3,33.333333,12345678,3.250
3,0.15,2,nebm,0123456789ab,steps,12345678,2,-2,-3,50.000000,12345677,1.000
"""

SUMMARY = """\
solver,instance_n,density,budget_kind,budget,runs,gap_mean,gap_min,gap_max,steps_mean,wall_ms_mean
nebm,3,0.15,seconds,0.01,1,33.333333,33.333333,33.333333,7.000,10.000
nebm,3,0.15,steps,12345678,3,27.777778,0.000000,50.000000,12345677.667,2.250
sa,3,0.333333,seconds,1e-07,1,0.000000,0.000000,0.000000,0.000,0.000
tabu,3,0.15,seconds,1.23457e+07,1,100.000000,100.000000,100.000000,123456.000,12345678.900
"""

BKS_CACHE = {
    (500, "0.15", 0): (-41, "tabu:10000"),
    (20, "0.15", 0): (-9, "tabu:10000 révisé"),
    (10, "0.3", 0): (-5, "exact"),
}

#: The text each writer gave before the writers shared one; the 60-variable
#: instance by digest.
GOLDEN = {
    "small.qubo": "qubo 4 6\n0 0 -3\n1 1 5\n3 3 -1\n0 1 3\n1 2 -1\n2 3 -7\n",
    "dense.qubo": "58a2562c733d9451fdacb9b21ff6d71077458f951ab778f27c6dfccc89ccb895",
    "g.graph": "graph 8 7\n1 3\n2 5\n3 6\n3 7\n4 6\n4 7\n5 6\n",
    "bks.csv": (
        "instance_n,density,instance_seed,bks_cost,provenance\n"
        "10,0.3,0,-5,exact\n20,0.15,0,-9,tabu:10000 révisé\n500,0.15,0,-41,tabu:10000\n"
    ),
    "r.csv": RESULTS,
    "r.csv.assignments": "0 3 101\n1 3 101\n2 3 000\n3 3 101\n4 3 010\n5 3 101\n",
    "summary.csv": SUMMARY,
    "dense.best": "000000000001000010010000010000000000000010000000000100010000\n",
}


def test_every_writer_gives_its_golden_bytes(tmp_path):
    # (0, 1) is given in both orientations: build_qubo keeps their mean, 3.
    small = build_qubo(4, [(0, 0, -3), (1, 1, 5), (0, 1, 4), (1, 0, 2), (1, 2, -1),
                           (2, 3, -7), (3, 3, -1)])
    save_qubo(small, tmp_path / "small.qubo")
    save_qubo(mis_to_qubo(generate_mis_graph(60, 0.3, 0)), tmp_path / "dense.qubo")
    save_graph(generate_mis_graph(8, 0.4, 1), tmp_path / "g.graph")
    save_bks(tmp_path / "bks.csv", BKS_CACHE)
    save_records(tmp_path / "r.csv", RECORDS)
    save_summary(tmp_path / "summary.csv", summarize(RECORDS))
    assert main(["solve", str(tmp_path / "dense.qubo"), "--max-steps", "200",
                 "--out", str(tmp_path / "dense.best")]) == 0
    for name, expected in GOLDEN.items():
        data = (tmp_path / name).read_bytes()
        if name == "dense.qubo":
            assert hashlib.sha256(data).hexdigest() == expected, name
        else:
            assert data == expected.encode("utf-8"), name


def test_save_records_refuses_a_record_without_assignment(tmp_path):
    # Records read back from a results file carry no assignment; rewriting
    # them must leave both files as they were.
    path = tmp_path / "r.csv"
    save_records(path, RECORDS)
    sidecar = path.read_bytes(), (tmp_path / "r.csv.assignments").read_bytes()
    with pytest.raises(ValueError, match=r"^record 0 has no assignment"):
        save_records(path, load_records(path))
    assert (path.read_bytes(), (tmp_path / "r.csv.assignments").read_bytes()) == sidecar


def test_bench_keeps_a_non_ascii_cache_under_the_c_locale(tmp_path):
    cache = tmp_path / "cache.csv"
    original = [
        "instance_n,density,instance_seed,bks_cost,provenance",
        "20,0.15,0,-9,tabu:10000 révisé",
        "500,0.15,0,-41,tabu:10000",
    ]
    cache.write_text("\n".join(original) + "\n", encoding="utf-8")
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C",
               PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run(
        [sys.executable, "-m", "nebm.cli", "bench", "--nodes", "10", "--densities", "0.15",
         "--seeds", "0", "--bks", "cache.csv", "--out", "r.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, encoding="utf-8",
    )
    assert run.returncode == 0, run.stderr
    lines = cache.read_text(encoding="utf-8").splitlines()
    assert set(original) <= set(lines)
    assert load_bks(cache) == {
        (10, "0.15", 0): (-6, "exact"),
        (20, "0.15", 0): (-9, "tabu:10000 révisé"),
        (500, "0.15", 0): (-41, "tabu:10000"),
    }
