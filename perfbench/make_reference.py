"""Write the reference files the benchmark checks its instances against.

For every workload and every workload seed in ``SEEDS`` this records each
instance's fingerprint (n, m and a SHA-256 of its sorted edge array) in
``instances.json`` and its best-known cost from ``bench.compute_bks``, with
the provenance that function reports, in ``bks.csv`` (the format of
``bench.load_bks``). Run from the root of a source checkout:

    python3 perfbench/make_reference.py

Re-run it only when an instance or the BKS procedure is meant to change;
the benchmark counts any difference from these files as an error.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nebm import bench, mis  # noqa: E402

import workloads as wl  # noqa: E402

SEEDS = range(16)


def main() -> None:
    cache, prints = {}, {}
    for w in wl.WORKLOADS.values():
        for seed in SEEDS:
            for n, d, s in wl.instance_seeds(w, seed):
                key = bench.instance_key(n, d, s)
                if key in cache:
                    continue
                g = mis.generate_mis_graph(n, d, s)
                prints[",".join(map(str, key))] = {
                    "n": n, "m": g.m, "edges_sha256": wl.fingerprint(g)
                }
                cache[key] = bench.compute_bks(n, d, s, penalty=wl.PENALTY)
                print(w.name, key, cache[key], flush=True)
    bench.save_bks(wl.BKS_FILE, cache)
    with open(wl.FINGERPRINT_FILE, "w") as f:
        json.dump({
            "about": "G(n, density, seed) instances of the benchmark's workloads, "
                     "seeds 0-15; m and edges_sha256 fingerprint MisGraph.edges",
            "instances": dict(sorted(prints.items())),
        }, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
