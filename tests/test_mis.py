"""Graph generation, the independent-set encoding, and the exact oracle."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from nebm import (
    MisGraph,
    brute_force_mis,
    build_qubo,
    check_independent,
    decode_mis,
    evaluate_cost,
    generate_mis_graph,
    load_graph,
    mis_to_qubo,
    rand24_stream,
    save_graph,
)
from nebm import mis
from nebm.mis import BRUTE_FORCE_LIMIT
from helpers import upper_triplets


def exhaustive_mis_size(g: MisGraph) -> int:
    """Check every subset; usable up to ~n=20."""
    edges = set(map(tuple, g.edges.tolist()))
    best = 0
    for word in range(1 << g.n):
        members = [v for v in range(g.n) if word >> v & 1]
        if all((u, v) not in edges for u, v in itertools.combinations(members, 2)):
            best = max(best, len(members))
    return best


class TestGenerator:
    def test_density_zero_has_no_edges(self):
        assert generate_mis_graph(10, 0.0, 0).m == 0

    def test_density_one_is_complete(self):
        g = generate_mis_graph(10, 1.0, 0)
        assert g.m == 45

    def test_edge_count_within_three_sigma(self):
        # n=100, d=0.15: mean 742.5, sigma ~ 25.1 over 4950 pair trials.
        g = generate_mis_graph(100, 0.15, 0)
        mean = 0.15 * 4950
        sigma = (4950 * 0.15 * 0.85) ** 0.5
        assert abs(g.m - mean) <= 3 * sigma

    def test_deterministic_per_seed(self):
        a = generate_mis_graph(40, 0.3, 5)
        b = generate_mis_graph(40, 0.3, 5)
        assert np.array_equal(a.edges, b.edges)
        c = generate_mis_graph(40, 0.3, 6)
        assert not np.array_equal(a.edges, c.edges)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint64, np.int8])
    def test_numpy_seed_is_its_int(self, kind):
        a = generate_mis_graph(40, 0.3, 5)
        assert np.array_equal(generate_mis_graph(40, 0.3, kind(5)).edges, a.edges)

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_non_integer_seed_refused(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            generate_mis_graph(40, 0.3, seed)

    def test_edges_are_canonical(self):
        g = generate_mis_graph(30, 0.4, 1)
        assert np.all(g.edges[:, 0] < g.edges[:, 1])
        as_tuples = list(map(tuple, g.edges.tolist()))
        assert as_tuples == sorted(as_tuples)
        assert len(set(as_tuples)) == len(as_tuples)

    @pytest.mark.parametrize("block", [7, 1 << 16, 1 << 20])
    def test_pair_k_takes_draw_k(self, monkeypatch, block):
        # Blocked drawing gives the graph of one draw per pair in
        # lexicographic order, across block boundaries too, and each kept
        # pair finds its row across runs of rows that keep none.
        monkeypatch.setattr(mis, "_PAIR_BLOCK", block)
        for n, density, seed in [(40, 0.3, 9), (300, 0.002, 0)]:
            iu, ju = np.triu_indices(n, k=1)
            keep = rand24_stream(seed, iu.size) < int(density * (1 << 24) + 0.5)
            g = generate_mis_graph(n, density, seed)
            assert g.edges.tolist() == np.column_stack([iu[keep], ju[keep]]).tolist()
            # MisGraph's layout, whose bytes the benchmark fingerprints.
            assert g.edges.dtype == np.int64 and g.edges.flags.c_contiguous
            assert g.edges.shape == (int(keep.sum()), 2)
        # G(300, 0.002, 0) keeps no pair in row 0, in rows between kept
        # ones, or in its last 16 rows.
        filled = np.unique(g.edges[:, 0])
        assert filled[0] > 0 and filled[-1] < n - 2
        assert filled.size < filled[-1] - filled[0] + 1

    @pytest.mark.parametrize("density", [0.0, 2**-26, 2**-24, 0.5, 1 - 2**-26, 1.0])
    def test_threshold_edges_take_draw_k(self, monkeypatch, density):
        # The mixed word is compared against (threshold << 40) - 1: at
        # density 1 that is 2^64 - 1, and a threshold of 0 keeps no pair.
        monkeypatch.setattr(mis, "_PAIR_BLOCK", 7)
        n, seed = 30, 4
        threshold = int(density * (1 << 24) + 0.5)
        iu, ju = np.triu_indices(n, k=1)
        keep = rand24_stream(seed, iu.size) < threshold
        g = generate_mis_graph(n, density, seed)
        assert g.edges.tolist() == np.column_stack([iu[keep], ju[keep]]).tolist()
        if threshold == 0:
            assert g.m == 0
        if threshold == 1 << 24:
            assert g.m == iu.size

    def test_block_boundary_pinned(self):
        # 79 800 pairs: the first default block ends inside row 230. The
        # digest and edge count were recorded before the block size changed.
        assert mis._PAIR_BLOCK < 400 * 399 // 2
        g = generate_mis_graph(400, 0.15, 0)
        iu, ju = np.triu_indices(400, k=1)
        keep = rand24_stream(0, iu.size) < int(0.15 * (1 << 24) + 0.5)
        assert g.edges.tolist() == np.column_stack([iu[keep], ju[keep]]).tolist()
        assert g.m == 11912
        assert hashlib.sha256(g.edges.astype("<i8").tobytes()).hexdigest() == (
            "6933d90a5ec02dde75a147f18ecf1eca238cd9fd074b0772d2dc4ef65fe48731"
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_mis_graph(0, 0.5, 0)
        with pytest.raises(ValueError):
            generate_mis_graph(5, -0.1, 0)
        with pytest.raises(ValueError):
            generate_mis_graph(5, 1.1, 0)

    def test_graph_constructor_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            MisGraph(3, [(0, 0)])
        with pytest.raises(ValueError):
            MisGraph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            MisGraph(3, [(0, 3)])
        # Sorted input that breaks one rule still gets the full check.
        for bad, message in [
            ([(0, 1), (1, 3)], "out of range"),
            ([(-1, 1), (0, 2)], "out of range"),
            ([(0, 1), (2, 2)], "self-loops"),
            ([(0, 1), (1, 2), (1, 2)], "duplicate"),
        ]:
            with pytest.raises(ValueError, match=message):
                MisGraph(3, np.array(bad))

    def test_graph_owns_canonical_edges(self):
        e = np.array([[0, 1], [0, 2], [1, 2]])
        g = MisGraph(3, e)
        assert g.edges.tolist() == e.tolist() and g.edges.dtype == np.int64
        e[0, 1] = 2
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]


class TestEncoding:
    def triangle(self):
        return MisGraph(3, [(0, 1), (0, 2), (1, 2)])

    def test_triangle_coefficients(self):
        q = mis_to_qubo(self.triangle(), penalty=2)
        assert q.diag.tolist() == [-1, -1, -1]
        assert upper_triplets(q) == [
            (0, 1, 2),
            (0, 2, 2),
            (1, 2, 2),
        ]

    def test_edgeless_graph_optimum_is_all_ones(self):
        g = MisGraph(5, [])
        q = mis_to_qubo(g)
        assert q.num_offdiag == 0
        assert evaluate_cost(q, [1] * 5) == -5

    def test_independent_set_cost_is_negative_size(self):
        g = generate_mis_graph(14, 0.3, 2)
        q = mis_to_qubo(g)
        _, witness = brute_force_mis(g)
        assert evaluate_cost(q, witness) == -int(witness.sum())

    def test_violations_show_up_in_cost(self):
        # cost = -|set bits| + 2 * penalty * violated edges.
        g = generate_mis_graph(12, 0.4, 3)
        lam = 8
        q = mis_to_qubo(g, penalty=lam)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.integers(0, 2, size=12).astype(np.int8)
            _, viol = check_independent(g, x)
            assert evaluate_cost(q, x) == -int(x.sum()) + 2 * lam * viol

    def test_penalty_validation(self):
        g = self.triangle()
        with pytest.raises(ValueError):
            mis_to_qubo(g, penalty=1)
        with pytest.raises(ValueError):
            mis_to_qubo(g, penalty=2.5)
        with pytest.raises(ValueError, match="int64"):
            mis_to_qubo(g, penalty=2**63)

    def test_same_matrix_as_triplets(self):
        g = generate_mis_graph(60, 0.2, 4)
        q = mis_to_qubo(g, penalty=5)
        entries = [(u, u, -1) for u in range(g.n)]
        entries += [(u, v, 5) for u, v in g.edges.tolist()]
        ref = build_qubo(g.n, entries)
        for name in ("diag", "adj_ptr", "adj_j", "adj_w"):
            assert getattr(q, name).tolist() == getattr(ref, name).tolist()

    @pytest.mark.parametrize("n,density,seed", [(8, 0.3, 0), (10, 0.5, 1), (12, 0.2, 2)])
    def test_encoding_soundness_exhaustive(self, n, density, seed):
        # Every minimum-cost assignment is a feasible set of maximum size.
        g = generate_mis_graph(n, density, seed)
        q = mis_to_qubo(g)
        opt_size = exhaustive_mis_size(g)
        best_cost = None
        best_words = []
        for word in range(1 << n):
            x = np.array([(word >> k) & 1 for k in range(n)], dtype=np.int8)
            c = evaluate_cost(q, x)
            if best_cost is None or c < best_cost:
                best_cost, best_words = c, [x]
            elif c == best_cost:
                best_words.append(x)
        assert best_cost == -opt_size
        for x in best_words:
            ok, viol = check_independent(g, x)
            assert ok and viol == 0
            assert int(x.sum()) == opt_size


def traced_peak(build):
    """``build()`` and the most memory it held at once, as tracemalloc
    counts it: every numpy buffer, exactly, so the figure does not vary
    from run to run."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        return build(), tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestWorkingMemory:
    """Building an instance holds a small multiple of what it returns.
    Measured at n=2000, d=0.05: the generator 1.54x its edges, and the
    encoding 2.27x its matrix, its input array included."""

    def test_generator_peak(self):
        g, peak = traced_peak(lambda: generate_mis_graph(2000, 0.05, 0))
        assert peak <= 3.0 * g.edges.nbytes

    def test_encoding_peak(self):
        g = generate_mis_graph(2000, 0.05, 0)
        q, peak = traced_peak(lambda: mis_to_qubo(g, 8))
        out = sum(a.nbytes for a in (q.diag, q.adj_ptr, q.adj_j, q.adj_w))
        assert peak <= 3.0 * out


class TestCheckIndependent:
    def test_empty_set_is_feasible(self):
        g = generate_mis_graph(8, 0.5, 0)
        ok, viol = check_independent(g, [0] * 8)
        assert ok and viol == 0

    def test_triangle_all_ones(self):
        g = MisGraph(3, [(0, 1), (0, 2), (1, 2)])
        ok, viol = check_independent(g, [1, 1, 1])
        assert not ok
        assert viol == 3

    def test_length_mismatch(self):
        g = MisGraph(3, [])
        with pytest.raises(ValueError):
            check_independent(g, [0, 1])


class TestBruteForce:
    def test_edgeless(self):
        size, witness = brute_force_mis(MisGraph(5, []))
        assert size == 5
        assert witness.tolist() == [1] * 5

    def test_complete(self):
        edges = list(itertools.combinations(range(5), 2))
        size, witness = brute_force_mis(MisGraph(5, edges))
        assert size == 1
        assert int(witness.sum()) == 1

    def test_five_cycle(self):
        g = MisGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        size, witness = brute_force_mis(g)
        assert size == 2
        assert exhaustive_mis_size(g) == 2
        ok, _ = check_independent(g, witness)
        assert ok

    @pytest.mark.parametrize("seed", range(6))
    def test_against_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 15))
        g = generate_mis_graph(n, float(rng.uniform(0.1, 0.7)), seed)
        size, witness = brute_force_mis(g)
        assert size == exhaustive_mis_size(g)
        ok, viol = check_independent(g, witness)
        assert ok and viol == 0
        assert int(witness.sum()) == size

    def test_size_guard(self):
        g = MisGraph(BRUTE_FORCE_LIMIT + 1, [])
        with pytest.raises(ValueError, match="30"):
            brute_force_mis(g)


class TestDecode:
    def test_feasible_assignment(self):
        g = MisGraph(4, [(0, 1)])
        size, feasible, viol = decode_mis(g, [1, 0, 1, 1])
        assert (size, feasible, viol) == (3, True, 0)

    def test_infeasible_assignment(self):
        g = MisGraph(4, [(0, 1)])
        size, feasible, viol = decode_mis(g, [1, 1, 0, 0])
        assert (size, feasible, viol) == (2, False, 1)


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        g = generate_mis_graph(20, 0.3, 4)
        path = tmp_path / "g.graph"
        save_graph(g, path)
        back = load_graph(path)
        assert back.n == g.n
        assert np.array_equal(back.edges, g.edges)

    def test_header_and_determinism(self, tmp_path):
        g = generate_mis_graph(6, 0.5, 0)
        p1, p2 = tmp_path / "a.graph", tmp_path / "b.graph"
        save_graph(g, p1)
        save_graph(g, p2)
        assert p1.read_bytes() == p2.read_bytes()
        first = p1.read_text().splitlines()[0]
        assert first == f"graph 6 {g.m}"

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.graph"
        path.write_text("# made by hand\ngraph 3 1\n0 2\n")
        g = load_graph(path)
        assert g.n == 3
        assert g.edges.tolist() == [[0, 2]]

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("graph 3 2\n0 1\n")
        with pytest.raises(ValueError, match="promises"):
            load_graph(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("graph x 1\n0 1\n", 1),
            ("graph 3 z\n", 1),
            ("# made by hand\ngraph 3 1\n0 b\n", 3),
            ("graph 3 1\n0 1 2\n", 2),
            ("graph 3 1\n\n1.5 2\n", 3),
            ("graph 3 1\n0 7\n", 2),
            ("qubo 3 1\n", 1),
            ("graph 2 1\n1 1\n", 2),
            ("graph 3 2\n0 1\n1 0\n", 3),
            ("graph 3 3\n0 2\n# again\n0 1\n0 2\n", 5),
            ("graph 0 0\n", 1),
            ("graph 3 -1\n", 1),
        ],
    )
    def test_bad_file_names_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        with pytest.raises(ValueError) as e:
            load_graph(path)
        assert str(e.value).startswith(f"{path}:{line}: ")
