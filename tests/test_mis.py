"""Graph generation, the independent-set encoding, and the exact oracle."""

import itertools

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
    mis_bks_cost,
    mis_to_qubo,
    rand24_stream,
    save_graph,
)
from nebm import mis
from nebm.mis import BRUTE_FORCE_LIMIT


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

    def test_edges_are_canonical(self):
        g = generate_mis_graph(30, 0.4, 1)
        assert np.all(g.edges[:, 0] < g.edges[:, 1])
        as_tuples = list(map(tuple, g.edges.tolist()))
        assert as_tuples == sorted(as_tuples)
        assert len(set(as_tuples)) == len(as_tuples)

    @pytest.mark.parametrize("block", [7, 1 << 20])
    def test_pair_k_takes_draw_k(self, monkeypatch, block):
        # Blocked drawing gives the graph of one draw per pair in
        # lexicographic order, across block boundaries too.
        monkeypatch.setattr(mis, "_PAIR_BLOCK", block)
        n, density, seed = 40, 0.3, 9
        iu, ju = np.triu_indices(n, k=1)
        keep = rand24_stream(seed, iu.size) < int(density * (1 << 24) + 0.5)
        g = generate_mis_graph(n, density, seed)
        assert g.edges.tolist() == np.column_stack([iu[keep], ju[keep]]).tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_mis_graph(0, 0.5, 0)
        with pytest.raises(ValueError):
            generate_mis_graph(5, -0.1, 0)
        with pytest.raises(ValueError):
            generate_mis_graph(5, 1.1, 0)

    def test_graph_constructor_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            MisGraph(3, [(0, 0)], 0.0, 0)
        with pytest.raises(ValueError):
            MisGraph(3, [(0, 1), (1, 0)], 0.0, 0)
        with pytest.raises(ValueError):
            MisGraph(3, [(0, 3)], 0.0, 0)


class TestEncoding:
    def triangle(self):
        return MisGraph(3, [(0, 1), (0, 2), (1, 2)], 1.0, 0)

    def test_triangle_coefficients(self):
        q = mis_to_qubo(self.triangle(), penalty=2)
        assert q.diag.tolist() == [-1, -1, -1]
        assert list(zip(q.off_i.tolist(), q.off_j.tolist(), q.off_q.tolist())) == [
            (0, 1, 2),
            (0, 2, 2),
            (1, 2, 2),
        ]

    def test_edgeless_graph_optimum_is_all_ones(self):
        g = MisGraph(5, [], 0.0, 0)
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
        for name in ("diag", "off_i", "off_j", "off_q", "adj_ptr", "adj_j", "adj_q"):
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


class TestCheckIndependent:
    def test_empty_set_is_feasible(self):
        g = generate_mis_graph(8, 0.5, 0)
        ok, viol = check_independent(g, [0] * 8)
        assert ok and viol == 0

    def test_triangle_all_ones(self):
        g = MisGraph(3, [(0, 1), (0, 2), (1, 2)], 1.0, 0)
        ok, viol = check_independent(g, [1, 1, 1])
        assert not ok
        assert viol == 3

    def test_length_mismatch(self):
        g = MisGraph(3, [], 0.0, 0)
        with pytest.raises(ValueError):
            check_independent(g, [0, 1])


class TestBruteForce:
    def test_edgeless(self):
        size, witness = brute_force_mis(MisGraph(5, [], 0.0, 0))
        assert size == 5
        assert witness.tolist() == [1] * 5

    def test_complete(self):
        edges = list(itertools.combinations(range(5), 2))
        size, witness = brute_force_mis(MisGraph(5, edges, 1.0, 0))
        assert size == 1
        assert int(witness.sum()) == 1

    def test_five_cycle(self):
        g = MisGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 0.0, 0)
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
        g = MisGraph(BRUTE_FORCE_LIMIT + 1, [], 0.0, 0)
        with pytest.raises(ValueError, match="30"):
            brute_force_mis(g)

    def test_bks_cost_is_negative_size(self):
        g = generate_mis_graph(12, 0.3, 0)
        assert mis_bks_cost(g) == -brute_force_mis(g)[0]


class TestDecode:
    def test_feasible_assignment(self):
        g = MisGraph(4, [(0, 1)], 0.0, 0)
        size, feasible, viol = decode_mis(g, [1, 0, 1, 1])
        assert (size, feasible, viol) == (3, True, 0)

    def test_infeasible_assignment(self):
        g = MisGraph(4, [(0, 1)], 0.0, 0)
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
