"""Sparse QUBO construction, exact costs, deltas, and the file format."""

import numpy as np
import pytest

from nebm import (
    apply_flips,
    as_assignment,
    build_qubo,
    delta_cost,
    evaluate_cost,
    load_qubo,
    local_fields,
    save_qubo,
)
from nebm.qubo import flip_deltas, flip_one, initial_state, max_flip_delta, state_cost
from helpers import dense_cost, dense_fields, random_bits, random_qubo


class TestBuildQubo:
    def test_direct_storage(self):
        q = build_qubo(2, [(0, 0, -1), (1, 1, -1), (0, 1, 2)])
        assert q.diag.tolist() == [-1, -1]
        assert q.off_i.tolist() == [0]
        assert q.off_j.tolist() == [1]
        assert q.off_q.tolist() == [2]

    def test_empty_problem(self):
        q = build_qubo(1, [])
        assert q.diag.tolist() == [0]
        assert q.num_offdiag == 0

    def test_both_orientations_average(self):
        # (3 + 1) / 2 = 2, integral, fine.
        q = build_qubo(2, [(0, 1, 3), (1, 0, 1)])
        assert q.off_q.tolist() == [2]

    def test_odd_sum_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            build_qubo(2, [(0, 1, 3), (1, 0, 2)])

    def test_single_orientation_taken_as_is(self):
        # One-sided input is already symmetric, not halved.
        q = build_qubo(2, [(1, 0, 3)])
        assert q.off_i.tolist() == [0]
        assert q.off_q.tolist() == [3]

    def test_duplicate_entries_accumulate(self):
        q = build_qubo(2, [(0, 1, 2), (0, 1, 3), (0, 0, 1), (0, 0, 1)])
        assert q.off_q.tolist() == [5]
        assert q.diag.tolist() == [2, 0]

    def test_zero_offdiagonals_dropped(self):
        q = build_qubo(3, [(0, 1, 2), (0, 1, -2), (1, 2, 0)])
        assert q.num_offdiag == 0

    def test_rejects_floats_and_bools(self):
        with pytest.raises(ValueError, match="integer"):
            build_qubo(2, [(0, 1, 1.5)])
        with pytest.raises(ValueError, match="integer"):
            build_qubo(2, [(0, 0, True)])

    def test_out_of_range_entry(self):
        with pytest.raises(IndexError):
            build_qubo(2, [(0, 2, 1)])
        with pytest.raises(IndexError):
            build_qubo(2, [(-1, 0, 1)])

    def test_wrapping_diagonal_sum_rejected(self):
        # 2^62 + 2^62 does not fit in int64; it must not wrap to -2^63.
        with pytest.raises(ValueError, match="diagonal entry 0"):
            build_qubo(2, [(0, 0, 2**62), (0, 0, 2**62)])
        with pytest.raises(ValueError, match="diagonal entry 1"):
            build_qubo(2, [(1, 1, -(2**63)), (1, 1, -1)])
        q = build_qubo(1, [(0, 0, 2**63 - 1)])
        assert q.diag.tolist() == [2**63 - 1]

    def test_wrapping_offdiagonal_sum_rejected(self):
        with pytest.raises(ValueError, match="outside int64"):
            build_qubo(2, [(0, 1, 2**62), (0, 1, 2**62)])

    def test_sums_past_int64_stay_exact(self):
        # Partial sums outside int64 are fine when the result fits.
        q = build_qubo(2, [(0, 1, 2**62), (0, 1, 2**62), (1, 0, 2**62)])
        assert q.off_q.tolist() == [3 * 2**61]
        q = build_qubo(2, [(0, 1, 2**62), (0, 1, 2**62), (1, 0, -(2**63))])
        assert q.num_offdiag == 0
        q = build_qubo(1, [(0, 0, 2**64), (0, 0, -(2**64) + 5)])
        assert q.diag.tolist() == [5]

    def test_array_entries_match_triplets(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            e = np.column_stack([
                rng.integers(0, n, 30), rng.integers(0, n, 30), rng.integers(-3, 4, 30)
            ])
            e[:, 2] *= 2  # keep both-orientation sums even
            q = build_qubo(n, e.astype(np.int32))
            ref = build_qubo(n, [tuple(r) for r in e.tolist()])
            for name in ("diag", "off_i", "off_j", "off_q", "adj_ptr", "adj_j", "adj_q"):
                assert getattr(q, name).tolist() == getattr(ref, name).tolist()
                assert getattr(q, name).dtype == np.int64
        with pytest.raises(IndexError, match=r"\(0,2\)"):
            build_qubo(2, np.array([[0, 1, 1], [0, 2, 1]]))
        with pytest.raises(ValueError, match=r"pair \(0, 1\)"):
            build_qubo(2, np.array([[0, 1, 3], [1, 0, 2]]))

    def test_hardware_weight_limit(self):
        build_qubo(2, [(0, 1, 127)], hardware_faithful=True)
        with pytest.raises(ValueError, match="8-bit"):
            build_qubo(2, [(0, 1, 128)], hardware_faithful=True)
        # Diagonal is a bias, not a synaptic weight; no limit there.
        build_qubo(1, [(0, 0, 10_000)], hardware_faithful=True)

    def test_adjacency_is_column_sorted(self):
        rng = np.random.default_rng(1)
        q = random_qubo(rng, 40, density=0.4)
        for i in range(q.n):
            nbrs, _ = q.neighbors(i)
            assert np.all(np.diff(nbrs) > 0)

    def test_adjacency_symmetric(self):
        rng = np.random.default_rng(2)
        q = random_qubo(rng, 30, density=0.3)
        seen = {}
        for i in range(q.n):
            nbrs, qs = q.neighbors(i)
            for j, v in zip(nbrs.tolist(), qs.tolist()):
                seen[(i, j)] = v
        for (i, j), v in seen.items():
            assert seen[(j, i)] == v


class TestAsAssignment:
    def test_accepts_lists_and_casts(self):
        x = as_assignment([0, 1, 1], 3)
        assert x.dtype == np.int8
        assert x.tolist() == [0, 1, 1]

    def test_rejects_bad_length_and_values(self):
        with pytest.raises(ValueError, match="length"):
            as_assignment([0, 1], 3)
        with pytest.raises(ValueError, match="0 or 1"):
            as_assignment([0, 2, 1], 3)


class TestCostAndFields:
    def setup_method(self):
        self.q = build_qubo(
            3, [(0, 0, -1), (1, 1, -1), (2, 2, -1), (0, 1, 2), (1, 2, 2)]
        )

    def test_zero_vector(self):
        assert evaluate_cost(self.q, [0, 0, 0]) == 0

    def test_hand_expansion(self):
        # -1 - 1 + 2*2: the off-diagonal pair counts for both orientations.
        assert evaluate_cost(self.q, [1, 1, 0]) == 2

    def test_local_fields_hand_values(self):
        assert local_fields(self.q, [1, 1, 0]).tolist() == [2, 2, 2]
        assert local_fields(self.q, [0, 0, 0]).tolist() == [0, 0, 0]

    def test_single_variable_has_no_field(self):
        q1 = build_qubo(1, [(0, 0, 5)])
        assert local_fields(q1, [1]).tolist() == [0]

    def test_delta_hand_values(self):
        z = local_fields(self.q, [1, 1, 0])
        # Flipping x_1 off: -(q_11 + 2 z_1) = -(-1 + 4) = -3.
        assert delta_cost(self.q, [1, 1, 0], z, 1) == -3
        q1 = build_qubo(1, [(0, 0, -1)])
        assert delta_cost(q1, [0], local_fields(q1, [0]), 0) == -1

    def test_delta_index_range(self):
        z = local_fields(self.q, [0, 0, 0])
        with pytest.raises(IndexError):
            delta_cost(self.q, [0, 0, 0], z, 3)

    def test_against_dense_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            q = random_qubo(rng, n, density=0.35)
            x = random_bits(rng, n)
            assert evaluate_cost(q, x) == dense_cost(q, x)
            assert local_fields(q, x).tolist() == dense_fields(q, x).tolist()
            x0, z = initial_state(q, 0, x)
            assert x0 is not x and x0.tolist() == x.tolist()
            assert z.tolist() == dense_fields(q, x).tolist()
            assert state_cost(q, x0, z) == dense_cost(q, x)

    def test_delta_equals_recompute_difference(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 32))
            q = random_qubo(rng, n, density=0.4)
            for _ in range(10):
                x = random_bits(rng, n)
                z = local_fields(q, x)
                base = evaluate_cost(q, x)
                for i in range(n):
                    y = x.copy()
                    y[i] ^= 1
                    assert delta_cost(q, x, z, i) == evaluate_cost(q, y) - base
                assert flip_deltas(q, x, z).tolist() == [
                    delta_cost(q, x, z, i) for i in range(n)
                ]
                assert max_flip_delta(q, z) == max(
                    abs(delta_cost(q, x, z, i)) for i in range(n)
                )


class TestApplyFlips:
    def test_empty_flip_is_noop(self):
        q = build_qubo(2, [(0, 1, 1)])
        x = as_assignment([1, 0], 2)
        z = local_fields(q, x)
        apply_flips(q, x, z, [])
        assert x.tolist() == [1, 0]
        assert z.tolist() == local_fields(q, [1, 0]).tolist()

    def test_involution(self):
        rng = np.random.default_rng(5)
        q = random_qubo(rng, 12, density=0.5)
        x = random_bits(rng, 12)
        z = local_fields(q, x)
        x0, z0 = x.copy(), z.copy()
        apply_flips(q, x, z, [3])
        apply_flips(q, x, z, [3])
        assert np.array_equal(x, x0)
        assert np.array_equal(z, z0)

    def test_random_batches_match_recompute(self):
        rng = np.random.default_rng(6)
        q = random_qubo(rng, 50, density=0.25)
        x = random_bits(rng, 50)
        z = local_fields(q, x)
        for _ in range(100):
            k = int(rng.integers(0, 12))
            batch = rng.choice(50, size=k, replace=False)
            apply_flips(q, x, z, batch)
            assert np.array_equal(z, local_fields(q, x))

    def _check_batches(self, rng, q, batches):
        # Every batch against a full recompute, from a fresh random state.
        x = random_bits(rng, q.n)
        z = local_fields(q, x)
        for batch in batches:
            expect = x.copy()
            expect[batch] ^= 1
            apply_flips(q, x, z, batch)
            assert np.array_equal(x, expect)
            assert np.array_equal(z, local_fields(q, x))

    def test_unsorted_batches(self):
        rng = np.random.default_rng(9)
        q = random_qubo(rng, 60, density=0.2)
        batches = [rng.permutation(rng.choice(60, size=k, replace=False))
                   for k in rng.integers(2, 30, size=40)]
        assert any(np.any(np.diff(b) < 0) for b in batches)
        self._check_batches(rng, q, batches)

    def test_isolated_vertices(self):
        # Every third variable has no neighbours: zero-length adjacency rows
        # at the start, in the middle and at the end of a batch.
        rng = np.random.default_rng(10)
        n = 30
        linked = [i for i in range(n) if i % 3]
        entries = [(i, i, int(rng.integers(-9, 10))) for i in range(n)]
        entries += [(i, j, int(rng.integers(1, 50))) for i in linked for j in linked
                    if i < j and rng.random() < 0.4]
        q = build_qubo(n, entries)
        assert q.degree(0) == 0 and q.degree(n - 1) > 0
        self._check_batches(rng, q, [[0], [0, 3, 6], [1, 0, 29, 27], [27], [3, 4]])
        # A problem with no couplings at all only toggles bits.
        self._check_batches(rng, build_qubo(5, [(2, 2, -1)]), [[0, 4, 2], [1]])

    def test_every_variable_at_once(self):
        rng = np.random.default_rng(11)
        q = random_qubo(rng, 40, density=0.5)
        self._check_batches(rng, q, [np.arange(40), np.arange(40)[::-1], np.arange(40)])

    def test_negative_coefficients(self):
        rng = np.random.default_rng(12)
        q = random_qubo(rng, 50, density=0.3, lo=-1000, hi=-1)
        assert np.all(q.adj_q < 0)
        self._check_batches(rng, q, [rng.choice(50, size=k, replace=False)
                                     for k in rng.integers(1, 50, size=30)])

    def test_hardware_faithful_extremes(self):
        rng = np.random.default_rng(13)
        n = 64
        entries = [(i, i, int(rng.integers(-500, 501))) for i in range(n)]
        entries += [(i, j, int(rng.choice([-127, 127])))
                    for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7]
        q = build_qubo(n, entries, hardware_faithful=True)
        assert set(q.adj_q.tolist()) == {-127, 127}
        self._check_batches(rng, q, [rng.choice(n, size=k, replace=False)
                                     for k in rng.integers(1, n + 1, size=30)])

    def test_flip_one_matches_single_batch(self):
        rng = np.random.default_rng(14)
        q = random_qubo(rng, 40, density=0.3)
        for _ in range(20):
            x = random_bits(rng, q.n)
            z = local_fields(q, x)
            for i in rng.integers(0, q.n, size=10).tolist():
                x1, z1 = x.copy(), z.copy()
                flip_one(q, x1, z1, i)
                apply_flips(q, x, z, [i])
                assert np.array_equal(x1, x)
                assert np.array_equal(z1, z)

    def test_duplicate_indices_rejected(self):
        q = build_qubo(3, [(0, 1, 1)])
        x = as_assignment([0, 0, 0], 3)
        z = local_fields(q, x)
        # Sorted with a repeat, unsorted with a repeat, repeat at either end.
        for batch in ([1, 1], [0, 1, 1, 2], [2, 0, 2], [0, 2, 1, 0], [0, 1, 2, 2]):
            with pytest.raises(ValueError, match="distinct"):
                apply_flips(q, x, z, batch)
            assert x.tolist() == [0, 0, 0]

    def test_out_of_range_rejected(self):
        q = build_qubo(3, [])
        x = as_assignment([0, 0, 0], 3)
        z = local_fields(q, x)
        with pytest.raises(IndexError):
            apply_flips(q, x, z, [3])
        with pytest.raises(IndexError):
            apply_flips(q, x, z, [0, -1])
        assert x.tolist() == [0, 0, 0]


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        q = random_qubo(rng, 20, density=0.3)
        path = tmp_path / "a.qubo"
        save_qubo(q, path)
        back = load_qubo(path)
        assert back.n == q.n
        assert np.array_equal(back.diag, q.diag)
        assert np.array_equal(back.off_i, q.off_i)
        assert np.array_equal(back.off_j, q.off_j)
        assert np.array_equal(back.off_q, q.off_q)

    def test_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(8)
        q = random_qubo(rng, 15, density=0.4)
        p1, p2 = tmp_path / "x.qubo", tmp_path / "y.qubo"
        save_qubo(q, p1)
        save_qubo(q, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_shape(self, tmp_path):
        q = build_qubo(3, [(0, 0, -1), (1, 2, 4)])
        path = tmp_path / "h.qubo"
        save_qubo(q, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "qubo 3 2"
        assert lines[1] == "0 0 -1"
        assert lines[2] == "1 2 4"

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.qubo"
        path.write_text("# instance\n\nqubo 2 1\n# body\n0 1 3\n")
        q = load_qubo(path)
        assert q.off_q.tolist() == [3]

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.qubo"
        path.write_text("qubo 2 2\n0 1 3\n")
        with pytest.raises(ValueError, match="promises 2"):
            load_qubo(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.qubo"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="header"):
            load_qubo(path)

    def test_non_integer_coefficient(self, tmp_path):
        path = tmp_path / "f.qubo"
        path.write_text("qubo 2 1\n0 1 1.5\n")
        with pytest.raises(ValueError, match="integer"):
            load_qubo(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("qubo x 1\n0 0 -1\n", 1),
            ("# made by hand\nqubo 2 y\n", 2),
            ("qubo 2 1\n0 b 3\n", 2),
            ("qubo 2 1\n0 1\n", 2),
            ("qubo 2 1\n\n0 1 1.5\n", 3),
            ("qubo 2 1\n0 5 3\n", 2),
            ("qubo 2 1\n-1 1 3\n", 2),
            ("graph 2 1\n", 1),
            ("qubo -2 0\n", 1),
            ("qubo 2 -1\n", 1),
        ],
    )
    def test_bad_file_names_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "bad.qubo"
        path.write_text(text)
        with pytest.raises(ValueError) as e:
            load_qubo(path)
        assert str(e.value).startswith(f"{path}:{line}: ")

    @pytest.mark.parametrize(
        "text, hardware_faithful, message",
        [
            ("qubo 2 2\n0 1 3\n1 0 4\n", False, "symmetric mean"),
            ("qubo 2 1\n0 1 128\n", True, "8-bit"),
            ("qubo 2 2\n0 0 9223372036854775807\n0 0 1\n", False, "outside int64"),
        ],
    )
    def test_whole_file_errors_name_the_file(self, tmp_path, text, hardware_faithful, message):
        # No single line is at fault, so the error names the file alone.
        path = tmp_path / "bad.qubo"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as e:
            load_qubo(path, hardware_faithful=hardware_faithful)
        assert str(e.value).startswith(f"{path}: ")
