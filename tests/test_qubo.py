"""Sparse QUBO construction, exact costs, deltas, and the file format."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nebm import (
    GeometricSchedule,
    apply_flips,
    as_assignment,
    build_qubo,
    evaluate_cost,
    generate_mis_graph,
    load_qubo,
    local_fields,
    mis_to_qubo,
    save_qubo,
    sequential_sa,
    solve_qubo,
    tabu_search,
)
from nebm import network
from nebm.mis import check_independent
from nebm.qubo import (
    SIGNED_TABLE_ENTRIES,
    _commit_flips,
    _key_dtype,
    _summed_cost,
    initial_state,
    max_flip_delta,
    padded_rows,
    state_cost,
)
from helpers import (
    dense_cost,
    dense_fields,
    flip_magnitudes,
    flip_one,
    flip_range_fits,
    padded_table,
    random_bits,
    random_entries,
    random_qubo,
    reference_build_qubo,
    upper_triplets,
)


@st.composite
def triplet_lists(draw):
    """``(n, entries)`` with repeats, both orientations, zero sums and odd
    means, in the order drawn, sorted, or canonical: every pair once as
    ``(lo, hi)`` in key order, the input of ``build_qubo``'s fast path."""
    n = draw(st.integers(1, 7))
    node = st.integers(0, n - 1)
    scale = draw(st.sampled_from([1, 45]))  # 45 takes |q| past 127, the largest 8-bit weight
    coeff = st.integers(-4, 4).map(lambda c: c * scale)
    entries = draw(st.lists(st.tuples(node, node, coeff), max_size=24))
    order = draw(st.sampled_from(["drawn", "sorted", "canonical"]))
    if order == "sorted":
        entries.sort()
    elif order == "canonical":
        diag = [e for e in entries if e[0] == e[1]]
        pairs = {(min(i, j), max(i, j)): c for i, j, c in entries if i != j}
        entries = diag + [(i, j, c) for (i, j), c in sorted(pairs.items())]
    return n, entries


@st.composite
def canonical_arrays(draw):
    """``(n, entries)`` as an encoded graph or a saved ``.qubo`` gives them:
    the diagonal entries first, by row and possibly repeated, then every
    pair once as ``(i, j)``, ``i < j``, in key order: ``build_qubo``'s
    sorted path. Coefficients include zeros, the 8-bit weight range's edges and
    magnitudes near ``2^62``, where a repeated diagonal takes the Python-int
    sums and a pair's weight or a row's field can leave ``int64``."""
    n = draw(st.integers(1, 7))
    coeff = st.one_of(
        st.integers(-3, 3),
        st.sampled_from([0, 127, 128, -127, -128]),
        st.integers(2**62 - 2, 2**62),
        st.integers(-(2**62) - 1, -(2**62) + 1),
    )
    rows = sorted(draw(st.lists(st.integers(0, n - 1), max_size=2 * n)))
    pairs = sorted(draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1]),
        max_size=12,
    )))
    entries = [(i, i, draw(coeff)) for i in rows] + [(i, j, draw(coeff)) for i, j in pairs]
    return n, entries


class TestBuildQubo:
    def test_direct_storage(self):
        q = build_qubo(2, [(0, 0, -1), (1, 1, -1), (0, 1, 2)])
        assert q.diag.tolist() == [-1, -1]
        assert upper_triplets(q) == [(0, 1, 2)]

    def test_empty_problem(self):
        q = build_qubo(1, [])
        assert q.diag.tolist() == [0]
        assert q.num_offdiag == 0

    def test_both_orientations_average(self):
        # (3 + 1) / 2 = 2, integral, fine.
        q = build_qubo(2, [(0, 1, 3), (1, 0, 1)])
        assert upper_triplets(q) == [(0, 1, 2)]

    def test_odd_sum_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            build_qubo(2, [(0, 1, 3), (1, 0, 2)])

    def test_single_orientation_taken_as_is(self):
        # One-sided input is already symmetric, not halved.
        q = build_qubo(2, [(1, 0, 3)])
        assert upper_triplets(q) == [(0, 1, 3)]

    def test_duplicate_entries_accumulate(self):
        q = build_qubo(2, [(0, 1, 2), (0, 1, 3), (0, 0, 1), (0, 0, 1)])
        assert upper_triplets(q) == [(0, 1, 5)]
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

    def test_synaptic_weight_must_fit_int64(self):
        # adj_w stores 2 q_ij: q_ij = 2^62 fits int64, its weight does not.
        for q_ij in (2**62, -(2**62) - 1):
            with pytest.raises(ValueError, match=r"pair \(1, 2\) sums to .*weight.*int64"):
                build_qubo(3, [(2, 1, q_ij)])
        for q_ij in (2**62 - 1, -(2**62)):
            q = build_qubo(3, [(2, 1, q_ij)])
            assert upper_triplets(q) == [(1, 2, q_ij)]
            assert q.adj_w.tolist() == [2 * q_ij, 2 * q_ij]

    def test_sums_past_int64_stay_exact(self):
        # Partial sums outside int64 are fine when the result fits, as an
        # off-diagonal with its weight 2 q_ij.
        q = build_qubo(2, [(0, 1, 2**62), (0, 1, 2**62), (1, 0, -(2**61))])
        assert upper_triplets(q) == [(0, 1, 3 * 2**60)]
        with pytest.raises(ValueError, match="weight"):
            build_qubo(2, [(0, 1, 2**62), (0, 1, 2**62), (1, 0, 2**62)])
        q = build_qubo(2, [(0, 1, 2**62), (0, 1, 2**62), (1, 0, -(2**63))])
        assert q.num_offdiag == 0
        q = build_qubo(1, [(0, 0, 2**64), (0, 0, -(2**64) + 5)])
        assert q.diag.tolist() == [5]

    def test_local_field_must_fit_int64(self):
        # Every weight 2 q_ij fits, but z_0 = 3 (2^62 - 1) at x = 1111 does
        # not: evaluate_cost would wrap by 2^64 without this check.
        a, b = 2**62 - 1, -(2**62)
        entries = [(0, 1, a), (0, 2, a), (0, 3, a), (1, 2, b), (1, 3, b), (2, 3, b)]
        message = "row 0's positive off-diagonals sum to 13835058055282163709"
        with pytest.raises(ValueError, match=message):
            build_qubo(4, entries)
        with pytest.raises(ValueError, match=message):
            reference_build_qubo(4, entries)
        with pytest.raises(ValueError, match="row 0's negative .* can leave int64"):
            build_qubo(4, [(0, 1, b), (0, 2, b), (0, 3, -1)])
        # At the edge of int64 on either side, both builders accept.
        for entries in ([(0, 1, a), (0, 2, a)], [(0, 1, b), (0, 2, b)],
                        [(0, 1, 2**61), (0, 2, 2**61), (1, 2, 2**61)]):
            q = build_qubo(3, entries)
            for name, values in reference_build_qubo(3, entries).items():
                assert getattr(q, name).tolist() == values, name

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
            for name in ("diag", "adj_ptr", "adj_j", "adj_w"):
                assert getattr(q, name).tolist() == getattr(ref, name).tolist()
                assert getattr(q, name).dtype == np.int64
        with pytest.raises(IndexError, match=r"\(0,2\)"):
            build_qubo(2, np.array([[0, 1, 1], [0, 2, 1]]))
        with pytest.raises(ValueError, match=r"pair \(0, 1\)"):
            build_qubo(2, np.array([[0, 1, 3], [1, 0, 2]]))

    @settings(max_examples=800, deadline=None, derandomize=True, database=None)
    @given(case=st.one_of(triplet_lists(), canonical_arrays()),
           layout=st.sampled_from(["list", "C", "F", "strided", "int32"]))
    def test_matches_dict_reference(self, case, layout):
        # The same entries as triplets, or as an (m, 3) array that is
        # row-major, column-major (mis_to_qubo's), a strided view of a
        # wider array, or int32 wherever the coefficients fit it.
        n, entries = case
        as_array = layout != "list"
        arg = entries
        if as_array:
            arg = np.array(entries, dtype=np.int64).reshape(-1, 3)
            if layout == "F":
                arg = np.asfortranarray(arg)
            elif layout == "strided":
                wide = np.zeros((arg.shape[0], 6), dtype=np.int64)
                wide[:, ::2] = arg
                arg = wide[:, ::2]
            elif layout == "int32" and np.abs(arg).max(initial=0) < 2**31:
                arg = arg.astype(np.int32)
        before = np.array(arg, copy=True) if as_array else None
        try:
            want = reference_build_qubo(n, entries)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                build_qubo(n, arg)
            assert str(got.value) == str(e)
            return
        q = build_qubo(n, arg)
        for name, values in want.items():
            assert getattr(q, name).dtype == np.int64
            assert getattr(q, name).tolist() == values, name
        if as_array:
            # The build reads the caller's array through views, never writes it.
            assert np.array_equal(arg, before)

    @pytest.mark.parametrize("n, size, dtype", [
        (0, 0, np.uint32),
        (1, 1, np.uint32),
        (2**16, 2**16, np.uint32),
        (2**16 + 1, 2**16, np.uint64),
        (2**16, 2**16 + 1, np.uint64),
        (2, 2**31, np.uint32),
        (2**32, 2**32, np.uint64),
        (2**63, 2, np.uint64),
    ])
    def test_sort_key_width(self, n, size, dtype):
        # bit_length(n - 1) + bit_length(size - 1) bits: uint32 up to 32.
        assert _key_dtype(n, size) is dtype

    @pytest.mark.parametrize("n, size", [(2**32 + 1, 2**32), (2**63 + 1, 2), (2, 2**64)])
    def test_sort_key_past_64_bits_refused(self, n, size):
        with pytest.raises(ValueError, match=r"needs 65 bits, more than 64$"):
            _key_dtype(n, size)

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_uint64_sort_key(self, shuffled):
        # A 70 000-variable path: rows need 17 bits and its 139 998
        # adjacency positions 18, so the packed key is uint64.
        n = 70_000
        i = np.arange(n - 1)
        entries = np.column_stack([i, i + 1, 3 - i % 7])
        entries = entries[entries[:, 2] != 0]
        assert _key_dtype(n, 2 * len(entries)) is np.uint64
        if shuffled:
            # In both orientations and out of order: the np.unique path.
            entries = np.random.default_rng(0).permutation(entries[:, [1, 0, 2]])
        q = build_qubo(n, entries)
        for name, values in reference_build_qubo(n, entries.tolist()).items():
            assert getattr(q, name).tolist() == values, name

    def test_32_bit_sort_key(self):
        # 2^16 variables and 2^15 pairs: 16 + 16 bits, the widest uint32 key,
        # with rows up to 2^16 - 1 in its top bits.
        n, m = 2**16, 2**15
        rng = np.random.default_rng(1)
        pairs = np.unique(np.sort(rng.integers(0, n, (3 * m, 2)), axis=1), axis=0)
        pairs = pairs[pairs[:, 0] < pairs[:, 1]][:m]
        pairs[-1] = (n - 2, n - 1)
        pairs = np.unique(pairs, axis=0)
        assert len(pairs) == m
        assert _key_dtype(n, 2 * m) is np.uint32
        entries = np.column_stack([pairs, rng.integers(-5, 6, m) | 1])
        q = build_qubo(n, entries)
        for name, values in reference_build_qubo(n, entries.tolist()).items():
            assert getattr(q, name).tolist() == values, name

    @pytest.mark.parametrize("n, entries", [
        (1, []), (1, [(0, 0, -3)]), (4, [(2, 2, 5), (0, 0, -1)]), (3, [(0, 1, 2), (1, 0, -2)]),
    ])
    def test_builds_without_pairs(self, n, entries):
        # m = 0 (given none, or all cancelled) and n = 1: an empty sort.
        for arg in (entries, np.array(entries, dtype=np.int64).reshape(-1, 3)):
            q = build_qubo(n, arg)
            for name, values in reference_build_qubo(n, entries).items():
                assert getattr(q, name).tolist() == values, name
            assert q.adj_ptr.tolist() == [0] * (n + 1) and q.adj_j.dtype == np.int64

    def test_adjacency_is_column_sorted(self):
        rng = np.random.default_rng(1)
        q = random_qubo(rng, 40, density=0.4)
        for i in range(q.n):
            nbrs = q.adj_j[q.adj_ptr[i]:q.adj_ptr[i + 1]]
            assert np.all(np.diff(nbrs) > 0)

    def test_adjacency_symmetric(self):
        rng = np.random.default_rng(2)
        entries = random_entries(rng, 30, density=0.3)
        q = build_qubo(30, entries)
        seen = {}
        for i in range(q.n):
            lo, hi = q.adj_ptr[i], q.adj_ptr[i + 1]
            for j, w in zip(q.adj_j[lo:hi].tolist(), q.adj_w[lo:hi].tolist()):
                seen[(i, j)] = w
        for (i, j), w in seen.items():
            assert seen[(j, i)] == w
        given = [v for i, j, v in entries if i != j]
        assert sorted(seen.values()) == sorted([2 * v for v in given] * 2)
        assert q.num_offdiag == len(given)


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

    # Each used to be cast to int8 first: 257 and -255 wrap to 1 and 1.9
    # truncates to 1, so the check saw a valid vector.
    BAD_BITS = [[257, 0, 0, 0], [-255, 0, 0, 0], [1.9, 0, 0, 0], [0.5, 0, 0, 0],
                [float("nan"), 0, 0, 0], ["1", "0", "0", "0"], [1 + 0j, 0, 0, 0]]

    @pytest.mark.parametrize("bits", BAD_BITS)
    def test_values_checked_before_the_cast(self, bits):
        g = generate_mis_graph(4, 0.9, 0)
        q = mis_to_qubo(g)
        for use in (lambda: as_assignment(bits, 4),
                    lambda: evaluate_cost(q, bits),
                    lambda: solve_qubo(q, 0, init=bits, max_steps=1),
                    lambda: check_independent(g, bits)):
            with pytest.raises(ValueError, match="0 or 1"):
                use()

    @pytest.mark.parametrize("bits", [[True, False, True], [1.0, 0.0, 1.0],
                                      np.array([1, 0, 1], dtype=np.uint64)])
    def test_bools_and_exact_zero_one_values_pass(self, bits):
        x = as_assignment(bits, 3)
        assert x.dtype == np.int8
        assert x.tolist() == [1, 0, 1]

    def test_int8_vector_is_returned_as_is(self):
        x = np.array([0, 1, 1], dtype=np.int8)
        assert as_assignment(x, 3) is x


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
        # Rows without neighbours at the start, in the middle and at the end.
        q = build_qubo(6, [(1, 2, 3), (2, 4, -5), (1, 4, 7)])
        assert local_fields(q, [1] * 6).tolist() == [0, 10, -2, 0, 2, 0]
        assert local_fields(build_qubo(4, []), [1] * 4).tolist() == [0] * 4

    def test_single_variable_has_no_field(self):
        q1 = build_qubo(1, [(0, 0, 5)])
        assert local_fields(q1, [1]).tolist() == [0]

    def test_delta_hand_values(self):
        h = flip_magnitudes(self.q, [1, 1, 0])
        # Flipping x_1 off: -(q_11 + 2 z_1) = -(-1 + 4) = -3.
        assert h.tolist() == [3, 3, 3]
        assert evaluate_cost(self.q, [1, 0, 0]) - evaluate_cost(self.q, [1, 1, 0]) == -h[1]
        q1 = build_qubo(1, [(0, 0, -1)])
        assert flip_magnitudes(q1, [0]).tolist() == [-1]

    def test_int64_edges(self):
        # The cost 3 * 2^62 leaves int64 while every field fits; a field of
        # 2^63 - 2 fits while its 2 z_i does not.
        q = build_qubo(3, [(0, 1, 2**61), (0, 2, 2**61), (1, 2, 2**61)])
        assert evaluate_cost(q, [1, 1, 1]) == 3 * 2**62
        q = build_qubo(3, [(0, 1, 2**62 - 1), (0, 2, 2**62 - 1)])
        assert local_fields(q, [0, 1, 1]).tolist() == [2**63 - 2, 0, 0]

    def test_against_dense_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            q = random_qubo(rng, n, density=0.35)
            x = random_bits(rng, n)
            assert evaluate_cost(q, x) == dense_cost(q, x)
            assert local_fields(q, x).tolist() == dense_fields(q, x).tolist()
            x0, h, price = initial_state(q, 0, x)
            assert x0 is not x and x0.tolist() == x.tolist()
            assert h.tolist() == (q.diag + 2 * dense_fields(q, x)).tolist()
            assert state_cost(q, x0, h) == price(q, x0, h) == dense_cost(q, x)

    def test_state_cost_odd_and_negative_diagonals(self):
        # x_i (h_i + q_ii) = 2 x_i (q_ii + z_i): the halving is exact for
        # every sign and parity of the diagonal.
        rng = np.random.default_rng(15)
        diags = []
        for _ in range(40):
            n = int(rng.integers(1, 30))
            q = random_qubo(rng, n, density=0.4, lo=-301, hi=299)
            diags += q.diag.tolist()
            for _ in range(5):
                x = random_bits(rng, n)
                assert state_cost(q, x, flip_magnitudes(q, x)) == dense_cost(q, x)
        assert any(d < 0 and d % 2 for d in diags)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_state_cost_near_int64_limits(self, data):
        # The dot product is one wrapping int64 sum of 2 * cost, exact
        # wherever the cost lies in [-2^62, 2^62). The price a run takes
        # from initial_state is exact for every cost: beyond that range it
        # is summed in Python ints. evaluate_cost is exact on every instance
        # build_qubo accepts.
        n, entries = data.draw(canonical_arrays())
        try:
            q = build_qubo(n, entries)
        except ValueError:
            assume(False)
        x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                     dtype=np.int8)
        cost = evaluate_cost(q, x)
        assert cost == dense_cost(q, x)
        # A solver refuses the instances on which some flip magnitude can
        # leave int64, and only those.
        if not flip_range_fits(q):
            with pytest.raises(ValueError, match="flip magnitude .* outside int64"):
                initial_state(q, 0, x)
            return
        _, h, price = initial_state(q, 0, x)
        assert price(q, x, h) == cost
        if -(2**62) <= cost < 2**62:
            assert state_cost(q, x, h) == cost

    def test_state_cost_range_edges(self):
        for c in (2**62 - 1, -(2**62)):
            q = build_qubo(2, [(0, 0, c), (1, 1, 2**63 - 1)])
            x = np.array([1, 0], dtype=np.int8)
            h = flip_magnitudes(q, x)
            assert state_cost(q, x, h) == c == dense_cost(q, x)
            assert initial_state(q, 0, x)[2](q, x, h) == c

    @pytest.mark.parametrize("c, fits", [
        (2**63 - 3, True), (2**63 - 2, False), (-(2**63) + 3, True), (-(2**63) + 2, False),
    ])
    def test_flip_magnitude_must_fit_int64(self, c, fits):
        # h_0 = q_00 + 2 q_01 x_1 reaches q_00 +- 2: exactly 2^63 - 1 or
        # -(2^63 - 1) is refused neither by the instance nor by a solver.
        q = build_qubo(2, [(0, 0, c), (0, 1, 1 if c > 0 else -1)])
        assert flip_range_fits(q) == fits
        if fits:
            h = initial_state(q, 0, [0, 1])[1]
            assert h.tolist() == [c + (2 if c > 0 else -2), 0]
        else:
            with pytest.raises(ValueError, match="^row 0's flip magnitude"):
                initial_state(q, 0, [0, 1])

    @pytest.mark.parametrize("solver", ["nebm", "sa", "tabu"])
    def test_solvers_refuse_flips_past_int64(self, solver):
        # build_qubo accepts this instance, whose fields and costs fit, but at
        # x = 011 h_0 = 2^63: the solvers once returned best_cost -2^64 for
        # [1, 0, 0], whose cost is 0 (SA), or failed inside (tabu).
        q = build_qubo(3, [(0, 1, 2**61), (0, 2, 2**61)])
        assert evaluate_cost(q, [1, 0, 0]) == 0
        assert local_fields(q, [0, 1, 1]).tolist() == [2**62, 0, 0]
        run = {"nebm": solve_qubo, "sa": sequential_sa, "tabu": tabu_search}[solver]
        message = ("^row 0's flip magnitude q_ii \\+ 2 z_i reaches 9223372036854775808 "
                   "at its positive off-diagonals, outside int64$")
        for init in ("zeros", [0, 1, 1]):
            with pytest.raises(ValueError, match=message):
                run(q, 0, init=init, max_steps=4)

    @pytest.mark.parametrize("entries, dot", [
        # B = sum|q_ii| + sum|adj_w| / 2 against 2^62.
        ([(0, 0, -(2**62) + 1)], True),
        ([(0, 0, -(2**62))], False),
        ([(0, 1, 2**60)], True),
        ([(0, 1, 2**60), (2, 2, 2**61)], False),
        ([(0, 1, -(2**60)), (0, 2, 2**59), (3, 3, 2**59 - 1)], True),
        # n max|q_ii| = 2^63 is past 2^62, but B = 2^61 is not.
        ([(0, 0, 2**61)], True),
    ])
    def test_price_is_the_dot_product_below_2_62(self, entries, dot):
        q = build_qubo(4, entries)
        price = initial_state(q, 0, "zeros")[2]
        assert price is (state_cost if dot else _summed_cost)

    @pytest.mark.parametrize("init", ["zeros", [1]])
    @pytest.mark.parametrize("solver", ["nebm", "sa", "tabu"])
    def test_solvers_price_costs_past_2_62(self, solver, init):
        # The set state costs -(2^62 + 1), where the dot product of 2 * cost
        # wraps to 2^62 - 1: every solver reports the exact cost, whether it
        # starts there or moves there.
        q = build_qubo(1, [(0, 0, -(2**62) - 1)])
        if solver == "nebm":
            res = solve_qubo(q, 0, init=init, schedule=GeometricSchedule(t0=1), max_steps=4)
        else:
            res = (sequential_sa if solver == "sa" else tabu_search)(q, 0, init=init,
                                                                   max_steps=4)
        assert res.best_assignment.tolist() == [1]
        assert res.best_cost == evaluate_cost(q, [1]) == -(2**62) - 1

    def test_delta_equals_recompute_difference(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 32))
            q = random_qubo(rng, n, density=0.4)
            for _ in range(10):
                x = random_bits(rng, n)
                h = flip_magnitudes(q, x)
                base = evaluate_cost(q, x)
                deltas = []
                for i in range(n):
                    y = x.copy()
                    y[i] ^= 1
                    deltas.append(evaluate_cost(q, y) - base)
                    assert (1 - 2 * int(x[i])) * int(h[i]) == deltas[-1]
                assert max_flip_delta(h) == max(map(abs, deltas))


class TestApplyFlips:
    def test_empty_flip_is_noop(self):
        q = build_qubo(2, [(0, 1, 1)])
        x = as_assignment([1, 0], 2)
        h = flip_magnitudes(q, x)
        apply_flips(q, x, h, [])
        assert x.tolist() == [1, 0]
        assert h.tolist() == flip_magnitudes(q, [1, 0]).tolist()

    def test_involution(self):
        rng = np.random.default_rng(5)
        q = random_qubo(rng, 12, density=0.5)
        x = random_bits(rng, 12)
        h = flip_magnitudes(q, x)
        x0, h0 = x.copy(), h.copy()
        apply_flips(q, x, h, [3])
        apply_flips(q, x, h, [3])
        assert np.array_equal(x, x0)
        assert np.array_equal(h, h0)

    def test_random_batches_match_recompute(self):
        rng = np.random.default_rng(6)
        q = random_qubo(rng, 50, density=0.25)
        x = random_bits(rng, 50)
        h = flip_magnitudes(q, x)
        for _ in range(100):
            k = int(rng.integers(0, 12))
            batch = rng.choice(50, size=k, replace=False)
            apply_flips(q, x, h, batch)
            assert np.array_equal(h, flip_magnitudes(q, x))

    def _check_batches(self, rng, q, batches):
        # Every batch through the compressed rows and, on twin states,
        # through the signed and the split padded rows, against a full
        # recompute of h, from a fresh random state.
        tables = [padded_table(q), padded_table(q, signed=False)]
        x = random_bits(rng, q.n)
        h = flip_magnitudes(q, x)
        twins = [(x.copy(), h.copy()) for _ in tables]
        for batch in batches:
            expect = x.copy()
            expect[batch] ^= 1
            apply_flips(q, x, h, batch)
            assert np.array_equal(x, expect)
            assert np.array_equal(h, flip_magnitudes(q, x))
            for rows, (xp, hp) in zip(tables, twins):
                apply_flips(q, xp, hp, batch, rows)
                assert np.array_equal(xp, x)
                assert np.array_equal(hp, h)

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
        assert q.adj_ptr[1] == q.adj_ptr[0] and q.adj_ptr[n] > q.adj_ptr[n - 1]
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
        assert np.all(q.adj_w < 0)
        self._check_batches(rng, q, [rng.choice(50, size=k, replace=False)
                                     for k in rng.integers(1, 50, size=30)])

    def test_hardware_faithful_extremes(self):
        rng = np.random.default_rng(13)
        n = 64
        entries = [(i, i, int(rng.integers(-500, 501))) for i in range(n)]
        entries += [(i, j, int(rng.choice([-127, 127])))
                    for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7]
        # every synaptic weight at an 8-bit extreme, q_ij = +-127
        q = build_qubo(n, entries)
        assert set(q.adj_w.tolist()) == {-254, 254}
        self._check_batches(rng, q, [rng.choice(n, size=k, replace=False)
                                     for k in rng.integers(1, n + 1, size=30)])

    def test_flip_one_matches_single_batch(self):
        rng = np.random.default_rng(14)
        q = random_qubo(rng, 40, density=0.3)
        for _ in range(20):
            x = random_bits(rng, q.n)
            h = flip_magnitudes(q, x)
            for i in rng.integers(0, q.n, size=10).tolist():
                x1, h1 = x.copy(), h.copy()
                flip_one(q, x1, h1, i)
                apply_flips(q, x, h, [i])
                assert np.array_equal(x1, x)
                assert np.array_equal(h1, h)

    def test_duplicate_indices_rejected(self):
        q = build_qubo(3, [(0, 1, 1)])
        x = as_assignment([0, 0, 0], 3)
        h = flip_magnitudes(q, x)
        # Sorted with a repeat, unsorted with a repeat, repeat at either end.
        for batch in ([1, 1], [0, 1, 1, 2], [2, 0, 2], [0, 2, 1, 0], [0, 1, 2, 2]):
            with pytest.raises(ValueError, match="distinct"):
                apply_flips(q, x, h, batch)
            assert x.tolist() == [0, 0, 0]

    def test_out_of_range_rejected(self):
        q = build_qubo(3, [])
        x = as_assignment([0, 0, 0], 3)
        h = flip_magnitudes(q, x)
        # Unsorted; increasing with the bad index at either end; a repeated
        # bad index, refused for its range before its repeat.
        for batch in ([3], [0, -1], [-1, 0, 2], [0, 1, 3], [3, 3]):
            with pytest.raises(IndexError, match="out of range for n=3"):
                apply_flips(q, x, h, batch)
        assert x.tolist() == [0, 0, 0]

    def test_non_integer_indices_rejected(self):
        # A boolean mask or floats used to be read as indices: [True, False]
        # flipped bits 0 and 1, and [1.7] flipped bit 1.
        q = build_qubo(3, [(0, 1, 1), (1, 2, 1)])
        for rows in (None, padded_rows(q), padded_table(q, signed=False)):
            x = as_assignment([0, 0, 0], 3)
            h = flip_magnitudes(q, x)
            for batch in ([True, False], np.array([False, True, True]), [1.7], [1.0, 2.0]):
                with pytest.raises(TypeError, match="integers"):
                    apply_flips(q, x, h, batch, rows)
            assert x.tolist() == [0, 0, 0]
            assert h.tolist() == flip_magnitudes(q, x).tolist()
        apply_flips(q, x, h, np.array([2, 0], dtype=np.uint8))
        assert x.tolist() == [1, 0, 1]


class TestPaddedRows:
    def test_edgeless_table_is_empty(self):
        q = build_qubo(5, [(2, 2, -1)])
        cols, ws = padded_rows(q)
        assert cols.shape == (5, 0)
        assert ws.shape == (10, 0)
        for rows in ((cols, ws), padded_table(q, signed=False)):
            x = as_assignment([0, 1, 0, 0, 1], 5)
            h = flip_magnitudes(q, x)
            apply_flips(q, x, h, [0, 1, 4], rows)
            assert x.tolist() == [1, 0, 0, 0, 0]
            assert np.array_equal(h, flip_magnitudes(q, x))

    def test_uneven_degrees_have_no_table(self):
        # A star pads every leaf to the hub's degree; G(100, 0.02) has a mean
        # degree about 2 and a largest several times that.
        star = build_qubo(9, [(0, j, 1) for j in range(1, 9)])
        assert padded_rows(star) is None
        for seed in range(3):
            assert padded_rows(mis_to_qubo(generate_mis_graph(100, 0.02, seed))) is None

    def test_table_is_the_rows_at_most_doubled(self):
        rng = np.random.default_rng(16)
        tables = 0
        for _ in range(60):
            n = int(rng.integers(1, 40))
            q = random_qubo(rng, n, density=float(rng.uniform(0, 0.6)))
            want_cols, want_ws = padded_table(q)
            rows = padded_rows(q)
            if rows is None:
                assert want_cols.size > 2 * q.adj_j.size
                continue
            tables += 1
            cols, ws = rows
            assert cols.dtype == ws.dtype == np.int64
            assert np.array_equal(cols, want_cols)
            assert np.array_equal(ws, want_ws)
            assert cols.size <= 2 * q.adj_j.size
            assert ws.size == 2 * cols.size
        assert 0 < tables < 60

    def test_signed_up_to_the_bound(self):
        # mid-nebm's G(250, 0.15) and a circulant graph whose signed table
        # holds exactly SIGNED_TABLE_ENTRIES get the signed (2n, D) table;
        # one degree more, and large-sparse's G(5000, 0.02), the split one.
        def circulant(n, reach):
            return build_qubo(n, [(i, (i + k) % n, 1) for i in range(n)
                                  for k in range(1, reach + 1)])

        at_bound = circulant(SIGNED_TABLE_ENTRIES // 128, 32)
        above = circulant(SIGNED_TABLE_ENTRIES // 128, 33)
        for q, signs in ((mis_to_qubo(generate_mis_graph(250, 0.15, 0)), 2), (at_bound, 2),
                         (above, 1), (mis_to_qubo(generate_mis_graph(5000, 0.02, 0)), 1)):
            cols, ws = padded_rows(q)
            d = int(np.diff(q.adj_ptr).max())
            assert cols.shape == (q.n, d)
            assert ws.shape == (signs * q.n, d)
            assert (2 * q.n * d <= SIGNED_TABLE_ENTRIES) == (signs == 2)
            assert np.array_equal(ws[1::2] if signs == 2 else ws,
                                  padded_table(q, signed=False)[1])
        assert 2 * at_bound.n * 64 == SIGNED_TABLE_ENTRIES

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_paths_agree(self, data):
        n = data.draw(st.integers(1, 14))
        density = data.draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
        q = random_qubo(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                        n, density=density)
        x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                     dtype=np.int8)
        batch = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        x_csr, h_csr = x.copy(), flip_magnitudes(q, x)
        apply_flips(q, x_csr, h_csr, batch)
        assert np.array_equal(h_csr, flip_magnitudes(q, x_csr))
        for rows in (padded_table(q), padded_table(q, signed=False), padded_rows(q)):
            if rows is None:
                continue
            xp, hp = x.copy(), flip_magnitudes(q, x)
            apply_flips(q, xp, hp, batch, rows)
            assert np.array_equal(xp, x_csr)
            assert np.array_equal(hp, h_csr)


class TestUncheckedCommit:
    """``Network.step``'s commit, ``apply_flips`` without its checks, against
    the checked function and a full recompute of ``h``, on both row layouts."""

    def _check(self, rng, q, rows, steps=30):
        x = random_bits(rng, q.n)
        h = flip_magnitudes(q, x)
        xc, hc = x.copy(), h.copy()
        halves = set()
        for k in range(steps):
            set_, clear = np.flatnonzero(x), np.flatnonzero(x == 0)
            kind = k % 4
            if kind == 0:  # every variable at once
                fl = np.arange(q.n)
            elif kind == 1:  # on-half empty: only set bits turn off
                fl = np.sort(rng.choice(set_, size=min(set_.size, 9), replace=False))
            elif kind == 2:  # off-half empty: only clear bits turn on
                fl = np.sort(rng.choice(clear, size=min(clear.size, 9), replace=False))
            else:
                fl = np.sort(rng.choice(q.n, size=int(rng.integers(1, q.n + 1)),
                                        replace=False))
            if fl.size == 0:
                continue
            halves.add((bool(x[fl].any()), bool((x[fl] == 0).any())))
            network.apply_flips(q, x, h, fl.astype(np.int64), rows)
            apply_flips(q, xc, hc, fl, rows)
            assert np.array_equal(x, xc)
            assert np.array_equal(h, hc)
            assert np.array_equal(h, flip_magnitudes(q, x))
        assert halves == {(True, False), (False, True), (True, True)}

    def test_is_the_network_commit(self):
        assert network.apply_flips is _commit_flips

    def test_padded_rows(self):
        rng = np.random.default_rng(18)
        for density in (0.3, 1.0):
            q = random_qubo(rng, 40, density=density, lo=-1000, hi=1000)
            rows = padded_rows(q)
            assert rows is not None
            self._check(rng, q, rows)
            self._check(rng, q, padded_table(q, signed=False))
        q = mis_to_qubo(generate_mis_graph(300, 0.1, 1))
        self._check(rng, q, padded_rows(q))
        self._check(rng, q, padded_table(q, signed=False))

    def test_compressed_rows(self):
        rng = np.random.default_rng(19)
        star = build_qubo(9, [(0, j, 3) for j in range(1, 9)] + [(4, 4, -1)])
        sparse = mis_to_qubo(generate_mis_graph(100, 0.02, 0))
        for q in (star, sparse):
            assert padded_rows(q) is None
            self._check(rng, q, None)


class TestCommitLayouts:
    """The three commit layouts against each other and a full recompute of
    ``h``: the signed padded table, the split one and the compressed rows,
    built for every instance whatever its degrees."""

    @staticmethod
    def _flip_sets(rng, x):
        set_, clear = np.flatnonzero(x), np.flatnonzero(x == 0)
        n = x.size
        return {
            "on": np.sort(rng.choice(clear, size=min(clear.size, int(rng.integers(1, n + 1))),
                                     replace=False)),
            "off": np.sort(rng.choice(set_, size=min(set_.size, int(rng.integers(1, n + 1))),
                                      replace=False)),
            "mixed": np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)),
            "empty": np.zeros(0, dtype=np.int64),
        }

    def test_layouts_agree(self):
        rng = np.random.default_rng(21)
        kinds = set()
        for trial in range(40):
            n = int(rng.integers(1, 30))
            q = random_qubo(rng, n, density=float(rng.uniform(0, 1)), lo=-500, hi=500)
            layouts = {"signed": padded_table(q), "split": padded_table(q, signed=False),
                       "compressed": None}
            x = random_bits(rng, n)
            states = {name: (x.copy(), flip_magnitudes(q, x)) for name in layouts}
            for _ in range(6):
                x_ref = states["compressed"][0]
                for kind, fl in self._flip_sets(rng, x_ref).items():
                    before = x_ref.copy()
                    for name, rows in layouts.items():
                        xs, hs = states[name]
                        if fl.size:
                            _commit_flips(q, xs, hs, fl.astype(np.int64), rows)
                        else:  # the kernel takes a non-empty set; apply_flips returns first
                            apply_flips(q, xs, hs, fl, rows)
                    if fl.size:
                        now = x_ref[fl]
                        seen = "on" if now.all() else "off" if not now.any() else "mixed"
                        assert kind in (seen, "mixed")
                        kinds.add(seen)
                    want = before.copy()
                    want[fl] ^= 1
                    want_h = flip_magnitudes(q, want)
                    for name, (xs, hs) in states.items():
                        assert np.array_equal(xs, want), (trial, kind, name)
                        assert np.array_equal(hs, want_h), (trial, kind, name)
        assert kinds == {"on", "off", "mixed"}


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        q = random_qubo(rng, 20, density=0.3)
        path = tmp_path / "a.qubo"
        save_qubo(q, path)
        back = load_qubo(path)
        assert back.n == q.n
        for name in ("diag", "adj_ptr", "adj_j", "adj_w"):
            assert np.array_equal(getattr(back, name), getattr(q, name)), name

    def test_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(8)
        q = random_qubo(rng, 15, density=0.4)
        p1, p2 = tmp_path / "x.qubo", tmp_path / "y.qubo"
        save_qubo(q, p1)
        save_qubo(q, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_pinned(self, tmp_path):
        # The digest of the files written when the triplets were stored
        # beside the adjacency: reading the rows' upper halves must give the
        # same bytes. Random instances with large and negative coefficients,
        # given in both orientations, and MIS encodings.
        rng = np.random.default_rng(2024)
        qs = [mis_to_qubo(generate_mis_graph(n, d, s))
              for n, d, s in [(20, 0.15, 0), (60, 0.3, 1), (200, 0.05, 2)]]
        for k in range(30):
            n = int(rng.integers(1, 25))
            big = 2**40 if k % 3 == 0 else 127
            entries = [(j, i, v) if (i + j) % 2 else (i, j, v)
                       for i, j, v in random_entries(rng, n, 0.4, -big, big)]
            qs.append(build_qubo(n, entries))
        qs += [build_qubo(0, []), build_qubo(3, [(1, 1, 0)])]
        digest = hashlib.sha256()
        for k, q in enumerate(qs):
            path = tmp_path / f"{k}.qubo"
            save_qubo(q, path)
            digest.update(path.read_bytes())
        assert digest.hexdigest() == (
            "af7d39db47e7f2ea8db2dafd1ebfd4680627ed728947d27cffe066ac97b5d87c")

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
        assert upper_triplets(q) == [(0, 1, 3)]

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
        "text, message",
        [
            ("qubo 2 2\n0 1 3\n1 0 4\n", "symmetric mean"),
            ("qubo 2 2\n0 0 9223372036854775807\n0 0 1\n", "outside int64"),
            ("qubo 4 6\n0 1 4611686018427387903\n0 2 4611686018427387903\n"
             "0 3 4611686018427387903\n1 2 -4611686018427387904\n"
             "1 3 -4611686018427387904\n2 3 -4611686018427387904\n", "row 0's"),
        ],
    )
    def test_whole_file_errors_name_the_file(self, tmp_path, text, message):
        # No single line is at fault, so the error names the file alone.
        path = tmp_path / "bad.qubo"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as e:
            load_qubo(path)
        assert str(e.value).startswith(f"{path}: ")
