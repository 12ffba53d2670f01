"""Random streams, leading-zero counts, and both Metropolis tests."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nebm import (
    Rng24,
    exact_accept,
    fixed_accept,
    fixed_accept_probability,
    rand24_stream,
    unit_stream,
)
from nebm.metropolis import (
    GOLDEN,
    INIT_STREAM,
    MASK64,
    RAND_BITS,
    RAND_MAX,
    _reject_bounds,
    advance24_array,
    clz24,
    clz24_array,
    mix64,
    mix64_array,
    stream_seed,
    stream_seed_array,
)
from helpers import reference_accept_probability

# Reference outputs of the splitmix64 generator (state += golden increment,
# then finalize), from the generator author's published test vectors.
SPLITMIX_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
SPLITMIX_SEED1234567 = (
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
)


class TestMix64:
    def test_published_vectors_seed0(self):
        for k, want in enumerate(SPLITMIX_SEED0, start=1):
            assert mix64((0 + k * GOLDEN) & MASK64) == want

    def test_published_vectors_seed1234567(self):
        for k, want in enumerate(SPLITMIX_SEED1234567, start=1):
            assert mix64((1234567 + k * GOLDEN) & MASK64) == want

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(5)
        states = rng.integers(0, 1 << 64, size=512, dtype=np.uint64)
        z = states.copy()
        # The mix runs in place and returns the array it was given.
        assert mix64_array(z) is z
        for s, g in zip(states.tolist(), z.tolist()):
            assert mix64(s) == g

    def test_injective_on_sample(self):
        vals = [mix64(v) for v in range(4096)]
        assert len(set(vals)) == 4096


class TestStreams:
    def test_rng24_emits_top_bits_of_splitmix(self):
        rng = Rng24(1234567)
        for want in SPLITMIX_SEED1234567:
            assert rng.next24() == want >> 40

    def test_batch_equals_scalar_draws(self):
        seed = stream_seed(99, 3)
        batch = rand24_stream(seed, 257)
        rng = Rng24(seed)
        assert batch.tolist() == [rng.next24() for _ in range(257)]

    def test_stream_seed_array_matches_scalar(self):
        for dtype in (np.int64, np.uint64):
            idx = np.arange(64, dtype=dtype)
            arr = stream_seed_array(7, idx)
            assert arr.tolist() == [stream_seed(7, int(i)) for i in idx]
            assert idx.tolist() == list(range(64))

    def test_streams_are_distinct(self):
        seeds = [stream_seed(0, i) for i in range(1000)]
        seeds.append(stream_seed(0, INIT_STREAM))
        assert len(set(seeds)) == len(seeds)

    def test_advance_matches_per_stream_scalars(self):
        # Interleaved subset advances must equal each stream's own scalar
        # sequence: stream i draws only when selected.
        n = 16
        states = stream_seed_array(42, np.arange(n, dtype=np.int64))
        mirrors = [Rng24(stream_seed(42, i)) for i in range(n)]
        picker = np.random.default_rng(0)
        for _ in range(50):
            k = int(picker.integers(1, n + 1))
            idx = picker.choice(n, size=k, replace=False)
            idx.sort()
            draws = advance24_array(states, idx)
            for i, d in zip(idx.tolist(), draws.tolist()):
                assert mirrors[i].next24() == d

    @pytest.mark.parametrize("seed", [0, MASK64, (1 << 64) - GOLDEN, (1 << 64) - GOLDEN - 1])
    def test_vector_draws_match_scalar_at_edge_states(self, seed):
        # The vector draws skip mix64's last xor-shift, which cannot reach the
        # top 24 bits; the states include one whose next increment wraps to 0.
        rng = Rng24(seed)
        want = [rng.next24() for _ in range(40)]
        assert rand24_stream(seed, 40).tolist() == want
        assert rand24_stream(seed, 30, start=10).tolist() == want[10:]
        states = np.array([seed, seed], dtype=np.uint64)
        for k in range(40):
            assert advance24_array(states, np.array([1])).tolist() == [want[k]]
        assert states[0] == seed

    def test_advance_refuses_a_slice(self):
        # A slice would make the gather a view that the in-place mix writes
        # through; the index must be an integer array.
        states = stream_seed_array(42, np.arange(4, dtype=np.int64))
        before = states.copy()
        with pytest.raises(TypeError):
            advance24_array(states, slice(0, 2))
        assert np.array_equal(states, before)

    def test_next_unit_range_and_determinism(self):
        a = Rng24(11)
        b = Rng24(11)
        us = [a.next_unit() for _ in range(100)]
        assert us == [b.next_unit() for _ in range(100)]
        assert all(0.0 <= u < 1.0 for u in us)

    def test_rand24_stream_rejects_negative_count(self):
        with pytest.raises(ValueError):
            rand24_stream(0, -1)

    def test_stream_drawn_in_pieces(self):
        whole = rand24_stream(41, 30)
        assert rand24_stream(41, 12, 18).tolist() == whole[18:].tolist()
        assert rand24_stream(41, 0, 30).size == 0

    @pytest.mark.parametrize("seed", [0, stream_seed(5, 1 << 33), MASK64])
    def test_unit_stream_equals_scalar_draws(self, seed):
        rng = Rng24(seed)
        want = [rng.next_unit() for _ in range(300)]
        whole = unit_stream(seed, 300)
        assert whole.dtype == np.float64
        assert whole.tolist() == want
        # Drawn in pieces at start offsets, including empty pieces.
        cuts = [0, 1, 1, 64, 257, 300]
        pieces = [unit_stream(seed, b - a, a).tolist() for a, b in zip(cuts, cuts[1:])]
        assert sum(pieces, []) == want
        assert all(0.0 <= u < 1.0 for u in want)

    def test_unit_stream_shares_the_counter_with_rand24_stream(self):
        # Draw k is draw k whichever form reads it: 24 bits or 53 bits.
        rng = Rng24(77)
        mixed = [rng.next24() if k % 3 else rng.next_unit() for k in range(90)]
        for k, v in enumerate(mixed):
            form = rand24_stream if k % 3 else unit_stream
            assert form(77, 1, k).tolist() == [v]

    def test_streams_reject_negative_arguments(self):
        for form in (rand24_stream, unit_stream):
            with pytest.raises(ValueError, match="count"):
                form(0, -1)
            with pytest.raises(ValueError, match="start"):
                form(0, 1, -1)
        with pytest.raises(ValueError):
            rand24_stream(0, 1, -1)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint64, np.int8])
    def test_numpy_seed_is_its_int(self, kind):
        assert Rng24(kind(3)).state == Rng24(3).state
        assert stream_seed(kind(3), 5) == stream_seed(3, 5)
        assert stream_seed_array(kind(3), np.arange(4)).tolist() == [
            stream_seed(3, i) for i in range(4)]
        assert rand24_stream(kind(3), 4).tolist() == rand24_stream(3, 4).tolist()
        assert stream_seed(np.uint64(MASK64), 5) == stream_seed(MASK64, 5)
        assert Rng24(np.int64(-1)).state == MASK64

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_non_integer_seed_refused(self, seed):
        message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
        for call in (Rng24, lambda s: stream_seed(s, 0), lambda s: rand24_stream(s, 1),
                     lambda s: stream_seed_array(s, np.arange(2))):
            with pytest.raises(ValueError, match=message):
                call(seed)


class TestClz24:
    def test_boundaries(self):
        assert clz24(0) == 24
        assert clz24(1) == 23
        assert clz24(1 << 23) == 0
        assert clz24(RAND_MAX) == 0

    def test_string_oracle(self):
        rng = np.random.default_rng(8)
        sample = list(range(1024)) + rng.integers(0, RAND_MAX + 1, 4096).tolist()
        for v in sample:
            bits = format(v, f"0{RAND_BITS}b")
            assert clz24(v) == len(bits) - len(bits.lstrip("0"))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            clz24(-1)
        with pytest.raises(ValueError):
            clz24(1 << 24)

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(9)
        vals = np.concatenate(
            [np.arange(2048), rng.integers(0, RAND_MAX + 1, size=8192)]
        )
        got = clz24_array(vals.astype(np.int64))
        assert got.tolist() == [clz24(int(v)) for v in vals]


class TestExactAccept:
    def test_downhill_always(self):
        assert exact_accept(-5, 0.01, 0.999999)
        assert exact_accept(0, 1.0, 1.0 - 1e-12)

    def test_analytic_boundary(self):
        t = 3.7
        assert exact_accept(t * math.log(2.0), t, 0.5)

    def test_deep_uphill_rejected(self):
        assert not exact_accept(10.0, 1.0, 0.9)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            exact_accept(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            exact_accept(1.0, -2.0, 0.5)

    def test_nan_temperature_refused(self):
        # NaN fails every comparison; as a temperature it would refuse
        # every uphill move without a word.
        with pytest.raises(ValueError):
            exact_accept(1.0, float("nan"), 0.5)
        with pytest.raises(ValueError):
            exact_accept(-1.0, float("nan"), 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRejectBounds:
    """The per-draw bounds that let sequential_sa skip exact_accept."""

    @staticmethod
    def check(delta_c, temperature, u):
        """Assert that the annealer's rule decides ``delta_c`` as exact_accept
        does; return True when it decides without exact_accept, False when
        ``delta_c`` is uphill at or below the bound."""
        (reject_above,) = _reject_bounds(temperature, np.array([u]))
        assert reject_above >= 0
        want = exact_accept(delta_c, temperature, u)
        if delta_c <= 0:
            assert want, (delta_c, temperature, u)
            return True
        if delta_c > reject_above:
            assert not want, (delta_c, temperature, u)
            return True
        return False

    @settings(max_examples=2000, deadline=None, derandomize=True, database=None)
    @given(k=st.integers(0, 2**53 - 1), log10_t=st.floats(-6.0, 15.0),
           offset=st.integers(-2, 2), far=st.integers(-(2**62), 2**62), near=st.booleans())
    def test_decides_as_exact_accept(self, k, log10_t, offset, far, near):
        # u is a unit_stream draw, k * 2^-53; delta_c lies near c = -T ln u
        # or anywhere in a wide integer range.
        u = k * 2.0**-53
        t = 10.0**log10_t
        c = -t * math.log(u) if u else math.inf
        delta_c = round(c) + offset if near and c < 2**62 else far
        self.check(delta_c, t, u)

    @pytest.mark.parametrize("t", [1e-6, 1e-3, 1.0, 209.0, 1e6, 1e12, 1e15])
    @pytest.mark.parametrize("u", [0.0, 2.0**-53, 0.5, 0.9, 1 - 2.0**-53])
    def test_boundary_cases(self, t, u):
        c = -t * math.log(u) if u else math.inf
        near = [round(c) + d for d in (-1, 0, 1)] if u else []
        for delta_c in [-(2**63), -1, 0, 1, 2**63, *near]:
            self.check(delta_c, t, u)

    @pytest.mark.parametrize("k", [1, 2, 5, 50])
    def test_exp_rounding_near_u_1(self, k):
        # With u = 1 - k 2^-53 and 1/T = (k + 0.4) 2^-53, exp(-1/T) rounds
        # up to u, so exact_accept passes dC = 1 although c = k / (k + 0.4)
        # is below 1: the bound's 1e-9 T term keeps such a move at or below it.
        t = 2.0**53 / (k + 0.4)
        u = 1 - k * 2.0**-53
        assert exact_accept(1, t, u)
        assert not self.check(1, t, u)

    def test_band_is_narrow(self):
        # The bound rejects on its own every move but the few whose c lies
        # within the band below it.
        u = unit_stream(5, 10_000)
        reject_above = _reject_bounds(209.0, u)
        for delta_c in (1, 40, 400):
            banded = sum(delta_c <= r and not exact_accept(delta_c, 209.0, v)
                         for v, r in zip(u.tolist(), reject_above))
            assert banded <= 2

    @pytest.mark.parametrize("t, u", [(1.0, 0.0), (1e308, 2.0**-53)])
    def test_infinite_bound_at_u_0_and_overflow(self, t, u):
        # c is infinite at u = 0, and where T ln u overflows (T above ~4e306).
        assert _reject_bounds(t, np.array([u])) == [math.inf]
        for delta_c in (1, 2**63):
            assert exact_accept(delta_c, t, u)
            assert not self.check(delta_c, t, u)

    def test_temperature_must_be_positive(self):
        for t in (0.0, -2.0, float("nan")):
            with pytest.raises(ValueError, match="temperature must be positive"):
                _reject_bounds(t, np.array([0.5]))


class TestFixedAccept:
    def test_downhill_always(self):
        assert fixed_accept(-1, 0, 1 << 23)

    def test_zero_rand_always(self):
        assert fixed_accept(100, 0, 0)

    def test_inequality_cases(self):
        assert fixed_accept(5, 2, 1)  # clz 23: 5 < 46
        assert not fixed_accept(5, 2, 1 << 23)  # clz 0: 5 < 0 fails

    def test_zero_delta_greedy_rejects_nonzero_rand(self):
        # Strict inequality: a flat move at tHat 0 only passes on the zero word.
        assert not fixed_accept(0, 0, 1)
        assert fixed_accept(0, 0, 0)

    def test_rand_out_of_range(self):
        with pytest.raises(ValueError):
            fixed_accept(1, 1, 1 << 24)
        with pytest.raises(ValueError):
            fixed_accept(1, 1, -1)

    def test_monotone_in_delta(self):
        for t_hat in (0, 1, 3):
            for rand in (0, 1, 77, 1 << 20, 1 << 23):
                accepted = [fixed_accept(d, t_hat, rand) for d in range(-3, 60)]
                # Once acceptance turns off as delta grows it must stay off.
                assert all(a or not b for a, b in zip(accepted, accepted[1:]))

    def test_monotone_in_t_hat(self):
        for dc in (0, 1, 5, 17):
            for rand in (1, 1 << 10, 1 << 23):
                accepted = [fixed_accept(dc, t, rand) for t in range(0, 30)]
                assert all(b or not a for a, b in zip(accepted, accepted[1:]))


class TestFixedAcceptProbability:
    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            fixed_accept_probability(-1, 1)

    def test_known_values(self):
        assert fixed_accept_probability(0, 1) == Fraction(1, 2)
        assert fixed_accept_probability(1, 0) == Fraction(1, 1 << 24)
        assert fixed_accept_probability(3, 2) == Fraction(1, 4)

    def test_power_of_two_closed_form(self):
        # The closed form against the 24-term count of accepting draws, past
        # the cap of 24 leading zeros for every t_hat here.
        for t_hat in range(0, 40):
            for dc in range(0, 1200):
                assert fixed_accept_probability(dc, t_hat) == reference_accept_probability(
                    dc, t_hat
                ), (dc, t_hat)

    def test_brackets_true_exponential(self):
        # With T = tHat/ln2 the real test accepts with 2^(-dc/tHat); the
        # integer test accepts with 2^(-m). Exact integer comparison of the
        # exponents shows dc/tHat <= m <= dc/tHat + 1: the approximation
        # never accepts more than the true test and at least half as often.
        for t_hat in range(1, 9):
            for dc in range(0, 150):
                m = dc // t_hat + 1
                if m >= 24:
                    continue
                assert m * t_hat >= dc
                assert (m - 1) * t_hat <= dc

    def test_exhaustive_enumeration_single_cell(self):
        # All 2^24 draws for one (dc, tHat) pair, against the closed form.
        dc, t_hat = 3, 2
        accepted = 0
        for lo in range(0, 1 << 24, 1 << 20):
            block = np.arange(lo, lo + (1 << 20), dtype=np.int64)
            clz = clz24_array(block)
            ok = (block == 0) | (dc < t_hat * clz)
            accepted += int(np.count_nonzero(ok))
        assert Fraction(accepted, 1 << 24) == fixed_accept_probability(dc, t_hat)

    def test_empirical_frequency_three_sigma(self):
        draws = rand24_stream(stream_seed(2024, 0), 200_000)
        clz = clz24_array(draws)
        for dc, t_hat in ((1, 1), (2, 3), (7, 2), (0, 5)):
            p = float(fixed_accept_probability(dc, t_hat))
            ok = (draws == 0) | (dc < t_hat * clz)
            hits = int(np.count_nonzero(ok))
            sigma = math.sqrt(draws.size * p * (1 - p))
            assert abs(hits - draws.size * p) <= 3 * sigma
