"""Metropolis acceptance tests and the deterministic random streams behind them.

Two acceptance rules live here. ``exact_accept`` is the textbook real-valued
Boltzmann test ``exp(-dC/T) >= u``. ``fixed_accept`` is an integer-only
approximation of the same test: the uniform draw is a 24-bit integer, the
temperature is rescaled to base-2 units (``t_hat = T * ln 2``), and
``-log2(rand / 2^24)`` is approximated by the count of leading zeros of the
24-bit word. The resulting comparison ``dC < t_hat * clz(rand)`` needs no
exponentiation or division, which is the whole point.

All randomness is generated from a splitmix-style 64-bit counter generator so
that every stream is reproducible from a seed, cheap to fork per neuron, and
identical between the scalar and the vectorised code paths.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .result import is_number

MASK64 = (1 << 64) - 1

#: Weyl increment of the splitmix64 generator.
GOLDEN = 0x9E3779B97F4A7C15

#: Odd salt used to derive independent per-stream states from one master seed.
STREAM_SALT = 0xD1B54A32D192ED03

#: Stream index reserved for drawing random initial assignments.
INIT_STREAM = 1 << 32

RAND_BITS = 24
RAND_MAX = (1 << RAND_BITS) - 1

_G = np.uint64(GOLDEN)
_SALT = np.uint64(STREAM_SALT)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_S11 = np.uint64(11)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S40 = np.uint64(40)


def mix64(v: int) -> int:
    """Finalizer of splitmix64: bijective avalanche mix of a 64-bit word."""
    v &= MASK64
    v ^= v >> 30
    v = (v * 0xBF58476D1CE4E5B9) & MASK64
    v ^= v >> 27
    v = (v * 0x94D049BB133111EB) & MASK64
    v ^= v >> 31
    return v


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorised :func:`mix64`, in place on the caller's ``uint64`` array
    ``z``; returns ``z``."""
    _mix64_high(z)
    z ^= z >> _S31
    return z


def _mix64_high(z: np.ndarray) -> np.ndarray:
    """:func:`mix64_array` without its last step, ``z ^= z >> 31``, which
    changes only bits 0-32: exact in bits 33-63, all that a 24-bit draw
    (``>> 40``) keeps. In place; returns ``z``."""
    z ^= z >> _S30
    z *= _C1
    z ^= z >> _S27
    z *= _C2
    return z


def _seed64(seed) -> int:
    """``seed``, an ``int`` or a NumPy integer (never a ``bool``), as the 64-bit
    word its streams start from; anything else is a ``ValueError``."""
    if not is_number(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return int(seed) & MASK64


def stream_seed(seed: int, stream: int) -> int:
    """Derive the initial generator state for one numbered stream.

    ``stream_seed(seed, i)`` gives neuron ``i`` its private state; auxiliary
    consumers use indices at or above :data:`INIT_STREAM` so they can never
    collide with a neuron. The map is ``mix64(seed ^ (STREAM_SALT * (stream
    + 1)))``: the salt is odd, so distinct streams hit distinct states.
    """
    return mix64(_seed64(seed) ^ ((STREAM_SALT * (stream + 1)) & MASK64))


def stream_seed_array(seed: int, streams: np.ndarray) -> np.ndarray:
    """Vectorised :func:`stream_seed` for an array of stream indices."""
    s = streams.astype(np.uint64)
    s += np.uint64(1)
    s *= _SALT
    s ^= np.uint64(_seed64(seed))
    return mix64_array(s)


class Rng24:
    """Seedable generator of uniform 24-bit integers.

    One draw advances a 64-bit state by the golden-ratio increment and emits
    the top 24 bits of the finalised state. The sequence is a pure function
    of the seed.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = _seed64(seed)

    def next24(self) -> int:
        """Uniform integer in ``[0, 2^24 - 1]``."""
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state) >> 40

    def next_unit(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 random mantissa bits."""
        self.state = (self.state + GOLDEN) & MASK64
        return (mix64(self.state) >> 11) * 2.0**-53


def _counter_states(seed: int, count: int, start: int) -> np.ndarray:
    """States of ``Rng24(seed)`` after draws ``start + 1`` to ``start + count``.

    splitmix64 is counter-based: after ``k`` draws the state is just
    ``seed + k * GOLDEN``, so any window of a stream is one vector.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    ks = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    ks *= _G
    ks += np.uint64(_seed64(seed))
    return ks


def rand24_stream(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Draws ``start`` to ``start + count - 1`` of ``Rng24(seed)`` as one
    vectorised batch (by default the first ``count``).

    The result is bit-identical to the matching scalar ``next24()`` calls,
    so a long stream can be drawn in pieces.
    """
    z = _mix64_high(_counter_states(seed, count, start))
    z >>= _S40
    # A 24-bit value reads the same as int64, so no copy is needed.
    return z.view(np.int64)


def unit_stream(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Vectorised ``next_unit()``: draws ``start`` to ``start + count - 1`` of
    ``Rng24(seed)`` as float64 in ``[0, 1)``.

    Bit-identical to the scalar calls: a 53-bit integer converts to float64
    without loss, and scaling by ``2^-53`` is exact.
    """
    bits = mix64_array(_counter_states(seed, count, start))
    bits >>= _S11
    units = bits.astype(np.float64)
    units *= 2.0**-53
    return units


def advance24_array(states: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Advance the selected per-stream states in place; return their draws.

    ``states`` is a ``uint64`` array of independent generator states and
    ``idx`` is an integer index array of the streams that draw this call
    (indices must be distinct; a slice is a ``TypeError``). Each selected
    state takes one golden-ratio increment and emits the top 24 bits of its
    finalised value, exactly matching a scalar ``next24()`` on that stream.
    Returns an ``int64`` array aligned with ``idx``.
    """
    # take always copies, so the in-place mix never writes through a view.
    z = states.take(idx)
    z += _G
    states[idx] = z
    _mix64_high(z)
    z >>= _S40
    return z.view(np.int64)


def clz24(rand: int) -> int:
    """Count of leading zeros in the 24-bit representation of ``rand``.

    ``clz24(0)`` is defined as 24; callers that must never see that value
    short-circuit the zero draw first (see :func:`fixed_accept`).
    """
    if not 0 <= rand <= RAND_MAX:
        raise ValueError(f"rand must be a 24-bit value, got {rand}")
    return RAND_BITS - rand.bit_length()


def clz24_array(rands: np.ndarray) -> np.ndarray:
    """Vectorised :func:`clz24`. Exact: frexp on float64 is lossless below 2^53."""
    _, exp = np.frexp(rands.astype(np.float64))
    return RAND_BITS - exp.astype(np.int64)


def exact_accept(delta_c: float, temperature: float, u: float) -> bool:
    """Real-valued Metropolis test: accept iff ``exp(-delta_c / T) >= u``.

    A non-positive ``delta_c`` is always accepted. ``temperature`` must be
    strictly positive.
    """
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if delta_c <= 0:
        return True
    return math.exp(-delta_c / temperature) >= u


def _reject_bounds(temperature: float, u: np.ndarray) -> list:
    """Per-draw bounds above which :func:`exact_accept` rejects, without ``exp``.

    ``u`` holds draws of :func:`unit_stream`, multiples of ``2^-53`` in
    ``[0, 1)``. For each ``u`` the real test ``exp(-dC/T) >= u`` is
    ``dC <= c`` with ``c = -T ln u``. The float test can only disagree with
    it within about ``4 eps (c + T)`` of ``c``: the rounding of ``ln``,
    ``exp`` and ``dC / T``, where ``T`` covers ``exp``'s absolute error as
    ``u -> 1``. Returns the list of ``c + w`` with the margin
    ``w = 1e-9 (c + T)``, computed as ``c (1 + 1e-9) + 1e-9 T``: a ``dC``
    above its bound fails ``exact_accept``. ``c`` is infinite at ``u = 0``,
    and where ``T ln u`` overflows (``T > 4e306``): every move passes there.
    """
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    with np.errstate(divide="ignore", over="ignore"):
        c = np.log(u)
        c *= -temperature * (1 + 1e-9)
        c += 1e-9 * temperature
    return c.tolist()


def fixed_accept(delta_c: int, t_hat: int, rand: int) -> bool:
    """Integer Metropolis test used by the parallel solver.

    Accepts when the cost decreases, when the draw is exactly zero, and
    otherwise iff ``delta_c < t_hat * clz24(rand)``. The two short-circuits
    keep the inequality path away from ``clz = 24``. Pure function of its
    three arguments; exact integer comparison throughout.
    """
    if not 0 <= rand <= RAND_MAX:
        raise ValueError(f"rand must be a 24-bit value, got {rand}")
    if delta_c < 0:
        return True
    if rand == 0:
        return True
    return delta_c < t_hat * clz24(rand)


def fixed_accept_probability(delta_c: int, t_hat: int) -> Fraction:
    """Exact acceptance probability of :func:`fixed_accept` under uniform draws.

    For ``delta_c >= 0``: of the ``2^24`` equally likely draws, the zero word
    always accepts, and the ``2^(23-k)`` words with ``clz = k`` accept iff
    ``t_hat * k > delta_c``. With ``t_hat > 0`` those are the words with
    ``clz >= m = delta_c // t_hat + 1``, and their counts telescope with the
    zero word to ``2^(24-m)``, so the probability is ``2^-min(24, m)``. At
    ``t_hat <= 0`` only the zero word accepts: ``2^-24``.
    """
    if delta_c < 0:
        raise ValueError(f"delta_c must be non-negative, got {delta_c}")
    m = RAND_BITS if t_hat <= 0 else min(RAND_BITS, delta_c // t_hat + 1)
    return Fraction(1, 1 << m)


__all__ = [
    "Rng24",
    "exact_accept",
    "fixed_accept",
    "fixed_accept_probability",
    "rand24_stream",
    "unit_stream",
]
