"""Sparse symmetric integer QUBO problems: exact costs, local fields, flips.

The cost being minimised is ``C(x) = x^T Q x`` over binary ``x``. ``Q`` is
symmetric with integer coefficients, so an edge contributes ``2 * q_ij`` to
the cost when both endpoints are set. A :class:`QuboMatrix` stores ``Q`` as
the paper's network holds it: the diagonal ``q_ii``, each neuron's bias, and
each neuron's synapse row, a compressed-row adjacency of its neighbours and
their synaptic weights ``2 q_ij``. Every reader works on that one layout. All
arithmetic is exact in 64-bit integers, which holds costs and deltas for any
problem up to ``n = 2^16`` variables with 8-bit synaptic weights by a wide
margin.

Incremental solvers keep each variable's flip magnitude ``h_i = q_ii +
2 z_i`` (``z_i = sum_{j != i} q_ij x_j``, its local field) beside the
assignment: flipping ``x_i`` on changes the cost by ``+h_i``, off by
``-h_i``. A flip of ``x_j`` moves ``h_i`` by the synaptic weight ``2 q_ij``,
so the patch is O(degree) per flipped variable. ``apply_flips`` commits a
whole batch of distinct flips, as the parallel network does each step. It
checks its input and gathers the adjacency rows of every flip into integer
scatters, with no per-flip Python work. The network calls its kernel,
``_commit_flips``, without the checks: its own flip set is sorted and
distinct by construction. The sequential annealer, which flips one variable
at a time, patches that one row inline.

The network also keeps :func:`padded_rows`, its synapse rows padded to the
largest degree ``D``: an ``(n, D)`` table of columns and a table of weights.
A pad slot holds the row's own index with weight 0, so adding it changes
nothing. A batch's rows are then gathered whole, without the per-entry
position vector of the compressed rows. Where the weights fit
:data:`SIGNED_TABLE_ENTRIES`, the weight table is signed: each row is stored
twice, negated and as it is, as a ``(2n, D)`` table whose row ``2 i + b`` is
what variable ``i`` adds to its neighbours' ``h`` when it flips to ``b``, so
a batch is one gather of columns, one of weights and one scatter. Above that
size the weight table is the ``(n, D)`` rows as they are, and the batch is
split by new bit: the rows of the variables that turned on are
scatter-added into ``h`` and those that turned off are scatter-subtracted.
Where the padding would more than double the adjacency (``n * D > 2 *
nnz``: a star, or a sparse graph whose largest degree is far above its
mean) there is no table, and ``apply_flips`` walks the compressed rows
instead, in one signed scatter. All three paths add the same integer
weights, so their results are identical.
"""

from __future__ import annotations

import contextlib
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .metropolis import INIT_STREAM, rand24_stream, stream_seed

_INT64 = np.iinfo(np.int64)

#: Most ``int64`` entries, ``2 n D``, of a signed weight table: 4 MiB. A
#: larger instance keeps the ``(n, D)`` split table, which holds half the
#: weights: whole runs gained from the signed table where it added up to
#: 2.1 MB, and lost 5-8% on four graphs where it added 3.3 MB or more, where
#: the doubled table's cache misses most likely cost more than its fewer numpy
#: calls save (README, Commit).
SIGNED_TABLE_ENTRIES = 2**19


@dataclass(eq=False)
class QuboMatrix:
    """Symmetric integer QUBO coefficients: the diagonal and one synapse row
    per neuron.

    Attributes
    ----------
    n : int
        Number of binary variables.
    diag : np.ndarray
        Dense ``int64`` array of the ``n`` diagonal coefficients ``q_ii``.
    adj_ptr, adj_j, adj_w : np.ndarray
        The off-diagonals, as a compressed-row adjacency over both
        orientations: the neighbours of ``i`` are
        ``adj_j[adj_ptr[i]:adj_ptr[i+1]]`` in ascending order, and the
        matching slice of ``adj_w`` holds their synaptic weights
        ``2 * q_ij``, the amount a neighbour's flip moves ``h_i``. Each pair
        appears in both rows with the same weight; no weight is zero.
    """

    n: int
    diag: np.ndarray
    adj_ptr: np.ndarray
    adj_j: np.ndarray
    adj_w: np.ndarray

    @property
    def num_offdiag(self) -> int:
        return int(self.adj_j.size) // 2

    def __repr__(self) -> str:
        return f"QuboMatrix(n={self.n}, offdiag={self.num_offdiag})"


def _int64_array(values: np.ndarray, name) -> np.ndarray:
    """``values`` as ``int64``; one that does not fit is a ``ValueError``
    naming ``name(k)`` for its position ``k``, never a wrapped value."""
    if values.dtype == np.int64:
        return values
    try:
        return values.astype(np.int64)
    except OverflowError:
        k = next(k for k, v in enumerate(values) if not _INT64.min <= v <= _INT64.max)
        raise ValueError(f"{name(k)} sums to {values[k]}, outside int64") from None


def _triplets(n: int, entries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked ``(i, j, coeff)`` columns of ``entries``.

    An ``(m, 3)`` signed-integer array is taken whole, its columns as views
    (contiguous when it is column-major); anything else is read one triplet
    at a time. Coefficients that do not all fit in ``int64`` come back as an
    object array of Python ints.
    """
    if isinstance(entries, np.ndarray) and entries.dtype.kind == "i" and (
        entries.ndim == 2 and entries.shape[1] == 3
    ):
        e = entries.astype(np.int64, copy=False)
        i, j, c = e[:, 0], e[:, 1], e[:, 2]
        if i.size and not (0 <= min(i.min(), j.min()) and max(i.max(), j.max()) < n):
            k = int(np.argmax((i < 0) | (i >= n) | (j < 0) | (j >= n)))
            raise IndexError(f"entry ({i[k]},{j[k]}) out of range for n={n}")
        return i, j, c
    ii, jj, cc = [], [], []
    for i, j, coeff in entries:
        i = operator.index(i)
        j = operator.index(j)
        if isinstance(coeff, bool):
            raise ValueError(f"coefficient for ({i},{j}) must be an integer")
        try:
            coeff = operator.index(coeff)
        except TypeError:
            raise ValueError(
                f"coefficient for ({i},{j}) must be an integer, got {coeff!r}"
            ) from None
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"entry ({i},{j}) out of range for n={n}")
        ii.append(i)
        jj.append(j)
        cc.append(coeff)
    try:
        c = np.array(cc, dtype=np.int64)
    except OverflowError:
        c = np.array(cc, dtype=object)
    return np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64), c


def build_qubo(n, entries) -> QuboMatrix:
    """Canonicalise ``(i, j, coeff)`` triplets into a :class:`QuboMatrix`.

    Diagonal entries accumulate into ``diag``. An off-diagonal pair given in
    one orientation only is taken as already symmetric. When both ``(i, j)``
    and ``(j, i)`` appear, the two accumulated values are replaced by their
    arithmetic mean; an odd sum has no integer mean and is rejected rather
    than rounded. Coefficients must be integers (``bool`` and floats are
    rejected); zero off-diagonals are dropped. A summed coefficient outside
    ``int64``, an off-diagonal whose synaptic weight ``2 * q_ij`` is, or a
    row whose positive or negative off-diagonals sum outside ``int64``, so
    that some assignment's local field would leave it, is a ``ValueError``,
    never a wrapped value.

    ``entries`` is an iterable of triplets or an ``(m, 3)`` signed-integer
    array; the sums are taken per pair with numpy, in ``int64`` when no sum
    can leave it and in Python ints otherwise.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"variable count must be non-negative, got {n}")
    i, j, c = _triplets(n, entries)
    on = i == j
    diag_i, diag_c = i[on], c[on]
    # The off-diagonal entries, as views when the diagonal comes first (an
    # encoded MisGraph, a saved .qubo). Each temporary below is dropped after
    # its last use: a build's peak is a few times the matrix it returns.
    head = diag_i.size
    if on[:head].all():
        off_i, off_j, qs = i[head:], j[head:], c[head:]
    else:
        off_i, off_j, qs = i[~on], j[~on], c[~on]
    del on, i, j
    lower = off_i > off_j
    if lower.any():
        off_i, off_j = np.minimum(off_i, off_j), np.maximum(off_i, off_j)
    # Pair (lo, hi) of every off-diagonal entry, packed into one sortable key.
    keys = off_i * n
    keys += off_j
    inv = None
    if keys.size > 1 and not (keys[1:] > keys[:-1]).all():
        keys, inv, per_pair = np.unique(keys, return_inverse=True, return_counts=True)
        off_i = keys // n
        off_j = keys - off_i * n
        mult = int(per_pair.max())
    else:
        # Strictly increasing keys (an encoded MisGraph) are their own
        # np.unique: every pair is given once, already in order, so its sum
        # is its one coefficient and no pair comes in both orientations.
        mult = 1
    del keys
    if c.dtype == np.int64 and c.size:
        # |sum| <= multiplicity * max|coeff|: within int64, int64 is exact.
        mult = max(mult, int(np.bincount(diag_i, minlength=1).max()))
        if mult * max(-int(c.min()), int(c.max())) > _INT64.max:
            diag_c, qs = diag_c.astype(object), qs.astype(object)
    del c

    diag = np.full(n, 0, dtype=diag_c.dtype)
    np.add.at(diag, diag_i, diag_c)
    diag = _int64_array(diag, lambda k: f"diagonal entry {k}")

    if inv is not None:
        total = np.full(off_i.size, 0, dtype=qs.dtype)
        np.add.at(total, inv, qs)
        # A pair given in both orientations takes the mean of the two sums.
        both = np.zeros(off_i.size, dtype=bool)
        both[inv[lower]] = True
        upper = np.zeros(off_i.size, dtype=bool)
        upper[inv[~lower]] = True
        both &= upper
        del inv
        odd = both & (total % 2 != 0)
        if odd.any():
            k = int(np.argmax(odd))
            raise ValueError(
                f"entries for pair {_pair(off_i, off_j, k)} sum to {total[k]}; "
                "the symmetric mean is not an integer"
            )
        qs = np.where(both, total // 2, total)
        del total, both, odd
    del lower
    nz = qs != 0
    if not nz.all():
        off_i, off_j, qs = off_i[nz], off_j[nz], qs[nz]
    del nz

    off_q = _int64_array(qs, lambda k: f"entry for pair {_pair(off_i, off_j, k)}")
    del qs
    lo, hi = _INT64.min // 2, _INT64.max // 2
    q_min, q_max = (int(off_q.min()), int(off_q.max())) if off_q.size else (0, 0)
    if not lo <= q_min <= q_max <= hi:
        k = int(np.argmax((off_q < lo) | (off_q > hi)))
        raise ValueError(f"entry for pair {_pair(off_i, off_j, k)} sums to {off_q[k]}; "
                         "its synaptic weight 2 * q_ij is outside int64")

    counts = np.bincount(off_i, minlength=n)
    counts += np.bincount(off_j, minlength=n)
    # max|q_ij| times the largest degree bounds every local field.
    if counts.size and max(-q_min, q_max) * int(counts.max()) > _INT64.max:
        _check_field_range(n, off_i, off_j, off_q)
    adj_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=adj_ptr[1:])

    # Both-orientation adjacency, grouped by row, neighbours ordered by
    # column. The pairs are in (i, j) order, so the lower half (row j,
    # column i) then the upper half (row i, column j), ordered by row and
    # then by position, leave each row's columns ascending. Each key packs
    # the row above the position, so the keys are distinct and one plain
    # sort of them gives that order; masking the row off leaves the
    # positions.
    m = off_q.size
    shift = max(2 * m - 1, 0).bit_length()
    keys = np.empty(2 * m, dtype=_key_dtype(n, 2 * m))
    keys[:m] = off_j
    keys[m:] = off_i
    keys <<= shift
    keys |= np.arange(2 * m, dtype=keys.dtype)
    keys.sort()
    order = np.bitwise_and(keys, (1 << shift) - 1, dtype=np.int64)
    del keys
    adj_j = np.concatenate([off_i, off_j])[order]
    del off_i, off_j
    # Either half's entry k carries pair k's weight: fold the upper half's
    # positions onto the lower's in place, and gather the weights once.
    np.subtract(order, m, out=order, where=order >= m)
    adj_w = off_q[order]
    adj_w *= 2
    return QuboMatrix(n=n, diag=diag, adj_ptr=adj_ptr, adj_j=adj_j, adj_w=adj_w)


def _key_dtype(n: int, size: int) -> type:
    """The unsigned type of a sort key that packs a row below ``n`` above a
    position below ``size``: ``uint32`` when both fit 32 bits, ``uint64``
    when they fit 64. A wider key is a ``ValueError``, never a wrapped one."""
    bits = max(n - 1, 0).bit_length() + max(size - 1, 0).bit_length()
    if bits <= 32:
        return np.uint32
    if bits <= 64:
        return np.uint64
    raise ValueError(f"a sort key for {n} rows and {size} positions needs {bits} bits, "
                     "more than 64")


def _check_field_range(n: int, off_i: np.ndarray, off_j: np.ndarray,
                       off_q: np.ndarray) -> None:
    """Refuse a row whose positive or negative ``q_ij``, summed exactly,
    leave ``int64``: every local field of that row lies between the two sums."""
    pos = np.zeros(n, dtype=object)
    neg = np.zeros(n, dtype=object)
    for rows in (off_i, off_j):
        np.add.at(pos, rows, np.maximum(off_q, 0).astype(object))
        np.add.at(neg, rows, np.minimum(off_q, 0).astype(object))
    for k in range(n):
        for sign, total in (("positive", pos[k]), ("negative", neg[k])):
            if not _INT64.min <= total <= _INT64.max:
                raise ValueError(f"row {k}'s {sign} off-diagonals sum to {total}; "
                                 "its local field can leave int64")


def _pair(off_i: np.ndarray, off_j: np.ndarray, k: int) -> tuple[int, int]:
    return int(off_i[k]), int(off_j[k])


def as_assignment(x, n: int) -> np.ndarray:
    """Validate and return ``x`` as an ``int8`` vector of ``n`` bits.

    Entries must be 0 or 1 (``bool`` counts as such), checked on the
    caller's values: a cast first would wrap 257 to 1 and truncate 1.9 to 1.
    An ``int8`` vector is returned as it is, anything else as a copy.
    """
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValueError(f"assignment must have length {n}, got shape {arr.shape}")
    if arr.dtype.kind not in "biuf" or not np.all((arr == 0) | (arr == 1)):
        raise ValueError("assignment entries must be 0 or 1")
    return arr if arr.dtype == np.int8 else arr.astype(np.int8)


def evaluate_cost(q: QuboMatrix, x) -> int:
    """Exact cost ``x^T Q x`` as a Python integer.

    A full recompute, ``sum_{x_i = 1} (q_ii + z_i)`` over a fresh
    :func:`local_fields`, independent of any solver's incremental state. The
    field sum counts each set pair twice, as ``2 q_ij x_i x_j`` does, and is
    taken over Python ints. It is exact for every instance that
    :func:`build_qubo` accepts, since no local field of one leaves ``int64``.
    """
    x = as_assignment(x, q.n)
    on = x.astype(bool)
    return sum(q.diag[on].tolist()) + sum(local_fields(q, x)[on].tolist())


def local_fields(q: QuboMatrix, x) -> np.ndarray:
    """Local fields ``z_i = sum_{j != i} q_ij x_j`` as an ``int64`` array.

    A segmented sum over the synapse rows of ``q_ij = adj_w >> 1`` times
    ``x_j``. Summing the halved weights, not ``adj_w``, keeps ``z_i`` exact
    whenever it fits ``int64``, even where ``2 z_i`` would not, and
    :func:`build_qubo` accepts no instance where it can leave ``int64``: the
    result is exact for every instance it accepts.
    """
    x = as_assignment(x, q.n)
    terms = q.adj_w >> 1
    terms *= x[q.adj_j]
    z = np.zeros(q.n, dtype=np.int64)
    # reduceat gives an empty row the next row's first term, not 0.
    starts = q.adj_ptr[:-1]
    filled = q.adj_ptr[1:] > starts
    z[filled] = np.add.reduceat(terms, starts[filled])
    return z


def check_init(init="random") -> None:
    """Refuse an ``init`` that no instance takes: a string other than
    ``"random"`` and ``"zeros"``, or a value that is not a vector of 0/1 bits.
    Only the vector's length is left to :func:`initial_state`, which knows n."""
    if isinstance(init, str):
        if init not in ("random", "zeros"):
            raise ValueError(f"unknown init {init!r}")
    else:
        as_assignment(init, np.size(init))  # every check but the length


def initial_state(q: QuboMatrix, seed: int, init) -> tuple[np.ndarray, np.ndarray, Callable]:
    """Start assignment ``x`` of a solver run, its flip magnitudes ``h``, and
    ``price``, the run's exact cost of a state: ``price(q, x, h)``.

    ``init`` is ``"random"`` (one fair bit per variable from the seed's own
    stream, so all solvers given one seed start alike), ``"zeros"``, or an
    explicit 0/1 vector, which is copied.

    ``B = sum|q_ii| + sum|adj_w| / 2`` bounds the cost of every assignment,
    every ``|h_i|`` and half of every partial sum of :func:`state_cost`'s
    dot product. Where ``B < 2^62``, ``price`` is :func:`state_cost`, exact
    there; otherwise it sums the cost in Python ints, a full recompute per
    call. The choice is made here, once per run. Where ``B`` reaches
    ``2^62``, an instance on which some assignment's flip magnitude ``h_i``
    leaves ``[-(2^63 - 1), 2^63 - 1]`` is a ``ValueError`` naming the first
    such row, never a wrapped value (:func:`_check_flip_range`).
    """
    if isinstance(init, str):
        check_init(init)
        if init == "zeros":
            x = np.zeros(q.n, dtype=np.int8)
        else:
            bits = rand24_stream(stream_seed(seed, INIT_STREAM), q.n) >> 23
            x = bits.astype(np.int8)
    else:
        x = as_assignment(init, q.n).copy()
    # n max|q_ii| + nnz max|adj_w| / 2 bounds B in four reductions; only
    # where that bound reaches 2^62 is B itself summed.
    bound = q.n * _max_abs(q.diag) + q.adj_w.size * _max_abs(q.adj_w) // 2
    if bound >= 2**62:
        bound = sum(map(abs, q.diag.tolist())) + sum(map(abs, q.adj_w.tolist())) // 2
        if bound >= 2**62:
            _check_flip_range(q)
    price = state_cost if bound < 2**62 else _summed_cost
    return x, q.diag + 2 * local_fields(q, x), price


def _check_flip_range(q: QuboMatrix) -> None:
    """Refuse an instance on which some flip magnitude ``h_i = q_ii + 2 z_i``
    can leave ``[-(2^63 - 1), 2^63 - 1]``, the range whose every value and
    its negation, the cost change of turning ``x_i`` off, fit ``int64``.
    ``h_i`` lies between ``q_ii`` plus the row's negative and plus its
    positive synaptic weights, summed exactly."""
    ptr, weights = q.adj_ptr.tolist(), q.adj_w.tolist()
    for i, q_ii in enumerate(q.diag.tolist()):
        row = weights[ptr[i]:ptr[i + 1]]
        for sign, total in (("positive", sum(w for w in row if w > 0)),
                            ("negative", sum(w for w in row if w < 0))):
            if not -_INT64.max <= q_ii + total <= _INT64.max:
                raise ValueError(f"row {i}'s flip magnitude q_ii + 2 z_i reaches "
                                 f"{q_ii + total} at its {sign} off-diagonals, outside int64")


def _max_abs(a: np.ndarray) -> int:
    return max(-int(a.min(initial=0)), int(a.max(initial=0)))


def _summed_cost(q: QuboMatrix, x: np.ndarray, h: np.ndarray) -> int:
    """The price where ``B`` reaches ``2^62``: :func:`evaluate_cost` of ``x``,
    exact for every instance :func:`build_qubo` accepts; ``h`` is not read."""
    return evaluate_cost(q, x)


def state_cost(q: QuboMatrix, x: np.ndarray, h: np.ndarray) -> int:
    """Cost of ``x`` given its flip magnitudes ``h``: half of the dot product
    ``sum_i x_i (h_i + q_ii)``, whose every term ``2 x_i (q_ii + z_i)`` is
    even. The sum wraps in ``int64``, so the cost is exact where it lies in
    ``[-2^62, 2^62)`` and is taken modulo ``2^63`` beyond; a solver prices
    its states through :func:`initial_state`'s ``price``, which is this
    function only where no partial sum can wrap."""
    return int(np.dot(x, h + q.diag)) >> 1


def max_flip_delta(h: np.ndarray) -> int:
    """``max_i |h_i|``, the largest single-flip cost change."""
    return int(np.max(np.abs(h)))


def derived_t0(h: np.ndarray) -> int:
    """The start temperature both annealers derive when ``t0`` is omitted:
    ``max_i |h_i| >> 3``.

    Under the closed-form law ``p = 2^-min(24, dC // t_hat + 1)``, the
    largest move of the start state, ``dC = max|h| >= 8``, then passes with
    probability 2^-9 to 2^-16 (2^-9 to 2^-12 once ``max|h| >= 16``), against
    1/4 at ``t_hat = max|h|``, a start so hot that a run spends most of its
    steps cooling off. The value is 0 where ``max|h| < 8``.
    """
    return max_flip_delta(h) >> 3


def padded_rows(q: QuboMatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """Each neuron's synapse row padded to the largest degree ``D``, as
    ``int64`` tables ``(cols, ws)`` for :func:`apply_flips`.

    Row ``i`` of the ``(n, D)`` ``cols`` holds the neighbours of ``adj_j``
    in order, then pad slots of its own index ``i``. Where ``2 n D`` is at
    most :data:`SIGNED_TABLE_ENTRIES`, ``ws`` is the signed ``(2n, D)``
    table: row ``2 i + 1`` holds ``i``'s weights from ``adj_w`` and row
    ``2 i`` the same weights negated, with weight 0 in the pad slots. Above
    that, ``ws`` is the ``(n, D)`` table of the weights as they are. Returns
    ``None`` when ``n * D > 2 * nnz``, i.e. when the padding would more than
    double the adjacency's ``nnz`` entries.
    """
    deg = np.diff(q.adj_ptr)
    d = int(deg.max(initial=0))
    if q.n * d > 2 * q.adj_j.size:
        return None
    cols = np.repeat(np.arange(q.n, dtype=np.int64), d).reshape(q.n, d)
    filled = np.arange(d) < deg[:, None]
    cols[filled] = q.adj_j
    signs = 2 if 2 * q.n * d <= SIGNED_TABLE_ENTRIES else 1
    ws = np.zeros((q.n, signs, d), dtype=np.int64)
    ws[:, -1][filled] = q.adj_w
    if signs == 2:
        np.negative(ws[:, 1], out=ws[:, 0])
    return cols, ws.reshape(signs * q.n, d)


def apply_flips(q: QuboMatrix, x: np.ndarray, h: np.ndarray, flipped,
                rows: tuple[np.ndarray, np.ndarray] | None = None) -> None:
    """Toggle the given variables in place and patch ``h`` incrementally.

    Only the neighbours of flipped variables are touched, O(degree) per
    flip; the result is identical to rebuilding ``h`` from a full
    ``local_fields`` recompute. ``flipped`` must hold distinct integer
    indices, in any order. The rows of all flips are scattered into ``h``
    in ``int64``, each row's weights signed by its variable's new bit.
    ``rows`` is ``q``'s :func:`padded_rows` table, whose rows are gathered
    whole: from a signed table in one scatter, from a split one in an add
    and a subtract scatter. Without it the compressed rows are gathered into
    one index vector.
    """
    fl = np.asarray(flipped).ravel()
    if fl.size == 0:
        return
    if fl.dtype.kind not in "iu":
        raise TypeError(f"flip indices must be integers, got dtype {fl.dtype}")
    fl = fl.astype(np.int64, copy=False)
    # A strictly increasing batch (every Network.step commit) has its bounds
    # at its ends and is distinct without the sort inside np.unique.
    increasing = fl.size == 1 or bool((fl[1:] > fl[:-1]).all())
    first, last = (fl[0], fl[-1]) if increasing else (fl.min(), fl.max())
    if first < 0 or last >= q.n:
        raise IndexError(f"flip index out of range for n={q.n}")
    if not increasing and np.unique(fl).size != fl.size:
        raise ValueError("flipped indices must be distinct")
    _commit_flips(q, x, h, fl, rows)


def _commit_flips(q: QuboMatrix, x: np.ndarray, h: np.ndarray, fl: np.ndarray,
                  rows: tuple[np.ndarray, np.ndarray] | None) -> None:
    """:func:`apply_flips` without its checks: ``fl`` must be a non-empty
    ``int64`` array of distinct valid indices, as ``Network.step``'s sorted
    flip set is by construction.

    On a signed table (``ws`` has ``2n`` rows) the flipped variables'
    columns and their rows ``2 i + new bit`` of ``ws`` are gathered and
    added into ``h`` in one scatter. On a split table (``n`` rows) the rows
    of the variables that turned on are added and those of the variables
    that turned off are subtracted, so no row is negated. Rows are gathered
    whole with ``ndarray.take`` along axis 0, which at a dozen flips costs
    about a third of the same gather by 2-D fancy indexing. The compressed
    rows are scattered once, each entry signed by its variable's new bit.
    """
    bits = x[fl]
    bits ^= 1
    x[fl] = bits
    if rows is not None:
        cols, ws = rows
        if len(ws) > len(cols):
            signed = fl + fl
            signed += bits
            np.add.at(h, cols.take(fl, 0).ravel(), ws.take(signed, 0).ravel())
            return
        turned_on = bits.astype(bool)
        on, off = fl[turned_on], fl[~turned_on]
        np.add.at(h, cols.take(on, 0).ravel(), ws.take(on, 0).ravel())
        np.subtract.at(h, cols.take(off, 0).ravel(), ws.take(off, 0).ravel())
        return
    lo = q.adj_ptr[fl]
    cnt = q.adj_ptr[fl + 1] - lo
    ends = np.cumsum(cnt)
    total = int(ends[-1])
    if total == 0:
        return
    # Row k occupies [ends[k] - cnt[k], ends[k]) of the gathered vector and
    # [lo[k], lo[k] + cnt[k]) of the adjacency, so one repeat of the offset
    # plus a running count addresses every entry.
    pos = np.repeat(lo - ends + cnt, cnt) + np.arange(total)
    sign = np.repeat(2 * bits.astype(np.int64) - 1, cnt)
    np.add.at(h, q.adj_j[pos], q.adj_w[pos] * sign)


def save_qubo(q: QuboMatrix, path) -> None:
    """Write the instance-file form: ``qubo <n> <nnz>`` then ``i j coeff`` lines.

    Non-zero diagonal entries come first (ascending index, written as
    ``i i coeff``), then each row's upper half (``j > i``) in row order, so
    the off-diagonals come out sorted by ``(i, j)`` and equal problems
    serialise byte-identically, as UTF-8 (:func:`_write_lines`).
    """
    diag_idx = np.nonzero(q.diag)[0]
    rows = np.repeat(np.arange(q.n), np.diff(q.adj_ptr))
    upper = q.adj_j > rows
    _write_lines(path, [
        f"qubo {q.n} {diag_idx.size + q.num_offdiag}",
        *(f"{i} {i} {v}" for i, v in zip(diag_idx.tolist(), q.diag[diag_idx].tolist())),
        *(f"{i} {j} {v}" for i, j, v in zip(rows[upper].tolist(), q.adj_j[upper].tolist(),
                                            (q.adj_w[upper] >> 1).tolist())),
    ])


def _write_lines(path, lines) -> None:
    """The one writer of the output files: each of ``lines`` and a newline, as
    UTF-8 whatever the locale, as :class:`_LineReader` reads. The text is formed
    before the file is opened, so a line that fails leaves the file as it was."""
    text = "".join(line + "\n" for line in lines)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


class _LineReader(contextlib.AbstractContextManager):
    """The one reader of the line-based input files:
    ``with _LineReader(path) as lines: for line in lines: ...``.

    It yields each non-blank line, stripped; ``comments`` also skips lines
    that start with ``#``, and ``first`` is a CSV's fixed first line. A
    ``ValueError`` raised in the block is re-raised as ``path:line: ...``
    while a line is current (lines count from 1) and as ``path: ...`` once
    the file is exhausted, so a parser raises its messages bare. The text
    is read as UTF-8 whatever the locale, as :func:`_write_lines` writes it;
    text that is not UTF-8 names the first line that does not decode.
    """

    def __init__(self, path, *, comments: bool = False, first: str | None = None):
        self.path, self.lineno, self.seen, self.promised = path, None, {}, None
        self.file = open(path, encoding="utf-8")
        self.lines = self._read(comments, first)

    def __iter__(self):
        return self.lines

    def __exit__(self, kind, err, tb):
        self.file.close()
        if isinstance(err, UnicodeDecodeError):
            raise _not_utf8(self.path) from None
        if isinstance(err, ValueError):
            where = self.path if self.lineno is None else f"{self.path}:{self.lineno}"
            raise ValueError(f"{where}: {err}") from None

    def _read(self, comments: bool, first: str | None):
        self.lineno = 1  # a CSV's header line
        if first is not None and (head := self.file.readline().strip()) != first:
            raise ValueError(f"bad header {head!r}")
        found = 0
        for lineno, raw in enumerate(self.file, 1 if first is None else 2):
            line = raw.strip()
            if line and not (comments and line[0] == "#"):
                self.lineno = lineno
                found += 1
                yield line
        self.lineno = None
        if self.promised is not None and found - 1 != self.promised[0]:  # less the header
            raise ValueError("header promises {} {}, found {}".format(*self.promised, found - 1))

    def header(self, kind: str, unit: str, min_n: int) -> int:
        """Read the ``<kind> <n> <count>`` header of a ``.qubo`` or ``.graph``
        file and return ``n``; ``count`` lines of ``unit`` must follow."""
        # An empty file is refused here too, naming the file alone.
        parts = next(self.lines, "").split()
        if len(parts) != 3 or parts[0] != kind:
            raise ValueError(f"expected header '{kind} <n> <count>'")
        n, count = _integers(parts[1:], "<n> <count>", "header counts")
        if not min_n <= n <= _INT64.max or count < 0:
            raise ValueError(f"header needs {min_n} <= n < 2^63 and count >= 0, got n={n}, "
                             f"count={count}")
        self.promised = count, unit
        return n

    def once(self, key, what: str) -> None:
        """Refuse ``key`` on this line if an earlier line gave it."""
        first = self.seen.setdefault(key, self.lineno)
        if first != self.lineno:
            raise ValueError(f"{what} {key} repeats line {first}")


def _integers(parts: list[str], shape: str, what: str) -> list[int]:
    """``parts``, the fields of a line shaped ``shape``, as integers."""
    if len(parts) != len(shape.split()):
        raise ValueError(f"expected '{shape}'")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"{what} must be exact integers") from None


def _not_utf8(path) -> ValueError:
    """The error for a file that is not UTF-8 text. Only this path needs the
    first line that does not decode, so it reads the bytes again."""
    with open(path, "rb") as f:
        lines = f.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as e:
            return ValueError(f"{path}:{lineno}: not UTF-8 text ({e})")
    return ValueError(f"{path}: not UTF-8 text")


def load_qubo(path) -> QuboMatrix:
    """Parse the instance-file format written by :func:`save_qubo`.

    Lines starting with ``#`` and blank lines are ignored. Coefficients must
    be exact integers. Raises ``ValueError`` on any malformed content.
    """
    entries = []
    with _LineReader(path, comments=True) as lines:
        n = lines.header("qubo", "entries", min_n=0)
        for line in lines:
            i, j, v = _integers(line.split(), "i j coeff", "coefficients")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"index out of range for n={n}")
            entries.append((i, j, v))
        # Whole-file errors (pair sums, symmetric means, int64 bounds) name the file alone.
        return build_qubo(n, entries)


__all__ = [
    "QuboMatrix",
    "apply_flips",
    "as_assignment",
    "build_qubo",
    "evaluate_cost",
    "load_qubo",
    "local_fields",
    "save_qubo",
]
