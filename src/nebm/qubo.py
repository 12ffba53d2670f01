"""Sparse symmetric integer QUBO problems: exact costs, local fields, deltas.

The cost being minimised is ``C(x) = x^T Q x`` over binary ``x``. ``Q`` is
symmetric with integer coefficients; each off-diagonal value is stored once
for the pair ``(i, j)`` with ``i < j`` and read for both orientations, so an
edge contributes ``2 * q_ij`` to the cost when both endpoints are set. All
arithmetic is exact in 64-bit integers, which holds costs and deltas for any
problem up to ``n = 2^16`` variables with 8-bit synaptic weights by a wide
margin.

Incremental solvers keep the local-field vector ``z_i = sum_{j != i} q_ij
x_j`` alongside the assignment and patch it through a compressed-row
adjacency index, in O(degree) per flipped variable. Two kernels do this:

- ``apply_flips`` commits a whole batch of distinct flips, as the parallel
  network does each step. It checks its input and gathers the adjacency
  rows of every flip into one integer scatter-add, with no per-flip Python
  work.
- ``flip_one`` toggles a single variable without any check. It serves the
  sequential annealer, which flips one variable at a time; a one-element
  batch through ``apply_flips`` costs about ten times as much.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .metropolis import INIT_STREAM, rand24_stream, stream_seed

#: Off-diagonal magnitude limit imposed by 8-bit synaptic weights.
HW_WEIGHT_LIMIT = 127

_INT64 = np.iinfo(np.int64)


@dataclass(eq=False)
class QuboMatrix:
    """Symmetric integer QUBO coefficients in sparse triplet + adjacency form.

    Attributes
    ----------
    n : int
        Number of binary variables.
    diag : np.ndarray
        Dense ``int64`` array of the ``n`` diagonal coefficients ``q_ii``.
    off_i, off_j, off_q : np.ndarray
        Off-diagonal triplets with ``off_i < off_j``, sorted lexicographically,
        no duplicates, no stored zeros. ``off_q`` is ``int64``.
    adj_ptr, adj_j, adj_q : np.ndarray
        Compressed-row adjacency over both orientations: the neighbours of
        ``i`` and their coefficients are ``adj_j[adj_ptr[i]:adj_ptr[i+1]]``
        and the matching slice of ``adj_q``.
    hardware_faithful : bool
        When set, every ``|q_ij|`` off the diagonal is at most 127.
    """

    n: int
    diag: np.ndarray
    off_i: np.ndarray
    off_j: np.ndarray
    off_q: np.ndarray
    adj_ptr: np.ndarray
    adj_j: np.ndarray
    adj_q: np.ndarray
    hardware_faithful: bool = False

    @property
    def num_offdiag(self) -> int:
        return int(self.off_q.size)

    def degree(self, i: int) -> int:
        return int(self.adj_ptr[i + 1] - self.adj_ptr[i])

    def neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the neighbour indices and coefficients of variable ``i``."""
        lo, hi = int(self.adj_ptr[i]), int(self.adj_ptr[i + 1])
        return self.adj_j[lo:hi], self.adj_q[lo:hi]

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

    An ``(m, 3)`` signed-integer array is taken whole; anything else is read
    one triplet at a time. Coefficients that do not all fit in ``int64``
    come back as an object array of Python ints.
    """
    if isinstance(entries, np.ndarray) and entries.dtype.kind == "i" and (
        entries.ndim == 2 and entries.shape[1] == 3
    ):
        e = entries.astype(np.int64, copy=False)
        i, j, c = e[:, 0], e[:, 1], e[:, 2]
        bad = (i < 0) | (i >= n) | (j < 0) | (j >= n)
        if bad.any():
            k = int(np.argmax(bad))
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


def build_qubo(n, entries, hardware_faithful: bool = False) -> QuboMatrix:
    """Canonicalise ``(i, j, coeff)`` triplets into a :class:`QuboMatrix`.

    Diagonal entries accumulate into ``diag``. An off-diagonal pair given in
    one orientation only is taken as already symmetric. When both ``(i, j)``
    and ``(j, i)`` appear, the two accumulated values are replaced by their
    arithmetic mean; an odd sum has no integer mean and is rejected rather
    than rounded. Coefficients must be integers (``bool`` and floats are
    rejected); zero off-diagonals are dropped. A summed coefficient outside
    ``int64`` is a ``ValueError``, never a wrapped value.

    ``entries`` is an iterable of triplets or an ``(m, 3)`` signed-integer
    array; the sums are taken per pair with numpy, in ``int64`` when no sum
    can leave it and in Python ints otherwise.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"variable count must be non-negative, got {n}")
    i, j, c = _triplets(n, entries)
    on = i == j
    io, jo = i[~on], j[~on]
    # Pair (lo, hi) of every off-diagonal entry, packed into one sortable key.
    keys, inv = np.unique(np.minimum(io, jo) * n + np.maximum(io, jo), return_inverse=True)
    if c.dtype == np.int64 and c.size:
        # |sum| <= multiplicity * max|coeff|: within int64, int64 is exact.
        mult = max(np.bincount(inv, minlength=1).max(), np.bincount(i[on], minlength=1).max())
        if int(mult) * max(-int(c.min()), int(c.max())) > _INT64.max:
            c = c.astype(object)

    diag = np.full(n, 0, dtype=c.dtype)
    np.add.at(diag, i[on], c[on])
    diag = _int64_array(diag, lambda k: f"diagonal entry {k}")

    total = np.full(keys.size, 0, dtype=c.dtype)
    np.add.at(total, inv, c[~on])
    # A pair given in both orientations takes the mean of the two sums.
    upper = np.zeros(keys.size, dtype=bool)
    upper[inv[io < jo]] = True
    lower = np.zeros(keys.size, dtype=bool)
    lower[inv[io > jo]] = True
    both = upper & lower
    odd = both & (total % 2 != 0)
    if odd.any():
        k = int(np.argmax(odd))
        raise ValueError(
            f"entries for pair {_pair(keys[k], n)} sum to {total[k]}; "
            "the symmetric mean is not an integer"
        )
    qs = np.where(both, total // 2, total)
    nz = qs != 0
    keys, qs = keys[nz], qs[nz]

    if hardware_faithful:
        over = np.abs(qs) > HW_WEIGHT_LIMIT
        if over.any():
            k = int(np.argmax(over))
            i, j = _pair(keys[k], n)
            raise ValueError(
                f"|q_{i}{j}| = {abs(qs[k])} exceeds the 8-bit "
                f"weight limit {HW_WEIGHT_LIMIT}"
            )

    off_i = keys // max(n, 1)
    off_j = keys - off_i * n
    off_q = _int64_array(qs, lambda k: f"entry for pair {_pair(keys[k], n)}")

    # Both-orientation adjacency, grouped by row, neighbours ordered by column.
    rows = np.concatenate([off_i, off_j])
    cols = np.concatenate([off_j, off_i])
    qs = np.concatenate([off_q, off_q])
    order = np.lexsort((cols, rows))
    counts = np.bincount(rows, minlength=n)
    adj_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=adj_ptr[1:])
    return QuboMatrix(
        n=n,
        diag=diag,
        off_i=off_i,
        off_j=off_j,
        off_q=off_q,
        adj_ptr=adj_ptr,
        adj_j=cols[order],
        adj_q=qs[order],
        hardware_faithful=hardware_faithful,
    )


def _pair(key, n: int) -> tuple[int, int]:
    return divmod(int(key), n)


def as_assignment(x, n: int) -> np.ndarray:
    """Validate and return ``x`` as an ``int8`` vector of ``n`` bits."""
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValueError(f"assignment must have length {n}, got shape {arr.shape}")
    if arr.dtype != np.int8:
        arr = arr.astype(np.int8)
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("assignment entries must be 0 or 1")
    return arr


def evaluate_cost(q: QuboMatrix, x) -> int:
    """Exact cost ``x^T Q x`` as a Python integer.

    Computed straight from the stored triplets (each off-diagonal counted for
    both orientations), independent of the local-field machinery.
    """
    x = as_assignment(x, q.n)
    xi = x.astype(np.int64)
    quad = int(q.off_q @ (xi[q.off_i] * xi[q.off_j])) if q.off_q.size else 0
    return int(q.diag @ xi) + 2 * quad


def local_fields(q: QuboMatrix, x) -> np.ndarray:
    """Local fields ``z_i = sum_{j != i} q_ij x_j`` as an ``int64`` array."""
    x = as_assignment(x, q.n)
    xi = x.astype(np.int64)
    z = np.zeros(q.n, dtype=np.int64)
    if q.off_q.size:
        np.add.at(z, q.off_i, q.off_q * xi[q.off_j])
        np.add.at(z, q.off_j, q.off_q * xi[q.off_i])
    return z


def initial_state(q: QuboMatrix, seed: int, init) -> tuple[np.ndarray, np.ndarray]:
    """Start assignment ``x`` of a solver run and its local fields ``z``.

    ``init`` is ``"random"`` (one fair bit per variable from the seed's own
    stream, so all solvers given one seed start alike), ``"zeros"``, or an
    explicit 0/1 vector, which is copied.
    """
    if isinstance(init, str):
        if init == "zeros":
            x = np.zeros(q.n, dtype=np.int8)
        elif init == "random":
            bits = rand24_stream(stream_seed(seed, INIT_STREAM), q.n) >> 23
            x = bits.astype(np.int8)
        else:
            raise ValueError(f"unknown init {init!r}")
    else:
        x = as_assignment(init, q.n).copy()
    return x, local_fields(q, x)


def state_cost(q: QuboMatrix, x: np.ndarray, z: np.ndarray) -> int:
    """Exact cost ``sum_i x_i (z_i + q_ii)`` of ``x`` given its local fields ``z``."""
    return int(np.sum(x * (z + q.diag)))


def max_flip_delta(q: QuboMatrix, z: np.ndarray) -> int:
    """``max_i |q_ii + 2 z_i|``, the largest single-flip cost change; the
    solvers' derived start temperature, which makes early acceptance broad."""
    return int(np.max(np.abs(q.diag + 2 * z)))


def delta_cost(q: QuboMatrix, x, z: np.ndarray, i: int) -> int:
    """Exact cost change of flipping variable ``i``.

    ``+(q_ii + 2 z_i)`` when ``x_i`` is 0, the negation when it is 1. ``z``
    must be the local fields of ``x``.
    """
    i = operator.index(i)
    if not 0 <= i < q.n:
        raise IndexError(f"index {i} out of range for n={q.n}")
    d = int(q.diag[i]) + 2 * int(z[i])
    return d if x[i] == 0 else -d


def flip_deltas(q: QuboMatrix, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Exact cost change of flipping each variable, as an ``int64`` array:
    :func:`delta_cost` for every ``i`` at once."""
    d = q.diag + 2 * z
    return np.where(x == 1, -d, d)


def apply_flips(q: QuboMatrix, x: np.ndarray, z: np.ndarray, flipped) -> None:
    """Toggle the given variables in place and patch ``z`` incrementally.

    Only the neighbours of flipped variables are touched, O(degree) per
    flip; the result is identical to a full ``local_fields`` recompute.
    ``flipped`` must hold distinct indices, in any order. The adjacency rows
    of all flips are gathered into one index vector and scattered into
    ``z`` by a single ``int64`` ``np.add.at``, each row signed by its
    variable's new bit.
    """
    fl = np.asarray(flipped, dtype=np.int64).ravel()
    if fl.size == 0:
        return
    if fl.min() < 0 or fl.max() >= q.n:
        raise IndexError(f"flip index out of range for n={q.n}")
    # A strictly increasing batch (every Network.step commit) is distinct
    # without the sort inside np.unique.
    if fl.size > 1 and not (fl[1:] > fl[:-1]).all() and np.unique(fl).size != fl.size:
        raise ValueError("flipped indices must be distinct")
    x[fl] ^= 1
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
    sign = np.repeat(2 * x[fl].astype(np.int64) - 1, cnt)
    np.add.at(z, q.adj_j[pos], q.adj_q[pos] * sign)


def flip_one(q: QuboMatrix, x: np.ndarray, z: np.ndarray, i: int) -> None:
    """Toggle variable ``i`` in place and patch ``z`` over its adjacency row.

    The unchecked single-flip kernel of the sequential annealer: ``i`` must
    be a valid index. Same result as ``apply_flips(q, x, z, [i])`` at a
    tenth of the cost.
    """
    x[i] ^= 1
    lo, hi = int(q.adj_ptr[i]), int(q.adj_ptr[i + 1])
    if lo == hi:
        return
    if x[i]:
        z[q.adj_j[lo:hi]] += q.adj_q[lo:hi]
    else:
        z[q.adj_j[lo:hi]] -= q.adj_q[lo:hi]


def save_qubo(q: QuboMatrix, path) -> None:
    """Write the instance-file form: ``qubo <n> <nnz>`` then ``i j coeff`` lines.

    Non-zero diagonal entries come first (ascending index, written as
    ``i i coeff``), then the off-diagonal triplets in sorted order, so equal
    problems serialise byte-identically.
    """
    diag_idx = np.nonzero(q.diag)[0]
    nnz = diag_idx.size + q.off_q.size
    with open(path, "w") as f:
        f.write(f"qubo {q.n} {nnz}\n")
        for i in diag_idx.tolist():
            f.write(f"{i} {i} {int(q.diag[i])}\n")
        for i, j, v in zip(q.off_i.tolist(), q.off_j.tolist(), q.off_q.tolist()):
            f.write(f"{i} {j} {v}\n")


def load_qubo(path, hardware_faithful: bool = False) -> QuboMatrix:
    """Parse the instance-file format written by :func:`save_qubo`.

    Lines starting with ``#`` and blank lines are ignored. Coefficients must
    be exact integers. Raises ``ValueError`` on any malformed content.
    """
    entries = []
    n = None
    nnz = None
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if n is None:
                if len(parts) != 3 or parts[0] != "qubo":
                    raise ValueError(
                        f"{path}:{lineno}: expected header 'qubo <n> <nnz>'"
                    )
                try:
                    n, nnz = int(parts[1]), int(parts[2])
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: header counts must be integers"
                    ) from None
                if n < 0 or nnz < 0:
                    raise ValueError(
                        f"{path}:{lineno}: header counts must be non-negative, "
                        f"got n={n}, nnz={nnz}"
                    )
                continue
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'i j coeff'")
            try:
                i, j, v = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: coefficients must be exact integers"
                ) from None
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"{path}:{lineno}: index out of range for n={n}")
            entries.append((i, j, v))
    if n is None:
        raise ValueError(f"{path}: missing 'qubo' header")
    if len(entries) != nnz:
        raise ValueError(
            f"{path}: header promises {nnz} entries, found {len(entries)}"
        )
    # What is left is whole-file: pair sums, their symmetric means, limits.
    try:
        return build_qubo(n, entries, hardware_faithful=hardware_faithful)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
