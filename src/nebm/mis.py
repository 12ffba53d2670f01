"""Maximum-independent-set benchmark instances and their QUBO encoding.

Instances are Erdos-Renyi graphs G(n, p): every unordered pair becomes an
edge independently with probability ``density``, decided by one 24-bit draw
per pair from the instance seed, so a graph is a pure function of
``(n, density, seed)``. The encoding puts ``-1`` on every diagonal and the
penalty ``lam >= 2`` on every edge; with symmetric storage a violated edge
adds ``2 * lam`` to the cost, which keeps every minimum-cost assignment an
independent set and makes the optimum ``-(max independent set size)``.

``brute_force_mis`` is the exact small-instance oracle: bitmask
branch-and-bound, guarded to ``n <= 30``.
"""

from __future__ import annotations

import operator

import numpy as np

from .metropolis import GOLDEN, MASK64, RAND_BITS, _G, _mix64_high, _seed64
from .qubo import QuboMatrix, _integers, _LineReader, _write_lines, as_assignment, build_qubo

#: Largest instance the exact oracle accepts.
BRUTE_FORCE_LIMIT = 30

#: Default edge penalty; any value >= 2 preserves the optimum.
DEFAULT_PENALTY = 8

#: Pair draws per block in ``generate_mis_graph``: 2^16 draws are 512 KB of
#: ``uint64``, small enough to stay in a core's cache while a block is mixed.
_PAIR_BLOCK = 1 << 16


class MisGraph:
    """Undirected graph stored as a sorted ``(m, 2)`` edge array, u < v.

    Edges are canonicalised at construction (orientation, order); self-loops
    and duplicates are rejected. Input that is already canonical is checked
    in O(m) and kept in that order.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n, edges):
        n = operator.index(n)
        if n < 1:
            raise ValueError(f"graph needs at least one node, got n={n}")
        e = np.array(edges, dtype=np.int64).reshape(-1, 2)
        if e.size and not _canonical(n, e):
            u, v = e[:, 0], e[:, 1]
            if np.any(u == v):
                raise ValueError("self-loops are not allowed")
            # canonical orientation u < v, then lexicographic order
            e = np.column_stack([np.minimum(u, v), np.maximum(u, v)])
            if np.any(e[:, 0] < 0) or np.any(e[:, 1] >= n):
                raise ValueError(f"edge endpoint out of range for n={n}")
            e = e[np.lexsort((e[:, 1], e[:, 0]))]
            dup = (e[1:] == e[:-1]).all(axis=1)
            if dup.any():
                raise ValueError("duplicate edges are not allowed")
        self.n = n
        self.edges = e

    @classmethod
    def _adopt(cls, n: int, edges: np.ndarray) -> MisGraph:
        """The graph on ``edges``, kept without a copy or a check: a fresh
        canonical ``(m, 2)`` ``int64`` array that no caller holds."""
        g = cls.__new__(cls)
        g.n = n
        g.edges = edges
        return g

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    def __repr__(self) -> str:
        return f"MisGraph(n={self.n}, m={self.m})"


def _canonical(n: int, e: np.ndarray) -> bool:
    """Whether ``e`` is already in range, oriented ``u < v`` and strictly
    increasing in lexicographic order, checked in O(m): then the sort and
    the duplicate scan of :class:`MisGraph` would leave it as it is."""
    u, v = e[:, 0], e[:, 1]
    if not ((u < v).all() and u.min() >= 0 and v.max() < n):
        return False
    key = u * n + v
    return bool((key[1:] > key[:-1]).all())


def generate_mis_graph(n: int, density: float, seed: int) -> MisGraph:
    """Random graph over pairs in lexicographic order, one draw per pair.

    A pair becomes an edge iff its draw falls below
    ``floor(density * 2^24 + 0.5)``, so the effective edge probability is
    within ``2^-25`` of the requested density.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    threshold = int(density * (1 << RAND_BITS) + 0.5)
    seed64 = _seed64(seed)
    # Pair (i, j) has index row_start[i] + j - i - 1 in lexicographic order,
    # and row_start[n] is the pair count. The stream is drawn in blocks and
    # only kept pairs are turned back into (i, j), so memory grows with the
    # edges, not with n^2.
    rows = np.arange(n + 1, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    pairs = n * (n - 1) // 2
    kept = [np.zeros(0, dtype=np.int64)]
    if threshold and pairs:
        # Pair k takes draw k of Rng24(seed): the top 24 bits of the mixed
        # counter state seed + (k + 1) * GOLDEN, below threshold iff the
        # whole word is at most limit (2^64 - 1 at density 1). A block's
        # states are its first state plus a multiple of GOLDEN formed once.
        limit = np.uint64((threshold << (64 - RAND_BITS)) - 1)
        block = min(_PAIR_BLOCK, pairs)
        steps, z = np.empty((2, block), dtype=np.uint64)
        np.multiply(np.arange(1, block + 1, dtype=np.uint64), _G, out=steps)
        for start in range(0, pairs, block):
            w = z[: min(block, pairs - start)]
            np.add(steps[: w.size], np.uint64((seed64 + start * GOLDEN) & MASK64), out=w)
            p = np.flatnonzero(_mix64_high(w) <= limit)
            p += start
            kept.append(p)
        # Freed before the edge array is allocated; the view w would keep z.
        del steps, z, w
    # Pair p lies in row u, the last with row_start[u] <= p, at column
    # v = p - (row_start[u] - u - 1). The kept pairs ascend, so row u's run
    # of them starts at searchsorted(p, row_start[u]): n boundary searches
    # and a repeat give every edge its row. p becomes v in place and is
    # freed once copied, so at most one column is held beside the edges.
    p = np.concatenate(kept)
    del kept
    bounds = np.searchsorted(p, row_start)
    runs = bounds[1:] - bounds[:-1]
    rows = rows[:-1]
    p -= np.repeat(row_start[:-1] - rows - 1, runs)
    edges = np.empty((p.size, 2), dtype=np.int64)
    edges[:, 1] = p
    del p
    edges[:, 0] = np.repeat(rows, runs)
    return MisGraph._adopt(n, edges)


def mis_to_qubo(g: MisGraph, penalty: int = DEFAULT_PENALTY) -> QuboMatrix:
    """Encode MIS as a QUBO: ``q_uu = -1``, ``q_uv = penalty`` per edge."""
    try:
        penalty = operator.index(penalty)
    except TypeError:
        raise ValueError(f"penalty must be an integer, got {penalty!r}") from None
    if penalty < 2:
        raise ValueError(f"penalty must be >= 2, got {penalty}")
    if penalty > np.iinfo(np.int64).max:
        raise ValueError(f"penalty must fit in int64, got {penalty}")
    # The diagonal, then the edges: their pair keys are strictly increasing,
    # so build_qubo skips np.unique. Column-major, so that build_qubo reads
    # each of i, j and the coefficient as one contiguous column.
    entries = np.empty((g.n + g.m, 3), dtype=np.int64, order="F")
    entries[:g.n, 0] = entries[:g.n, 1] = np.arange(g.n)
    entries[:g.n, 2] = -1
    entries[g.n:, :2] = g.edges
    entries[g.n:, 2] = penalty
    return build_qubo(g.n, entries)


def check_independent(g: MisGraph, x) -> tuple[bool, int]:
    """Whether the set bits of ``x`` form an independent set, and how many
    edges they violate."""
    x = as_assignment(x, g.n)
    if g.m == 0:
        return True, 0
    both = x[g.edges[:, 0]] & x[g.edges[:, 1]]
    violations = int(np.sum(both))
    return violations == 0, violations


def brute_force_mis(g: MisGraph) -> tuple[int, np.ndarray]:
    """Exact maximum independent set size and one witness, for ``n <= 30``.

    Branch and bound over bitmasks: branch on the highest-degree available
    vertex (exclude it, or include it and drop its neighbourhood), bounding
    by current size plus remaining vertex count.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force capped at n <= {BRUTE_FORCE_LIMIT}, got n={g.n}"
        )
    n = g.n
    adj = [0] * n
    for u, v in g.edges.tolist():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best_size = -1
    best_mask = 0

    def visit(avail: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_mask
        if size + avail.bit_count() <= best_size:
            return
        if avail == 0:
            if size > best_size:
                best_size = size
                best_mask = chosen
            return
        # highest degree within avail, lowest index on ties
        pick, pick_deg = -1, -1
        rest = avail
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            deg = (adj[u] & avail).bit_count()
            if deg > pick_deg:
                pick, pick_deg = u, deg
        bit = 1 << pick
        visit((avail & ~bit) & ~adj[pick], chosen | bit, size + 1)
        visit(avail & ~bit, chosen, size)

    visit((1 << n) - 1, 0, 0)
    witness = np.fromiter(
        ((best_mask >> i) & 1 for i in range(n)), count=n, dtype=np.int8
    )
    return best_size, witness


def save_graph(g: MisGraph, path) -> None:
    """Write ``graph <n> <m>`` then one ``u v`` line per edge, sorted, as UTF-8."""
    _write_lines(path, [f"graph {g.n} {g.m}", *(f"{u} {v}" for u, v in g.edges.tolist())])


def load_graph(path) -> MisGraph:
    """Parse the format written by :func:`save_graph`; ``#`` starts a comment."""
    edges = []
    with _LineReader(path, comments=True) as lines:
        n = lines.header("graph", "edges", min_n=1)
        for line in lines:
            u, v = _integers(line.split(), "u v", "vertex ids")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            edge = (min(u, v), max(u, v))
            lines.once(edge, "edge")
            edges.append(edge)
    return MisGraph(n, edges)


def decode_mis(g: MisGraph, x) -> tuple[int, bool, int]:
    """Summarise an assignment as (set size, feasible, violated edges)."""
    x = as_assignment(x, g.n)
    feasible, violations = check_independent(g, x)
    return int(np.sum(x)), feasible, violations


__all__ = [
    "MisGraph",
    "brute_force_mis",
    "check_independent",
    "decode_mis",
    "generate_mis_graph",
    "load_graph",
    "mis_to_qubo",
    "save_graph",
]
