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

from .metropolis import RAND_BITS, rand24_stream
from .qubo import QuboMatrix, as_assignment, build_qubo

#: Largest instance the exact oracle accepts.
BRUTE_FORCE_LIMIT = 30

#: Default edge penalty; any value >= 2 preserves the optimum.
DEFAULT_PENALTY = 8

#: Pair draws per block in ``generate_mis_graph``; bounds its working memory.
_PAIR_BLOCK = 1 << 20


class MisGraph:
    """Undirected graph stored as a sorted ``(m, 2)`` edge array, u < v.

    Edges are canonicalised at construction (orientation, order); self-loops
    and duplicates are rejected. ``density`` and ``seed`` are generation
    metadata; graphs loaded from a file carry ``None`` there.
    """

    __slots__ = ("n", "edges", "density", "seed")

    def __init__(self, n, edges, density=None, seed=None):
        n = operator.index(n)
        if n < 1:
            raise ValueError(f"graph needs at least one node, got n={n}")
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if e.size:
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
        self.density = density
        self.seed = seed

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    def __repr__(self) -> str:
        return f"MisGraph(n={self.n}, m={self.m})"


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
    # Pair (i, j) has index row_start[i] + j - i - 1 in lexicographic order.
    # The stream is drawn in blocks and only kept pairs are turned back into
    # (i, j), so memory grows with the edges, not with n^2.
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    pairs = n * (n - 1) // 2
    kept = [np.zeros(0, dtype=np.int64)]
    for start in range(0, pairs, _PAIR_BLOCK):
        draws = rand24_stream(seed, min(_PAIR_BLOCK, pairs - start), start)
        kept.append(np.flatnonzero(draws < threshold) + start)
    p = np.concatenate(kept)
    i = np.searchsorted(row_start, p, side="right") - 1
    edges = np.column_stack([i, p - row_start[i] + i + 1])
    return MisGraph(n, edges, density=density, seed=seed)


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
    nodes = np.arange(g.n, dtype=np.int64)
    entries = np.concatenate([
        np.column_stack([nodes, nodes, np.full(g.n, -1, dtype=np.int64)]),
        np.column_stack([g.edges, np.full(g.m, penalty, dtype=np.int64)]),
    ])
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


def mis_bks_cost(g: MisGraph) -> int:
    """Exact optimum cost of the encoding: ``-(maximum independent set size)``."""
    size, _ = brute_force_mis(g)
    return -size


def save_graph(g: MisGraph, path) -> None:
    """Write ``graph <n> <m>`` then one ``u v`` line per edge, sorted."""
    with open(path, "w") as f:
        f.write(f"graph {g.n} {g.m}\n")
        for u, v in g.edges.tolist():
            f.write(f"{u} {v}\n")


def load_graph(path) -> MisGraph:
    """Parse the format written by :func:`save_graph`; ``#`` starts a comment."""
    n = None
    m = None
    edges = {}  # (lo, hi) -> the line that gave the edge
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if n is None:
                if len(parts) != 3 or parts[0] != "graph":
                    raise ValueError(
                        f"{path}:{lineno}: expected header 'graph <n> <m>'"
                    )
                try:
                    n, m = int(parts[1]), int(parts[2])
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: header counts must be integers"
                    ) from None
                if n < 1 or m < 0:
                    raise ValueError(
                        f"{path}:{lineno}: need n >= 1 nodes and m >= 0 edges, "
                        f"got n={n}, m={m}"
                    )
                continue
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'u v'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: vertex ids must be integers"
                ) from None
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"{path}:{lineno}: vertex out of range for n={n}")
            if u == v:
                raise ValueError(f"{path}:{lineno}: self-loop on vertex {u}")
            edge = (min(u, v), max(u, v))
            if edge in edges:
                raise ValueError(
                    f"{path}:{lineno}: edge {u} {v} repeats line {edges[edge]}"
                )
            edges[edge] = lineno
    if n is None:
        raise ValueError(f"{path}: missing 'graph' header")
    if len(edges) != m:
        raise ValueError(f"{path}: header promises {m} edges, found {len(edges)}")
    return MisGraph(n, np.asarray(list(edges), dtype=np.int64).reshape(-1, 2))


def decode_mis(g: MisGraph, x) -> tuple[int, bool, int]:
    """Summarise an assignment as (set size, feasible, violated edges)."""
    x = as_assignment(x, g.n)
    feasible, violations = check_independent(g, x)
    return int(np.sum(x)), feasible, violations


__all__ = [
    "BRUTE_FORCE_LIMIT",
    "DEFAULT_PENALTY",
    "MisGraph",
    "brute_force_mis",
    "check_independent",
    "decode_mis",
    "generate_mis_graph",
    "load_graph",
    "mis_bks_cost",
    "mis_to_qubo",
    "save_graph",
]
