"""Empirical check of the integer Metropolis test against its closed form.

The accept rule never touches floats: a move with uphill delta dC at integer
temperature T passes when dC < T * clz(u) for a fresh 24-bit draw u (plus
the u == 0 escape hatch). That quantises the base-2 Boltzmann factor
2^(-dC/T) to a power of two, never below half of it. This script measures
the accept rate on 10^5 draws per cell and prints it next to the exact
probability, then shows the quantisation bracket.
"""

from nebm import fixed_accept, fixed_accept_probability, rand24_stream

DRAWS = 100_000

# The first DRAWS words of the seed-2024 stream, Rng24(2024).next24() in turn.
draws = rand24_stream(2024, DRAWS).tolist()

print(f"uphill delta vs integer temperature, accept rates over {DRAWS} draws")
print(f"{'dC':>4} {'T=1':>14} {'T=2':>14} {'T=4':>14} {'T=8':>14}")
for dc in (1, 2, 4, 8, 16):
    cells = []
    for t_hat in (1, 2, 4, 8):
        hits = sum(fixed_accept(dc, t_hat, u) for u in draws)
        exact = fixed_accept_probability(dc, t_hat)
        cells.append(f"{hits / DRAWS:.4f}/{float(exact):.4f}")
    print(f"{dc:>4} " + " ".join(f"{c:>14}" for c in cells))
print("(each cell: measured/exact; exact values are dyadic by construction)")

# The quantisation bracket: the integer rule sits between the base-2
# Boltzmann factor and half of it.
print()
print("bracket against 2^(-dC/T):")
for dc, t_hat in ((1, 1), (3, 2), (5, 3), (10, 4)):
    p = float(fixed_accept_probability(dc, t_hat))
    target = float(2.0 ** (-dc / t_hat))
    print(f"  dC={dc:>2} T={t_hat}: target={target:.5f}  "
          f"fixed={p:.5f}  ratio={p / target:.3f} (always in [0.5, 1])")
