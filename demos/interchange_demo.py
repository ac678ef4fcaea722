#!/usr/bin/env python3
"""Extending a two-slot map in either order lands in the same place.

A binary map can be extended in slot 0 then slot 1, or the other way
around.  The two results are genuinely different tables, but the kernel
produces an invertible cell between them, and that cell agrees with the
bijection you get by following every element of the double sum into both
results.
"""

import random

from relmonad import interchange, strengthen
from relmonad.fubini import gamma_tables
from relmonad.gen import gen_category, gen_multimap, gen_presheaf

rng = random.Random(21)
a = gen_category(rng, 3, 3)
b = gen_category(rng, 3, 3)
cod = gen_category(rng, 3, 3)
f = gen_multimap(rng, (a, b), cod, 12)
print(f"binary map over {a.name!r} x {b.name!r} into {cod.name!r}")

p = gen_presheaf(rng, a)
q = gen_presheaf(rng, b)
print("arguments have sizes",
      [len(p.at[x]) for x in a.objects], "and", [len(q.at[x]) for x in b.objects])

# both extension orders, evaluated at the same pair
lhs = strengthen(strengthen(f, 0), 1).evaluate((p, q))
rhs = strengthen(strengthen(f, 1), 0).evaluate((p, q))
print("slot 0 first:", [len(lhs.at[y]) for y in cod.objects])
print("slot 1 first:", [len(rhs.at[y]) for y in cod.objects])

# the interchange cell between them, componentwise
cell = interchange(f, 0, 1)
comp = cell.component((p, q))
print("interchange component is",
      "a bijection" if comp.is_bijection() else "NOT a bijection")

# independent check: route every element of the double sum into both
# results and match up the classes it lands in
tables = tuple(gamma_tables(f, 0, 1, (p, q)))
print("matches the element-routed double-sum bijection:",
      tuple(comp.components) == tables)
