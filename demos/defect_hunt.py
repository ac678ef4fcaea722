#!/usr/bin/env python3
"""Break the kernel on purpose and watch a law notice.

The checker ships with defect injectors: fault tables that corrupt one
structural constructor wherever it is called, while leaving everything else
intact.  A healthy law suite must fail
under every one of them; here we scramble the fold order of the functor
application and let the composition law catch it, then store the failing
instance and replay it from its file.
"""

import tempfile

from relmonad import textio
from relmonad.checker import CheckConfig, run_single, run_suite

clean = CheckConfig(seed=7, laws=("lift-composition",))
report = run_suite(clean)
print(f"clean run: {sum(o.ok for o in report.outcomes)}/{len(report.outcomes)} pass")

broken = CheckConfig(seed=7, laws=("lift-composition",), inject="t-order-scramble")
report = run_suite(broken)
fails = [o for o in report.outcomes if not o.ok]
print(f"with t-order-scramble: {len(fails)} instances fail")
first = fails[0]
print(f"  witness: {first.law}[{first.index}] seed {first.seed}: {first.witness}")

# store the failing instance; the replay file pins law, index, and config
with tempfile.NamedTemporaryFile("w", suffix=".replay", delete=False) as fh:
    fh.write(textio.write_replay(first.law, first.index, broken))
    path = fh.name
print(f"\nstored to {path}:")
print(open(path).read().rstrip())

law, index, cfg = textio.read_replay(open(path).read())
again = run_single(law, index, cfg)
print(f"replayed: ok={again.ok}, same witness: {again.witness == first.witness}")
