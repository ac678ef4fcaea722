"""One benchmark child: set up one workload, run it once, print a JSON record.

run.py starts each child in a fresh interpreter, so every child pays the
import and input generation a user pays; only the timed phase is counted
in `wall_s`.

    python3 bench/child.py --workload W --seed S --t0 T [--trace] [--items N]

A traced child writes its spans to .bench_results/ in the checkout.
`--t0` is the parent's `time.monotonic()` just before the child was
started (the monotonic clock is system-wide on Linux), so `setup_s`
includes interpreter start-up.

An untraced child also times reference slices (calib.py), one between
items every CALIB_EVERY_S seconds and CALIB_SLICES after each phase:
set-up, and the timed phase.  The slices' own time is taken out of
`setup_s` and `wall_s`; run.py scales each phase's time by its slices.
"""

import argparse
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CALIB_SLICES = 10  # reference slices right after set-up and after the timed phase
CALIB_EVERY_S = 0.1  # and one between items every this many seconds


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("suite", "extend-large"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--items", type=int, default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import calib
    import workloads
    from relmonad.checker import LAW_ORDER

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        tracer.begin()

    # The traced child is not scaled, and its trace holds no reference slices.
    setup_gauge = None if args.trace else calib.Gauge(CALIB_EVERY_S)
    gauge = None if args.trace else calib.Gauge(CALIB_EVERY_S)
    items = []
    if args.workload == "suite":
        timed = lambda: workloads.run_suite(args.items, tracer, gauge)
    else:
        items = workloads.extend_inputs(args.seed, args.items, setup_gauge)
        timed = lambda: workloads.run_items(items, workloads.extend_item, tracer, gauge)
    setup_s = time.monotonic() - args.t0
    if setup_gauge is not None:
        setup_s -= setup_gauge.spent_s
        setup_gauge.times += calib.slices(CALIB_SLICES)
        gauge.restart()
    t0 = time.perf_counter()
    result = timed()
    wall_s = time.perf_counter() - t0
    if gauge is not None:
        wall_s -= gauge.spent_s
        gauge.times += calib.slices(CALIB_SLICES)
    sizes = [workloads.size(p) for _, _, p in items]  # |El(p)|, for the cost curve

    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        traced=args.trace,
        setup_s=setup_s,
        wall_s=wall_s,
        setup_calib_s=setup_gauge.times if setup_gauge else [],
        calib_s=gauge.times if gauge else [],
        attempted=len(result["item_digests"]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        sizes=sizes,
    )
    if tracer is not None:
        tracer.finish()
        record["layers"] = tracer.metrics(LAW_ORDER)
        record["item_counts"] = {i: dict(c) for i, c in tracer.item_counts.items()}
        tracer.dump(os.path.join(ROOT, ".bench_results",
                                 f"{args.workload}-seed{args.seed}.spans.json.gz"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
