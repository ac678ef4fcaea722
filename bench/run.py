"""relmonad benchmark: one workload per invocation, measured in fresh children.

    python3 bench/run.py --workload W --seed N --seconds T --trace {0,1} [--items K]

Workloads (see README.md in this directory for why each was chosen):
  suite          relmonad verify --seed 42 --format machine, all 23 laws
  extend-large   one extension of a one-slot map per item, |El(p)| 20-150

Children (child.py) run one at a time, single-threaded, all at the same seed,
until --seconds have passed and at least MIN_CHILDREN have run.  Each child
pays the import and input generation a user pays and checks every output;
children whose per-item digests disagree fail those items.  Untraced
children time reference slices (calib.py) through their timed phase, and
the end-to-end times are scaled by them to the reference speed, with each
item at its median over the children (see end_to_end).  With --trace 1 one
extra child runs traced and gives the per-layer metrics.  `--items K` shrinks a run: K items per child,
or K instances per law for `suite`.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  A record with the environment, every child and the cost
curve is written under .bench_results/ in the checkout.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import calib

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("suite", "extend-large")
MIN_CHILDREN = 3
MIN_UNTRACED_WITH_TRACE = 2
HARD_LIMIT_S = 170.0  # every run ends within this, children included
CURVE_EDGES = (20, 50, 80, 110, 151)  # |El(p)| buckets of the extend-large cost curve


class BenchError(Exception):
    pass


def tail_quantile(n: int) -> float:
    """0.95, or the highest quantile with at least 10 of n samples beyond it."""
    return max(0.5, min(0.95, (n - 10) / n)) if n else 0.5


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_child(workload, seed, items, trace, deadline):
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--workload", workload,
           "--seed", str(seed), "--items", str(items)] + (["--trace"] if trace else [])
    env = dict(os.environ)
    env.pop("RELMONAD_BUDGET", None)  # measure the default element budget
    load = os.getloadavg()
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a child could start")
    try:
        proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} child ran past the {HARD_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["loadavg_before"] = load
    return record


def run_children(args):
    """Untraced children until --seconds pass; with --trace 1, one traced child
    after the first untraced one."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    want = MIN_UNTRACED_WITH_TRACE if args.trace else MIN_CHILDREN
    records, durations = [], []
    while True:
        if args.trace and len(records) == 1:
            records.append(run_child(args.workload, args.seed, args.items, True, deadline))
            continue
        if len(durations) >= want:
            typical = statistics.median(durations)
            if time.monotonic() - start + typical > args.seconds:
                return records
        t0 = time.monotonic()
        records.append(run_child(args.workload, args.seed, args.items, False, deadline))
        durations.append(time.monotonic() - t0)


def disagreements(records):
    """Items whose digest differs from the first child's, per later child."""
    ref = records[0]["item_digests"]
    bad = 0
    for r in records[1:]:
        mine = r["item_digests"]
        bad += sum(1 for a, b in zip(ref, mine) if a != b) + abs(len(ref) - len(mine))
    return bad


def scale(record, key="calib_s") -> float:
    """How much faster than the reference speed the child ran: the nominal
    slice time over its median slice time (see calib.py)."""
    return calib.NOMINAL_SLICE_S / statistics.median(record[key])


def item_latencies(untraced):
    """Per item, the median over the children of its latency at the reference
    speed: each child's latencies scaled by that child's reference slices."""
    scaled = [[t * scale(r) for t in r["latencies_s"]] for r in untraced]
    return [statistics.median(repeats) for repeats in zip(*scaled)]


def end_to_end(untraced):
    """The end-to-end figures of a run, from its untraced children, in
    seconds at the reference speed.

    wall_s is the sum of the item latencies plus the median time the timed
    phase spends outside items (the closed loop, or the CLI around the law
    instances).
    """
    latencies = item_latencies(untraced)
    outside = statistics.median((r["wall_s"] - sum(r["latencies_s"])) * scale(r)
                                for r in untraced)
    wall_s = sum(latencies) + outside
    q = tail_quantile(len(latencies))
    return {
        "wall_s": wall_s,
        "items_per_s": len(latencies) / wall_s,
        "item_p50_ms": 1000 * statistics.median(latencies),
        "item_p95_ms": 1000 * quantile(latencies, q),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "setup_s": statistics.median(r["setup_s"] * scale(r, "setup_calib_s")
                                     for r in untraced),
    }, len(latencies), q


def cost_curve(untraced, traced):
    """extend-large items grouped by |El(p)|: latency, El size, colimit elements."""
    sizes = traced["sizes"]
    counts = traced["item_counts"]
    latencies = item_latencies(untraced)
    rows = []
    for lo, hi in zip(CURVE_EDGES, CURVE_EDGES[1:]):
        ids = [i for i, s in enumerate(sizes) if lo <= s < hi]
        if not ids:
            continue
        per_item = lambda key: statistics.mean(counts.get(str(i), {}).get(key, 0) for i in ids)
        rows.append({
            "el_objects": f"{lo}-{hi - 1}",
            "items": len(ids),
            "item_p50_ms": 1000 * statistics.median(latencies[i] for i in ids),
            "el_objects_per_item": per_item("presheaf.elements.objects"),
            "el_arrows_per_item": per_item("presheaf.elements.arrows"),
            "colimit_elements_per_item": per_item("presheaf.colimit.elements"),
        })
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "relmonad", "__init__.py")):
        print(f"relmonad sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".bench_results"), exist_ok=True)

    try:
        records = run_children(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    untraced = [r for r in records if not r["traced"]]
    traced = next((r for r in records if r["traced"]), None)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records) + disagreements(records)
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "loadavg_before": [r["loadavg_before"] for r in records],
        "digests": sorted({r["digest"] for r in records}),
    }
    print("env " + json.dumps(env))
    for r in records:
        for err in r["errors"]:
            print(f"error {err}")

    e2e, lat_n, q = end_to_end(untraced)
    k = len(untraced)
    raw_wall = statistics.median(r["wall_s"] for r in untraced)
    slice_ms = 1000 * statistics.median(t for r in untraced for t in r["calib_s"])
    print(f"reference slice {slice_ms:.3f} ms median, nominal {1000 * calib.NOMINAL_SLICE_S:.3f} ms; "
          f"times below are at the nominal speed, each item the median of {k} children")
    print(f"wall_s {e2e['wall_s']:.4f} s (unscaled: {raw_wall:.4f} s, median of {k} children)")
    print(f"items_per_s {e2e['items_per_s']:.4f} 1/s ({lat_n} items)")
    print(f"item_p50_ms {e2e['item_p50_ms']:.4f} ms (n={lat_n} items)")
    note = "" if q == 0.95 else f"; p{100 * q:.1f}: fewer than 10 samples lie beyond p95"
    print(f"item_p95_ms {e2e['item_p95_ms']:.4f} ms (n={lat_n} items{note})")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.4f} MB (median of {k} children)")
    print(f"setup_s {e2e['setup_s']:.4f} s (median of {k} children)")
    print(f"fail_frac {failed / attempted:.4f} ratio ({failed} of {attempted} failed)")

    out = {"env": env, "end_to_end": e2e, "children": records}
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = traced["wall_s"] / raw_wall
        print(f"trace.overhead_ratio {layers['trace.overhead_ratio']:.4f} ratio "
              f"(traced wall_s {traced['wall_s']:.4f} s over unscaled untraced {raw_wall:.4f} s)")
        for name in sorted(layers):
            if name != "trace.overhead_ratio":
                print(f"{name} {layers[name]} {units.get(name, '?')}")
        if args.workload == "extend-large":
            out["cost_curve"] = cost_curve(untraced, traced)
            print("cost curve by |El(p)|: items, item p50 ms, El objects, El arrows, colimit elements")
            for row in out["cost_curve"]:
                print("  {el_objects:>7} {items:4d} {item_p50_ms:8.2f} {el_objects_per_item:8.1f} "
                      "{el_arrows_per_item:9.1f} {colimit_elements_per_item:10.1f}".format(**row))
    metrics = layers if args.trace else e2e
    if set(units) != set(metrics):
        print(f"metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    out_path = os.path.join(ROOT, ".bench_results",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
