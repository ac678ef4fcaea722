"""A fixed pure-Python reference workload that gauges the CPU's speed right now.

On a shared host the same child runs 20-60% slower in some spells than in
others, and a spell can outlast a whole run.  So every untraced child times
slices of this workload between its own items, and run.py scales the child's
times by how fast the slices ran: the end-to-end times are seconds at the
reference speed, the speed at which one slice takes NOMINAL_SLICE_S.

The slice does what relmonad's hot paths do -- tuple hashing, dict and list
traffic, small method calls, a union-find, sorting -- and uses nothing from
`relmonad`, so a change to the program never changes the reference.

    python3 bench/calib.py        # prints the median slice time here
"""

import gc
import statistics
import time

NOMINAL_SLICE_S = 0.008
N_NODES = 4500
# (classes, largest class) that every slice must compute
EXPECTED = (49, 2780)


class _Node:
    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def weight(self):
        return self.key[0] + 3 * self.key[1] + 7 * self.key[2]


def _slice() -> tuple:
    nodes = [_Node((i % 7, i // 7 % 11, (i * 31) % 13)) for i in range(N_NODES)]
    parent = {}
    for n in nodes:
        parent.setdefault(n.key, n.key)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, n in enumerate(nodes):
        other = nodes[(i * 17 + 5) % N_NODES]
        if (n.weight() + other.weight()) % 3:
            continue
        a, b = find(n.key), find(other.key)
        if a != b:
            lo, hi = sorted((a, b))
            parent[hi] = lo
    classes = {}
    for n in nodes:
        classes.setdefault(find(n.key), []).append(n)
    sizes = sorted(len(members) for members in classes.values())
    return len(sizes), sizes[-1]


def one_slice() -> float:
    """Time of one slice, in seconds, with the cyclic collector held off so
    that the program's heap does not change the slice."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        got = _slice()
        took = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if got != EXPECTED:
        raise RuntimeError(f"calibration slice computed {got}, not {EXPECTED}")
    return took


def slices(n: int) -> list:
    """Times of n slices, in seconds."""
    return [one_slice() for _ in range(n)]


class Gauge:
    """Reference slices spread through a phase of a child.

    `tick()` is called between items; it runs one slice once `every_s`
    seconds have passed since the last.  `spent_s` is the time the slices
    took, which the caller takes out of the phase's wall time.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.times = []
        self.spent_s = 0.0
        self.restart()

    def restart(self):
        """The next slice is due every_s seconds from now."""
        self._due = time.perf_counter() + self.every_s

    def tick(self):
        now = time.perf_counter()
        if now < self._due:
            return
        self.times.append(one_slice())
        done = time.perf_counter()
        self.spent_s += done - now
        self._due = done + self.every_s


if __name__ == "__main__":
    times = slices(100)
    print(f"median slice {1000 * statistics.median(times):.3f} ms "
          f"(nominal {1000 * NOMINAL_SLICE_S:.3f} ms)")
