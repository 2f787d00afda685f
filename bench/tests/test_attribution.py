"""Attribution on a toy call chain with fabricated source files."""

import time

from bench.attribution import HARNESS, PhaseProfiler, attribute, layer_of
from bench.observe import Tracer

SIM_SOURCE = """
import heapq

def sim_work(n, then):
    heap = []
    for i in range(n):
        heapq.heappush(heap, -i)
    for _ in range(n):
        heapq.heappop(heap)
    then(n)
"""

NET_SOURCE = """
def net_work(n):
    total = 0
    for i in range(4 * n):
        total += i * i
    return total
"""


def _load(source, filename):
    namespace = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def test_layer_of_goes_by_package_path():
    assert layer_of("/x/src/repro/sim/kernel.py") == "sim"
    assert layer_of("/x/src/repro/runner/dispatch/backend.py") == "runner"
    assert layer_of("/x/src/repro/__init__.py") == "other"
    assert layer_of(__file__) == HARNESS
    assert layer_of("/usr/lib/python3.11/heapq.py") is None


def test_toy_chain_lands_in_the_right_buckets_and_sums_to_the_wall():
    sim = _load(SIM_SOURCE, "/fake/src/repro/sim/toy.py")
    net = _load(NET_SOURCE, "/fake/src/repro/net/toy.py")
    profiler = PhaseProfiler()
    start = time.perf_counter()
    profiler.switch("main")
    sim["sim_work"](150_000, net["net_work"])
    profiler.switch(None)
    wall = time.perf_counter() - start

    entries = profiler.stats("main")
    rows = attribute(entries)
    # heapq is a C builtin called from the sim frame: charged to sim.
    heap_self = sum(e.inlinetime for e in entries
                    if isinstance(e.code, str) and "heapq" in e.code)
    sim_python = sum(e.inlinetime for e in entries
                     if not isinstance(e.code, str)
                     and e.code.co_filename.endswith("repro/sim/toy.py"))
    assert heap_self > 0
    assert abs(rows["sim"]["self_s"] - (sim_python + heap_self)) < 1e-9
    assert rows["net"]["self_s"] > 0
    assert rows["net"]["calls"] == 1
    assert set(rows) <= {"sim", "net", HARNESS}
    total = sum(row["self_s"] for row in rows.values())
    assert abs(total - wall) <= 0.02 * wall


def test_foreign_chains_are_charged_to_the_package_that_started_them():
    # sorted() (builtin) calls a key function defined in "stdlib" code,
    # which calls another builtin: two foreign levels below the net frame.
    lib = _load("def key(x):\n    return abs(x)\n", "/usr/lib/python3/fake_lib.py")
    net = _load(
        "def net_sort(key):\n    return sorted(range(-50000, 50000), key=key)\n",
        "/fake/src/repro/net/toy2.py",
    )
    profiler = PhaseProfiler()
    profiler.switch("main")
    net["net_sort"](lib["key"])
    profiler.switch(None)
    rows = attribute(profiler.stats("main"))
    foreign = sum(row["self_s"] for name, row in rows.items() if name != "net")
    assert rows["net"]["self_s"] > 10 * foreign


def test_span_self_time_is_duration_minus_children():
    tracer = Tracer()
    with tracer.span("iteration"):
        with tracer.span("point") as point:
            tracer.add("run", 1.0, 3.0)
            tracer.add("run", 4.0, 5.0)
    point.start, point.end = 0.5, 6.0
    own = tracer.self_times()
    assert own["run"] == 3.0
    assert abs(own["point"] - 2.5) < 1e-12
    runs = [s for s in tracer.spans if s.name == "run"]
    assert {s.parent for s in runs} == {point.id}
    assert tracer.total("run") == 3.0
