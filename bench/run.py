"""Run one nilj benchmark workload and print its metrics.

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # catalog, separation, census

The package is pure Python and runs from ``src/`` of the same checkout; there
is nothing to build.  Everything runs in this one process on one thread.

A run imports the package afresh and builds the seed's inputs several times
(``setup_s`` is the median), then runs whole passes over the items until the next pass
would end after ``--seconds``; there is always at least one pass.  Every pass
starts with all ``nilj`` lru caches cleared, as a fresh ``nilj report`` does.
Each item's record is compared with ``bench/reference.json``; any difference
makes the run incorrect and the exit code 1.  Times are reported at the
reference speed of ``speed.SpeedClock`` (the host's speed swings by +-30 %);
the wall time is printed beside them.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` a traced pass and then an untraced one run, the last line
carries the per-layer metrics, and the spans are written to
``.bench_out/trace-<workload>-seed<seed>.npz``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import workloads  # noqa: E402  (imports nilj and numpy)
except ImportError as exc:
    sys.exit(f"bench: cannot import the nilj package from {ROOT / 'src'}: {exc}")
if Path(workloads.catalog.__file__).resolve().parent != ROOT / "src" / "nilj":
    sys.exit(f"bench: nilj was imported from {workloads.catalog.__file__}, not from {ROOT / 'src'}")

import metrics  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

FIRST_IMPORT_S = time.perf_counter() - _START
CLOCK = speed.SpeedClock()

SETUP_REPEATS = 9
REFERENCE = BENCH / "reference.json"
OUT_DIR = ROOT / ".bench_out"
NOT_WRAPPED = (
    "Field arithmetic is deliberately not wrapped (a span per add/mul would swamp the "
    "numbers); its cost appears as self time of linalg, algebra and the other callers."
)


def nilj_caches():
    """Every lru cache of the package, collected before any wrapper is installed."""
    caches = []
    for name, mod in sorted(sys.modules.items()):
        if name.startswith("nilj"):
            caches += [v for v in vars(mod).values() if hasattr(v, "cache_clear") and v not in caches]
    return caches


CACHES = nilj_caches()
H2 = workloads.cohomology.h2  # the cache itself; tracing wraps the module attribute


def clear_caches():
    for c in CACHES:
        c.cache_clear()


@dataclass
class Pass:
    latencies: dict = field(default_factory=dict)  # item key -> seconds at reference speed
    raw: dict = field(default_factory=dict)  # item key -> wall seconds, probes excluded
    records: dict = field(default_factory=dict)  # item key -> record
    failed: int = 0
    wrong: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.latencies.values())


def run_pass(wl, items, reference, clock, tracer=None, rerun=True) -> Pass:
    """One run of every item; with ``rerun``, short items of a workload that asks
    for it are rerun (see ``Workload.repeat_below_s``) and timed by their median run."""
    clear_caches()
    out = Pass()
    spans = {}
    for idx, item in enumerate(items):
        t = time.perf_counter()
        try:
            if tracer is None:
                rec = wl.run(item)
            else:
                with tracer.item_span(idx):
                    rec = wl.run(item)
        except Exception:  # an item that raises is counted as failed; the run goes on
            out.failed += 1
            print(f"item {item.key} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        runs = spans[item.key] = [(t, time.perf_counter())]
        rec = json.loads(json.dumps(rec))
        out.records[item.key] = rec
        if rec != reference.get(item.key):
            out.wrong.append((item.key, rec, reference.get(item.key)))
        while rerun and len(runs) < workloads.REPEATS and \
                sum(b - a for a, b in runs) < wl.repeat_below_s:
            clear_caches()
            t = time.perf_counter()
            rerun = json.loads(json.dumps(wl.run(item, len(runs))))
            runs.append((t, time.perf_counter()))
            if rerun != rec:
                out.wrong.append((item.key, rerun, reference.get(item.key)))
    time.sleep(2 * speed.PERIOD_S)  # let the probe after the last item land
    for key, runs in spans.items():
        out.raw[key] = statistics.median(b - a for a, b in runs)
        out.latencies[key] = statistics.median(clock.reference_seconds(a, b) for a, b in runs)
    return out


def fresh_import():
    """Import the package again from its files (numpy stays loaded); the
    benchmark keeps using the modules it imported first."""
    ours = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "nilj"}
    for k in ours:
        del sys.modules[k]
    try:
        importlib.import_module("nilj.reports")
    finally:
        for k in [k for k in sys.modules if k.split(".")[0] == "nilj"]:
            del sys.modules[k]
        sys.modules.update(ours)
        gc.collect()  # the discarded copy would otherwise stay in peak_rss_mb


def setup(wl, seed, clock):
    """setup_s: the median of SETUP_REPEATS fresh package imports, each followed
    by building the seed's inputs."""
    spans = []
    for _ in range(SETUP_REPEATS):
        clear_caches()
        t = time.perf_counter()
        fresh_import()
        items = wl.build(seed)
        spans.append((t, time.perf_counter()))
    time.sleep(2 * speed.PERIOD_S)  # let the probe after the last build land
    return items, statistics.median(clock.reference_seconds(a, b) for a, b in spans)


def end_to_end(passes, setup_s):
    per_item = {}
    for p in passes:
        for key, s in p.latencies.items():
            per_item.setdefault(key, []).append(s)
    done = sum(len(p.latencies) for p in passes)
    lat, pct = metrics.latency_metrics([statistics.median(v) for v in per_item.values()])
    m = {
        "setup_s": setup_s,
        "items_per_s": done / sum(p.seconds for p in passes),
        **lat,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return m, pct, len(per_item)


def useful_ratio(items, records):
    """Share of the searches run whose two F_p fingerprints agree (a mismatch
    makes the search provably empty).  Computed outside any span."""
    fingerprints = {}

    def fp(label, A, p):
        if (label, p) not in fingerprints:
            fingerprints[label, p] = workloads.algebra.invariant_vector(workloads.algebra.reduce_mod(A, p))
        return fingerprints[label, p]

    useful = searched = 0
    for item in items:
        rec = records.get(item.key, {})
        if "searched" not in rec and "fields" not in rec:
            continue
        for F in workloads.SEARCH_FIELDS:
            searched += 1
            useful += fp(item.l1, item.A1, F.p) == fp(item.l2, item.A2, F.p)
    return useful / searched if searched else 0.0


def traced_run(wl, seed, reference, clock):
    """A traced pass, then an untraced one, with the speed probes off (they would
    land inside spans).  The traced pass runs on a cold interpreter, as every
    end-to-end pass does; the untraced one is warm and 5-15 % faster for that
    alone, so the overhead ratio overstates the cost of tracing."""
    clock.stop()
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        with tracer.span("bench.setup"):
            items = wl.build(seed)
        traced = run_pass(wl, items, reference, clock, tracer, rerun=False)
    finally:
        installed.remove()
    h2_info = H2.cache_info()
    plain = run_pass(wl, items, reference, clock, rerun=False)
    ratio = useful_ratio(items, traced.records) if wl.name == "separation" else 0.0
    table = metrics.SpanTable(*tracer.arrays())
    overhead = sum(traced.raw.values()) / sum(plain.raw.values())
    layer = metrics.per_layer(table, tracer.counts, h2_info, overhead, ratio)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-seed{seed}.npz"
    tracer.save(path)
    return [plain, traced], layer, path, len(tracer.start)


def run_workload(name, seed, seconds, trace):
    wl = workloads.WORKLOADS[name]
    reference = json.loads(REFERENCE.read_text())[name]
    items, setup_s = setup(wl, seed, CLOCK)
    if trace:
        passes, layer, path, spans = traced_run(wl, seed, reference, CLOCK)
    else:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(wl, items, reference, CLOCK))
            if time.perf_counter() - start + sum(passes[-1].raw.values()) > seconds:
                break
    attempted = len(items) * len(passes)
    failed = sum(p.failed for p in passes)
    wrong = [w for p in passes for w in p.wrong]
    for key, got, want in wrong[:10]:
        print(f"WRONG {name} {key}: got {got}, reference {want}")
    print(f"== {name}: seed {seed}, {len(items)} items, {len(passes)} pass(es), "
          f"{attempted} attempted, {failed} failed, failed_share {failed / attempted:.4f}")
    if trace:
        out = layer
        print(f"  tracing overhead: traced pass {sum(passes[1].raw.values()):.2f} s / untraced "
              f"{sum(passes[0].raw.values()):.2f} s = {layer['tracing.overhead']:.3f}")
        print(f"  {spans} spans written to {path.relative_to(ROOT)}")
        print("  self time as a share of item time: " + ", ".join(
            f"{n} {layer[f'{n}.self_share']:.3f}" for n in tracing.LAYERS + ("bench",)))
        print(f"  note: {NOT_WRAPPED}")
        defs = metrics.PER_LAYER
    else:
        out, pct, n = end_to_end(passes, setup_s)
        wall = sum(sum(p.raw.values()) for p in passes)
        print(f"  item_tail_ms is p{pct:.1f} of {n} per-item medians; setup_s is the median of "
              f"{SETUP_REPEATS} fresh nilj imports plus input builds (the first import, with "
              f"numpy and the interpreter's start, took {FIRST_IMPORT_S:.3f} s of wall time)")
        print(f"  times are at reference speed ({speed.REFERENCE_RATE:g} probe steps/s); this run "
              f"probed a median {statistics.median(CLOCK.rates):.0f} steps/s and its items took "
              f"{wall:.2f} s of wall time for {sum(p.seconds for p in passes):.2f} reference s")
        defs = metrics.END_TO_END
    for key, value in out.items():
        moves = f"  (should move: {defs[key][2]})" if trace else ""
        print(f"  {key} = {value:.6g} {defs[key][0]}{moves}")
    return out, defs, attempted, failed, not wrong


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    CLOCK.start()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out, defs, attempted, failed, correct = run_workload(name, args.seed, args.seconds, args.trace)
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in out.items():
            result["metrics"][prefix + key] = {"value": value, "unit": defs[key][0]}
        result["correct"] &= correct
        result["attempted"] += attempted
        result["failed"] += failed
    CLOCK.stop()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
