"""Tests of the benchmark itself (not of nilj).

    python -m pytest -q bench/tests
"""

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

import metrics
import run
import speed
import tracing
import workloads as W

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", ["catalog", "separation", "census"])
def test_same_seed_gives_the_same_items(name):
    build = W.WORKLOADS[name].build
    first, again, other = build(7), build(7), build(8)
    assert [it.key for it in first] == [it.key for it in again]
    assert first == again
    assert first != other


def test_catalog_items_cover_every_sampled_instance_and_the_extras():
    keys = [it.key for it in W.build_catalog(3)]
    assert len(keys) == len(set(keys)) == 90 + 6 * W.EXTRA_BINDINGS_PER_FAMILY
    reference = json.loads(run.REFERENCE.read_text())["catalog"]
    for name in [n for n in W.catalog.names() if W.catalog.get(n).params]:
        for b in W.extra_binding_pool(name):
            assert W.catalog.instance_label(name, b) in reference


def _heavy_group(key):
    """The three groups of heavy F_7 searches named when the benchmark was defined."""
    l1, l2 = key.split(" -- ")
    n1, n2 = l1.split("[")[0], l2.split("[")[0]
    late = {f"J5,{k}" for k in range(12, 17)}
    return (n1 == n2 == "J5,17") or {n1, n2} == {"J5,7", "J5,8"} or {n1, n2} <= late


def test_the_dearest_fifteen_pairs_are_the_named_heavy_searches():
    instances = W.separation_instances()
    heavy = [W.pair_key(instances[i][2], instances[j][2]) for i, j in W.cost_order(instances)[:15]]
    assert all(_heavy_group(k) for k in heavy)
    assert sum(k.startswith("J5,17[") for k in heavy) == 10 and "J5,7 -- J5,8" in heavy


@pytest.mark.parametrize("seed", range(20))
def test_every_separation_sample_holds_three_heavy_searches(seed):
    instances = W.separation_instances()
    order = W.cost_order(instances)
    chosen = W.sample_pairs(seed, instances)
    assert len(chosen) == len(set(chosen)) == 3 + 68 + 231
    assert chosen == sorted(chosen)
    assert len(set(order[:15]) & set(chosen)) == 3
    assert len(set(order[15:100]) & set(chosen)) == 68


@pytest.mark.parametrize("name,r", [("J2,2", 1), ("J3,2", 1), ("J3,4", 1), ("J4,8", 1), ("J3,3", 2)])
def test_census_counts_survive_the_random_basis_change(name, r):
    canonical = W.algebra.reduce_mod(W.catalog.instantiate(name), 5)
    want = W.run_census(W.CensusItem(name, name, r, (canonical,)))
    for seed in (1, 2):
        item = next(it for it in W.build_census(seed) if it.key == f"{name} r={r}")
        assert any(B != canonical for B in item.bases)
        assert all(W.run_census(item, k) == want for k in range(len(item.bases)))
    assert json.loads(run.REFERENCE.read_text())["census"][f"{name} r={r}"] == want


def _hand_built_tree():
    """root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9];  c [11,12] has no parent."""
    t = tracing.Tracer()
    spans = [("x.root", 0, 10, -1), ("linalg.a", 1, 4, 0), ("linalg.a1", 2, 3, 1),
             ("algebra.b", 5, 9, 0), ("algebra.c", 11, 12, -1)]
    for name, start, end, parent in spans:
        t.name.append(t.name_id(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.item.append(0)
    return t


def test_self_time_arithmetic_on_a_hand_built_tree():
    names, nid, start, end, parent, item = _hand_built_tree().arrays()
    assert list(tracing.self_times(start, end, parent)) == [3, 2, 1, 4, 1]
    linalg = np.isin(nid, [names.index("linalg.a"), names.index("linalg.a1")])
    assert tracing.busy_time(start, end, linalg) == 3  # a1 lies inside a
    every = np.ones(len(nid), dtype=bool)
    assert tracing.busy_time(start, end, every) == 11
    table = metrics.SpanTable(names, nid, start, end, parent, item)
    assert table.self_sum(lambda n: tracing.layer_of(n) == "linalg") == 3
    assert table.self_sum(lambda n: tracing.layer_of(n) == "algebra") == 5


def test_tracer_records_parents_and_wrappers_come_off_again():
    t = tracing.Tracer()
    A, B = W.catalog.instantiate("J3,3"), W.catalog.instantiate("J3,4")
    original = W.algebra.invariant_vector
    installed = tracing.install(t)
    try:
        assert W.algebra.invariant_vector is not original
        assert W.isomorphism.invariant_vector is W.algebra.invariant_vector
        with t.item_span(0):
            W.isomorphism.invariant_separation(A, B)
    finally:
        installed.remove()
    assert W.algebra.invariant_vector is original
    assert W.isomorphism.invariant_vector is original
    names, nid, start, end, parent, item = t.arrays()
    spans = [names[i] for i in nid]
    assert spans[:2] == [tracing.ITEM, "isomorphism.invariant_separation"]
    assert spans.count("algebra.invariant_vector") == 2
    assert "linalg.q.Matrix.rref" in spans
    assert parent[1] == 0 and all(parent[2:] >= 1)


def test_a_corrupted_reference_entry_is_reported_wrong():
    wl = W.WORKLOADS["catalog"]
    items = [it for it in wl.build(1) if it.A.dim <= 2]
    reference = json.loads(run.REFERENCE.read_text())["catalog"]
    clock = speed.SpeedClock()
    assert run.run_pass(wl, items, reference, clock).wrong == []
    corrupted = dict(reference)
    corrupted[items[0].key] = dict(reference[items[0].key], h2=99)
    wrong = run.run_pass(wl, items, corrupted, clock).wrong
    assert [w[0] for w in wrong] == [items[0].key]


def test_speed_clock_rescales_by_the_probes_in_and_around_an_interval():
    clock = speed.SpeedClock()
    assert clock.reference_seconds(1.0, 3.0) == 2.0  # no probes yet: wall time
    clock.starts, clock.ends = [1.0, 2.0, 3.0, 4.0], [1.1, 2.1, 3.1, 4.1]
    clock.rates = [100.0, 200.0, 300.0, 400.0]
    ref = speed.REFERENCE_RATE
    assert clock.reference_seconds(1.5, 1.7) == pytest.approx(0.2 * 150 / ref)
    # two probes inside: their time is dropped and their rates count
    assert clock.reference_seconds(1.5, 3.5) == pytest.approx(1.8 * 250 / ref)
    assert clock.reference_seconds(0.0, 0.5) == pytest.approx(0.5 * 100 / ref)
    assert clock.reference_seconds(9.0, 9.5) == pytest.approx(0.5 * 400 / ref)


def test_speed_clock_probes_on_its_timer():
    clock = speed.SpeedClock()
    clock.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 5 * speed.PERIOD_S:
            speed.kernel_step()
    finally:
        clock.stop()
    assert len(clock.rates) >= 3 and all(r > 0 for r in clock.rates)
    assert all(e - s >= speed.SLICE_S for s, e in zip(clock.starts, clock.ends))


def test_short_census_items_are_rerun_and_timed_by_their_median():
    wl = W.WORKLOADS["census"]
    items = [it for it in wl.build(1) if it.key in ("J1,1 r=1", "J2,2 r=1")]
    reference = json.loads(run.REFERENCE.read_text())["census"]
    out = run.run_pass(wl, items, reference, speed.SpeedClock())
    assert out.wrong == [] and set(out.latencies) == {"J1,1 r=1", "J2,2 r=1"}
    assert all(s < wl.repeat_below_s for s in out.raw.values())


def test_tail_percentile_has_ten_items_beyond_it():
    assert metrics.tail_rank(10) is None
    assert metrics.tail_rank(11) == (0, 100 / 11)
    idx, pct = metrics.tail_rank(102)
    assert 102 - 1 - idx == 10 and pct == pytest.approx(100 * 92 / 102)
    lat, pct = metrics.latency_metrics([i / 1000 for i in range(1, 24)])
    assert lat["item_tail_ms"] == pytest.approx(13) and lat["item_p50_ms"] == pytest.approx(12)


def test_metric_names_and_benchmark_json_agree():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = list(metrics.END_TO_END) + list(metrics.PER_LAYER)
    assert all(pattern.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    for m in doc["end_to_end"]:
        assert (m["unit"], m["better"], m["bound"]) == metrics.END_TO_END[m["name"]]
    assert [m["name"] for m in doc["per_layer"]] == list(metrics.PER_LAYER)
    for m in doc["per_layer"]:
        assert (m["unit"], m["better"]) == metrics.PER_LAYER[m["name"]][:2]
    assert [w["name"] for w in doc["workloads"]] == list(W.WORKLOADS)
