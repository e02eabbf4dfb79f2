"""Unit tests for the tracing/metrics primitives themselves."""

import pickle
import random

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    StageClock,
    counters_with_prefix,
    histogram_total,
)
from repro.obs.trace import NULL_TRACER, Tracer, _natural_key


def spans_by_name(tracer):
    return {span["name"]: span for span in tracer.snapshot()}


class TestTracer:
    def test_nesting_links_parents_and_inherits_shards(self):
        tracer = Tracer()
        with tracer.span("outer", shard="seed:0"):
            with tracer.span("inner"):
                pass
        spans = spans_by_name(tracer)
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["shard"] == "seed:0"
        assert spans["inner"]["dur"] <= spans["outer"]["dur"]

    def test_absorb_remaps_ids_under_parent(self):
        parent = Tracer()
        with parent.span("stage") as handle:
            stage_id = handle.id
        worker = Tracer()
        with worker.span("task"):
            with worker.span("step"):
                pass
        parent.absorb("seed:3", worker.snapshot(), parent=stage_id)
        spans = spans_by_name(parent)
        assert spans["task"]["parent"] == stage_id
        assert spans["step"]["parent"] == spans["task"]["id"]
        assert spans["task"]["shard"] == "seed:3"
        ids = [span["id"] for span in parent.snapshot()]
        assert len(ids) == len(set(ids))

    def test_graft_prefixes_foreign_shards(self):
        inner = Tracer()
        with inner.span("seed", shard="seed:1"):
            pass
        with inner.span("run"):
            pass
        outer = Tracer()
        outer.graft("subject:xml", inner.snapshot())
        shards = {span["shard"] for span in outer.snapshot()}
        assert shards == {"subject:xml", "subject:xml/seed:1"}

    def test_discard_shard_drops_spans(self):
        tracer = Tracer()
        with tracer.span("kept", shard="seed:0"):
            pass
        with tracer.span("spec", shard="seed:1"):
            pass
        assert tracer.discard_shard("seed:1") == 1
        assert [s["name"] for s in tracer.snapshot()] == ["kept"]

    def test_snapshot_orders_shards_naturally(self):
        tracer = Tracer()
        for index in (10, 2, 1):
            with tracer.span("s", shard="seed:{}".format(index)):
                pass
        shards = [span["shard"] for span in tracer.snapshot()]
        assert shards == ["seed:1", "seed:2", "seed:10"]

    def test_span_cap_counts_drops(self):
        tracer = Tracer(max_spans=2)
        for index in range(4):
            tracer.event("e{}".format(index))
        assert len(tracer.snapshot()) == 2
        assert tracer.dropped == 2

    def test_pickle_round_trip_rebuilds_local_state(self):
        tracer = Tracer()
        with tracer.span("before"):
            pass
        clone = pickle.loads(pickle.dumps(tracer))
        with clone.span("after"):
            pass
        assert {s["name"] for s in clone.snapshot()} == {"before", "after"}

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything"):
            NULL_TRACER.event("instant")
        assert NULL_TRACER.snapshot() == []
        assert NULL_TRACER.discard_shard("seed:0") == 0


class TestSince:
    """``Tracer.since`` against ``snapshot``: dropping the discarded
    shards from the snapshot at a mark, then appending the handed-out
    spans to their shards, must give the snapshot now."""

    @staticmethod
    def replay(snapshot, spans, discarded):
        shards = {}
        for span in snapshot:
            shards.setdefault(span["shard"], []).append(span)
        for shard in discarded:
            shards.pop(shard, None)
        for span in spans:
            shards.setdefault(span["shard"], []).append(span)
        return [
            span for shard in sorted(shards, key=_natural_key)
            for span in shards[shard]
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_replay_from_a_mark_gives_the_snapshot(self, seed):
        rng = random.Random(seed)
        tracer = Tracer()
        shards = ["", "seed:0", "seed:1", "seed:10", "pair:2"]
        before, mark = [], (0, 0)
        for step in range(200):
            move = rng.choice(("span", "span", "absorb", "discard", "since"))
            shard = rng.choice(shards)
            if move == "span":
                with tracer.span("s{}".format(step), shard=shard or None):
                    pass
            elif move == "absorb":
                worker = Tracer()
                with worker.span("task"):
                    tracer.event("inside")
                tracer.absorb(shard, worker.snapshot())
            elif move == "discard":
                tracer.discard_shard(shard)
            else:
                spans, discarded, mark = tracer.since(mark)
                now = tracer.snapshot()
                assert self.replay(before, spans, discarded) == now
                before = now
        spans, discarded, _mark = tracer.since((0, 0))
        assert self.replay([], spans, discarded) == tracer.snapshot()


class TestMetricsRegistry:
    def test_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.add("oracle.calls")
        registry.add("oracle.calls", 2)
        registry.observe("depth", 3.0)
        registry.observe("depth", 1.0)
        snap = registry.snapshot()
        assert snap["counters"]["oracle.calls"] == 3
        assert snap["histograms"]["depth"] == {
            "count": 2, "total": 4.0, "min": 1.0, "max": 3.0,
        }

    def test_merge_is_order_independent_for_totals(self):
        parts = []
        for value in (1.0, 5.0, 2.0):
            registry = MetricsRegistry()
            registry.add("tasks")
            registry.observe("seconds", value)
            parts.append(registry.snapshot())
        merged = MetricsRegistry()
        for part in parts:
            merged.merge(part)
        snap = merged.snapshot()
        assert snap["counters"]["tasks"] == 3
        assert snap["histograms"]["seconds"]["min"] == 1.0
        assert snap["histograms"]["seconds"]["max"] == 5.0
        assert histogram_total(snap, "seconds") == 8.0

    def test_timer_observes_on_exit(self):
        registry = MetricsRegistry()
        with registry.timer("seconds") as timer:
            pass
        assert timer.seconds >= 0.0
        assert registry.snapshot()["histograms"]["seconds"]["count"] == 1

    def test_counters_with_prefix_strips(self):
        registry = MetricsRegistry()
        registry.add("engine.dense_matches", 4)
        registry.add("other", 1)
        assert counters_with_prefix(
            registry.snapshot(), "engine."
        ) == {"dense_matches": 4}
        assert histogram_total(None, "x") == 0.0
        assert counters_with_prefix(None, "engine.") == {}


class TestStageClock:
    def test_accumulates_over_base_and_open_stages(self):
        clock = StageClock({"phase1": 1.0})
        with clock.stage("phase1"):
            mid = clock.timings()
            assert mid["phase1"] >= 1.0
        done = clock.timings()
        assert done["phase1"] >= 1.0
        with clock.stage("phase2"):
            pass
        assert set(clock.timings()) == {"phase1", "phase2"}
