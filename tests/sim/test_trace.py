"""Structured tracing and its storage backends."""

import json

import pytest

from repro.sim.trace import (
    JsonlTraceSink,
    ListBuffer,
    RingBuffer,
    TraceEvent,
    Tracer,
)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    tracer.emit(10, 1, "x", a=1)
    assert len(tracer) == 0


def test_enabled_tracer_records_in_order():
    tracer = Tracer(enabled=True)
    tracer.emit(10, 1, "tx-start")
    tracer.emit(20, 2, "rx-ok", sender=1)
    assert tracer.kinds_sequence() == ["tx-start", "rx-ok"]
    assert tracer.events[1].detail == {"sender": 1}


def test_kind_filter():
    tracer = Tracer(enabled=True, kinds={"keep"})
    tracer.emit(1, 0, "keep")
    tracer.emit(2, 0, "drop")
    assert tracer.kinds_sequence() == ["keep"]


def test_of_kind_and_for_node():
    tracer = Tracer(enabled=True)
    tracer.emit(1, 0, "a")
    tracer.emit(2, 1, "b")
    tracer.emit(3, 0, "b")
    assert [e.time for e in tracer.of_kind("b")] == [2, 3]
    assert [e.time for e in tracer.for_node(0)] == [1, 3]


def test_sink_called_per_event():
    seen = []
    tracer = Tracer(enabled=True)
    tracer.sink = seen.append
    tracer.emit(5, 3, "x")
    assert len(seen) == 1 and isinstance(seen[0], TraceEvent)


def test_render_contains_fields():
    tracer = Tracer(enabled=True)
    tracer.emit(17_000, 4, "rbt-on", index=2)
    text = tracer.render()
    assert "node   4" in text and "rbt-on" in text and "index=2" in text


# ----------------------------------------------------------------------
# Storage backends
# ----------------------------------------------------------------------
def test_default_backend_is_unbounded_list():
    tracer = Tracer(enabled=True)
    assert isinstance(tracer.buffer, ListBuffer)


def test_ring_buffer_bounds_memory():
    tracer = Tracer(enabled=True, buffer=RingBuffer(capacity=100))
    for i in range(10_000):
        tracer.emit(i, 0, "tick")
    assert len(tracer) == 10_000            # accepted count keeps the truth
    assert len(tracer.events) == 100        # retained memory stays bounded
    assert tracer.buffer.dropped == 9_900
    assert tracer.events[0].time == 9_900   # oldest retained = most recent 100


def test_ring_buffer_queries_use_retained_events():
    tracer = Tracer(enabled=True, buffer=RingBuffer(capacity=3))
    for i in range(5):
        tracer.emit(i, i % 2, "a" if i % 2 else "b")
    assert tracer.kinds_sequence() == ["b", "a", "b"]
    assert [e.time for e in tracer.for_node(1)] == [3]


def test_ring_buffer_rejects_zero_capacity():
    with pytest.raises(ValueError):
        RingBuffer(capacity=0)


def test_jsonl_sink_streams_and_retains_nothing(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer(enabled=True, buffer=JsonlTraceSink(path))
    tracer.emit(10, 1, "tx-start", frame="MRTS")
    tracer.emit(20, 2, "rx-ok")
    tracer.close()
    assert len(tracer) == 2
    assert tracer.events == []  # nothing held in memory
    lines = [json.loads(line) for line in open(path)]
    assert lines == [
        {"time": 10, "node": 1, "kind": "tx-start", "detail": {"frame": "MRTS"}},
        {"time": 20, "node": 2, "kind": "rx-ok"},
    ]


def test_jsonl_sink_borrowed_file_left_open(tmp_path):
    fh = open(tmp_path / "t.jsonl", "w")
    tracer = Tracer(enabled=True, buffer=JsonlTraceSink(fh))
    tracer.emit(1, 0, "x")
    tracer.close()
    assert not fh.closed
    fh.close()


def test_jsonl_sink_serializes_non_json_detail(tmp_path):
    path = str(tmp_path / "t.jsonl")
    tracer = Tracer(enabled=True, buffer=JsonlTraceSink(path))
    tracer.emit(1, 0, "x", obj=object())  # falls back to str()
    tracer.close()
    record = json.loads(open(path).read())
    assert "object object" in record["detail"]["obj"]


def test_close_is_idempotent(tmp_path):
    tracer = Tracer(enabled=True, buffer=JsonlTraceSink(str(tmp_path / "t.jsonl")))
    tracer.close()
    tracer.close()


def test_network_ring_buffer_trace_memory_bounded():
    """A traced full-stack run with a ring backend retains only `capacity`
    events no matter how many the run emits."""
    from repro.world.network import ScenarioConfig, build_network

    tracer = Tracer(enabled=True, buffer=RingBuffer(capacity=50))
    config = ScenarioConfig(protocol="rmac", n_nodes=8, width=180, height=130,
                            n_packets=5, rate_pps=10, seed=2)
    network = build_network(config, tracer=tracer)
    network.run()
    assert len(tracer) > 50           # the run emitted far more...
    assert len(tracer.events) == 50   # ...but memory stayed at capacity
    assert tracer.buffer.dropped == len(tracer) - 50
