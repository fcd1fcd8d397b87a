"""Self-time arithmetic and wrapper bookkeeping of the benchmark's tracer."""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from layermap import per_layer_metrics  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def _span(sid, parent, start, end, name="x", thread=1, request=None, extra=None):
    return Span(sid, parent, name, thread, request, start, end, extra)


def test_self_time_of_nested_spans_in_one_thread():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 5.0, 9.0),
        _span(3, 2, 6.0, 7.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)  # adds up to the root


def test_self_time_counts_overlapping_children_of_other_threads_once():
    spans = [
        _span(0, None, 0.0, 10.0, thread=1),
        _span(1, 0, 1.0, 6.0, thread=2),
        _span(2, 0, 4.0, 8.0, thread=3),
        _span(3, 0, 8.5, 9.5, thread=1),
        _span(4, 1, 2.0, 3.0, thread=2),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 7.0 - 1.0)  # union [1, 8] plus [8.5, 9.5]
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(4.0)


def test_per_layer_metrics_report_unattributed_wall_time():
    spans = [
        _span(0, None, 0.0, 6.0, name="runner.run_plan"),
        _span(1, 0, 1.0, 5.0, name="train.train_trial", request=0),
        _span(2, 1, 2.0, 3.0, name="tensor.matmul.fwd", extra=(True, 64)),
        _span(3, 1, 3.0, 4.0, name="tensor.matmul.bwd"),
    ]
    m = per_layer_metrics(spans, passes=1, run_wall_s=6.0, pass_wall_s=6.5,
                          parallelism=1, trial_label=lambda tid: "cfg")
    assert m["trace.self_sum_ms"] == pytest.approx(6000.0)
    assert m["trace.unattributed_ms"] == pytest.approx(500.0)
    assert m["runner.self_ms"] == pytest.approx(2000.0)
    assert m["tensor.matmul.calls"] == 1
    assert m["tensor.matmul.fwd_ms"] == pytest.approx(1000.0)
    assert m["tensor.matmul.bwd_ms"] == pytest.approx(1000.0)
    assert m["tensor.matmul.bytes"] == 64
    assert m["tensor.tape_nodes"] == 1
    assert m["train.trial_s.cfg"] == pytest.approx(4.0)
    assert m["runner.worker_busy_share"] == pytest.approx(4.0 / 6.0)


class _Owner:
    tracer = None

    @staticmethod
    def outer(x):
        return _Owner.inner(x) + 1

    @staticmethod
    def inner(x):
        return x * 2

    @staticmethod
    def spawn():
        def worker():
            _Owner.tracer.set_request(42)
            _Owner.inner(1)

        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()


def test_wrappers_nest_link_threads_and_come_off():
    originals = dict(vars(_Owner))
    tracer = _Owner.tracer = Tracer()
    tracer.wrap(_Owner, "outer", "t.outer")
    tracer.wrap(_Owner, "inner", "t.inner", extra=lambda out: out)
    tracer.wrap(_Owner, "spawn", "t.spawn")
    try:
        assert _Owner.outer(3) == 7
        _Owner.spawn()
    finally:
        tracer.remove()
        _Owner.tracer = None
    assert dict(vars(_Owner)) == originals

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (outer,) = by_name["t.outer"]
    (spawn,) = by_name["t.spawn"]
    nested, threaded = by_name["t.inner"]
    assert nested.parent == outer.sid and nested.extra == 6
    assert threaded.parent == spawn.sid      # cause: the main thread's open span
    assert threaded.thread != spawn.thread and threaded.request == 42


def test_contract_names_match_what_the_benchmark_reports():
    import json

    import run
    from layermap import metric_units
    from workloads import WORKLOADS

    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == {
        k: unit for k, (unit, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == metric_units(
        run.all_labels())
