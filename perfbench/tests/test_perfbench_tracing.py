"""Self-time arithmetic and wrapper installation of the benchmark's tracer."""

import importlib

from tracing import PATCHES, Recorder, instrument, self_times


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]; a second b
    # [12, 13] is a root of its own.
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 5.0, 9.0, 0, 0],
        ["d", 6.0, 8.0, 2, 0],
        ["b", 12.0, 13.0, -1, 1],
    ]
    stats = self_times(spans)
    assert stats["a"] == [1, 10.0, 3.0]
    assert stats["b"] == [2, 4.0, 4.0]
    assert stats["c"] == [1, 4.0, 2.0]
    assert stats["d"] == [1, 2.0, 2.0]


def test_nested_calls_record_parent_and_trial():
    rec = Recorder(tracing=True)
    rec.trial = 3
    rec.call("outer", lambda: rec.call("inner", lambda: None))
    (inner, outer) = rec.spans[1], rec.spans[0]
    assert outer[0] == "outer" and outer[3] == -1
    assert inner[0] == "inner" and inner[3] == 0 and inner[4] == 3
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    assert rec.stack == []


def _resolve(module, attr):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def test_instrument_restores_every_original():
    originals = {(m, a): getattr(*_resolve(m, a)) for m, a, *_ in PATCHES}
    with instrument(Recorder(tracing=True)):
        for (module, attr), fn in originals.items():
            assert getattr(*_resolve(module, attr)) is not fn
    for (module, attr), fn in originals.items():
        assert getattr(*_resolve(module, attr)) is fn
