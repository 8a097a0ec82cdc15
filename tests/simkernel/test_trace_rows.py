"""The trace recorder's compact rows read back as the records emitted.

:class:`~repro.simkernel.trace.TraceRecorder` stores one flat tuple per
row and builds :class:`~repro.simkernel.trace.TraceRecord` objects on
read.  The model here is the plain list of records the recorder used to
keep: for any sequence of emits, every read — filtered ``records()``,
``pairs()``, ``len``, iteration — and every live subscriber must see
the same values the model holds.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import TraceRecord, TraceRecorder

COMPONENTS = ("qpu", "daemon", "slurm")
EVENTS = ("busy_start", "busy_end", "task_start", "task_end")
KEYS = ("task_id", "job_id", "shots", "state")
VALUES = st.one_of(st.integers(0, 4), st.sampled_from(("a", "b", None)), st.floats(0.0, 10.0))

EMITS = st.lists(
    st.tuples(
        st.floats(0.0, 100.0),
        st.sampled_from(COMPONENTS),
        st.sampled_from(EVENTS),
        # field names in any order and any subset: order is part of a schema
        st.lists(st.tuples(st.sampled_from(KEYS), VALUES), max_size=4, unique_by=lambda kv: kv[0]),
    ),
    max_size=40,
)
BOUNDS = st.one_of(st.none(), st.floats(0.0, 100.0))


def model_pairs(model, start_event, end_event, key, component):
    """``pairs()`` over a plain record list, as it was written for one."""
    open_starts, matched = {}, []
    for r in model:
        if component is not None and r.component != component:
            continue
        if key not in r.fields:
            continue
        value = r.fields[key]
        if r.event == start_event:
            open_starts[value] = r.time
        elif r.event == end_event and value in open_starts:
            matched.append((open_starts.pop(value), r.time, value))
    return matched


@settings(max_examples=150, deadline=None)
@given(
    emits=EMITS,
    component=st.one_of(st.none(), st.sampled_from(COMPONENTS)),
    event=st.one_of(st.none(), st.sampled_from(EVENTS)),
    since=BOUNDS,
    until=BOUNDS,
    key=st.sampled_from(KEYS),
)
def test_reads_match_a_list_of_records(emits, component, event, since, until, key):
    trace = TraceRecorder()
    live = []
    trace.subscribe(live.append)
    model = []
    for time, comp, ev, fields in emits:
        returned = trace.emit(time, comp, ev, **dict(fields))
        model.append(TraceRecord(time, comp, ev, dict(fields)))
        assert returned == model[-1]
    assert live == model
    assert len(trace) == len(model)
    assert list(trace) == model
    # field order survives the round trip, not only field values
    assert [list(r.fields.items()) for r in trace] == [list(r.fields.items()) for r in model]
    assert trace.records() == model
    assert trace.records(component=component, event=event, since=since, until=until) == [
        r for r in model
        if (component is None or r.component == component)
        and (event is None or r.event == event)
        and (since is None or r.time >= since)
        and (until is None or r.time <= until)
    ]
    for start, end in (("busy_start", "busy_end"), ("task_start", "task_end")):
        for comp in (None, component):
            assert trace.pairs(start, end, key=key, component=comp) == model_pairs(model, start, end, key, comp)


def test_rows_share_one_key_tuple_per_schema():
    trace = TraceRecorder()
    for i in range(3):
        trace.emit(float(i), "qpu", "busy_start", task_id=f"t{i}", shots=10)
    trace.emit(3.0, "qpu", "busy_end", task_id="t0")
    schemas = [row[3] for row in trace._rows]
    assert schemas[0] is schemas[1] is schemas[2]
    assert schemas[3] == ("task_id",)


def test_records_are_slotted_and_frozen():
    record = TraceRecorder().emit(0.0, "qpu", "busy_start", task_id="t")
    assert not hasattr(record, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.time = 1.0
