"""Tests for stores: FIFO semantics, capacity blocking, priority order."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import PriorityItem, PriorityStore, Simulator, Store


class TestStoreBasics:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("item")
        get = store.get()
        sim.run()
        assert get.value == "item"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        get = store.get()
        sim.run()
        assert not get.triggered
        store.put("late")
        sim.run()
        assert get.value == "late"

    def test_fifo_order(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(5):
            store.put(i)
        results = [store.get() for _ in range(5)]
        sim.run()
        assert [g.value for g in results] == [0, 1, 2, 3, 4]

    def test_getters_served_in_arrival_order(self):
        sim = Simulator()
        store = Store(sim)
        first, second = store.get(), store.get()
        store.put("a")
        store.put("b")
        sim.run()
        assert first.value == "a"
        assert second.value == "b"

    def test_len_tracks_contents(self):
        sim = Simulator()
        store = Store(sim)
        assert len(store) == 0
        store.put(1)
        assert len(store) == 1

    def test_peek_does_not_remove(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")
        assert store.peek() == "x"
        assert len(store) == 1

    def test_peek_empty(self):
        assert Store(Simulator()).peek() is None


class TestCapacity:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Store(Simulator(), capacity=0)

    def test_put_blocks_when_full(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        first = store.put("a")
        second = store.put("b")
        sim.run()
        assert first.triggered
        assert not second.triggered
        get = store.get()
        sim.run()
        assert get.value == "a"
        assert second.triggered  # admitted once space freed
        assert store.peek() == "b"

    def test_is_full(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        store.put(1)
        assert not store.is_full
        store.put(2)
        assert store.is_full

    def test_try_put_respects_capacity(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        assert store.try_put("a") is True
        assert store.try_put("b") is False
        assert len(store) == 1

    def test_try_get(self):
        sim = Simulator()
        store = Store(sim)
        assert store.try_get() is None
        store.put("x")
        assert store.try_get() == "x"
        assert store.try_get() is None

    def test_try_get_admits_blocked_putter(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        store.put("a")
        blocked = store.put("b")
        assert store.try_get() == "a"
        assert blocked.triggered


class TestCancelGet:
    def test_cancel_pending_get(self):
        sim = Simulator()
        store = Store(sim)
        get = store.get()
        assert store.cancel_get(get) is True
        store.put("x")
        sim.run()
        assert not get.triggered  # cancelled getter never receives
        assert store.peek() == "x"

    def test_cancel_fired_get_returns_false(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")
        get = store.get()
        assert store.cancel_get(get) is False


class TestPriorityStore:
    def test_smallest_first(self):
        sim = Simulator()
        store = PriorityStore(sim)
        for value in (5, 1, 3):
            store.put(value)
        gets = [store.get() for _ in range(3)]
        sim.run()
        assert [g.value for g in gets] == [1, 3, 5]

    def test_priority_item_wrapper(self):
        sim = Simulator()
        store = PriorityStore(sim)
        store.put(PriorityItem(2, "second"))
        store.put(PriorityItem(1, "first"))
        get = store.get()
        sim.run()
        assert get.value.item == "first"

    def test_priority_item_ordering(self):
        assert PriorityItem(1, "a") < PriorityItem(2, "b")
        assert PriorityItem(3, "x") == PriorityItem(3, "y")


class TestStoreWithProcesses:
    def test_producer_consumer_pipeline(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        consumed = []

        def producer(sim):
            for i in range(10):
                yield store.put(i)

        def consumer(sim):
            while len(consumed) < 10:
                item = yield store.get()
                consumed.append(item)
                yield sim.timeout(5)

        sim.spawn(producer(sim))
        sim.spawn(consumer(sim))
        sim.run()
        assert consumed == list(range(10))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=40))
def test_property_store_preserves_fifo(items):
    """Whatever goes in comes out in the same order."""
    sim = Simulator()
    store = Store(sim)
    for item in items:
        store.put(item)
    gets = [store.get() for _ in items]
    sim.run()
    assert [g.value for g in gets] == items


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=40))
def test_property_priority_store_sorts(items):
    """Priority store always yields ascending order."""
    sim = Simulator()
    store = PriorityStore(sim)
    for item in items:
        store.put(item)
    gets = [store.get() for _ in items]
    sim.run()
    assert [g.value for g in gets] == sorted(items)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(), min_size=1, max_size=30),
)
def test_property_capacity_never_exceeded(capacity, items):
    """A bounded store never holds more than its capacity."""
    sim = Simulator()
    store = Store(sim, capacity=capacity)
    observed = []

    def producer(sim):
        for item in items:
            yield store.put(item)
            observed.append(len(store))

    def consumer(sim):
        for _ in items:
            yield store.get()
            yield sim.timeout(1)

    sim.spawn(producer(sim))
    sim.spawn(consumer(sim))
    sim.run()
    assert all(count <= capacity for count in observed)


def put_spelling_of_try_put(store, item):
    """``try_put`` spelled with ``put``: the StorePut it files is dropped."""
    if store.is_full:
        return False
    store.put(item)
    return True


def run_store_script(script, capacity, try_put):
    """Drive one store through ``script``; log every get as (now, value)."""
    sim = Simulator()
    store = Store(sim, capacity=capacity)
    log, results = [], []

    def ops(sim):
        for n, op in enumerate(script):
            if op[0] == "try_put":
                results.append(try_put(store, n))
            elif op[0] == "put":
                store.put(n)
            elif op[0] == "get":
                store.get().callbacks.append(lambda ev: log.append((sim.now, ev.value)))
            else:
                yield op[1]

    sim.spawn(ops(sim))
    sim.run()
    return log, results, sim.events


STORE_SCRIPTS = st.lists(
    st.one_of(
        st.tuples(st.just("try_put")),
        st.tuples(st.just("put")),
        st.tuples(st.just("get")),
        st.tuples(st.just("wait"), st.integers(min_value=0, max_value=3)),
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([None, 1, 2, 3]), STORE_SCRIPTS)
def test_property_try_put_matches_put_without_its_event(capacity, script):
    """try_put serves getters exactly as put would, minus the StorePut."""
    log, results, events = run_store_script(script, capacity, Store.try_put)
    ref_log, ref_results, ref_events = run_store_script(
        script, capacity, put_spelling_of_try_put
    )
    assert log == ref_log
    assert results == ref_results
    assert events == ref_events - sum(ref_results)


def test_try_put_on_full_store_has_no_side_effect():
    sim = Simulator()
    store = Store(sim, capacity=1)
    store.put("a")
    blocked = store.put("b")
    before = (list(store.items), len(store._putters), len(store._getters), sim.events)
    assert store.try_put("c") is False
    assert (list(store.items), len(store._putters), len(store._getters), sim.events) == before
    assert not blocked.triggered
