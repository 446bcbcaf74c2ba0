"""Unit tests for contention primitives (repro.sim.resources)."""

import pytest

from repro.sim.core import Environment, SimulationError
from repro.sim.resources import Container, PriorityResource, Resource, Store


# ---------------------------------------------------------------- Resource
def test_resource_capacity_must_be_positive():
    with pytest.raises(SimulationError):
        Resource(Environment(), capacity=0)


def test_resource_grants_up_to_capacity_immediately():
    env = Environment()
    res = Resource(env, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered and not r3.triggered
    assert res.count == 2 and res.queued == 1


def test_resource_release_grants_next_in_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    first = res.request()
    second = res.request()
    third = res.request()
    res.release(first)
    assert second.triggered and not third.triggered


def test_resource_release_of_queued_request_cancels_it():
    env = Environment()
    res = Resource(env, capacity=1)
    holder = res.request()
    waiting = res.request()
    res.release(waiting)  # cancel while queued
    assert res.queued == 0
    res.release(holder)
    assert not waiting.triggered  # cancelled, never granted


def test_resource_context_manager_releases():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def worker(env, name):
        with res.request() as req:
            yield req
            log.append((env.now, name))
            yield env.timeout(1)

    env.process(worker(env, "a"))
    env.process(worker(env, "b"))
    env.run()
    assert log == [(0.0, "a"), (1.0, "b")]


def test_resource_fairness_under_load():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, i):
        yield env.timeout(i * 0.001)  # arrive in index order
        with res.request() as req:
            yield req
            order.append(i)
            yield env.timeout(1)

    for i in range(6):
        env.process(worker(env, i))
    env.run()
    assert order == list(range(6))


def test_resource_wait_time_accounting():
    env = Environment()
    res = Resource(env, capacity=1)

    def worker(env):
        with res.request() as req:
            yield req
            yield env.timeout(2)

    env.process(worker(env))
    env.process(worker(env))
    env.run()
    assert res.total_requests == 2
    assert res.total_wait_time == pytest.approx(2.0)


# ---------------------------------------------------------- PriorityResource
def test_priority_resource_serves_lowest_priority_first():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def worker(env, name, prio, delay):
        yield env.timeout(delay)
        req = res.request(priority=prio)
        yield req
        order.append(name)
        yield env.timeout(1)
        res.release(req)

    env.process(worker(env, "holder", 0, 0))
    env.process(worker(env, "low", 5, 0.1))
    env.process(worker(env, "high", 1, 0.2))
    env.run()
    assert order == ["holder", "high", "low"]


def test_priority_resource_fifo_within_priority():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def worker(env, name, delay):
        yield env.timeout(delay)
        req = res.request(priority=1)
        yield req
        order.append(name)
        yield env.timeout(1)
        res.release(req)

    env.process(worker(env, "hold", 0))
    env.process(worker(env, "first", 0.1))
    env.process(worker(env, "second", 0.2))
    env.run()
    assert order == ["hold", "first", "second"]


def test_priority_resource_cancel_queued():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    holder = res.request(priority=0)
    queued = res.request(priority=1)
    res.release(queued)
    assert res.queued == 0
    res.release(holder)
    assert not queued.triggered


# --------------------------------------------------------------------- Store
def test_store_put_get_fifo():
    env = Environment()
    st = Store(env)
    out = []

    def consumer(env):
        for _ in range(3):
            item = yield st.get()
            out.append(item)

    env.process(consumer(env))
    for i in range(3):
        st.put(i)
    env.run()
    assert out == [0, 1, 2]


def test_store_get_blocks_until_item():
    env = Environment()
    st = Store(env)
    got = []

    def consumer(env):
        item = yield st.get()
        got.append((env.now, item))

    def producer(env):
        yield env.timeout(5)
        st.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(5.0, "late")]


def test_store_bounded_put_blocks_when_full():
    env = Environment()
    st = Store(env, capacity=1)
    log = []

    def producer(env):
        yield st.put("a")
        log.append(("put-a", env.now))
        yield st.put("b")
        log.append(("put-b", env.now))

    def consumer(env):
        yield env.timeout(3)
        item = yield st.get()
        log.append(("got", item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("put-a", 0.0) in log
    assert ("put-b", 3.0) in log  # unblocked by the get


def test_store_capacity_must_be_positive():
    with pytest.raises(SimulationError):
        Store(Environment(), capacity=0)


def test_store_level_and_max_level():
    env = Environment()
    st = Store(env)
    for i in range(4):
        st.put(i)
    assert st.level == 4
    assert st.max_level == 4

    def consumer(env):
        yield st.get()

    env.process(consumer(env))
    env.run()
    assert st.level == 3
    assert st.max_level == 4


def test_store_multiple_consumers_each_get_distinct_items():
    env = Environment()
    st = Store(env)
    got = []

    def consumer(env):
        item = yield st.get()
        got.append(item)

    for _ in range(3):
        env.process(consumer(env))
    for i in range(3):
        st.put(i)
    env.run()
    assert sorted(got) == [0, 1, 2]


def test_store_put_nowait_without_getter_schedules_no_event():
    env = Environment()
    st = Store(env)
    eid = env._eid
    st.put_nowait("a")
    st.put_nowait("b")
    assert env._eid == eid
    assert list(st.items) == ["a", "b"]


def test_store_put_nowait_hands_items_to_waiting_getters_fifo():
    env = Environment()
    st = Store(env)
    got = []

    def consumer(env, name):
        item = yield st.get()
        got.append((name, env.now, item))

    for name in ("c0", "c1", "c2"):
        env.process(consumer(env, name))
    env.run()  # every consumer now waits on its get
    env.run(until=2.0)
    eid = env._eid
    st.put_nowait("x")
    assert env._eid == eid + 1  # exactly one getter event
    st.put_nowait("y")
    env.run()
    assert got == [("c0", 2.0, "x"), ("c1", 2.0, "y")]
    assert st.level == 0


def _store_counters(st: Store) -> tuple:
    return (st.level, st.max_level, st.total_put, st.total_got)


@pytest.mark.parametrize("getters", [0, 1, 3])
def test_store_put_nowait_counters_match_put(getters):
    def drive(push) -> tuple:
        env = Environment()
        st = Store(env)

        def consumer(env):
            yield st.get()

        for _ in range(getters):
            env.process(consumer(env))
        env.run()
        for i in range(5):
            push(st, i)
        env.run()
        return _store_counters(st)

    assert drive(Store.put_nowait) == drive(Store.put)


def test_store_put_nowait_refuses_a_full_store():
    env = Environment()
    st = Store(env, capacity=1)
    st.put_nowait("a")
    with pytest.raises(SimulationError):
        st.put_nowait("b")
    assert _store_counters(st) == (1, 1, 1, 0)


# ----------------------------------------------------------------- Container
def test_container_put_get_levels():
    env = Environment()
    c = Container(env, capacity=10, init=5)
    c.get(3)
    c.put(6)
    assert c.level == 8


def test_container_get_blocks_until_available():
    env = Environment()
    c = Container(env, capacity=10)
    log = []

    def taker(env):
        yield c.get(5)
        log.append(env.now)

    def giver(env):
        yield env.timeout(2)
        yield c.put(5)

    env.process(taker(env))
    env.process(giver(env))
    env.run()
    assert log == [2.0]


def test_container_put_blocks_when_over_capacity():
    env = Environment()
    c = Container(env, capacity=10, init=8)
    log = []

    def giver(env):
        yield c.put(5)
        log.append(env.now)

    def taker(env):
        yield env.timeout(4)
        yield c.get(4)

    env.process(giver(env))
    env.process(taker(env))
    env.run()
    assert log == [4.0]


def test_container_rejects_negative_amounts():
    env = Environment()
    c = Container(env, capacity=10)
    with pytest.raises(SimulationError):
        c.put(-1)
    with pytest.raises(SimulationError):
        c.get(-1)


def test_container_init_bounds_checked():
    with pytest.raises(SimulationError):
        Container(Environment(), capacity=5, init=6)
