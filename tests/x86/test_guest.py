"""Tests for the guest kernel: work items, claiming, accounting, iowait."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator, ms, us
from repro.x86.guest import GuestKernel, WorkItem


class TestWorkItem:
    def test_rejects_negative_demand(self):
        with pytest.raises(ValueError):
            WorkItem(Simulator(), -1, "user")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            WorkItem(Simulator(), 100, "kernelish")


class TestSubmitAndServe:
    def test_submit_notifies_on_work(self):
        sim = Simulator()
        guest = GuestKernel(sim, "vm")
        woken = []
        guest.on_work_available = lambda: woken.append(True)
        guest.submit(ms(1))
        assert woken == [True]

    def test_acquire_prefers_owned_item(self):
        sim = Simulator()
        guest = GuestKernel(sim, "vm")
        first = guest.submit(ms(1))
        guest.submit(ms(1))
        assert guest.acquire_work("vcpu0") is first
        # Re-acquire after (simulated) preemption returns the same item.
        assert guest.acquire_work("vcpu0") is first

    def test_two_owners_get_distinct_items(self):
        sim = Simulator()
        guest = GuestKernel(sim, "vm")
        a = guest.submit(ms(1))
        b = guest.submit(ms(1))
        assert guest.acquire_work("v0") is a
        assert guest.acquire_work("v1") is b
        assert guest.acquire_work("v2") is None

    def test_sys_items_served_before_queued_user_items(self):
        """Softirq priority: queued kernel work jumps ahead of user work."""
        sim = Simulator()
        guest = GuestKernel(sim, "vm")
        guest.submit(ms(5), kind="user")
        sys_item = guest.submit(us(10), kind="sys")
        # user item unclaimed; a fresh VCPU must pick the sys item first
        assert guest.acquire_work("v0") is sys_item

    def test_owned_user_item_still_resumed_first(self):
        sim = Simulator()
        guest = GuestKernel(sim, "vm")
        user = guest.submit(ms(5), kind="user")
        assert guest.acquire_work("v0") is user
        guest.submit(us(10), kind="sys")
        # v0 already mid-item: it resumes its own work, no re-dispatch.
        assert guest.acquire_work("v0") is user

    def test_charge_completes_item_and_fires_done(self):
        sim = Simulator()
        guest = GuestKernel(sim, "vm")
        item = guest.submit(ms(2))
        guest.acquire_work("v0")
        guest.charge(item, ms(2))
        sim.run()
        assert item.done.processed
        assert not guest.has_work

    def test_partial_charge_keeps_item(self):
        sim = Simulator()
        guest = GuestKernel(sim, "vm")
        item = guest.submit(ms(2))
        guest.acquire_work("v0")
        guest.charge(item, ms(1))
        assert guest.has_work
        assert item.remaining == ms(1)

    def test_unclaimed_flag(self):
        sim = Simulator()
        guest = GuestKernel(sim, "vm")
        assert not guest.has_unclaimed_work
        guest.submit(ms(1))
        assert guest.has_unclaimed_work
        guest.acquire_work("v0")
        assert not guest.has_unclaimed_work


class TestAccounting:
    def test_user_sys_split(self):
        sim = Simulator()
        guest = GuestKernel(sim, "vm")
        user = guest.submit(ms(3), kind="user")
        guest.acquire_work("v0")
        guest.charge(user, ms(3))
        sys_item = guest.submit(ms(1), kind="sys")
        guest.acquire_work("v0")
        guest.charge(sys_item, ms(1))
        assert guest.accounting.user == ms(3)
        assert guest.accounting.sys == ms(1)
        assert guest.accounting.busy == ms(4)

    def test_snapshot_is_a_copy(self):
        guest = GuestKernel(Simulator(), "vm")
        snap = guest.accounting.snapshot()
        snap["user"] = 12345
        assert guest.accounting.user == 0


class TestIowait:
    def test_idle_with_outstanding_io_counts_as_iowait(self):
        sim = Simulator()
        guest = GuestKernel(sim, "vm")
        guest.io_begin()
        sim.run(until=ms(10))
        guest.io_end()
        assert guest.accounting.iowait == ms(10)

    def test_idle_without_io_is_not_iowait(self):
        sim = Simulator()
        guest = GuestKernel(sim, "vm")
        sim.run(until=ms(10))
        guest.io_begin()
        guest.io_end()
        assert guest.accounting.iowait == 0

    def test_busy_time_not_counted_as_iowait(self):
        sim = Simulator()
        guest = GuestKernel(sim, "vm")
        guest.io_begin()
        item = guest.submit(ms(4))
        sim.run(until=ms(4))  # busy interval while io outstanding
        guest.acquire_work("v0")
        guest.charge(item, ms(4))
        sim.run(until=ms(6))
        guest.io_end()
        # iowait only accrues while idle: the leading 0ms + trailing 2ms.
        assert guest.accounting.iowait == ms(2)

    def test_io_end_without_begin_rejected(self):
        guest = GuestKernel(Simulator(), "vm")
        with pytest.raises(RuntimeError):
            guest.io_end()

    def test_outstanding_io_counter(self):
        guest = GuestKernel(Simulator(), "vm")
        guest.io_begin()
        guest.io_begin()
        assert guest.outstanding_io == 2
        guest.io_end()
        assert guest.outstanding_io == 1


def reference_choice(items, owner):
    """The documented acquire order, by full scan: the owner's own claim,
    then the oldest unclaimed sys item, then the oldest unclaimed user."""
    for item in items:
        if item.owner == owner:
            return item
    unclaimed = [item for item in items if item.owner is None]
    for item in unclaimed:
        if item.kind == "sys":
            return item
    return unclaimed[0] if unclaimed else None


OPERATIONS = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(["user", "sys"]),
              st.integers(min_value=1, max_value=5)),
    st.tuples(st.just("acquire"), st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("charge"), st.integers(min_value=0, max_value=50),
              st.integers(min_value=1, max_value=5)),
)


class TestUnclaimedBookkeeping:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.lists(OPERATIONS, max_size=60))
    def test_counts_and_choices_match_a_full_scan(self, owners, script):
        guest = GuestKernel(Simulator(), "vm")
        for op in script:
            if op[0] == "submit":
                guest.submit(op[2], kind=op[1])
            elif op[0] == "acquire":
                owner = f"v{op[1] % owners}"
                expected = reference_choice(guest._items, owner)
                assert guest.acquire_work(owner) is expected
                if expected is not None:
                    assert expected.owner == owner
            elif guest._items:
                item = guest._items[op[1] % len(guest._items)]
                guest.charge(item, op[2])
            scanned = sum(item.owner is None for item in guest._items)
            assert guest._unclaimed == scanned
            assert guest.has_unclaimed_work == any(
                item.owner is None for item in guest._items
            )
