"""Tests for the credit scheduler: shares, boost, preemption, caps, SMP."""

import pytest

from repro.sim import Simulator, ms, seconds
from repro.x86 import CreditParams, CreditScheduler, VirtualMachine, X86Island, X86Params
from repro.x86.vcpu import Priority, VCPUState


def make_host(num_cpus=1, **credit_kwargs):
    sim = Simulator()
    scheduler = CreditScheduler(sim, num_cpus=num_cpus, params=CreditParams(**credit_kwargs))
    return sim, scheduler


def hog(sim, vm, chunk=ms(5)):
    def loop(sim, vm):
        while True:
            yield vm.execute(chunk, "user")

    return sim.spawn(loop(sim, vm), name=f"hog-{vm.name}")


class TestBasicExecution:
    def test_single_vm_work_completes(self):
        sim, sched = make_host()
        vm = VirtualMachine(sim, "solo")
        sched.add_domain(vm)
        done = vm.execute(ms(10))
        sim.run(until=ms(50))
        assert done.processed
        assert vm.cpu_time() == ms(10)

    def test_work_conserving_single_vm_gets_everything(self):
        sim, sched = make_host()
        vm = VirtualMachine(sim, "solo")
        sched.add_domain(vm)
        hog(sim, vm)
        sim.run(until=seconds(2))
        assert vm.cpu_time() == seconds(2)

    def test_idle_cpu_burns_nothing(self):
        sim, sched = make_host()
        vm = VirtualMachine(sim, "idle")
        sched.add_domain(vm)
        sim.run(until=seconds(1))
        assert vm.cpu_time() == 0
        assert sched.cpus[0].idle_time > 0

    def test_duplicate_domain_rejected(self):
        sim, sched = make_host()
        vm = VirtualMachine(sim, "vm")
        sched.add_domain(vm)
        with pytest.raises(ValueError):
            sched.add_domain(vm)


class TestProportionalShare:
    def test_equal_weights_equal_shares(self):
        sim, sched = make_host()
        a, b = VirtualMachine(sim, "a"), VirtualMachine(sim, "b")
        sched.add_domain(a)
        sched.add_domain(b)
        hog(sim, a)
        hog(sim, b)
        sim.run(until=seconds(5))
        ratio = a.cpu_time() / b.cpu_time()
        assert 0.9 < ratio < 1.1

    def test_weight_2to1(self):
        sim, sched = make_host()
        light = VirtualMachine(sim, "light", weight=256)
        heavy = VirtualMachine(sim, "heavy", weight=512)
        sched.add_domain(light)
        sched.add_domain(heavy)
        hog(sim, light)
        hog(sim, heavy)
        sim.run(until=seconds(10))
        ratio = heavy.cpu_time() / light.cpu_time()
        assert 1.7 < ratio < 2.3

    def test_set_weight_takes_effect(self):
        sim, sched = make_host()
        a, b = VirtualMachine(sim, "a"), VirtualMachine(sim, "b")
        sched.add_domain(a)
        sched.add_domain(b)
        hog(sim, a)
        hog(sim, b)
        sim.run(until=seconds(2))
        sched.set_weight(a, 1024)
        mark_a, mark_b = a.cpu_time(), b.cpu_time()
        sim.run(until=seconds(12))
        ratio = (a.cpu_time() - mark_a) / (b.cpu_time() - mark_b)
        assert ratio > 2.5  # 1024 vs 256 = 4x nominal

    def test_invalid_weight_rejected(self):
        sim, sched = make_host()
        vm = VirtualMachine(sim, "vm")
        sched.add_domain(vm)
        with pytest.raises(ValueError):
            sched.set_weight(vm, 0)

    def test_idle_domain_weight_not_wasted(self):
        """An idle domain's weight must not reserve capacity (csched's
        active/inactive marking)."""
        sim, sched = make_host()
        worker = VirtualMachine(sim, "worker", weight=256)
        idler = VirtualMachine(sim, "idler", weight=2048)
        sched.add_domain(worker)
        sched.add_domain(idler)
        hog(sim, worker)
        sim.run(until=seconds(3))
        assert worker.cpu_time() >= seconds(3) * 0.99


class TestSMP:
    def test_two_cpus_run_two_vms_concurrently(self):
        sim, sched = make_host(num_cpus=2)
        a, b = VirtualMachine(sim, "a"), VirtualMachine(sim, "b")
        sched.add_domain(a)
        sched.add_domain(b)
        hog(sim, a)
        hog(sim, b)
        sim.run(until=seconds(2))
        # near-perfect concurrency (small startup placement slack allowed)
        assert a.cpu_time() >= seconds(2) * 0.99
        assert b.cpu_time() >= seconds(2) * 0.99

    def test_three_hogs_on_two_cpus_fair(self):
        sim, sched = make_host(num_cpus=2)
        vms = [VirtualMachine(sim, f"v{i}") for i in range(3)]
        for vm in vms:
            sched.add_domain(vm)
            hog(sim, vm)
        sim.run(until=seconds(6))
        times = [vm.cpu_time() for vm in vms]
        assert max(times) / min(times) < 1.15
        assert sum(times) >= seconds(12) * 0.98  # work conserving

    def test_affinity_pins_vcpu(self):
        sim, sched = make_host(num_cpus=2)
        pinned = VirtualMachine(sim, "pinned")
        sched.add_domain(pinned)
        pinned.vcpus[0].affinity = frozenset({1})
        hog(sim, pinned)
        sim.run(until=seconds(1))
        assert pinned.vcpus[0].cpu.index == 1
        assert sched.cpus[0].idle_time >= seconds(1) * 0.99


class TestBoostAndPreemption:
    def test_waking_vcpu_preempts_hog(self):
        """An interactive VM waking with credit must run promptly (BOOST)."""
        sim, sched = make_host()
        cpu_hog = VirtualMachine(sim, "hog")
        interactive = VirtualMachine(sim, "inter")
        sched.add_domain(cpu_hog)
        sched.add_domain(interactive)
        hog(sim, cpu_hog, chunk=ms(30))
        latencies = []

        def pinger(sim):
            while True:
                yield sim.timeout(ms(50))
                start = sim.now
                yield interactive.execute(ms(1))
                latencies.append(sim.now - start)

        sim.spawn(pinger(sim))
        sim.run(until=seconds(3))
        # With BOOST the 1 ms of work completes in ~1 ms, not 30 ms.
        average = sum(latencies) / len(latencies)
        assert average < ms(4)

    def test_boost_disabled_increases_wake_latency(self):
        sim, sched = make_host(boost_enabled=False)
        cpu_hog = VirtualMachine(sim, "hog")
        interactive = VirtualMachine(sim, "inter")
        sched.add_domain(cpu_hog)
        sched.add_domain(interactive)
        hog(sim, cpu_hog, chunk=ms(30))
        latencies = []

        def pinger(sim):
            while True:
                yield sim.timeout(ms(50))
                start = sim.now
                yield interactive.execute(ms(1))
                latencies.append(sim.now - start)

        sim.spawn(pinger(sim))
        sim.run(until=seconds(3))
        average = sum(latencies) / len(latencies)
        assert average > ms(4)

    def test_trigger_boost_moves_runnable_vcpu_to_head(self):
        sim, sched = make_host()
        first = VirtualMachine(sim, "first")
        second = VirtualMachine(sim, "second")
        sched.add_domain(first)
        sched.add_domain(second)
        hog(sim, first, chunk=ms(30))
        hog(sim, second, chunk=ms(30))
        sim.run(until=seconds(1))
        sched.boost(second)
        boosted = second.vcpus[0]
        assert boosted.boosted
        if boosted.state is VCPUState.RUNNABLE:
            assert boosted.effective_priority() is Priority.BOOST

    def test_steal_time_recorded(self):
        sim, sched = make_host()
        a, b = VirtualMachine(sim, "a"), VirtualMachine(sim, "b")
        sched.add_domain(a)
        sched.add_domain(b)
        hog(sim, a)
        hog(sim, b)
        sim.run(until=seconds(2))
        assert a.accounting.steal > 0
        assert b.accounting.steal > 0


class TestCaps:
    def test_cap_limits_utilization(self):
        sim, sched = make_host()
        capped = VirtualMachine(sim, "capped")
        sched.add_domain(capped)
        sched.set_cap(capped, 25)
        hog(sim, capped)
        sim.run(until=seconds(4))
        utilization = capped.cpu_time() / seconds(4)
        assert 0.2 < utilization < 0.3

    def test_zero_cap_means_uncapped(self):
        sim, sched = make_host()
        vm = VirtualMachine(sim, "vm")
        sched.add_domain(vm)
        sched.set_cap(vm, 0)
        hog(sim, vm)
        sim.run(until=seconds(1))
        assert vm.cpu_time() >= seconds(1) * 0.99

    def test_negative_cap_rejected(self):
        sim, sched = make_host()
        vm = VirtualMachine(sim, "vm")
        sched.add_domain(vm)
        with pytest.raises(ValueError):
            sched.set_cap(vm, -5)

    def test_stale_preempt_on_idle_core_is_absorbed(self):
        """A DVFS preempt due on the instant a capped burst ends must not
        crash the idle wait the core falls into."""
        sim, sched = make_host()
        vm = VirtualMachine(sim, "capped")
        sched.add_domain(vm)
        sched.set_cap(vm, 50)
        done = [vm.execute(ms(5)) for _ in range(10)]
        # At 15 ms the cap (15 of 30 ms) runs out as the third item ends;
        # the speed change files its preempt just before that burst wakes.
        sim.call_at(ms(15), lambda: sched.set_cpu_speed(0, 0.5))
        sim.run(until=ms(400))
        assert sched.cpus[0].loop.is_alive
        assert all(event.processed for event in done)
        # 15 ms retired at full speed, the other 35 ms of demand at half.
        assert vm.cpu_time() == ms(15) + 2 * ms(35)


class TestMultiVCPU:
    def test_two_vcpus_use_two_cores(self):
        sim, sched = make_host(num_cpus=2)
        vm = VirtualMachine(sim, "wide", num_vcpus=2)
        sched.add_domain(vm)
        # Two independent work chains keep both VCPUs busy.
        hog(sim, vm)
        hog(sim, vm)
        sim.run(until=seconds(1))
        assert vm.cpu_time() > seconds(1) * 1.5

    def test_serial_workload_occupies_one_vcpu(self):
        """One chain of work in a 2-VCPU domain must not keep both hot."""
        sim, sched = make_host(num_cpus=2)
        wide = VirtualMachine(sim, "wide", num_vcpus=2)
        competitor = VirtualMachine(sim, "thin")
        sched.add_domain(wide)
        sched.add_domain(competitor)
        hog(sim, wide)  # serial chain
        hog(sim, competitor)
        sim.run(until=seconds(2))
        # Each should get about one core.
        assert abs(wide.cpu_time() - seconds(2)) < seconds(2) * 0.1
        assert abs(competitor.cpu_time() - seconds(2)) < seconds(2) * 0.1


class TestX86Island:
    def test_create_vm_and_entities(self):
        sim = Simulator()
        island = X86Island(sim, X86Params(num_cpus=2))
        vm = island.create_vm("guest", weight=300)
        assert island.vm("guest") is vm
        assert vm.weight == 300
        assert island.has_entity(island_entity(island, "guest"))

    def test_duplicate_vm_rejected(self):
        sim = Simulator()
        island = X86Island(sim)
        island.create_vm("guest")
        with pytest.raises(ValueError):
            island.create_vm("guest")

    def test_apply_tune_adjusts_weight(self):
        sim = Simulator()
        island = X86Island(sim)
        vm = island.create_vm("guest")
        island.apply_tune(island_entity(island, "guest"), +128)
        assert vm.weight == 384
        island.apply_tune(island_entity(island, "guest"), -1000)
        assert vm.weight >= 16  # clamped at MIN_WEIGHT

    def test_apply_trigger_boosts(self):
        sim = Simulator()
        island = X86Island(sim)
        vm = island.create_vm("guest")
        island.apply_trigger(island_entity(island, "guest"))
        assert vm.vcpus[0].boosted

    def test_tune_charges_dom0(self):
        sim = Simulator()
        island = X86Island(sim)
        island.create_vm("guest")
        island.apply_tune(island_entity(island, "guest"), +64)
        assert island.dom0.guest.has_work

    def test_dom0_unpinned_multi_vcpu(self):
        sim = Simulator()
        island = X86Island(sim, X86Params(num_cpus=2))
        assert len(island.dom0.vcpus) == 2
        assert island.guest_vms() == []


def island_entity(island, name):
    from repro.platform import EntityId

    return EntityId(island.name, name)
