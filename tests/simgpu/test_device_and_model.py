"""Launch validation, occupancy, perf model, transfer timeline, devicelib."""

import math

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.simgpu import (
    Dim3,
    G80_8800GTS,
    G80_COSTS,
    KernelCostInputs,
    OpClass,
    SimDevice,
    compute_occupancy,
    kernel_time,
    time_from_profile,
)
from repro.simgpu import devicelib as dl
from repro.simgpu.isa import op
from repro.simgpu.transfer import DeviceTimeline, PcieModel


class TestLaunchValidation:
    def test_block_over_512_threads_rejected(self, device):
        def k(ctx):
            yield op(OpClass.FADD)

        with pytest.raises(ConfigurationError):
            device.launch(k, 1, 513, ())

    def test_3d_grid_rejected(self, device):
        def k(ctx):
            yield op(OpClass.FADD)

        with pytest.raises(ConfigurationError):
            device.launch(k, Dim3(2, 2, 2), 32, ())

    def test_zero_sized_launch_rejected(self, device):
        def k(ctx):
            yield op(OpClass.FADD)

        with pytest.raises(ConfigurationError):
            device.launch(k, 0, 32, ())

    def test_grid_dim_limit(self, device):
        def k(ctx):
            yield op(OpClass.FADD)

        with pytest.raises(ConfigurationError):
            device.launch(k, Dim3(65536, 1, 1), 1, ())

    def test_properties_report_arch(self, big_device):
        props = big_device.properties()
        assert props["multiProcessorCount"] == 12
        assert props["warpSize"] == 32
        assert props["major"], props["minor"] == (1, 0)


class TestOccupancy:
    def test_thread_slot_limit(self):
        occ = compute_occupancy(G80_8800GTS, 256, 0, 1)
        assert occ.blocks_per_mp == 3  # 768 / 256
        assert occ.limited_by == "thread slots"
        assert occ.warps_per_mp == 24

    def test_shared_memory_limit(self):
        occ = compute_occupancy(G80_8800GTS, 64, 9000, 1)
        assert occ.blocks_per_mp == 1
        assert occ.limited_by == "shared memory"

    def test_register_limit(self):
        occ = compute_occupancy(G80_8800GTS, 256, 0, 16)
        assert occ.blocks_per_mp == 2  # 8192 / (16*256)
        assert occ.limited_by == "registers"

    def test_block_slot_limit(self):
        occ = compute_occupancy(G80_8800GTS, 32, 0, 1)
        assert occ.blocks_per_mp == 8
        assert occ.limited_by == "block slots"

    def test_too_many_threads_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_occupancy(G80_8800GTS, 1024)

    def test_warps_round_up(self):
        occ = compute_occupancy(G80_8800GTS, 48, 0, 1)
        assert occ.warps_per_block == 2


class TestPerfModel:
    def test_pure_compute_is_issue_bound(self):
        inputs = KernelCostInputs(
            blocks=12,
            threads_per_block=128,
            issue_cycles=12_000_000,
            global_reads=0,
            bytes_moved=0,
        )
        t = kernel_time(inputs)
        assert t.bound_by == "issue"
        assert t.total_s == pytest.approx(
            1_000_000 / G80_8800GTS.shader_clock_hz
        )

    def test_heavy_traffic_is_memory_bound(self):
        inputs = KernelCostInputs(
            blocks=12,
            threads_per_block=128,
            issue_cycles=1000,
            global_reads=10,
            bytes_moved=640_000_000,
        )
        t = kernel_time(inputs)
        assert t.bound_by == "memory"
        assert t.total_s >= 640_000_000 / G80_8800GTS.memory_bandwidth_bytes_per_s

    def test_latency_fully_exposed_with_single_warp(self):
        # One warp, reads back to back: every read stalls the full latency.
        inputs = KernelCostInputs(
            blocks=1,
            threads_per_block=32,
            issue_cycles=100 * 4,
            global_reads=100,
            bytes_moved=100 * 128,
            shared_bytes_per_block=15_000,  # force 1 block/MP
        )
        t = kernel_time(inputs)
        expected_stall = 100 * (G80_COSTS.global_read_latency) / G80_8800GTS.shader_clock_hz
        assert t.t_exposed_s == pytest.approx(expected_stall, rel=0.05)

    def test_latency_hidden_with_many_warps_and_compute(self):
        # 24 resident warps with lots of arithmetic between reads.
        inputs = KernelCostInputs(
            blocks=12,
            threads_per_block=256,
            issue_cycles=48 * 10_000 * 4,
            global_reads=48 * 10,
            bytes_moved=48 * 10 * 128,
            registers_per_thread=1,
        )
        t = kernel_time(inputs)
        assert t.t_exposed_s == 0.0

    def test_more_mps_reduce_time(self):
        from repro.simgpu import scaled_arch

        inputs = KernelCostInputs(
            blocks=24,
            threads_per_block=128,
            issue_cycles=10_000_000,
            global_reads=0,
            bytes_moved=0,
        )
        fast = kernel_time(inputs, scaled_arch("wide", 16))
        slow = kernel_time(inputs, scaled_arch("narrow", 4))
        assert fast.total_s < slow.total_s

    def test_from_profile_matches_manual_inputs(self, device):
        def k(ctx):
            yield op(OpClass.FADD, 10)

        result = device.launch(k, 2, 64, ())
        t = time_from_profile(result.profile, 2, 64)
        # 2 blocks x 2 warps x 1 round of 10 FADD = 4 issues of 40 cycles.
        assert t.t_issue_s == pytest.approx(4 * 40 / 2 / G80_8800GTS.shader_clock_hz)


class TestTimeline:
    def test_kernel_launch_does_not_block_host(self):
        tl = DeviceTimeline(PcieModel())
        tl.launch_kernel(1.0)
        assert tl.host_time == pytest.approx(tl.launch_overhead_s)
        assert tl.device_busy_until == pytest.approx(
            tl.launch_overhead_s + 1.0
        )

    def test_memcpy_blocks_until_kernel_done(self):
        # §2.2: device memory access blocks the host while a kernel runs.
        tl = DeviceTimeline(PcieModel())
        tl.launch_kernel(0.010)
        before = tl.host_time
        tl.memcpy(1_000_000)
        spent = tl.host_time - before
        assert tl.host_time >= 0.010
        assert spent >= 0.010 - tl.launch_overhead_s

    def test_host_work_overlaps_device(self):
        tl = DeviceTimeline(PcieModel())
        tl.launch_kernel(0.010)
        tl.host_work(0.010)  # draw while the device updates
        wait = tl.synchronize()
        # Host work covered the kernel duration exactly; no residual wait.
        assert wait == pytest.approx(0.0, abs=1e-12)

    def test_back_to_back_kernels_serialize(self):
        # §2.2: multiple kernels are not executed in parallel.
        tl = DeviceTimeline(PcieModel())
        tl.launch_kernel(0.005)
        tl.launch_kernel(0.005)
        tl.synchronize()
        assert tl.host_time >= 0.010

    def test_transfer_time_scales_with_bytes(self):
        pcie = PcieModel(bandwidth_bytes_per_s=1e9, per_call_overhead_s=1e-5)
        small = pcie.transfer_time(1000)
        big = pcie.transfer_time(1_000_000)
        assert big > small
        assert big == pytest.approx(1e-5 + 1e-3)


class TestDevicelib:
    def _run_single(self, device, gen_fn):
        """Run a 1-thread kernel that stores gen_fn's result via a list."""
        out = []

        def kernel(ctx):
            val = yield from gen_fn()
            out.append(val)

        result = device.launch(kernel, 1, 1, ())
        return out[0], result.profile

    def test_vec3_arithmetic_results(self, device):
        val, _ = self._run_single(device, lambda: dl.add3((1, 2, 3), (4, 5, 6)))
        assert val == (5, 7, 9)
        val, _ = self._run_single(device, lambda: dl.sub3((1, 2, 3), (4, 5, 6)))
        assert val == (-3, -3, -3)
        val, _ = self._run_single(device, lambda: dl.dot3((1, 2, 3), (4, 5, 6)))
        assert val == 32

    def test_vec3_costs(self, device):
        _, p = self._run_single(device, lambda: dl.add3((1, 2, 3), (4, 5, 6)))
        assert p.op_counts[OpClass.FADD] == 3  # three component adds
        _, p = self._run_single(device, lambda: dl.dot3((1, 2, 3), (4, 5, 6)))
        assert p.op_counts[OpClass.FMAD] == 2
        assert p.op_counts[OpClass.FMUL] == 1

    def test_normalize_is_unit_length(self, device):
        val, p = self._run_single(device, lambda: dl.normalize3((3.0, 0.0, 4.0)))
        assert math.isclose(math.hypot(*val), 1.0, rel_tol=1e-12)
        assert p.op_counts[OpClass.RSQRT] == 1

    def test_normalize_zero_stays_zero(self, device):
        val, _ = self._run_single(device, lambda: dl.normalize3((0.0, 0.0, 0.0)))
        assert val == (0.0, 0.0, 0.0)

    def test_length3(self, device):
        val, _ = self._run_single(device, lambda: dl.length3((3.0, 4.0, 0.0)))
        assert math.isclose(val, 5.0, rel_tol=1e-12)
