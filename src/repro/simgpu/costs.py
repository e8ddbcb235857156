"""Instruction cost table of the G80 architecture (paper Table 2.2).

Costs are *cycles per warp* in the shader clock domain:

=============================================  =========================
Instruction                                    Cost (cycles per warp)
=============================================  =========================
FADD, FMUL, FMAD, IADD                         4
bitwise operations, compare, min, max          4
reciprocal, reciprocal square root             16
accessing registers                            0
accessing shared memory                        >= 4
reading from device memory                     400 - 600
synchronizing all threads within a block       4 + possible waiting time
=============================================  =========================

Writing to device memory is a *fire-and-forget* instruction (§2.3): the
processor forwards it to a memory writing unit and continues, so it costs
only the issue slot (4 cycles) plus memory-pipeline occupancy accounted by
the performance model, not the 400-600 cycle read latency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpClass(enum.Enum):
    """Instruction classes distinguished by the Table 2.2 cost model."""

    FADD = "fadd"
    FMUL = "fmul"
    FMAD = "fmad"
    IADD = "iadd"
    BITWISE = "bitwise"
    COMPARE = "compare"
    MINMAX = "minmax"
    RCP = "rcp"  # reciprocal
    RSQRT = "rsqrt"  # reciprocal square root
    #: Other SFU transcendentals (__sinf/__cosf/__expf/__logf): the G80
    #: special function unit serves these at rcp-like throughput.
    TRANSCENDENTAL = "transcendental"
    #: Type conversion / casting intrinsics (§3.1.4): simple-ALU cost.
    CONVERT = "convert"
    REGISTER = "register"
    SHARED_READ = "shared_read"
    SHARED_WRITE = "shared_write"
    GLOBAL_READ = "global_read"
    GLOBAL_WRITE = "global_write"
    #: Cached read-only spaces (§2.1/§2.2; modelled for the ch. 7 future
    #: work).  Costs below are cache-*hit* issue costs; misses are
    #: accounted as device-memory traffic by the executor.
    CONSTANT_READ = "constant_read"
    TEXTURE_READ = "texture_read"
    SYNC = "sync"
    BRANCH = "branch"  # control-flow instruction itself (§2.3: only the
    # instruction executes when the warp does not diverge)

    #: Members are singletons compared by identity, so they hash by
    #: identity too: the executor tallies ``op_counts[op] += n`` for every
    #: warp instruction, and ``Enum.__hash__`` is a Python-level function
    #: (it hashes the member's name).  Dict and Counter key order is
    #: insertion order, so no published order depends on the hash.
    __hash__ = object.__hash__


#: Arithmetic classes that count as one FLOP each (FMAD counts as two).
FLOP_CLASSES = frozenset(
    {OpClass.FADD, OpClass.FMUL, OpClass.FMAD, OpClass.RCP, OpClass.RSQRT}
)


@dataclass(frozen=True)
class CostTable:
    """Cycles-per-warp issue/latency costs, configurable for what Table 2.2
    leaves as a range ("400 - 600", ">= 4").

    ``global_read_latency`` is the full round-trip latency of a device
    memory read; ``issue_cycles`` is the pipeline issue cost every
    instruction pays (4 cycles per warp on G80).
    """

    issue_cycles: int = 4
    rcp_cycles: int = 16
    rsqrt_cycles: int = 16
    register_cycles: int = 0
    shared_cycles: int = 4
    global_read_latency: int = 500  # middle of the 400-600 band
    global_read_latency_min: int = 400
    global_read_latency_max: int = 600
    sync_base_cycles: int = 4
    #: Constant cache hit: register speed when the warp broadcasts from
    #: one address (the hardware serializes distinct addresses).
    constant_hit_cycles: int = 4
    #: Texture cache hit: cheap but not register-cheap.
    texture_hit_cycles: int = 8

    def issue_cost(self, op: OpClass) -> int:
        """Pipeline issue cost in cycles per warp (latency excluded)."""
        if op is OpClass.REGISTER:
            return self.register_cycles
        if op in (OpClass.RCP, OpClass.RSQRT, OpClass.TRANSCENDENTAL):
            if op is OpClass.RCP:
                return self.rcp_cycles
            if op is OpClass.RSQRT:
                return self.rsqrt_cycles
            return self.rsqrt_cycles  # SFU throughput class
        if op in (OpClass.SHARED_READ, OpClass.SHARED_WRITE):
            return self.shared_cycles
        if op is OpClass.CONSTANT_READ:
            return self.constant_hit_cycles
        if op is OpClass.TEXTURE_READ:
            return self.texture_hit_cycles
        if op is OpClass.SYNC:
            return self.sync_base_cycles
        # FADD/FMUL/FMAD/IADD/BITWISE/COMPARE/MINMAX/BRANCH and the issue
        # slot of global reads/writes all take one 4-cycle issue.
        return self.issue_cycles

    def serialized_cost(self, op: OpClass) -> int:
        """Full cost when nothing hides latency (used by the emulator's
        worst-case accounting and Table 2.2 microbenchmarks)."""
        if op is OpClass.GLOBAL_READ:
            return self.global_read_latency
        return self.issue_cost(op)


#: Default cost table used throughout the library.
G80_COSTS = CostTable()
