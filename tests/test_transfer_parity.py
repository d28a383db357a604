"""Scalar/vector parity of the per-tensor secure transfer path.

Random sequences of tensor writes, direct transfers in both directions,
chained send-backs, tampering and read-backs run once with the batched
kernels and once under :func:`repro.vec.scalar_fallback` (the in-process
twin of ``REPRO_NO_VECTORIZE=1``). Every observable end state must be
identical: DRAM bytes on both devices, the off-chip VN and MAC stores, the
Merkle root, the Meta Table entries, the received bytes and the exception
types raised along the way.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import vec
from repro.comm.direct import DirectTransferProtocol
from repro.mem.mee import FunctionalMee
from repro.sim.trace import AccessKind, MemAccess
from repro.tee.device import CpuSecureDevice, NpuSecureDevice
from repro.tensor.dtype import DType
from repro.units import CACHELINE_BYTES, MiB

LINE = CACHELINE_BYTES
KEYS = (b"parity-aes-key16", b"parity-mac-key16")

lines_st = st.integers(1, 300)
seed_st = st.integers(0, 2**16)
#: Ops on earlier tensors pick the k-th one (mod count); a ``poke`` writes a
#: single line the way a core's store would, so later whole-tensor batches
#: see mixed per-line VNs.
op_st = st.one_of(
    st.tuples(st.sampled_from(["weight", "grad"]), lines_st, seed_st),
    st.tuples(
        st.sampled_from(["rewrite", "poke", "resend", "send_back", "tamper"]),
        st.integers(0, 7),
        seed_st,
    ),
)


def _fp32(device, name, lines):
    return device.allocate(name, (lines * LINE // 4,), DType.FP32)


def _mee_state(mee):
    return (
        sorted(mee.dram.lines()),
        sorted(mee.vn_store.items()),
        sorted(mee.mac_store.items()),
        mee.merkle.root if mee.merkle is not None else None,
    )


def _poke(cpu, vaddr, data):
    outcome = cpu.analyzer.on_write(MemAccess(vaddr, AccessKind.WRITE))
    old_mac, new_mac = cpu.mee.write_line(vaddr, data, vn=outcome.vn)
    cpu.analyzer.fold_mac(vaddr, old_mac ^ new_mac)


def run_sequence(ops):
    """Play ``ops`` on a fresh device pair; returns every observable."""
    cpu, npu = CpuSecureDevice(*KEYS), NpuSecureDevice(*KEYS)
    protocol = DirectTransferProtocol(cpu, npu, KEYS)
    weights = []  # (cpu tensor, npu tensor) pairs, CPU -> NPU
    grads = []  # (npu tensor, cpu tensor) pairs, NPU -> CPU
    observed = []
    for step, (kind, arg, seed) in enumerate(ops):
        rng = random.Random(seed)
        cpu_tensors = [src for src, _ in weights] + [dst for _, dst in grads]
        try:
            if kind == "weight":
                src, dst = _fp32(cpu, f"w{step}", arg), _fp32(npu, f"w{step}", arg)
                weights.append((src, dst))
                cpu.write_tensor(src, rng.randbytes(src.nbytes))
                protocol.cpu_to_npu(src, dst)
                observed.append(npu.read_tensor_delayed(dst))
            elif kind == "grad":
                src, dst = _fp32(npu, f"g{step}", arg), _fp32(cpu, f"g{step}", arg)
                grads.append((src, dst))
                npu.write_tensor(src, rng.randbytes(src.nbytes))
                protocol.npu_to_cpu(src, dst)
                observed.append(cpu.read_tensor(dst))
            elif kind == "rewrite" and cpu_tensors:
                tensor = cpu_tensors[arg % len(cpu_tensors)]
                cpu.write_tensor(tensor, rng.randbytes(tensor.nbytes))
                observed.append(cpu.read_tensor(tensor))
            elif kind == "poke" and cpu_tensors:
                tensor = cpu_tensors[arg % len(cpu_tensors)]
                vaddr = tensor.base_va + rng.randrange(tensor.n_lines) * LINE
                _poke(cpu, vaddr, rng.randbytes(LINE))
                observed.append(cpu.read_tensor(tensor))
            elif kind == "resend" and weights:
                src, dst = weights[arg % len(weights)]
                protocol.cpu_to_npu(src, dst)
                observed.append(npu.read_tensor_delayed(dst))
            elif kind == "send_back" and weights:
                npu_tensor = weights[arg % len(weights)][1]
                back = _fp32(cpu, f"b{step}", npu_tensor.n_lines)
                protocol.npu_to_cpu(npu_tensor, back)
                observed.append(cpu.read_tensor(back))
            elif kind == "tamper" and (weights or grads):
                targets = [(npu, npu.read_tensor_delayed, dst) for _, dst in weights]
                targets += [(cpu, cpu.read_tensor, dst) for _, dst in grads]
                device, read, tensor = targets[arg % len(targets)]
                line = rng.randrange(tensor.n_lines) * LINE
                device.mee.tamper_ciphertext(tensor.base_va + line, flip_bit=rng.randrange(512))
                observed.append(read(tensor))
        except Exception as exc:
            observed.append(type(exc).__name__)
    entries = sorted(
        (e.geometry.base_va, e.geometry.n_lines, e.geometry.stride_lines, e.vn, e.mac)
        for e in cpu.analyzer.table.entries()
    )
    return _mee_state(cpu.mee), _mee_state(npu.mee), entries, observed


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(op_st, min_size=1, max_size=5))
def test_transfer_sequences_identical_in_both_modes(ops):
    vectored = run_sequence(ops)
    with vec.scalar_fallback():
        scalar = run_sequence(ops)
    assert vectored == scalar


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=12, unique=True),
    st.integers(0, 2**16),
)
def test_per_line_vn_batch_equals_write_line_loop(line_ids, seed):
    """``write_lines(vn=[...])`` ends where a ``write_line`` loop ends."""
    rng = random.Random(seed)
    vaddrs = [0x4000_0000 + i * 5 * LINE for i in line_ids]
    vns = [rng.randrange(1, 9) for _ in vaddrs]
    data = rng.randbytes(len(vaddrs) * LINE)

    def fresh():
        return FunctionalMee(*KEYS, protected_bytes=1 * MiB)

    batched = fresh()
    batch_macs = batched.write_lines(vaddrs, data, vn=vns)
    looped = fresh()
    loop_macs = [
        looped.write_line(va, data[i * LINE : (i + 1) * LINE], vn=vn)
        for i, (va, vn) in enumerate(zip(vaddrs, vns))
    ]
    assert _mee_state(batched) == _mee_state(looped)
    assert list(zip(*batch_macs)) == loop_macs
    assert batched.read_lines(vaddrs, vn=vns) == data
