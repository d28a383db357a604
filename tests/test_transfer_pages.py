"""Direct transfers of multi-page tensors: per-page source coordinates.

Counters and MACs bind each line's *source* PA, and the sender's page
table maps consecutive virtual pages to shuffled frames. A receiver that
assumed ``src_base_pa + i*64`` rejected every tensor whose frames were not
consecutive; the trusted-channel metadata now carries one frame PA per
page, and these tests pin that contract at and across the one-page edge.
"""

import random

import pytest

from repro.comm.channel import TensorMetadata
from repro.comm.direct import DirectTransferProtocol
from repro.crypto.mac import xor_macs
from repro.errors import ConfigError, IntegrityError
from repro.mem.layout import PageTable, source_line_pas
from repro.tee.device import CpuSecureDevice, NpuSecureDevice
from repro.tee.enclave import Enclave, TrustDomain, mutual_attestation
from repro.tensor.dtype import DType
from repro.units import CACHELINE_BYTES, PAGE_BYTES

LINE = CACHELINE_BYTES

#: 64 and 65 lines sit on either side of the one-page edge; 128 and 256
#: lines are exactly two and four pages.
LINE_COUNTS = [64, 65, 128, 256]


@pytest.fixture
def system():
    domain = TrustDomain()
    cpu_enclave = Enclave("cpu", b"optimizer code")
    npu_enclave = Enclave("npu", b"training kernels")
    cpu_enclave.create(dh_seed=11)
    npu_enclave.create(dh_seed=12)
    keys, _ = mutual_attestation(cpu_enclave, npu_enclave, domain)
    cpu = CpuSecureDevice(*keys)
    npu = NpuSecureDevice(*keys)
    return cpu, npu, DirectTransferProtocol(cpu, npu, keys)


def fp32(device, name, lines):
    """An FP32 tensor of exactly ``lines`` cachelines."""
    return device.allocate(name, (lines * LINE // 4,), DType.FP32)


def payload(tensor, seed=0):
    return random.Random(seed).randbytes(tensor.nbytes)


def frames_are_shuffled(pages, tensor):
    frames = pages.frames_of(tensor.base_va, tensor.n_lines)
    return any(b - a != PAGE_BYTES for a, b in zip(frames, frames[1:]))


class TestSourceCoordinates:
    def test_frames_cover_every_spanned_page(self):
        pages = PageTable()
        frames = pages.frames_of(0x10_0000 + 3 * LINE, 64)  # straddles two pages
        assert len(frames) == 2
        assert frames == (pages.translate(0x10_0000), pages.translate(0x10_1000))

    def test_line_pas_follow_the_page_table(self):
        pages = PageTable()
        base_va = 0x20_0000 + 17 * LINE
        frames = pages.frames_of(base_va, 200)
        expected = [pages.translate(base_va + i * LINE) for i in range(200)]
        assert source_line_pas(pages.translate(base_va), frames, 200) == expected

    @pytest.mark.parametrize("frames", [(0xA000,), (0xB000, 0xC000), (0xA000, 0xC000, 0xD000)])
    def test_inconsistent_frames_rejected(self, frames):
        with pytest.raises(ConfigError):
            source_line_pas(0xA000, frames, 65)

    def test_metadata_carries_frames_over_the_channel(self):
        from repro.comm.channel import TrustedChannel

        sender = TrustedChannel(b"k" * 16, b"m" * 16)
        receiver = TrustedChannel(b"k" * 16, b"m" * 16)
        sent = TensorMetadata("t", 0x1000, 0x5000, 65, 2, 0xAB, (0x5000, 0x9000))
        assert receiver.receive(sender.send(sent)) == sent

    def test_admit_rejects_frames_that_do_not_fit_the_tensor(self, system):
        _, npu, _ = system
        t = fp32(npu, "t", 65)
        with pytest.raises(ConfigError):
            npu.admit_transfer(t, vn=1, tensor_mac=0, src_base_pa=0x5000, src_frame_pas=(0x5000,))


class TestMultiPageTransfers:
    @pytest.mark.parametrize("lines", LINE_COUNTS)
    def test_weights_arrive_byte_exact(self, system, lines):
        cpu, npu, protocol = system
        src, dst = fp32(cpu, "w", lines), fp32(npu, "w", lines)
        cpu.write_tensor(src, payload(src, lines))
        protocol.cpu_to_npu(src, dst)
        assert npu.read_tensor_delayed(dst) == payload(src, lines)

    @pytest.mark.parametrize("lines", LINE_COUNTS)
    def test_gradients_arrive_byte_exact(self, system, lines):
        cpu, npu, protocol = system
        src, dst = fp32(npu, "g", lines), fp32(cpu, "g", lines)
        npu.write_tensor(src, payload(src, lines))
        protocol.npu_to_cpu(src, dst)
        assert cpu.read_tensor(dst) == payload(src, lines)
        assert cpu.analyzer.table.covering_range(dst.base_va, lines) is not None

    def test_sources_really_span_shuffled_frames(self, system):
        """The cases above are meaningful only when frames are not consecutive."""
        cpu, npu, _ = system
        assert frames_are_shuffled(cpu.mee.pages, fp32(cpu, "c", 256))
        assert frames_are_shuffled(npu.mee.pages, fp32(npu, "n", 256))

    @pytest.mark.parametrize("lines", [65, 256])
    def test_round_trip_reuses_the_carried_frames(self, system, lines):
        cpu, npu, protocol = system
        w_cpu, w_npu = fp32(cpu, "w", lines), fp32(npu, "w", lines)
        back = fp32(cpu, "back", lines)
        cpu.write_tensor(w_cpu, payload(w_cpu, 7))
        protocol.cpu_to_npu(w_cpu, w_npu)
        assert npu.read_tensor_delayed(w_npu) == payload(w_cpu, 7)
        # Not rewritten on the NPU: it still carries the CPU's coordinates.
        assert npu.source_coords(w_npu) == cpu.source_coords(w_cpu)
        protocol.npu_to_cpu(w_npu, back)
        assert cpu.read_tensor(back) == payload(w_cpu, 7)

    def test_tensor_mac_binds_the_true_source_pas(self, system):
        cpu, npu, protocol = system
        src, dst = fp32(cpu, "w", 130), fp32(npu, "w", 130)
        cpu.write_tensor(src, payload(src))
        protocol.cpu_to_npu(src, dst)
        vn, tensor_mac = cpu.tensor_metadata(src)
        true_pas = [cpu.mee.pages.translate(va) for va in src.line_addresses()]
        ciphertexts = [
            npu.mee.dram.read_line(npu.mee.pages.translate(va)) for va in dst.line_addresses()
        ]
        macs = [cpu.mee.mac.line_mac(c, pa, vn) for c, pa in zip(ciphertexts, true_pas)]
        assert xor_macs(macs) == tensor_mac

    def test_tampered_weight_line_on_a_later_page_rejected(self, system):
        cpu, npu, protocol = system
        clean_src, clean_dst = fp32(cpu, "clean", 200), fp32(npu, "clean", 200)
        cpu.write_tensor(clean_src, payload(clean_src))
        protocol.cpu_to_npu(clean_src, clean_dst)
        assert npu.read_tensor_delayed(clean_dst) == payload(clean_src)

        src, dst = fp32(cpu, "w", 200), fp32(npu, "w", 200)
        cpu.write_tensor(src, payload(src))
        protocol.cpu_to_npu(src, dst)
        npu.mee.tamper_ciphertext(dst.base_va + 150 * LINE, flip_bit=5)
        with pytest.raises(IntegrityError):
            npu.read_tensor_delayed(dst)

    def test_tampered_gradient_line_never_lands_on_the_cpu(self, system):
        cpu, npu, protocol = system
        clean_src, clean_dst = fp32(npu, "clean", 200), fp32(cpu, "clean", 200)
        npu.write_tensor(clean_src, payload(clean_src))
        protocol.npu_to_cpu(clean_src, clean_dst)
        assert cpu.read_tensor(clean_dst) == payload(clean_src)

        src, dst = fp32(npu, "g", 200), fp32(cpu, "g", 200)
        npu.write_tensor(src, payload(src))
        npu.mee.tamper_ciphertext(src.base_va + 100 * LINE, flip_bit=9)
        writes_before = cpu.mee.stats["writes"]
        with pytest.raises(IntegrityError):
            protocol.npu_to_cpu(src, dst)
        assert cpu.mee.stats["writes"] == writes_before
        assert cpu.analyzer.table.entry_of(dst.base_va) is None
