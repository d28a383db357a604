"""Functional direct data transfer protocol (Sec. 4.4, Fig. 6b).

Moves ciphertext straight between the two enclaves' DRAMs over the (modelled)
PCIe direct channel, with per-tensor metadata riding the trusted channel.
No decryption or re-encryption happens anywhere on the path — the receiving
device verifies the tensor MAC on first use against the metadata.

NPU→CPU receives also install the tensor into the CPU's Meta Table using
the transfer descriptor (the Sec. 4.2 fast path).

Source coordinates: counters and MACs bind each line's *source* PA. The
sender's page table maps the tensor's virtual pages to shuffled frames, so
the metadata carries one frame PA per page and the receiver rebuilds every
line's source PA from them (:func:`repro.mem.layout.source_line_pas`).
Each transfer is one batch: one MAC pass, and on the CPU side one
keystream pass and one MEE write, per tensor.
"""

from __future__ import annotations

from typing import Tuple

from repro.comm.channel import TensorMetadata, TrustedChannel
from repro.crypto.mac import xor_macs
from repro.errors import IntegrityError, ProtocolError
from repro.mem.layout import source_line_pas
from repro.tee.device import CpuSecureDevice, NpuSecureDevice
from repro.tensor.tensor import TensorDesc
from repro.units import CACHELINE_BYTES

LINE = CACHELINE_BYTES


class DirectTransferProtocol:
    """Direct ciphertext transfers between an attested CPU/NPU pair."""

    def __init__(
        self,
        cpu: CpuSecureDevice,
        npu: NpuSecureDevice,
        channel_keys: Tuple[bytes, bytes],
    ) -> None:
        self.cpu = cpu
        self.npu = npu
        aes_key, mac_key = channel_keys
        self._cpu_to_npu = TrustedChannel(aes_key, mac_key, name="cpu->npu")
        self._npu_to_cpu = TrustedChannel(aes_key, mac_key, name="npu->cpu")

    # -- CPU -> NPU (weights) ------------------------------------------------

    def cpu_to_npu(self, src: TensorDesc, dst: TensorDesc) -> None:
        """Transfer a CPU tensor into an NPU tensor slot."""
        if src.n_lines != dst.n_lines:
            raise ProtocolError(
                f"shape mismatch: {src.name} ({src.n_lines} lines) -> "
                f"{dst.name} ({dst.n_lines} lines)"
            )
        vn, tensor_mac = self.cpu.tensor_metadata(src)
        src_base_pa, src_frame_pas = self.cpu.source_coords(src)
        metadata = TensorMetadata(
            name=src.name,
            src_base_va=src.base_va,
            src_base_pa=src_base_pa,
            n_lines=src.n_lines,
            vn=vn,
            tensor_mac=tensor_mac,
            src_frame_pas=src_frame_pas,
        )
        wire = self._cpu_to_npu.send(metadata)
        received = self._cpu_to_npu.receive(wire)
        # Direct channel: one raw ciphertext DMA pass over the tensor.
        src_pas = source_line_pas(src_base_pa, src_frame_pas, src.n_lines)
        cpu_read = self.cpu.mee.dram.read_line
        for vaddr, src_pa in zip(dst.line_addresses(), src_pas):
            self.npu.raw_write_line(vaddr, cpu_read(src_pa))
        self.npu.admit_transfer(
            dst,
            vn=received.vn,
            tensor_mac=received.tensor_mac,
            src_base_pa=received.src_base_pa,
            src_frame_pas=received.src_frame_pas,
        )

    # -- NPU -> CPU (gradients) ------------------------------------------------

    def npu_to_cpu(self, src: TensorDesc, dst: TensorDesc) -> None:
        """Transfer an NPU tensor into a CPU tensor slot.

        Enforces the verification barrier first: a poisoned/unverified
        tensor must not leave the NPU enclave (Sec. 4.3). The CPU checks
        the whole ciphertext stream against the trusted-channel tensor MAC
        before anything lands in its memory.
        """
        if src.n_lines != dst.n_lines:
            raise ProtocolError("transfer shape mismatch")
        self.npu.engine.verification_barrier([src])
        vn, tensor_mac = self.npu.tensor_metadata(src)
        src_base_pa, src_frame_pas = self.npu.source_coords(src)
        metadata = TensorMetadata(
            name=src.name,
            src_base_va=src.base_va,
            src_base_pa=src_base_pa,
            n_lines=src.n_lines,
            vn=vn,
            tensor_mac=tensor_mac,
            src_frame_pas=src_frame_pas,
        )
        wire = self._npu_to_cpu.send(metadata)
        received = self._npu_to_cpu.receive(wire)
        # Ciphertext DMA into CPU DRAM, decrypted under the source crypto
        # coordinates that arrived ahead of the data.
        src_pas = source_line_pas(received.src_base_pa, received.src_frame_pas, src.n_lines)
        vns = [received.vn] * src.n_lines
        ciphertexts = self.npu.raw_read_lines(src)
        macs = self.cpu.mee.mac.line_macs(ciphertexts, LINE, src_pas, vns)
        if xor_macs(macs) != received.tensor_mac:
            raise IntegrityError(
                f"{src.name}: ciphertext stream does not match the trusted metadata MAC"
            )
        plaintext = self.cpu.mee.cipher.decrypt_lines(ciphertexts, src_pas, vns)
        # The CPU MEE re-homes the lines under its own (PA, VN) counters as
        # they land — a pipelined XOR re-keying with no AES on the path is
        # possible because keystreams are precomputable from the metadata.
        self.cpu.mee.write_lines(list(dst.line_addresses()), plaintext, vn=received.vn)
        self.cpu.analyzer.install_from_transfer(dst.base_va, dst.n_lines, received.vn)
