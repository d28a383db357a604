"""The trusted metadata channel (Sec. 4.4.2).

Carries per-tensor (address range, VN, MAC) triples between the enclaves,
encrypted and authenticated under the DH session keys with monotonic
sequence numbers (replay protection). Payloads are tiny compared to tensor
data, so the channel's timing contribution is negligible; its functional
correctness is what the integration tests exercise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.crypto.ctr import CounterModeCipher
from repro.crypto.mac import MacEngine
from repro.errors import IntegrityError, ProtocolError
from repro.units import CACHELINE_BYTES


@dataclass(frozen=True)
class TensorMetadata:
    """What the receiver needs to admit a ciphertext tensor.

    ``src_frame_pas`` lists the sender's physical frame for every page the
    tensor spans (:meth:`repro.mem.layout.PageTable.frames_of`): the
    sender's page table shuffles frames, so the receiver cannot derive a
    line's source PA from ``src_base_pa`` alone.
    """

    name: str
    src_base_va: int
    src_base_pa: int
    n_lines: int
    vn: int
    tensor_mac: int
    src_frame_pas: Tuple[int, ...]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "src_base_va": self.src_base_va,
            "src_base_pa": self.src_base_pa,
            "n_lines": self.n_lines,
            "vn": self.vn,
            "tensor_mac": self.tensor_mac,
            "src_frame_pas": list(self.src_frame_pas),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "TensorMetadata":
        return cls(**{**payload, "src_frame_pas": tuple(payload["src_frame_pas"])})


class TrustedChannel:
    """Authenticated-encryption message pipe between two enclaves."""

    def __init__(self, aes_key: bytes, mac_key: bytes, name: str = "trusted") -> None:
        self._cipher = CounterModeCipher(aes_key, line_bytes=CACHELINE_BYTES)
        self._mac = MacEngine(mac_key)
        self.name = name
        self._send_seq = 0
        self._recv_seq = 0

    def _crypt(self, blob: bytes, seq: int) -> bytes:
        padded_len = -(-len(blob) // CACHELINE_BYTES) * CACHELINE_BYTES
        padded = blob.ljust(padded_len, b"\x00")
        pas = range(0, padded_len, CACHELINE_BYTES)
        return self._cipher.encrypt_lines(padded, pas, [seq] * len(pas))

    def send(self, metadata: TensorMetadata) -> Dict[str, Any]:
        """Encrypt+authenticate one metadata message; returns the wire form."""
        blob = json.dumps(metadata.to_payload()).encode("utf-8")
        seq = self._send_seq
        self._send_seq += 1
        ciphertext = self._crypt(blob, seq)
        tag = self._mac.digest(seq.to_bytes(8, "big") + ciphertext)
        return {"seq": seq, "len": len(blob), "ciphertext": ciphertext, "tag": tag}

    def receive(self, message: Dict[str, Any]) -> TensorMetadata:
        """Verify, decrypt and sequence-check one message."""
        seq = message["seq"]
        if seq != self._recv_seq:
            raise ProtocolError(
                f"{self.name}: out-of-order message (seq {seq}, expected {self._recv_seq})"
            )
        tag = self._mac.digest(seq.to_bytes(8, "big") + message["ciphertext"])
        if tag != message["tag"]:
            raise IntegrityError(f"{self.name}: metadata message tag mismatch")
        self._recv_seq += 1
        blob = self._crypt(message["ciphertext"], seq)[: message["len"]]
        return TensorMetadata.from_payload(json.loads(blob.decode("utf-8")))
