"""Communication: links, engines, trusted channel, transfer timing."""

import pytest

from repro.comm.aes_engine import AesEngine
from repro.comm.channel import TensorMetadata, TrustedChannel
from repro.comm.pcie import PcieLink
from repro.comm.scheduler import (
    CommConfig,
    direct_transfer,
    graviton_transfer,
    plain_transfer,
)
from repro.errors import ConfigError, IntegrityError, ProtocolError
from repro.units import GB


def metadata(vn=3, mac=0xABC) -> TensorMetadata:
    return TensorMetadata("t", 0x1000, 0x2000, 16, vn, mac, (0x2000,))


class TestLinkAndEngine:
    def test_transfer_time_linear_plus_latency(self):
        link = PcieLink()
        t1, t2 = link.transfer_time(1 * GB), link.transfer_time(2 * GB)
        assert t2 - t1 == pytest.approx(1 * GB / link.effective_bw)

    def test_zero_bytes_free(self):
        assert PcieLink().transfer_time(0) == 0.0

    def test_aes_engine_8gbs(self):
        engine = AesEngine()
        assert engine.crypt_time(8 * GB) == pytest.approx(1.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigError):
            PcieLink().transfer_time(-1)
        with pytest.raises(ConfigError):
            AesEngine().crypt_time(-1)


class TestTrustedChannel:
    def _pair(self):
        return TrustedChannel(b"k" * 16, b"m" * 16), TrustedChannel(b"k" * 16, b"m" * 16)

    def test_roundtrip(self):
        sender, receiver = self._pair()
        wire = sender.send(metadata())
        assert receiver.receive(wire) == metadata()

    def test_tampered_message_rejected(self):
        sender, receiver = self._pair()
        wire = sender.send(metadata())
        wire["ciphertext"] = bytes([wire["ciphertext"][0] ^ 1]) + wire["ciphertext"][1:]
        with pytest.raises(IntegrityError):
            receiver.receive(wire)

    def test_replayed_message_rejected(self):
        sender, receiver = self._pair()
        wire = sender.send(metadata())
        receiver.receive(wire)
        with pytest.raises(ProtocolError):
            receiver.receive(wire)  # sequence number already consumed

    def test_wrong_key_rejected(self):
        sender = TrustedChannel(b"k" * 16, b"m" * 16)
        eavesdropper = TrustedChannel(b"k" * 16, b"X" * 16)
        wire = sender.send(metadata())
        with pytest.raises(IntegrityError):
            eavesdropper.receive(wire)

    def test_confidentiality(self):
        sender, _ = self._pair()
        wire = sender.send(metadata(vn=123456))
        assert b"123456" not in wire["ciphertext"]


class TestTransferTimings:
    def test_plain_overlap_hides_fraction(self):
        config = CommConfig()
        full = plain_transfer(config, 1 * GB, 0.0, 10.0)
        mostly = plain_transfer(config, 1 * GB, 0.9, 10.0)
        assert mostly.exposed_s < full.exposed_s
        assert mostly.busy_s == pytest.approx(full.busy_s)

    def test_plain_overlap_limited_by_window(self):
        config = CommConfig()
        t = plain_transfer(config, 1 * GB, 1.0, 0.01)
        assert t.exposed_s == pytest.approx(t.link_s - 0.01)

    def test_graviton_pays_four_aes_passes(self):
        config = CommConfig()
        t = graviton_transfer(config, 1 * GB, sender_is_npu=True)
        assert t.reenc_s == pytest.approx(2 * GB / config.npu_aes.total_bandwidth)
        assert t.dec_s == pytest.approx(2 * GB / config.cpu_aes.total_bandwidth)
        assert t.exposed_s == pytest.approx(t.reenc_s + t.link_s + t.dec_s)

    def test_direct_beats_graviton(self):
        config = CommConfig()
        base = graviton_transfer(config, 1 * GB, sender_is_npu=True)
        ours = direct_transfer(config, 1 * GB, 0.95, 10.0, n_tensors=24)
        assert ours.exposed_s < base.exposed_s / 5

    def test_direct_no_aes_on_path(self):
        config = CommConfig()
        ours = direct_transfer(config, 1 * GB, 0.0, 0.0)
        assert ours.reenc_s == 0.0 and ours.dec_s == 0.0
        assert ours.exposed_s == pytest.approx(
            ours.link_s + config.barrier_sync_s, rel=0.01
        )
