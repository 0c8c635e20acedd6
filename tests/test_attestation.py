"""Evidence chain: image measurement, report MAC gate, quote signatures."""

import hashlib
import hmac

import pytest

from palm.attestation import (
    H_MODULE,
    Challenge,
    Quote,
    ReportData,
    TdReport,
    build_report_data,
    create_td_report,
    derive_mac_key,
    derive_private_key,
    gpu_attest,
    measure_td_image,
    qe_sign_quote,
    verify_gpu_token,
    verify_quote,
)
from palm.errors import (
    EmptyImage,
    FormatError,
    MacInvalid,
    MalformedQuote,
    SignatureInvalid,
)
from palm.measurers import LabeledMeasurement, MeasurementSet

SEED = b"test-seed"


@pytest.fixture
def mset():
    return MeasurementSet(
        "SingleInference",
        (LabeledMeasurement("h(M)", b"\xaa" * 32),),
        (LabeledMeasurement("h(r)", b"\xbb" * 32),),
    )


@pytest.fixture
def keys():
    return derive_mac_key(SEED), derive_private_key(b"qe:" + SEED)


def make_quote(mset, keys, chal=None, h_td=None):
    mac_key, qe_key = keys
    chal = chal or Challenge.from_nonce(b"\x07" * 32)
    rd = build_report_data(chal, mset)
    report = create_td_report(h_td or measure_td_image(b"img"), H_MODULE, rd, mac_key)
    return qe_sign_quote(report, mac_key, qe_key, "qe-test")


class TestImageMeasurement:
    def test_digest_is_sha3(self):
        assert measure_td_image(b"manifest") == hashlib.sha3_256(b"manifest").digest()

    def test_empty_rejected(self):
        with pytest.raises(EmptyImage):
            measure_td_image(b"")

    def test_sensitivity_and_stability(self):
        assert measure_td_image(b"a") != measure_td_image(b"b")
        assert measure_td_image(b"a") == measure_td_image(b"a")


class TestChallenge:
    def test_nonce_encoding(self):
        chal = Challenge.from_nonce(b"\x05" * 32)
        assert chal.encode() == b"\x01" + b"\x05" * 32
        assert Challenge.decode(chal.encode()) == chal

    def test_timestamp_encoding(self):
        chal = Challenge.from_timestamp(1_700_000_000)
        assert chal.encode() == b"\x02" + (1_700_000_000).to_bytes(8, "little")
        assert Challenge.decode(chal.encode()) == chal

    def test_bad_nonce_length(self):
        with pytest.raises(FormatError):
            Challenge.from_nonce(b"short")

    def test_unknown_tag(self):
        with pytest.raises(FormatError):
            Challenge.decode(b"\x03" + b"\x00" * 8)

    def test_digest_covers_encoding(self):
        chal = Challenge.from_nonce(b"\x05" * 32)
        assert chal.digest() == hashlib.sha3_256(chal.encode()).digest()


class TestReportData:
    def test_width_and_layout(self, mset):
        chal = Challenge.from_nonce(b"\x01" * 32)
        rd = build_report_data(chal, mset)
        assert len(rd.raw64) == 64
        assert rd.chal_digest == chal.digest()
        assert rd.hi_ho_digest == mset.digest()

    def test_differs_on_measurement_change(self, mset):
        chal = Challenge.from_nonce(b"\x01" * 32)
        other = MeasurementSet(
            mset.op, mset.h_i, (LabeledMeasurement("h(r)", b"\xcc" * 32),)
        )
        assert build_report_data(chal, mset) != build_report_data(chal, other)

    def test_differs_on_challenge_kind(self, mset):
        nonce = Challenge.from_nonce(b"\x01" * 32)
        stamp = Challenge.from_timestamp(1)
        assert build_report_data(nonce, mset) != build_report_data(stamp, mset)

    def test_wrong_width_rejected(self):
        with pytest.raises(FormatError):
            ReportData(b"\x00" * 63)


class TestReportMac:
    def test_mac_formula(self, mset, keys):
        mac_key, _ = keys
        rd = build_report_data(Challenge.from_timestamp(1), mset)
        h_td = measure_td_image(b"img")
        report = create_td_report(h_td, H_MODULE, rd, mac_key)
        expected = hmac.new(mac_key, h_td + H_MODULE + rd.raw64, hashlib.sha3_256).digest()
        assert report.mac == expected

    def test_tampered_report_refused(self, mset, keys):
        mac_key, qe_key = keys
        rd = build_report_data(Challenge.from_timestamp(1), mset)
        report = create_td_report(measure_td_image(b"img"), H_MODULE, rd, mac_key)
        flipped = bytearray(rd.raw64)
        flipped[10] ^= 0x80
        bad = TdReport(report.h_td, report.h_module, ReportData(bytes(flipped)), report.mac)
        with pytest.raises(MacInvalid):
            qe_sign_quote(bad, mac_key, qe_key, "qe-test")

    def test_same_inputs_same_report(self, mset, keys):
        mac_key, _ = keys
        rd = build_report_data(Challenge.from_timestamp(1), mset)
        a = create_td_report(measure_td_image(b"img"), H_MODULE, rd, mac_key)
        b = create_td_report(measure_td_image(b"img"), H_MODULE, rd, mac_key)
        assert a == b


class TestQuote:
    def test_round_trip(self, mset, keys):
        quote = make_quote(mset, keys)
        parsed = verify_quote(quote.encode(), keys[1].public_key())
        assert parsed == quote
        assert parsed.h_module == H_MODULE

    def test_deterministic_signatures(self, mset, keys):
        assert make_quote(mset, keys).encode() == make_quote(mset, keys).encode()

    def test_layout(self, mset, keys):
        raw = make_quote(mset, keys).encode()
        assert raw[0] == 0x01
        key_id = b"qe-test"
        assert raw[129:133] == len(key_id).to_bytes(4, "little")
        assert raw[133 : 133 + len(key_id)] == key_id
        assert len(raw) == 1 + 32 + 32 + 64 + 4 + len(key_id) + 64

    def test_flipped_signature_rejected(self, mset, keys):
        raw = bytearray(make_quote(mset, keys).encode())
        raw[-1] ^= 0x01
        with pytest.raises(SignatureInvalid):
            verify_quote(bytes(raw), keys[1].public_key())

    def test_flipped_body_rejected(self, mset, keys):
        raw = bytearray(make_quote(mset, keys).encode())
        raw[40] ^= 0x01
        with pytest.raises(SignatureInvalid):
            verify_quote(bytes(raw), keys[1].public_key())

    def test_truncated_is_malformed(self, mset, keys):
        with pytest.raises(MalformedQuote):
            verify_quote(make_quote(mset, keys).encode()[:50], keys[1].public_key())

    def test_unknown_version_is_malformed(self, mset, keys):
        raw = bytearray(make_quote(mset, keys).encode())
        raw[0] = 0x7F
        with pytest.raises(MalformedQuote):
            Quote.decode(bytes(raw))

    def test_wrong_key_rejected(self, mset, keys):
        other = derive_private_key(b"other")
        with pytest.raises(SignatureInvalid):
            verify_quote(make_quote(mset, keys).encode(), other.public_key())


class TestGpuToken:
    def test_round_trip(self):
        key = derive_private_key(b"gpu")
        token = gpu_attest(b"fw-state", b"\x09" * 32, key)
        assert token.gpu_measurement == hashlib.sha3_256(b"fw-state").digest()
        assert token.nonce == b"\x09" * 32
        assert verify_gpu_token(token, key.public_key())

    def test_wrong_key_fails(self):
        token = gpu_attest(b"fw", b"\x09" * 32, derive_private_key(b"gpu"))
        assert not verify_gpu_token(token, derive_private_key(b"other").public_key())

    def test_nonce_is_bound(self):
        key = derive_private_key(b"gpu")
        a = gpu_attest(b"fw", b"\x01" * 32, key)
        b = gpu_attest(b"fw", b"\x02" * 32, key)
        assert a.signature != b.signature
        assert a.encode() != b.encode()
        assert len(a.encode()) == 128
