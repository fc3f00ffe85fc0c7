"""Certificate issuance, chain validation, revocation."""

import dataclasses

import pytest

from portsec import records
from portsec.envelope import DEFAULT_SUITE
from portsec.pki import (
    CA_ROLE,
    FailureReason,
    UnknownSerial,
    ValidityOutsideIssuer,
    cert_from_record,
    cert_to_wire,
    create_root,
    create_subordinate,
    validate_chain,
)


@pytest.fixture(scope="module")
def pki():
    root = create_root("PortRoot", validity=(0, 1000))
    sl_ca = create_subordinate(root, "SL1-CA", validity=(0, 500))
    t_ca = create_subordinate(root, "T1-CA", validity=(0, 500))
    clerk_kp = DEFAULT_SUITE.generate_keypair("sl1-clerk")
    clerk = sl_ca.issue(
        "sl1-clerk", "SL1", "SHIPPING_LINE", clerk_kp.public, (0, 400)
    )
    registry = {ca.name: ca for ca in (root, sl_ca, t_ca)}
    return {
        "root": root,
        "sl_ca": sl_ca,
        "t_ca": t_ca,
        "clerk": clerk,
        "clerk_kp": clerk_kp,
        "registry": registry,
    }


def test_root_is_self_signed(pki):
    root = pki["root"]
    assert root.cert.issuer == root.cert.subject == "PortRoot"
    assert root.cert.role == CA_ROLE
    res = validate_chain(root.cert, [], root.cert, at=10, ca_registry=pki["registry"])
    assert res.valid


def test_three_link_chain_validates(pki):
    res = validate_chain(
        pki["clerk"],
        [pki["sl_ca"].cert, pki["root"].cert],
        pki["root"].cert,
        at=100,
        ca_registry=pki["registry"],
    )
    assert res.valid, res
    # Anchor may be left off the presented chain; it is appended.
    res2 = validate_chain(
        pki["clerk"], [pki["sl_ca"].cert], pki["root"].cert, at=100, ca_registry=pki["registry"]
    )
    assert res2.valid


def test_mutated_body_breaks_signature(pki):
    forged = dataclasses.replace(pki["clerk"], org="SL2")
    res = validate_chain(
        forged, [pki["sl_ca"].cert], pki["root"].cert, at=100, ca_registry=pki["registry"]
    )
    assert not res.valid
    assert res.reason is FailureReason.BROKEN_SIGNATURE


def test_mutated_root_fails_self_check(pki):
    forged_root = dataclasses.replace(pki["root"].cert, not_after=999999)
    res = validate_chain(forged_root, [], forged_root, at=10, ca_registry=pki["registry"])
    assert not res.valid
    assert res.reason is FailureReason.BROKEN_SIGNATURE


def test_foreign_root_untrusted(pki):
    other_root = create_root("OtherRoot", validity=(0, 1000))
    other_ca = create_subordinate(other_root, "X-CA", validity=(0, 500))
    kp = DEFAULT_SUITE.generate_keypair("mallory")
    leaf = other_ca.issue("mallory", "X", "TERMINAL", kp.public, (0, 400))
    res = validate_chain(
        leaf,
        [other_ca.cert, other_root.cert],
        pki["root"].cert,
        at=100,
        ca_registry={**pki["registry"], other_ca.name: other_ca, other_root.name: other_root},
    )
    assert not res.valid
    assert res.reason is FailureReason.UNTRUSTED_ROOT


def test_revocation(pki):
    sl_ca = pki["sl_ca"]
    kp = DEFAULT_SUITE.generate_keypair("sl1-temp")
    temp = sl_ca.issue("sl1-temp", "SL1", "SHIPPING_LINE", kp.public, (0, 400))
    ok = validate_chain(temp, [sl_ca.cert], pki["root"].cert, at=10, ca_registry=pki["registry"])
    assert ok.valid

    before = set(sl_ca.revoked)
    sl_ca.revoke(temp.serial)
    sl_ca.revoke(temp.serial)  # idempotent
    assert sl_ca.revoked == before | {temp.serial}
    assert sl_ca.revoked <= set(sl_ca.issued)

    # Monotone: no timestamp resurrects a revoked chain.
    for at in (0, 10, 399):
        res = validate_chain(temp, [sl_ca.cert], pki["root"].cert, at=at, ca_registry=pki["registry"])
        assert not res.valid
        assert res.reason is FailureReason.REVOKED


def test_revoke_unknown_serial(pki):
    with pytest.raises(UnknownSerial):
        pki["sl_ca"].revoke(987654)


def test_expiry(pki):
    res = validate_chain(
        pki["clerk"], [pki["sl_ca"].cert], pki["root"].cert, at=401, ca_registry=pki["registry"]
    )
    assert not res.valid
    assert res.reason is FailureReason.EXPIRED
    # Intermediate window binds too: leaf valid to 400 < CA's 500 < root's 1000.
    res2 = validate_chain(
        pki["sl_ca"].cert, [pki["root"].cert], pki["root"].cert, at=600, ca_registry=pki["registry"]
    )
    assert not res2.valid
    assert res2.reason is FailureReason.EXPIRED


def test_validity_containment(pki):
    kp = DEFAULT_SUITE.generate_keypair("late")
    with pytest.raises(ValidityOutsideIssuer):
        pki["sl_ca"].issue("late", "SL1", "SHIPPING_LINE", kp.public, (0, 501))


def test_serials_unique(pki):
    t_ca = pki["t_ca"]
    pub = DEFAULT_SUITE.generate_keypair("x").public
    a = t_ca.issue("t1-a", "T1", "TERMINAL", pub, (0, 400))
    b = t_ca.issue("t1-b", "T1", "TERMINAL", pub, (0, 400))
    assert a.serial != b.serial
    assert set(t_ca.issued) >= {a.serial, b.serial}


def _cert_from_wire(wire: bytes):
    (rec,) = records.decode(wire)
    return cert_from_record(rec)


def test_wire_round_trip(pki):
    for cert in (pki["root"].cert, pki["sl_ca"].cert, pki["clerk"]):
        wire = cert_to_wire(cert)
        assert wire.startswith(b"CERT+") and wire.endswith(b"'")
        assert _cert_from_wire(wire) == cert


def test_wire_rejects_truncation(pki):
    from portsec.model import ParseError

    wire = cert_to_wire(pki["clerk"])
    with pytest.raises(ParseError):
        _cert_from_wire(wire[:-10])


# --- memoised link signatures: only the signature checks are reused ----------


@pytest.fixture
def cached_chain(counting_suite):
    """A fresh three-link PKI, counted, whose chain has validated once (so
    every link signature sits in the memo)."""
    root = create_root("MemoRoot", validity=(0, 1000))
    ca = create_subordinate(root, "Memo-CA", validity=(0, 500))
    kp = DEFAULT_SUITE.generate_keypair("memo-clerk")
    leaf = ca.issue("memo-clerk", "SL1", "SHIPPING_LINE", kp.public, (0, 400))
    registry = {c.name: c for c in (root, ca)}

    def check(cert=leaf, at=100):
        return validate_chain(cert, [ca.cert], root.cert, at=at, ca_registry=registry)

    assert check().valid
    return {"check": check, "leaf": leaf, "ca": ca, "counts": counting_suite}


def test_cached_chain_sees_revocation(cached_chain):
    cached_chain["ca"].revoke(cached_chain["leaf"].serial)
    assert cached_chain["check"]().reason is FailureReason.REVOKED


def test_cached_chain_sees_expiry(cached_chain):
    assert cached_chain["check"](at=401).reason is FailureReason.EXPIRED


def test_cached_chain_rejects_edited_leaf(cached_chain):
    # the genuine signature, but over a body with another role
    forged = dataclasses.replace(cached_chain["leaf"], role="TERMINAL")
    res = cached_chain["check"](forged)
    assert not res.valid
    assert res.reason is FailureReason.BROKEN_SIGNATURE


def test_second_validation_does_no_rsa_verify(cached_chain):
    counts = cached_chain["counts"]
    assert counts.verifies == 3  # leaf, CA and root links
    assert cached_chain["check"]().valid
    assert counts.verifies == 3
