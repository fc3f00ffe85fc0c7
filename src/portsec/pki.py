"""Desk-scale PKI: root CA, per-organization subordinate CAs, role-bearing
end-entity certificates, chain validation, and revocation lists.

Timestamps are logical integers advanced by the caller, so every validity
decision is reproducible. Each identity has a single key pair serving both
signing and key-wrap duty; its certificate binds subject, organization and
exactly one role to the public key.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

from . import records
from .envelope import DEFAULT_SUITE, Signer, sign

#: Role token carried by certificate-authority certificates.
CA_ROLE = "CA"


class PkiError(Exception):
    """Base class for PKI errors."""


class ValidityOutsideIssuer(PkiError):
    """Requested validity window exceeds the issuing CA's own."""


class UnknownSerial(PkiError):
    """Revocation of a serial this CA never issued."""


class FailureReason(str, enum.Enum):
    BROKEN_SIGNATURE = "BrokenSignature"
    UNTRUSTED_ROOT = "UntrustedRoot"
    REVOKED = "Revoked"
    EXPIRED = "Expired"


@dataclass(frozen=True)
class Certificate:
    """Binding of subject, org and role to a public key, vouched by issuer."""

    serial: int
    subject: str
    org: str
    role: str
    issuer: str
    not_before: int
    not_after: int
    public_key: bytes
    signature: bytes

    def body_bytes(self) -> bytes:
        """Canonical signed portion: the wire record minus the signature
        and the terminator."""
        return records.encode(*_cert_fields(self))[:-1]

    def covers(self, at: int) -> bool:
        return self.not_before <= at <= self.not_after


@dataclass(frozen=True)
class ChainResult:
    valid: bool
    reason: FailureReason | None = None
    detail: str = ""


@dataclass
class CaState:
    """One certificate authority: its key pair, own certificate, and the
    lists of issued and revoked serials. Single-writer access assumed."""

    key_pair: Signer
    cert: Certificate
    issued: list[int] = field(default_factory=list)
    revoked: set[int] = field(default_factory=set)

    @property
    def name(self) -> str:
        return self.cert.subject

    def issue(
        self,
        subject: str,
        org: str,
        role: str,
        subject_public_key: bytes,
        validity: tuple[int, int],
    ) -> Certificate:
        not_before, not_after = validity
        if not_before < self.cert.not_before or not_after > self.cert.not_after:
            raise ValidityOutsideIssuer(
                f"requested {validity} outside issuer window "
                f"({self.cert.not_before}, {self.cert.not_after})"
            )
        serial = (self.issued[-1] if self.issued else 0) + 1
        cert = _signed_cert(
            self.key_pair,
            serial=serial,
            subject=subject,
            org=org,
            role=role,
            issuer=self.name,
            not_before=not_before,
            not_after=not_after,
            public_key=subject_public_key,
        )
        self.issued.append(serial)
        return cert

    def revoke(self, serial: int) -> None:
        """Idempotent; unknown serials are refused."""
        if serial not in self.issued:
            raise UnknownSerial(f"{self.name} never issued serial {serial}")
        self.revoked.add(serial)


def _cert_fields(cert: Certificate) -> tuple:
    return (
        "CERT", f"{cert.serial}", cert.subject, cert.org, cert.role, cert.issuer,
        f"{cert.not_before}", f"{cert.not_after}", cert.public_key,
    )


def _signed_cert(signer: Signer, **fields) -> Certificate:
    unsigned = Certificate(signature=b"", **fields)
    sig = sign(signer.private, DEFAULT_SUITE.digest(unsigned.body_bytes()))
    return Certificate(signature=sig, **fields)


def cert_to_wire(cert: Certificate) -> bytes:
    """`CERT+serial+subject+org+role+issuer+nb+na+pubkey+sig'`"""
    return records.encode(*_cert_fields(cert), cert.signature)


def cert_from_record(rec: records.Record) -> Certificate:
    """A CERT record's certificate; the file reader checks its tag and count."""
    return Certificate(
        serial=rec.int(1, 1),
        subject=rec.text(2),
        org=rec.text(3),
        role=rec.text(4),
        issuer=rec.text(5),
        not_before=rec.int(6, 1),
        not_after=rec.int(7, 1),
        public_key=rec.b64(8),
        signature=rec.b64(9),
    )


def create_root(name: str, validity: tuple[int, int]) -> CaState:
    """Self-signed trust anchor; its own serial 1 counts as issued."""
    kp = DEFAULT_SUITE.generate_keypair(name)
    cert = _signed_cert(
        kp,
        serial=1,
        subject=name,
        org=name,
        role=CA_ROLE,
        issuer=name,
        not_before=validity[0],
        not_after=validity[1],
        public_key=kp.public,
    )
    return CaState(kp, cert, issued=[1])


def create_subordinate(parent: CaState, name: str, validity: tuple[int, int]) -> CaState:
    """Organization-level CA whose certificate is issued by ``parent``."""
    kp = DEFAULT_SUITE.generate_keypair(name)
    cert = parent.issue(name, name, CA_ROLE, kp.public, validity)
    return CaState(kp, cert)


@lru_cache(maxsize=1024)
def _link_signed(cert: Certificate, issuer_public_key: bytes) -> bool:
    """Does ``cert``'s signature verify under its issuer's key? Keyed on the
    whole certificate, signature included, so any edited field misses."""
    return DEFAULT_SUITE.verify(
        issuer_public_key, DEFAULT_SUITE.digest(cert.body_bytes()), cert.signature
    )


def validate_chain(
    leaf: Certificate,
    chain: list[Certificate],
    trust_anchor: Certificate,
    at: int,
    ca_registry: Mapping[str, CaState],
) -> ChainResult:
    """Walk leaf -> intermediates -> root.

    Valid iff every link's signature verifies under its issuer's key, the
    top certificate is the given trust anchor, no link's serial sits in its
    issuer's revocation list, and ``at`` lies within every validity window.
    Checks run in that order and report the first failure. Only the link
    signature checks are memoised; the rest runs on every call.
    """
    links = [leaf, *chain]
    if links[-1] != trust_anchor:
        if links[-1].issuer == trust_anchor.subject:
            links.append(trust_anchor)
        else:
            return ChainResult(
                False, FailureReason.UNTRUSTED_ROOT, f"chain top is {links[-1].subject}"
            )

    for i, cert in enumerate(links):
        parent = links[i + 1] if i + 1 < len(links) else links[-1]
        if cert.issuer != parent.subject:
            return ChainResult(
                False,
                FailureReason.BROKEN_SIGNATURE,
                f"{cert.subject} issued by {cert.issuer}, not {parent.subject}",
            )
        if not _link_signed(cert, parent.public_key):
            return ChainResult(
                False, FailureReason.BROKEN_SIGNATURE, f"signature on {cert.subject}"
            )

    root = links[-1]
    if root != trust_anchor or root.issuer != root.subject:
        return ChainResult(False, FailureReason.UNTRUSTED_ROOT, f"root is {root.subject}")

    for cert in links:
        issuer_state = ca_registry.get(cert.issuer)
        if issuer_state is not None and cert.serial in issuer_state.revoked:
            return ChainResult(
                False, FailureReason.REVOKED, f"{cert.subject} (serial {cert.serial})"
            )

    for cert in links:
        if not cert.covers(at):
            return ChainResult(
                False,
                FailureReason.EXPIRED,
                f"{cert.subject} valid ({cert.not_before}, {cert.not_after}), queried at {at}",
            )

    return ChainResult(True)
