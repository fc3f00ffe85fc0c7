"""Desk-scale PKI: root CA, per-organization subordinate CAs, role-bearing
end-entity certificates, chain validation, revocation lists, and the one
trust view (``Trust``) every chain check reads.

Timestamps are logical integers advanced by the caller, so every validity
decision is reproducible. Each identity has a single key pair serving both
signing and key-wrap duty; its certificate binds subject, organization and
exactly one role to the public key.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

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
    # replace() leaves it out, so the digest never outlives its fields
    _digest: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def body_bytes(self) -> bytes:
        """Canonical signed portion: the wire record minus the signature
        and the terminator."""
        return records.encode(*_cert_fields(self))[:-1]

    def body_digest(self) -> bytes:
        """The digest the issuer signs, of ``body_bytes``, hashed once per
        object."""
        if self._digest is None:
            object.__setattr__(self, "_digest", DEFAULT_SUITE.digest(self.body_bytes()))
        return self._digest

    def covers(self, at: int) -> bool:
        return self.not_before <= at <= self.not_after


@dataclass(frozen=True)
class ChainResult:
    valid: bool
    reason: FailureReason | None = None
    detail: str = ""
    #: of a valid chain, each (certificate, issuer) link whose signature
    #: ``validate_chain`` verified, leaf first, the anchor as its own issuer
    links: tuple[tuple[Certificate, Certificate], ...] = field(default=(), compare=False)


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
    """A CERT record's certificate; the file reader checks its tag and
    count. It remembers its ``body_digest``, hashed from the record's
    elements: one byte form makes them, joined, its ``body_bytes``."""
    cert = Certificate(
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
    object.__setattr__(cert, "_digest", DEFAULT_SUITE.digest(b"+".join(rec.elems[:9])))
    return cert


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
    return DEFAULT_SUITE.verify(issuer_public_key, cert.body_digest(), cert.signature)


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
    Checks run in that order and report the first failure; a valid result
    lists the links it verified. Only the link signature checks are
    memoised; the rest runs on every call.
    """
    links = [leaf, *chain]
    if links[-1] != trust_anchor:
        if links[-1].issuer == trust_anchor.subject:
            links.append(trust_anchor)
        else:
            return ChainResult(
                False, FailureReason.UNTRUSTED_ROOT, f"chain top is {links[-1].subject}"
            )

    pairs = tuple(zip(links, (*links[1:], links[-1])))
    for cert, parent in pairs:
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
    if root.issuer != root.subject:
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

    return ChainResult(True, links=pairs)


@dataclass
class Trust:
    """What every chain check reads (RFC 5280 §6.1.1): the pinned anchor,
    the CAs with their revocation lists, each identity's chain (leaf
    first, ending at the anchor) and the logical time. One object, shared
    by every adapter, the ledger net and the world."""

    anchor: Certificate
    cas: Mapping[str, CaState]
    chains: dict[str, tuple[Certificate, ...]]
    clock: int = field(default=0, init=False)

    def check(self, chain: Sequence[Certificate]) -> ChainResult:
        """``validate_chain`` of a leaf-first chain at ``clock``; an empty
        chain is invalid, with no root to trust."""
        if not chain:
            return ChainResult(False, FailureReason.UNTRUSTED_ROOT, "no certificate chain")
        return validate_chain(
            chain[0], list(chain[1:]), self.anchor, at=self.clock, ca_registry=self.cas
        )
