"""Per-actor message security endpoint: creator and validator.

Outbound, an adapter applies the protection plan (plain / sealed / hash
only per attribute), signs every attribute its role may write together
with the booking number, and attaches carried signatures from upstream
actors. Inbound, ``validate_inbound`` runs ``PHASES`` over a ``Hop``: (a)
the sender's certificate chain, (b) every signature, with linkage, (c)
write-coverage by signatures bound to the booking number, (d)
representation compliance and (e) the booking-number nonce. None of them
needs the receiver's private key. It then (f) decrypts what its actor may
read and (g) files all signatures in an append-only store kept for
forensics.

Validation never raises on a message: every problem becomes a finding,
and the verdict is REJECT exactly when a reject-class finding is present.
Phases run to completion so a report localizes all problems at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from . import envelope, records
from .envelope import (
    AuthDecryptFailure,
    ContentKey,
    Signer,
    content_key,
    field_digests,
    open_field,
    remember_key,
    seal_field,
    verify_multi_sig,
)
from .model import (
    AttributeSignature,
    FieldValue,
    HashOnly,
    Message,
    Plain,
    Sealed,
    SecuredMessage,
)
from .pki import Certificate, ChainResult, Trust
from .policy import AccessMatrix, Action, PlanKind, Role, protection_plan

BOOKING_ATTR = "B_NO"


class AdapterError(Exception):
    """Base class for adapter errors (outbound side; validation never raises)."""


class CarriedSignatureInvalid(AdapterError):
    pass


class NotValidated(AdapterError):
    """forward() requires an ACCEPT report for the message being forwarded."""


class Severity(str, enum.Enum):
    REJECT = "REJECT"
    WARNING = "WARNING"


class FindingCode(str, enum.Enum):
    CHAIN_INVALID = "ChainInvalid"
    SIGNATURE_INVALID = "SignatureInvalid"
    WRITE_COVERAGE_GAP = "WriteCoverageGap"
    LINKAGE_MISMATCH = "LinkageMismatch"
    REPRESENTATION_VIOLATION = "RepresentationViolation"
    DIGEST_MISMATCH = "DigestMismatch"
    NONCE_REUSE = "NonceReuse"


@dataclass(frozen=True)
class Finding:
    code: FindingCode
    subject: str
    detail: str
    severity: Severity


@dataclass(frozen=True)
class ValidationReport:
    verdict: str  # "ACCEPT" | "REJECT"
    findings: tuple[Finding, ...]
    decrypted_view: Mapping[str, str]

    @property
    def accepted(self) -> bool:
        return self.verdict == "ACCEPT"


def report_to_wire(report: ValidationReport) -> bytes:
    """`VERDICT+...'` then one `FINDING+code+subject+detail'` per line.
    The decrypted view never leaves the adapter."""
    lines = [records.encode("VERDICT", report.verdict)]
    lines += [records.encode("FINDING", f.code.value, f.subject, f.detail) for f in report.findings]
    return b"\n".join(lines) + b"\n"


@dataclass(frozen=True, slots=True)
class StoreRecord:
    """One signature as it transited this adapter, with the digests of
    ``signature.attrs``, in that order, that it was checked against: the
    forensic trail."""

    instance_id: str
    signature: AttributeSignature
    received_from: str
    at: int
    attr_digests: tuple[bytes, ...]


@dataclass
class AdapterState:
    """One actor's security endpoint. Single-writer access assumed."""

    identity: str
    role: Role
    key_pair: Signer
    matrix: AccessMatrix
    trust: Trust
    signature_store: list[StoreRecord] = field(default_factory=list)
    # (signer, signature bytes) -> the store's records of that signature,
    # in store order: what linkage reads instead of the whole store
    signature_index: dict[tuple[str, bytes], list[StoreRecord]] = field(
        default_factory=dict, repr=False, compare=False
    )
    seen_booking_numbers: dict[bytes, str] = field(default_factory=dict)
    # wrapped blob -> content key, for the blobs that wrap a key for this
    # actor's key pair (envelope.remember_key bounds it)
    content_keys: dict[bytes, bytes] = field(default_factory=dict, repr=False, compare=False)


def _store_signatures(
    state: AdapterState,
    sm: SecuredMessage,
    digests: Mapping[str, bytes],
    received_from: str,
) -> None:
    """File each signature in the store and its index. A signature already
    on file, with equal signer, attributes and bytes, is filed as the
    object on file, and so are its digests when they are equal too: a
    repeat adds a record, not a copy."""
    for sig in sm.signatures:
        filed = state.signature_index.setdefault((sig.signer, sig.sig), [])
        attr_digests = tuple(digests[a] for a in sig.attrs)
        for held in filed:
            if held.signature == sig:
                sig = held.signature
                if held.attr_digests == attr_digests:
                    attr_digests = held.attr_digests
                break
        rec = StoreRecord(
            instance_id=sm.message.instance_id,
            signature=sig,
            received_from=received_from,
            at=state.trust.clock,
            attr_digests=attr_digests,
        )
        filed.append(rec)
        state.signature_store.append(rec)


def _replan(
    state: AdapterState,
    msg: Message,
    digests: Mapping[str, bytes],
    receiver: Role,
    reach: Mapping[str, Iterable[str]],
) -> tuple[tuple[str, FieldValue], ...]:
    """Re-plan the plaintext fields of ``msg`` for ``receiver``: plain where
    its role may read, else sealed for the identities ``reach`` names for
    the field whose role may read it, else hash-only. Other fields pass
    through. Fields with the same reached identities share one protection
    plan, and the fields sealed for one set of reader identities share one
    fresh content key."""
    chains = state.trust.chains
    by_reach: dict[frozenset[str], list[str]] = {}
    for name, value in msg.fields:
        if isinstance(value, Plain):
            by_reach.setdefault(frozenset(reach.get(name, ())), []).append(name)
    plan = {}
    for reached, attrs in by_reach.items():
        roles = {chains[ident][0].role for ident in reached}
        plan |= protection_plan(state.matrix, state.role, receiver, roles, attrs)
    keys: dict[frozenset[str], ContentKey] = {}
    out_fields: list[tuple[str, FieldValue]] = []
    for name, value in msg.fields:
        if isinstance(value, Plain):
            decision = plan[name]
            if decision.kind is PlanKind.HASH_ONLY:
                value = HashOnly(digests[name])
            elif decision.kind is PlanKind.SEALED:
                recipients = {
                    ident: chains[ident][0].public_key for ident in reach[name]
                    if chains[ident][0].role in decision.readers
                }
                group = frozenset(recipients)
                if group not in keys:
                    keys[group] = key = content_key(recipients)
                    if state.identity in key.wrapped_keys:
                        remember_key(state.content_keys, key.wrapped_keys[state.identity], key.key)
                value = seal_field(value.text, digests[name], keys[group])
        out_fields.append((name, value))
    return tuple(out_fields)


def secure_outbound(
    state: AdapterState,
    msg: Message,
    carried: Sequence[AttributeSignature],
    receiver: Role,
    reach: Mapping[str, Iterable[str]],
) -> SecuredMessage:
    """Build the protected form of a message this actor is sending.

    The actor signs, as one signature in message order, every attribute of
    the message that its role may write, plus ``B_NO``, which binds the
    signature to its booking; an actor that may write none of them signs
    nothing. Carried signatures are attached unmodified. Fields arriving
    already sealed or hash-only pass through; only plaintext fields are
    (re)planned. ``reach`` maps a field to the identities the workflow
    delivers it to after ``receiver`` (``sim.field_reach``): a field
    ``receiver`` may not read is sealed for those of them whose role may
    read it.
    """
    digests = field_digests(msg)

    for sig in carried:
        chain = state.trust.chains.get(sig.signer)
        if chain is None:
            raise CarriedSignatureInvalid(f"unknown signer {sig.signer}")
        if not verify_multi_sig(chain[0].public_key, sig, digests):
            raise CarriedSignatureInvalid(
                f"signature by {sig.signer} does not match current values"
            )

    names = msg.attribute_names()
    writes = [state.matrix.check(state.role, a, Action.WRITE) for a in names]
    signatures = tuple(carried)
    if any(writes):
        to_sign = [a for a, w in zip(names, writes) if w or a == BOOKING_ATTR]
        signatures += (envelope.multi_sign(state.key_pair, to_sign, digests),)
    out_fields = _replan(state, msg, digests, receiver, reach)
    sm = SecuredMessage(
        Message(msg.msg_type, msg.instance_id, out_fields), signatures, state.identity
    )
    _store_signatures(state, sm, digests, received_from=state.identity)
    return sm


class Hop:
    """One inbound message as phases (a)-(e) see it: the receiver's state,
    the message, the chain its sender presented, the field digests, each
    signer's resolved chain, the verified signatures and the findings."""

    __slots__ = ("state", "sm", "presented", "digests", "chains", "verified", "findings")

    def __init__(self, state: AdapterState, sm: SecuredMessage,
                 presented: Sequence[Certificate]):
        self.state, self.sm, self.presented = state, sm, presented
        self.digests = field_digests(sm.message)
        self.chains: dict[str, tuple[Certificate, ChainResult]] = {}
        self.verified: list[tuple[AttributeSignature, str]] = []  # (sig, signer role)
        self.findings: list[Finding] = []

    def reject(self, code: FindingCode, subject: str, detail: str) -> None:
        self.findings.append(Finding(code, subject, detail, Severity.REJECT))

    def signer_chain(self, signer: str) -> tuple[Certificate, ChainResult] | None:
        """The signer's certificate and chain result, validated once per
        message: the sender's as presented, every other signer's from the
        trust view. None for a signer the trust view lacks."""
        if signer not in self.chains:
            trust = self.state.trust
            if signer == self.sm.sender and self.presented:
                chain = self.presented
            elif signer in trust.chains:
                chain = trust.chains[signer]
            else:
                return None
            self.chains[signer] = chain[0], trust.check(chain)
        return self.chains[signer]


def _sender_chain(hop: Hop) -> None:
    """(a) The sender presents a valid chain whose leaf names it."""
    sender = hop.sm.sender
    if not hop.presented:
        hop.reject(FindingCode.CHAIN_INVALID, sender, "no certificate chain presented")
        return
    leaf, res = hop.signer_chain(sender)
    if not res.valid:
        hop.reject(FindingCode.CHAIN_INVALID, sender, f"{res.reason.value}: {res.detail}")
    elif leaf.subject != sender:
        hop.reject(FindingCode.CHAIN_INVALID, sender, f"presented chain names {leaf.subject}")


def _signatures(hop: Hop) -> None:
    """(b) Every signature verifies under its signer's valid chain. A
    failing signature on file under another run is a linkage mismatch."""
    state, digests = hop.state, hop.digests
    for sig in hop.sm.signatures:
        resolved = hop.signer_chain(sig.signer)
        if resolved is None:
            hop.reject(FindingCode.CHAIN_INVALID, sig.signer, "signer not in directory")
            continue
        cert, res = resolved
        if not res.valid:
            hop.reject(FindingCode.CHAIN_INVALID, sig.signer,
                       f"signer chain {res.reason.value}: {res.detail}")
        elif verify_multi_sig(cert.public_key, sig, digests):
            hop.verified.append((sig, cert.role))
        else:
            upgraded = _linkage_evidence(state, sig, hop.sm.message.instance_id, digests)
            for attr, detail in upgraded:
                hop.reject(FindingCode.LINKAGE_MISMATCH, attr, detail)
            if not upgraded:
                hop.reject(FindingCode.SIGNATURE_INVALID, sig.signer,
                           f"signature over {','.join(sig.attrs)} does not verify")


def _write_coverage(hop: Hop) -> None:
    """(c) Every attribute is under a verified signature of one of its
    writers, and that signature also covers ``B_NO``: a signature that
    names no booking could be moved onto another one."""
    matrix = hop.state.matrix
    bound = [(sig, role) for sig, role in hop.verified if BOOKING_ATTR in sig.attrs]
    for attr in hop.sm.message.attribute_names():
        writers = {r.value for r in matrix.writers_of(attr)}
        if not any(attr in sig.attrs and role in writers for sig, role in bound):
            hop.reject(FindingCode.WRITE_COVERAGE_GAP, attr,
                       f"no verified signature from {sorted(writers)}")


def _representation(hop: Hop) -> None:
    """(d) Plaintext and wrapped keys reach the receiver only where its
    role may read, and a sealed field it may read carries its key. Every
    other wrapped-key holder of a sealed field is in the trust view under
    a role that may read the field, so an overshared key is refused at the
    first receiver, whoever holds it."""
    state = hop.state
    chains = state.trust.chains
    for name, value in hop.sm.message.fields:
        readable = state.matrix.check(state.role, name, Action.READ)
        if isinstance(value, Plain) and not readable:
            hop.reject(FindingCode.REPRESENTATION_VIOLATION, name,
                       f"plaintext exposed to {state.role.value} without read permission")
        elif isinstance(value, Sealed):
            if readable != (state.identity in value.wrapped_keys):
                hop.reject(FindingCode.REPRESENTATION_VIOLATION, name,
                           "no wrapped key for an authorized reader" if readable else
                           f"wrapped key offered to {state.role.value} without read permission")
            readers = state.matrix.readers_of(name)
            for holder in value.wrapped_keys:
                if holder == state.identity:
                    continue
                if holder not in chains:
                    hop.reject(FindingCode.REPRESENTATION_VIOLATION, name,
                               f"wrapped key offered to {holder}, who is not in the directory")
                elif (role := chains[holder][0].role) not in readers:
                    hop.reject(FindingCode.REPRESENTATION_VIOLATION, name,
                               f"wrapped key offered to {holder} ({role}) without read permission")


def _nonce(hop: Hop) -> None:
    """(e) A booking number accepted before under another run is a warning."""
    prior = hop.state.seen_booking_numbers.get(hop.digests.get(BOOKING_ATTR))
    if prior is not None and prior != hop.sm.message.instance_id:
        hop.findings.append(Finding(
            FindingCode.NONCE_REUSE, BOOKING_ATTR,
            f"booking number already used by run {prior}", Severity.WARNING,
        ))


#: Phases (a)-(e), in order. None reads the receiver's private key or
#: writes its state; each appends its findings to the hop.
PHASES = (_sender_chain, _signatures, _write_coverage, _representation, _nonce)


def validate_inbound(
    state: AdapterState,
    sm: SecuredMessage,
    sender_cert_chain: Sequence[Certificate],
) -> ValidationReport:
    """Run ``PHASES`` over the message, then (f) build the view of the
    fields this actor may read, decrypting sealed ones (the one step that
    reads its private key), and (g) file every signature in the store. An
    ACCEPT books the booking number.
    See module docstring for the reject semantics. A receiver whose own
    private key fails to load at its first unwrap raises FixtureError: that
    is a set-up error, not a finding.
    """
    hop = Hop(state, sm, sender_cert_chain)
    for phase in PHASES:
        phase(hop)

    decrypted: dict[str, str] = {}  # (f)
    for name, value in sm.message.fields:
        if not state.matrix.check(state.role, name, Action.READ):
            continue
        if isinstance(value, Plain):
            decrypted[name] = value.text
        elif isinstance(value, Sealed) and state.identity in value.wrapped_keys:
            try:
                decrypted[name] = open_field(
                    value, state.identity, state.key_pair.private, state.content_keys
                )
            except (AuthDecryptFailure, envelope.DigestMismatch) as exc:
                hop.reject(FindingCode.DIGEST_MISMATCH, name, str(exc))

    _store_signatures(state, sm, hop.digests, received_from=sm.sender)  # (g)
    verdict = "REJECT" if any(f.severity is Severity.REJECT for f in hop.findings) else "ACCEPT"
    booking = hop.digests.get(BOOKING_ATTR)
    if verdict == "ACCEPT" and booking is not None:
        state.seen_booking_numbers.setdefault(booking, sm.message.instance_id)
    return ValidationReport(verdict, tuple(hop.findings), decrypted)


def _linkage_evidence(
    state: AdapterState,
    sig: AttributeSignature,
    instance_id: str,
    digests: Mapping[str, bytes],
) -> list[tuple[str, str]]:
    """A failed signature whose exact bytes are on file under another run,
    with different digests for shared attributes, is a splice, not noise.
    Returns (attribute, localization detail) pairs."""
    hits = []
    for rec in state.signature_index.get((sig.signer, sig.sig), ()):
        if rec.instance_id == instance_id:
            continue
        on_file = dict(zip(rec.signature.attrs, rec.attr_digests))
        for attr in sig.attrs:
            stored = on_file.get(attr)
            if stored is not None and stored != digests[attr]:
                hits.append(
                    (
                        attr,
                        f"signature by {sig.signer} was recorded in run "
                        f"{rec.instance_id} (from {rec.received_from} at t={rec.at}) "
                        f"with a different {attr}",
                    )
                )
    return hits


def forward(
    state: AdapterState,
    report: ValidationReport,
    sm: SecuredMessage,
    receiver: Role,
    msg_type: str,
) -> SecuredMessage:
    """Re-plan a validated message for the next receiver as a ``msg_type``.

    Plaintext fields the receiver may not read downgrade to hash-only;
    sealed fields pass through byte-identical so the original sealer stays
    accountable. The carried signatures are kept as they are; a forwarder
    adds no signature of its own.
    """
    if not report.accepted:
        raise NotValidated("cannot forward a message that did not validate")
    msg = sm.message
    out_fields = _replan(state, msg, field_digests(msg), receiver, {})
    return SecuredMessage(
        Message(msg_type, msg.instance_id, out_fields),
        sm.signatures,
        state.identity,
    )
