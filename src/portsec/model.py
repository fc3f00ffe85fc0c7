"""Attribute-value messages and their flat segment wire format.

Port messages are ordered lists of (attribute, value) pairs. A value is
carried in one of three representations:

  * ``Plain``    -- the UTF-8 text itself,
  * ``HashOnly`` -- only the digest of the text (enough to verify signatures),
  * ``Sealed``   -- digest + authenticated ciphertext + one wrapped symmetric
                    key per authorized reader.

The wire format is one line of ``records``: ``MSG``, one ``ATT`` per
field, one ``SIG`` per signature, then ``SND``. Binary payloads (digests,
ciphertexts, keys, signatures) travel as canonical base64 elements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from sys import intern
from typing import Callable

from . import records
from .records import ModelError, ParseError

CORE_ATTRIBUTES = ("B_NO", "BL_NO", "CNT_C", "CNT_W", "CSG_DATA", "CNT_NO")

MESSAGE_TYPES = (
    "IFTMCS",
    "IFSTA",
    "CODECO",
    "ICU",
    "LCU",
    "PORT_ORDER",
    "MANIFEST",
    "ATB_NOTICE",
)

_ATTR_NAME_RE = re.compile(r"[A-Z0-9_]+")


class DuplicateAttribute(ModelError):
    """The same attribute occurs twice in one message or signature."""


class InvariantViolation(ModelError):
    """A constructed object breaks a structural invariant."""


def validate_attribute_name(name: str) -> str:
    if not _ATTR_NAME_RE.fullmatch(name):
        raise InvariantViolation(
            f"attribute name {name!r} must be non-empty uppercase ASCII "
            "alphanumerics/underscore"
        )
    return name


def canonical_bytes(value: str) -> bytes:
    """Canonical byte encoding of a field value: raw UTF-8, no framing.

    All digests of values are digests of these bytes. Injective on texts
    (UTF-8 is), deterministic, and total on str input.
    """
    return value.encode("utf-8")


@dataclass(frozen=True)
class Plain:
    """Value travels as readable text."""

    text: str


@dataclass(frozen=True)
class HashOnly:
    """Only the value's digest travels; enough for signature checks."""

    digest: bytes


@dataclass(frozen=True)
class Sealed:
    """Digest plus ciphertext under a content key fresh per message and
    reader set, wrapped per reader.

    ``wrapped_keys`` maps a reader identity to the content key wrapped
    with that reader's public key; the fields of one message sealed for
    the same readers carry the same wrapped keys. At least one entry is
    required.
    """

    digest: bytes
    ciphertext: bytes
    wrapped_keys: dict[str, bytes]

    def __post_init__(self):
        if not self.wrapped_keys:
            raise InvariantViolation("Sealed value needs at least one wrapped key")


FieldValue = Plain | HashOnly | Sealed


@dataclass(frozen=True, slots=True)
class AttributeSignature:
    """One signer's signature over the double hash of an attribute list.

    ``sig`` covers digest(digest(n1,...,nk) || digest(v1) || ... || digest(vk))
    for the names of ``attrs`` and their values in order, so relabelling or
    permuting ``attrs`` breaks the signature.
    """

    signer: str
    attrs: tuple[str, ...]
    sig: bytes

    def __post_init__(self):
        if not self.attrs:
            raise InvariantViolation("signature must cover at least one attribute")
        if len(set(self.attrs)) != len(self.attrs):
            raise DuplicateAttribute(f"signature covers duplicates: {self.attrs}")
        for a in self.attrs:
            validate_attribute_name(a)


@dataclass(frozen=True)
class Message:
    """An ordered, duplicate-free list of attribute-value pairs."""

    msg_type: str
    instance_id: str
    fields: tuple[tuple[str, FieldValue], ...]

    def __post_init__(self):
        seen = set()
        for name, _ in self.fields:
            validate_attribute_name(name)
            if name in seen:
                raise DuplicateAttribute(f"duplicate attribute {name}")
            seen.add(name)

    def attribute_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    def get(self, name: str) -> FieldValue:
        for n, v in self.fields:
            if n == name:
                return v
        raise KeyError(name)

    def has(self, name: str) -> bool:
        return any(n == name for n, _ in self.fields)

    def replace_field(self, name: str, value: FieldValue) -> "Message":
        if not self.has(name):
            raise KeyError(name)
        return Message(
            self.msg_type,
            self.instance_id,
            tuple((n, value if n == name else v) for n, v in self.fields),
        )


@dataclass(frozen=True)
class SecuredMessage:
    """A message plus the attribute signatures that vouch for it."""

    message: Message
    signatures: tuple[AttributeSignature, ...]
    sender: str

    def __post_init__(self):
        names = set(self.message.attribute_names())
        for s in self.signatures:
            missing = [a for a in s.attrs if a not in names]
            if missing:
                raise InvariantViolation(
                    f"signature by {s.signer} covers absent attributes {missing}"
                )


# --- flat segment wire format ---------------------------------------------


def _field_record(name: str, value: FieldValue) -> bytes:
    if isinstance(value, Plain):
        return records.encode("ATT", name, "P", canonical_bytes(value.text))
    if isinstance(value, HashOnly):
        return records.encode("ATT", name, "H", value.digest)
    readers = sorted(value.wrapped_keys)
    keys = [e for r in readers for e in (r, value.wrapped_keys[r])]
    return records.encode(
        "ATT", name, "S", value.digest, value.ciphertext, f"{len(readers):03d}", *keys
    )


def to_flat(sm: SecuredMessage) -> bytes:
    """Serialize to the flat segment format. Deterministic: wrapped-key maps
    are emitted in sorted reader order."""
    out = [records.encode("MSG", sm.message.msg_type, sm.message.instance_id)]
    out += [_field_record(name, value) for name, value in sm.message.fields]
    out += [records.encode("SIG", s.signer, ",".join(s.attrs), s.sig) for s in sm.signatures]
    out.append(records.encode("SND", sm.sender))
    return b"".join(out)


def _parse_att(rec: records.Record) -> tuple[str, FieldValue]:
    name = intern(rec.text(1))
    try:
        validate_attribute_name(name)
    except InvariantViolation as exc:
        raise ParseError(str(exc), rec.offsets[1]) from None
    code = rec.text(2)
    if code == "P":
        rec.need(4)
        try:
            return name, Plain(rec.b64(3).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(f"plain payload is not UTF-8: {exc}", rec.offsets[3]) from None
    if code == "H":
        rec.need(4)
        return name, HashOnly(rec.b64(3))
    if code == "S":
        count = rec.int(5, 3)
        if count < 1:
            raise ParseError("Sealed field needs at least one wrapped key", rec.offsets[5])
        rec.need(6 + 2 * count)
        # one wire form per field: readers strictly ascending, as to_flat writes them
        wrapped: dict[str, bytes] = {}
        for i in range(6, len(rec), 2):
            reader = intern(rec.text(i))
            if wrapped and reader <= next(reversed(wrapped)):
                raise ParseError(f"wrapped-key reader {reader} out of order", rec.offsets[i])
            wrapped[reader] = rec.b64(i + 1)
        return name, Sealed(rec.b64(3), rec.b64(4), wrapped)
    raise ParseError(f"unknown field representation {code!r}", rec.offsets[2])


def _parse_sig(rec: records.Record) -> AttributeSignature:
    signer, attrs, sig = intern(rec.text(1)), rec.text(2), rec.b64(3)
    try:
        return AttributeSignature(signer, tuple(map(intern, attrs.split(","))), sig)
    except ModelError as exc:
        raise ParseError(str(exc), rec.offset) from None


#: Rank (the order ``to_flat`` writes) and element count (0: the parser
#: counts) of each message record.
_LAYOUT = {b"MSG": (0, 3), b"ATT": (1, 0), b"SIG": (2, 4), b"SND": (3, 2)}
_TAGS = ("MSG", "ATT", "SIG", "SND")


def read_record(rec: records.Record) -> tuple[int, object]:
    """One message record checked and decoded on its own: its rank under
    ``_LAYOUT`` and its value, ``(msg_type, instance_id)`` for MSG,
    ``(name, value)`` for ATT, an ``AttributeSignature`` for SIG and the
    sender for SND. Identifiers come back interned. Raises ParseError."""
    spec = _LAYOUT.get(rec.elems[0])
    if spec is None:
        raise ParseError(f"unknown message record {rec.elems[0]!r}", rec.offset)
    rank, count = spec
    if count:
        rec.need(count)
    if rank == 1:
        return rank, _parse_att(rec)
    if rank == 2:
        return rank, _parse_sig(rec)
    if rank == 0:
        return rank, (intern(rec.text(1)), intern(rec.text(2)))
    return rank, intern(rec.text(1))


def message_from_records(parts: list[tuple[int, object]],
                         where: Callable[[int], int]) -> SecuredMessage:
    """The message that ``parts``, each a ``read_record`` result, make in
    their order: the one rule a message keeps, whether a flat holds its
    records (``from_flat``) or a stored transcript's hop names them. The
    records come as ``to_flat`` writes them: one MSG, ATT records (one per
    name), SIG records, one SND; and the message's invariants hold. A
    fault is a ParseError at ``where(i)`` for part ``i``, and a missing
    MSG or SND or a broken invariant at ``where(len(parts))``, the
    message's own offset."""
    fields: list[tuple[str, FieldValue]] = []
    signatures: list[AttributeSignature] = []
    names: set[str] = set()
    head: dict[int, object] = {}  # the MSG and SND values, by rank
    last = 0
    for i, (rank, value) in enumerate(parts):
        if rank < last:
            raise ParseError(f"{_TAGS[rank]} record out of order", where(i))
        last = rank
        if rank == 1:
            if value[0] in names:
                raise ParseError(f"repeated ATT record for {value[0]}", where(i))
            names.add(value[0])
            fields.append(value)
        elif rank == 2:
            signatures.append(value)
        elif rank in head:
            raise ParseError(f"repeated {_TAGS[rank]} record", where(i))
        else:
            head[rank] = value
    for rank in (0, 3):
        if rank not in head:
            raise ParseError(f"message lacks {_TAGS[rank]} header", where(len(parts)))
    try:
        return SecuredMessage(Message(*head[0], tuple(fields)), tuple(signatures), head[3])
    except ModelError as exc:
        raise ParseError(str(exc), where(len(parts))) from None


def from_flat(data: bytes) -> SecuredMessage:
    """Parse the flat segment format back into a SecuredMessage. Only the
    bytes ``to_flat`` writes decode, so ``to_flat(from_flat(b)) == b``:
    each record is read by ``read_record`` and the message by
    ``message_from_records``.

    Identifiers (message type, instance id, attribute names, signer,
    reader and sender identities) come back interned, so the many stored
    copies of one name are one string; field values never are.

    Raises ParseError, with the byte offset, and no other error; a fault
    of the whole message is reported at byte 0.
    """
    recs = records.decode(data)
    return message_from_records([read_record(rec) for rec in recs],
                                lambda i: recs[i].offset if i < len(recs) else 0)
