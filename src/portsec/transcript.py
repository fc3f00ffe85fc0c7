"""Run transcripts: the ordered evidence trail of a scenario run.

A transcript records every message sent (full wire bytes), every
validation verdict, every ledger action, and the closing audit rows. Each
sent message is held both as its wire bytes and decoded: live runs keep the
message they delivered, and a stored transcript decodes each distinct field
or signature record once per load, so events that carry the same record
share its immutable decoded value.
Replaying a script over the same fixtures reproduces the transcript
byte-for-byte except for sealing randomness (fresh symmetric keys and
their wrappings), which the determinism digest masks out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import records
from .adapter import ValidationReport, report_to_wire
from .envelope import DEFAULT_SUITE
from .model import (
    InvariantViolation,
    ModelError,
    ParseError,
    SecuredMessage,
    from_flat,
    validate_attribute_name,
)

TRANSCRIPT_VERSION = "1"


@dataclass(frozen=True)
class SentEvent:
    step: str
    sender: str
    receiver: str
    msg_type: str
    instance_id: str
    flat: bytes
    #: the decoded ``flat``; never on the wire
    message: SecuredMessage = field(compare=False, repr=False)
    #: a hop never counts against the run verdict; its VALIDATED record may
    fails = False


@dataclass(frozen=True)
class ValidatedEvent:
    actor: str
    msg_type: str
    instance_id: str
    verdict: str
    report: ValidationReport | None = None  # live runs only; never on the wire
    report_wire: bytes = b""  # findings as serialized by the validator

    @property
    def fails(self) -> bool:
        """Does this event count against the run verdict?"""
        return self.verdict != "ACCEPT"


@dataclass(frozen=True)
class LedgerEvent:
    action: str
    cnt_no: str
    invoker: str
    outcome: str  # COMMITTED | VISIBLE | VALID | INVALID | denial class name
    detail: str

    @property
    def fails(self) -> bool:
        return self.outcome not in BENIGN_OUTCOMES


@dataclass(frozen=True)
class AuditEvent:
    actor: str
    attributes: tuple[str, ...]
    flagged: bool

    @property
    def fails(self) -> bool:
        return self.flagged


Event = SentEvent | ValidatedEvent | LedgerEvent | AuditEvent

#: Ledger outcomes that do not count against the run verdict.
BENIGN_OUTCOMES = {"COMMITTED", "VISIBLE", "VALID"}


@dataclass
class Transcript:
    scenario: str
    mode: str  # "p2p" | "ledger"
    actors: dict[str, str] = field(default_factory=dict)  # identity -> role token
    events: list[Event] = field(default_factory=list)

    def sent(self, step, sender, receiver, flat: bytes, received: SecuredMessage) -> None:
        """Record one hop: its wire bytes and their decoded form."""
        self.events.append(SentEvent(
            step, sender, receiver, received.message.msg_type, received.message.instance_id,
            flat, received,
        ))

    def validated(self, actor: str, sm: SecuredMessage, report: ValidationReport) -> None:
        self.events.append(
            ValidatedEvent(
                actor, sm.message.msg_type, sm.message.instance_id,
                report.verdict, report, report_to_wire(report),
            )
        )

    def ledger(self, action, cnt_no, invoker, outcome, detail) -> None:
        self.events.append(LedgerEvent(str(action), cnt_no, invoker, outcome, detail))

    def audit(self, actor: str, attributes, flagged: bool) -> None:
        self.events.append(AuditEvent(actor, tuple(sorted(attributes)), flagged))

    @property
    def verdict(self) -> str:
        return "FAIL" if any(ev.fails for ev in self.events) else "PASS"

    def sent_events(self) -> list[SentEvent]:
        return [ev for ev in self.events if isinstance(ev, SentEvent)]

    def step_outline(self) -> list[tuple[str, ...]]:
        """Compact shape of the run, for golden-sequence comparison."""
        out: list[tuple[str, ...]] = []
        for ev in self.events:
            if isinstance(ev, SentEvent):
                out.append(("SENT", ev.step, ev.sender, ev.receiver, ev.msg_type))
            elif isinstance(ev, ValidatedEvent):
                out.append(("VALIDATED", ev.actor, ev.msg_type, ev.verdict))
            elif isinstance(ev, LedgerEvent):
                out.append(("LEDGER", ev.action, ev.invoker, ev.outcome))
        return out


def transcript_to_wire(t: Transcript) -> bytes:
    lines = [records.encode("TRS", TRANSCRIPT_VERSION, t.scenario, t.mode, t.verdict)]
    lines += [records.encode("ACT", ident, t.actors[ident]) for ident in sorted(t.actors)]
    for ev in t.events:
        if isinstance(ev, SentEvent):
            elems = ("SENT", ev.step, ev.sender, ev.receiver, ev.msg_type, ev.instance_id, ev.flat)
        elif isinstance(ev, ValidatedEvent):
            elems = ("VALIDATED", ev.actor, ev.msg_type, ev.instance_id, ev.verdict, ev.report_wire)
        elif isinstance(ev, LedgerEvent):
            elems = ("LEDGER", ev.action, ev.cnt_no, ev.invoker, ev.outcome, ev.detail)
        else:
            elems = ("AUDIT", ev.actor, ",".join(ev.attributes), "FLAG" if ev.flagged else "OK")
        lines.append(records.encode("EVT", *elems))
    return b"\n".join(lines) + b"\n"


#: Rank (the order ``transcript_to_wire`` writes), count and key of each record.
_LAYOUT = {b"TRS": (0, 5, 0), b"ACT": (1, 3, 1), b"EVT": (2, 0, None)}
#: The same for a VALIDATED record's report, as ``report_to_wire`` writes it.
_REPORT_LAYOUT = {b"VERDICT": (0, 2, 0), b"FINDING": (1, 4, None)}


def transcript_from_wire(data: bytes) -> Transcript:
    """Reload a stored transcript. Validation reports come back as the
    serialized findings; live report objects do not survive the wire. A
    file ``records.read_file`` refuses, a SENT record not followed at once
    by its receiver's VALIDATED record, a VALIDATED record that follows no
    SENT record, a VALIDATED verdict other than its report's, a header
    verdict other than the events', a mode other than ``p2p`` or
    ``ledger``, or an AUDIT attribute list other than the one
    ``Transcript.audit`` writes (sorted attribute names, each once, no
    empty entry), raises. Each message is decoded here, once; the digest
    reads its flat's bytes, not its records (``determinism_digest``)."""
    t = Transcript("", "")
    decoded: dict = {}  # each distinct ATT or SIG record and report, read once per load
    for rec in records.read_file(data, _LAYOUT, "transcript"):
        if rec.tag == b"TRS":
            if rec.text(1) != TRANSCRIPT_VERSION:
                raise ParseError("unsupported transcript header", rec.offset)
            t.scenario, t.mode, header = rec.text(2), rec.text(3), rec
            if t.mode not in ("p2p", "ledger"):
                raise ParseError(f"unknown transcript mode {t.mode!r}", rec.offsets[3])
        elif rec.tag == b"ACT":
            t.actors[rec.text(1)] = rec.text(2)
        else:
            ev = _event(rec, decoded)
            if t.events and isinstance(t.events[-1], SentEvent):
                _check_validates(rec, ev, t.events[-1])
            elif isinstance(ev, ValidatedEvent):
                raise ParseError("VALIDATED record without its SENT record", rec.offsets[1])
            t.events.append(ev)
    if t.events and isinstance(t.events[-1], SentEvent):
        raise ParseError("SENT record without its VALIDATED record", len(data))
    if header.text(4) != t.verdict:  # read_file raised unless a TRS header came
        raise ParseError(f"TRS verdict differs from its events' {t.verdict}", header.offsets[4])
    return t


def _event(rec: records.Record, decoded: dict) -> Event:
    kind = rec.text(1)
    if kind == "SENT":
        rec.need(8)
        return _sent_event(rec, decoded)
    if kind == "VALIDATED":
        rec.need(7)
        verdict = rec.text(5)
        if verdict not in ("ACCEPT", "REJECT"):
            raise ParseError(f"unknown VALIDATED verdict {verdict!r}", rec.offsets[5])
        report = rec.b64(6)
        reported = decoded.get(report)  # by bytes; ATT and SIG records go by elements
        if reported is None:
            try:
                reported = decoded[report] = list(
                    records.read_file(report, _REPORT_LAYOUT, "report"))[0].text(1)
            except ParseError as exc:
                raise ParseError(f"unreadable VALIDATED report: {exc}", rec.offsets[6]) from None
        if verdict != reported:
            raise ParseError(f"VALIDATED verdict differs from its report's {reported!r}",
                             rec.offsets[5])
        return ValidatedEvent(rec.text(2), rec.text(3), rec.text(4), verdict, report_wire=report)
    if kind == "LEDGER":
        rec.need(7)
        return LedgerEvent(*(rec.text(i) for i in range(2, 7)))
    if kind == "AUDIT":
        rec.need(5)
        listed = rec.text(3)
        attrs = tuple(sorted(set(listed.split(",")))) if listed else ()
        try:  # one byte form: the sorted, distinct names ``Transcript.audit`` writes
            as_written = ",".join(map(validate_attribute_name, attrs)) == listed
        except InvariantViolation:
            as_written = False
        if not as_written:
            raise ParseError(f"AUDIT attributes {listed!r} are not sorted, distinct names",
                             rec.offsets[3])
        if rec.text(4) not in ("FLAG", "OK"):
            raise ParseError(f"unknown AUDIT flag {rec.text(4)!r}", rec.offsets[4])
        return AuditEvent(rec.text(2), attrs, rec.text(4) == "FLAG")
    raise ParseError(f"unknown event kind {kind!r}", rec.offsets[1])


def _check_validates(rec: records.Record, ev: Event, sent: SentEvent) -> None:
    """``ev``, read from ``rec``, must be the VALIDATED record of the hop
    ``sent``, by its receiver: no byte of the hop's flat names the receiver."""
    if not isinstance(ev, ValidatedEvent):
        raise ParseError("SENT record not followed by its VALIDATED record", rec.offsets[1])
    if ev.actor != sent.receiver:
        raise ParseError("VALIDATED actor differs from its SENT's receiver", rec.offsets[2])
    if ev.msg_type != sent.msg_type:
        raise ParseError("VALIDATED type differs from its SENT's", rec.offsets[3])
    if ev.instance_id != sent.instance_id:
        raise ParseError("VALIDATED instance differs from its SENT's", rec.offsets[4])


def _sent_event(rec: records.Record, decoded: dict) -> SentEvent:
    """Decode the SENT record's flat, through ``decoded`` (see ``from_flat``);
    its type, instance and sender must be the record's own."""
    step, sender, receiver, msg_type, instance_id = (rec.text(i) for i in range(2, 7))
    flat = rec.b64(7)
    try:
        sm = from_flat(flat, decoded)
    except ModelError as exc:
        raise ParseError(f"bad SENT flat: {exc}", rec.offsets[7]) from None
    if sm.sender != sender:
        raise ParseError("SENT sender differs from its flat's", rec.offsets[3])
    if sm.message.msg_type != msg_type:
        raise ParseError("SENT type differs from its flat's", rec.offsets[5])
    if sm.message.instance_id != instance_id:
        raise ParseError("SENT instance differs from its flat's", rec.offsets[6])
    return SentEvent(step, sender, receiver, msg_type, instance_id, flat, sm)


def _masked_flat(flat: bytes) -> bytes:
    """``flat`` with the bytes that legitimately differ between replays
    blanked in place: each sealed field's ciphertext and wrapped keys.
    Digests, reader lists and every other record keep their bytes, and a
    flat with no sealed field is returned as it is.

    Sealed records are found as ``records._scan`` splits a flat: by
    ``records.decode`` when it holds a release character. Otherwise no
    separator is escaped, so each ``+S+`` is checked in its own record: an
    attribute name holds no separator (``model.validate_attribute_name``),
    so ``ATT+name+S+`` starts a sealed record, and a flat without ``+S+``
    holds none. Only a sealed record is split into elements, and one loop
    masks the records found either way."""
    at = flat.find(b"+S+")
    if at < 0:
        return flat
    # (start, end at its closing ', raw elements) of each sealed record
    if b"?" in flat:
        recs = records.decode(flat)
        ends = [rec.offset - 1 for rec in recs[1:]] + [len(flat) - 1]
        sealed = [(rec.offset, end, rec.elems) for rec, end in zip(recs, ends)
                  if rec.elems[0] == b"ATT" and rec.elems[2] == b"S"]
    else:
        sealed = []
        while at >= 0:
            start = flat.rfind(b"'", 0, at) + 1
            end = flat.find(b"'", at)
            name_end = flat.find(b"+", start + 4)
            if flat.startswith(b"ATT+", start) and flat.startswith(b"+S+", name_end):
                sealed.append((start, end, flat[start:end].split(b"+")))
            at = flat.find(b"+S+", end)
    out = []
    pos = 0
    for start, end, elems in sealed:
        # ATT+name+S+digest+ciphertext+count+reader+key+reader+key...
        elems[4] = b""
        elems[7::2] = [b""] * len(elems[7::2])
        out += (flat[pos:start], b"+".join(elems))
        pos = end
    if not out:
        return flat
    out.append(flat[pos:])
    return b"".join(out)


def determinism_digest(t: Transcript) -> bytes:
    """Digest of the transcript with fresh-randomness bytes excluded;
    equal across replays of one script over one fixture set. Each SENT
    flat is hashed as ``_masked_flat`` leaves it, so a hop with no sealed
    field hashes its wire bytes as they are. One pass over the events
    builds it, the run verdict (``Transcript.verdict``) included."""
    acc = [t.scenario.encode(), t.mode.encode(), b""]  # the verdict, known after the events
    failed = False
    for ev in t.events:
        failed = failed or ev.fails
        if isinstance(ev, SentEvent):
            acc.append(b"SENT|" + ev.step.encode() + b"|" + ev.receiver.encode() + b"|"
                       + _masked_flat(ev.flat))
        elif isinstance(ev, ValidatedEvent):
            acc.append(f"VALIDATED|{ev.actor}|{ev.msg_type}|{ev.verdict}".encode())
        elif isinstance(ev, LedgerEvent):
            acc.append(
                f"LEDGER|{ev.action}|{ev.cnt_no}|{ev.invoker}|{ev.outcome}".encode()
            )
        else:
            acc.append(
                ("AUDIT|%s|%s|%d" % (ev.actor, ",".join(ev.attributes), ev.flagged)).encode()
            )
    acc[2] = b"FAIL" if failed else b"PASS"
    return DEFAULT_SUITE.digest(b"\x1e".join(acc))
