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
from .model import ModelError, ParseError, SecuredMessage, from_flat

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


@dataclass(frozen=True)
class ValidatedEvent:
    actor: str
    msg_type: str
    instance_id: str
    verdict: str
    report: ValidationReport | None = None  # live runs only; never on the wire
    report_wire: bytes = b""  # findings as serialized by the validator


@dataclass(frozen=True)
class LedgerEvent:
    action: str
    cnt_no: str
    invoker: str
    outcome: str  # COMMITTED | VISIBLE | VALID | INVALID | denial class name
    detail: str


@dataclass(frozen=True)
class AuditEvent:
    actor: str
    attributes: tuple[str, ...]
    flagged: bool


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
        for ev in self.events:
            if isinstance(ev, ValidatedEvent) and ev.verdict != "ACCEPT":
                return "FAIL"
            if isinstance(ev, LedgerEvent) and ev.outcome not in BENIGN_OUTCOMES:
                return "FAIL"
            if isinstance(ev, AuditEvent) and ev.flagged:
                return "FAIL"
        return "PASS"

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


def transcript_from_wire(data: bytes) -> Transcript:
    """Reload a stored transcript. Validation reports come back as the
    serialized findings; live report objects do not survive the wire. A
    file ``records.read_file`` refuses, a SENT record not followed at once
    by its receiver's VALIDATED record, or a header verdict other than the
    events', raises."""
    t = Transcript("", "")
    decoded: dict = {}  # each distinct ATT or SIG record, decoded once per load
    for rec in records.read_file(data, _LAYOUT, "transcript"):
        if rec.tag == b"TRS":
            if rec.text(1) != TRANSCRIPT_VERSION:
                raise ParseError("unsupported transcript header", rec.offset)
            t.scenario, t.mode, header = rec.text(2), rec.text(3), rec
        elif rec.tag == b"ACT":
            t.actors[rec.text(1)] = rec.text(2)
        else:
            ev = _event(rec, decoded)
            if t.events and isinstance(t.events[-1], SentEvent):
                _check_validates(rec, ev, t.events[-1])
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
        if rec.text(5) not in ("ACCEPT", "REJECT"):
            raise ParseError(f"unknown VALIDATED verdict {rec.text(5)!r}", rec.offsets[5])
        return ValidatedEvent(
            rec.text(2), rec.text(3), rec.text(4), rec.text(5), report_wire=rec.b64(6)
        )
    if kind == "LEDGER":
        rec.need(7)
        return LedgerEvent(*(rec.text(i) for i in range(2, 7)))
    if kind == "AUDIT":
        rec.need(5)
        attrs = tuple(a for a in rec.text(3).split(",") if a)
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
    Digests and reader lists stay."""
    out = []
    for rec in records.decode(flat):
        elems = rec.elems
        if elems[0] == b"ATT" and elems[2] == b"S":
            # ATT+name+S+digest+ciphertext+count+reader+key+reader+key...
            elems = [*elems[:4], b"", *elems[5:]]
            elems[7::2] = [b""] * len(elems[7::2])
        out.append(b"+".join(elems))
    return b"'".join(out) + b"'"


def determinism_digest(t: Transcript) -> bytes:
    """Digest of the transcript with fresh-randomness bytes excluded;
    equal across replays of one script over one fixture set."""
    acc = [t.scenario.encode(), t.mode.encode(), t.verdict.encode()]
    for ev in t.events:
        if isinstance(ev, SentEvent):
            masked = _masked_flat(ev.flat)
            acc.append(b"SENT|" + ev.step.encode() + b"|" + ev.receiver.encode() + b"|" + masked)
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
    return DEFAULT_SUITE.digest(b"\x1e".join(acc))
