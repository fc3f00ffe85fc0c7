"""Run transcripts: the ordered evidence trail of a scenario run.

A transcript records every message sent (full wire bytes), every
validation verdict, every ledger action, and the closing audit rows. Each
sent message is held both as its wire bytes and decoded: live runs keep the
message they delivered. The stored form (``TRANSCRIPT_VERSION`` 2) states
each distinct record of the sent messages once, on its own ``REC`` line,
and each hop by the indices of the records its flat joins; a load decodes
each ``REC`` once, so the events that carry the same record share its
immutable decoded value, and rebuilds each flat byte for byte. A hop's
sender, type and instance are its message's own records, and its
VALIDATED record is the verdict of its receiver, the SENT record's.
Version 1, which wrote each flat whole and restated those labels, is
refused at its header.
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
    ParseError,
    SecuredMessage,
    message_from_records,
    read_record,
    validate_attribute_name,
)

TRANSCRIPT_VERSION = "2"


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
    """The stored form of ``t``: its TRS header and ACT lines, one REC line
    per distinct record of its hops' flats (``REC+`` and the record's own
    bytes), in the order the hops first use them, then one EVT line per
    event. A SENT line holds its step, its receiver and the indices of the
    records its flat joins, in the flat's order; a VALIDATED line, the
    verdict on the SENT before it, holds the verdict and its report.

    Those labels are stated once, so a hop whose sender is not its
    message's ``SND``, or a VALIDATED event that is not its receiver's
    verdict on that message, has no stored form: ValueError."""
    lines = [records.encode("TRS", TRANSCRIPT_VERSION, t.scenario, t.mode, t.verdict)]
    lines += [records.encode("ACT", ident, t.actors[ident]) for ident in sorted(t.actors)]
    table: dict[bytes, str] = {}  # each distinct flat record, without its ', to its index
    events = []
    sent = None  # the SENT event just before
    for ev in t.events:
        if isinstance(ev, SentEvent):
            if ev.sender != ev.message.sender:
                raise ValueError(f"hop {ev.step}: sender {ev.sender} is not its message's")
            idx = []
            for rec in records.split(ev.flat):
                i = table.get(rec)
                if i is None:
                    i = table[rec] = str(len(table))
                idx.append(i)
            elems = ("SENT", ev.step, ev.receiver, ",".join(idx))
        elif isinstance(ev, ValidatedEvent):
            if sent is None or (ev.actor, ev.msg_type, ev.instance_id) != \
                    (sent.receiver, sent.msg_type, sent.instance_id):
                raise ValueError(f"VALIDATED by {ev.actor} is no verdict on the hop before it")
            elems = ("VALIDATED", ev.verdict, ev.report_wire)
        elif isinstance(ev, LedgerEvent):
            elems = ("LEDGER", ev.action, ev.cnt_no, ev.invoker, ev.outcome, ev.detail)
        else:
            elems = ("AUDIT", ev.actor, ",".join(ev.attributes), "FLAG" if ev.flagged else "OK")
        events.append(records.encode("EVT", *elems))
        sent = ev if isinstance(ev, SentEvent) else None
    lines += [b"REC+" + rec + b"'" for rec in table]
    lines += events
    return b"\n".join(lines) + b"\n"


#: Rank (the order ``transcript_to_wire`` writes), count and key of each record.
_LAYOUT = {b"TRS": (0, 5, 0), b"ACT": (1, 3, 1), b"REC": (2, 0, None), b"EVT": (3, 0, None)}
#: The same for a VALIDATED record's report, as ``report_to_wire`` writes it.
_REPORT_LAYOUT = {b"VERDICT": (0, 2, 0), b"FINDING": (1, 4, None)}


def transcript_from_wire(data: bytes) -> Transcript:
    """Reload a stored transcript. Validation reports come back as the
    serialized findings; live report objects do not survive the wire. A
    file ``records.read_file`` refuses, a REC line ``_RecordTable``
    refuses, a SENT record not followed at once by a VALIDATED record, a
    VALIDATED record that follows no SENT record, a VALIDATED verdict
    other than its report's, a header verdict other than the events', a
    mode other than ``p2p`` or ``ledger``, or an AUDIT attribute list
    other than the one ``Transcript.audit`` writes (sorted attribute
    names, each once, no empty entry), raises. Each distinct record is
    decoded here, once; the digest reads each flat's bytes, not its
    records (``determinism_digest``)."""
    t = Transcript("", "")
    table = _RecordTable()
    reports: dict[bytes, str] = {}  # each distinct report's verdict, read once per load
    for rec in records.read_file(data, _LAYOUT, "transcript"):
        tag = rec.elems[0]
        if tag == b"EVT":
            last = t.events[-1] if t.events else None
            t.events.append(_event(rec, last if isinstance(last, SentEvent) else None,
                                   table, reports))
        elif tag == b"REC":
            table.add(rec)
        elif tag == b"ACT":
            t.actors[rec.text(1)] = rec.text(2)
        else:
            if rec.text(1) != TRANSCRIPT_VERSION:
                raise ParseError("unsupported transcript header", rec.offset)
            t.scenario, t.mode, header = rec.text(2), rec.text(3), rec
            if t.mode not in ("p2p", "ledger"):
                raise ParseError(f"unknown transcript mode {t.mode!r}", rec.offsets[3])
    if t.events and isinstance(t.events[-1], SentEvent):
        raise ParseError("SENT record without its VALIDATED record", len(data))
    table.check_used()
    if header.text(4) != t.verdict:  # read_file raised unless a TRS header came
        raise ParseError(f"TRS verdict differs from its events' {t.verdict}", header.offsets[4])
    return t


class _RecordTable:
    """The REC lines of a transcript being loaded. Each holds one message
    record, checked and decoded once (``model.read_record``); no two hold
    the same bytes, and the hops use each, first in the order of the
    lines. A hop (``hop``) names its records by their indices, and its
    message is checked as ``from_flat`` checks a flat's."""

    __slots__ = ("parts", "pieces", "offsets", "seen", "index", "fresh")

    def __init__(self):
        self.parts: list[tuple[int, object]] = []  # each record's read_record value
        self.pieces: list[bytes] = []  # each record's bytes, its closing ' included
        self.offsets: list[int] = []  # each REC line's offset
        self.seen: set[bytes] = set()
        self.index: dict[bytes, int] = {}  # each index as the writer writes it
        self.fresh = 0  # the one index a hop may use for the first time

    def add(self, rec: records.Record) -> None:
        elems = rec.elems
        if len(elems) < 2:
            raise ParseError("REC record holds no message record", rec.offset + len(elems[0]))
        piece = b"+".join(elems[1:]) + b"'"
        if piece in self.seen:
            raise ParseError("repeated REC record", rec.offset)
        inner = records.Record(elems[1:], rec.offset + len(elems[0]) + 1,
                               {i - 1 for i in rec.released})
        self.parts.append(read_record(inner))
        self.seen.add(piece)
        self.index[b"%d" % len(self.pieces)] = len(self.pieces)
        self.pieces.append(piece)
        self.offsets.append(rec.offset)

    def hop(self, rec: records.Record) -> SentEvent:
        """The SENT record ``rec``'s hop. Its index list is written as the
        writer writes it (decimal, no leading zero, no empty entry), and
        each index is in the table and, the first time it is used, the
        next one in the table's order."""
        rec.need(5)
        step, receiver = rec.texts((2, 3))
        entries = rec.elems[4].split(b",")
        try:
            idx = list(map(self.index.__getitem__, entries))
        except KeyError:
            self._refuse(rec, entries)
        fresh = self.fresh
        for k, i in enumerate(idx):
            if i >= fresh:
                if i > fresh:
                    raise ParseError(f"record index {i} out of first-use order, {fresh} is next",
                                     _entry_offset(rec, entries, k))
                fresh += 1
        self.fresh = fresh
        parts, pieces = self.parts, self.pieces
        sm = message_from_records([parts[i] for i in idx],
                                  lambda k: _entry_offset(rec, entries, k))
        return SentEvent(step, sm.sender, receiver, sm.message.msg_type,
                         sm.message.instance_id, b"".join([pieces[i] for i in idx]), sm)

    def _refuse(self, rec: records.Record, entries: list[bytes]) -> None:
        """Raise at the first of ``entries`` that is no index of the table."""
        for k, entry in enumerate(entries):
            if entry not in self.index:
                at = _entry_offset(rec, entries, k)
                if not entry.isdigit() or entry.startswith(b"0") and entry != b"0":
                    raise ParseError(f"non-canonical record index {entry[:20]!r}", at)
                raise ParseError(f"record index {entry[:20].decode()} past the table of"
                                 f" {len(self.parts)}", at)

    def check_used(self) -> None:
        """Every REC line is used by some hop."""
        if self.fresh < len(self.parts):
            raise ParseError("unused REC record", self.offsets[self.fresh])


def _entry_offset(rec: records.Record, entries: list[bytes], k: int) -> int:
    """The offset of entry ``k`` of the SENT record ``rec``'s index list
    ``entries``; past the last entry, that of the list."""
    if k >= len(entries):
        return rec.offsets[4]
    return rec.offsets[4] + sum(len(entry) + 1 for entry in entries[:k])


def _event(rec: records.Record, sent: SentEvent | None, table: _RecordTable,
           reports: dict[bytes, str]) -> Event:
    """The event ``rec`` holds; ``sent`` is the SENT event just before it,
    if any, which it must be the VALIDATED record of."""
    kind = rec.text(1)
    if sent is not None and kind != "VALIDATED":
        raise ParseError("SENT record not followed by its VALIDATED record", rec.offsets[1])
    if kind == "SENT":
        return table.hop(rec)
    if kind == "VALIDATED":
        if sent is None:
            raise ParseError("VALIDATED record without its SENT record", rec.offsets[1])
        rec.need(4)
        verdict = rec.text(2)
        if verdict not in ("ACCEPT", "REJECT"):
            raise ParseError(f"unknown VALIDATED verdict {verdict!r}", rec.offsets[2])
        report = rec.b64(3)
        reported = reports.get(report)
        if reported is None:
            try:
                reported = reports[report] = list(
                    records.read_file(report, _REPORT_LAYOUT, "report"))[0].text(1)
            except ParseError as exc:
                raise ParseError(f"unreadable VALIDATED report: {exc}", rec.offsets[3]) from None
        if verdict != reported:
            raise ParseError(f"VALIDATED verdict differs from its report's {reported!r}",
                             rec.offsets[2])
        # the receiver's verdict on the hop: no byte of the hop's flat names it
        return ValidatedEvent(sent.receiver, sent.msg_type, sent.instance_id, verdict,
                              report_wire=report)
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
