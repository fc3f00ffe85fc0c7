"""Transcript wire format: strictness and randomness masking."""

import base64
import dataclasses
import random

import pytest

from portsec import model, records, transcript
from portsec.attacks import AttackKind, AttackSpec, battery, inject_attack
from portsec.audit import audit_views
from portsec.envelope import DEFAULT_SUITE
from portsec.model import (
    AttributeSignature,
    HashOnly,
    Message,
    ParseError,
    Plain,
    Sealed,
    SecuredMessage,
    from_flat,
    to_flat,
)
from portsec.sim import run_scenario
from portsec.transcript import (
    AuditEvent,
    LedgerEvent,
    SentEvent,
    Transcript,
    ValidatedEvent,
    determinism_digest,
    transcript_from_wire,
    transcript_to_wire,
)


def test_header_must_come_first():
    with pytest.raises(ParseError):
        transcript_from_wire(b"EVT+LEDGER+CREATE+C1+sl1-clerk+COMMITTED+'\n")


def test_unknown_record_tag_rejected():
    with pytest.raises(ParseError):
        transcript_from_wire(b"TRS+1+export+p2p+'\nZZZ+what'\n")


def test_event_arity_is_checked():
    wire = b"TRS+1+export+p2p+'\nEVT+VALIDATED+actor+IFTMCS+R1'\n"
    with pytest.raises(ParseError):
        transcript_from_wire(wire)


def test_one_record_per_line():
    with pytest.raises(ParseError):
        transcript_from_wire(b"TRS+1+export+p2p+'ACT+a+ROLE'\n")


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        transcript_from_wire(b"")


def _with_copy(wire: bytes, tag: bytes, role: bytes | None = None, at_end: bool = False) -> bytes:
    """``wire`` with a copy of its first ``tag`` line, right after it or at
    the end; for an ACT line, ``role`` replaces the copy's role."""
    lines = wire.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(tag + b"+"))
    copy = lines[i]
    if role is not None:
        copy = copy[:copy.rindex(b"+") + 1] + role + b"'\n"
    return b"".join([*lines, copy] if at_end else [*lines[:i + 1], copy, *lines[i + 1:]])


@pytest.mark.parametrize("tag, role, at_end, what", [
    (b"TRS", None, True, "repeated TRS record"),
    (b"ACT", None, False, "repeated ACT record for "),
    (b"ACT", b"CUSTOMS", False, "repeated ACT record for "),
], ids=["header-at-end", "actor-copy", "actor-other-role"])
def test_a_repeated_header_or_actor_is_refused(honest_sims, tag, role, at_end, what):
    """A stored transcript holds one header and each actor once: a second
    header would start the transcript over and drop every record before
    it, and a second ACT line would replace the actor's role."""
    wire = transcript_to_wire(honest_sims[("export", "p2p")].transcript)
    assert transcript_from_wire(wire).events
    with pytest.raises(ParseError, match=what):
        transcript_from_wire(_with_copy(wire, tag, role, at_end))


def test_empty_audit_attribute_list_survives():
    t = Transcript("export", "p2p")
    t.events.append(AuditEvent("pa-officer", (), False))
    again = transcript_from_wire(transcript_to_wire(t))
    assert again.events == [AuditEvent("pa-officer", (), False)]


def test_masking_hides_only_sealing_randomness(base_fixtures):
    # fresh worlds produce different ciphertext bytes for the same script,
    # yet the masked digests agree: determinism up to encryption randomness
    a = run_scenario(base_fixtures, "export", "p2p").transcript
    b = run_scenario(base_fixtures, "export", "p2p").transcript
    assert transcript_to_wire(a) != transcript_to_wire(b)
    assert determinism_digest(a) == determinism_digest(b)


def test_digest_sees_plaintext_changes(base_fixtures):
    a = run_scenario(base_fixtures, "export", "p2p").transcript
    other = base_fixtures.with_values(CNT_W="99 kg")
    b = run_scenario(other, "export", "p2p").transcript
    assert determinism_digest(a) != determinism_digest(b)


def _reference_digest(t):
    """``determinism_digest`` as first written: each SENT message decoded,
    its sealed ciphertexts and wrapped keys blanked, and encoded again."""
    acc = [t.scenario.encode(), t.mode.encode(), t.verdict.encode()]
    for ev in t.events:
        if isinstance(ev, SentEvent):
            sm = ev.message
            fields = tuple(
                (name, Sealed(v.digest, b"", {r: b"" for r in v.wrapped_keys})
                 if isinstance(v, Sealed) else v)
                for name, v in sm.message.fields
            )
            masked = to_flat(SecuredMessage(
                Message(sm.message.msg_type, sm.message.instance_id, fields),
                sm.signatures, sm.sender,
            ))
            acc.append(b"SENT|" + ev.step.encode() + b"|" + ev.receiver.encode() + b"|" + masked)
        elif isinstance(ev, ValidatedEvent):
            acc.append(f"VALIDATED|{ev.actor}|{ev.msg_type}|{ev.verdict}".encode())
        elif isinstance(ev, LedgerEvent):
            acc.append(f"LEDGER|{ev.action}|{ev.cnt_no}|{ev.invoker}|{ev.outcome}".encode())
        else:
            acc.append(
                ("AUDIT|%s|%s|%d" % (ev.actor, ",".join(ev.attributes), ev.flagged)).encode()
            )
    return DEFAULT_SUITE.digest(b"\x1e".join(acc))


@pytest.mark.parametrize("seed", [1, 2])
def test_digest_masks_the_flat_as_the_reference_masks_the_message(base_fixtures, seed):
    """Over honest and battery runs, live and reloaded, the digest masks
    each flat as the reference masks its decoded message: on the split
    path (no release character) and on the escape path."""
    rng = random.Random(seed)
    hops = {(sealed, released): 0 for sealed in (True, False) for released in (True, False)}
    for released in (True, False):
        for scenario in ("export", "import"):
            for dg in ("false", "true"):
                fx = base_fixtures.with_values(
                    # '+' in the run tag puts release characters into every flat
                    run_tag=f"S{seed}{'+' if released else '-'}{scenario}-{dg}",
                    B_NO=f"BKG-{rng.randint(0, 999999):06d}",
                    CNT_C=f"{rng.randint(10, 900)} crates lot {rng.random()}",
                    CNT_W=f"{rng.randint(900, 30480)} kg",
                    DG=dg,
                )
                runs = [run_scenario(fx, scenario, "p2p").transcript]
                runs += [inject_attack(fx, scenario, spec, "p2p")[0] for spec in battery(scenario)]
                for live in runs:
                    reloaded = transcript_from_wire(transcript_to_wire(live))
                    for t in (live, reloaded):
                        assert determinism_digest(t) == _reference_digest(t), (scenario, dg)
                    for ev in live.sent_events():
                        hops[_holds_sealed(ev), b"?" in ev.flat] += 1
    assert all(hops.values()), hops


def _holds_sealed(ev):
    return any(isinstance(v, Sealed) for _, v in ev.message.message.fields)


def _hand_built(ciphertext: bytes, key: bytes, other: bytes) -> Transcript:
    """Four hops the battery does not make, each followed by its
    receiver's VALIDATED record, so that they reload: a sealed field named
    ``S`` and a plain one of that name; a reader, signer and sender named
    ``S``; reader identities holding ``'``, ``?`` and ``+``; and a signer
    whose escaped name holds ``+S+``."""
    sealed = Sealed(b"d" * 32, ciphertext, {"S": key, "pa-officer": other})
    odd = Sealed(b"e" * 32, ciphertext, {"a'b?c": key, "z+y": other})
    hops = [
        ((("S", sealed), ("CNT_W", Plain("S"))), (AttributeSignature("S", ("S",), b"s"),)),
        ((("S", Plain("x")), ("CNT_C", sealed)), (AttributeSignature("S", ("S", "CNT_C"), b"t"),)),
        ((("CNT_C", odd), ("B_NO", HashOnly(b"h" * 32))), ()),
        ((("B_NO", Plain("x")),), (AttributeSignature("a+S", ("B_NO",), b"u"),)),
    ]
    t = Transcript("export", "p2p")
    for i, (fields, signatures) in enumerate(hops):
        sm = SecuredMessage(Message("CODECO", f"R{i}", fields), signatures, "S")
        t.sent(f"hop{i}", "S", "t1-op", to_flat(sm), sm)
        t.events.append(ValidatedEvent("t1-op", "CODECO", f"R{i}", "ACCEPT",
                                       report_wire=b"VERDICT+ACCEPT'\n"))
    return t


def test_digest_masks_hand_built_sealed_fields_as_the_reference():
    """Each ``+S+`` that is not a sealed field's representation is left
    as it is; each sealed field is masked, its readers kept, on the split
    and on the escape path, live and reloaded."""
    t = _hand_built(b"c" * 60, b"k" * 40, b"w" * 40)
    flats = [ev.flat for ev in t.sent_events()]
    assert [b"?" in flat for flat in flats] == [False, False, True, True]
    assert all(b"+S+" in flat for flat in flats)
    reloaded = transcript_from_wire(transcript_to_wire(t))
    assert [ev.flat for ev in reloaded.sent_events()] == flats
    for each in (t, reloaded):
        assert determinism_digest(each) == _reference_digest(each)
    masked = [transcript._masked_flat(flat) for flat in flats]
    assert masked[3] is flats[3]
    for secret in (b"c" * 60, b"k" * 40, b"w" * 40):
        wired = base64.urlsafe_b64encode(secret)
        assert wired in flats[0] and not any(wired in flat for flat in masked)
    assert b"+002+S++pa-officer+'" in masked[0] and b"+002+a?'b??c++z?+y+'" in masked[2]
    # fresh ciphertext and keys digest the same
    assert determinism_digest(_hand_built(b"C" * 60, b"w" * 40, b"k" * 40)) == \
        determinism_digest(t)


def test_digest_splits_only_hops_with_a_sealed_field(honest_sims, base_fixtures, monkeypatch):
    """A hop whose message holds no sealed value is its own masked form:
    its flat is hashed as it is. A flat with no release character builds
    no ``Record``: only its sealed records are split, by their bytes. A
    flat holding one is split by ``records.decode``, here only when it
    holds a sealed field."""
    fx = base_fixtures.with_values(run_tag="tag+with?release")
    released_sims = {key: run_scenario(fx, *key) for key in honest_sims}
    built = []

    class Counted(records.Record):
        __slots__ = ()

        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    for released, sims in ((False, honest_sims), (True, released_sims)):
        for key, sim in sims.items():
            reloaded = transcript_from_wire(transcript_to_wire(sim.transcript))
            for t in (sim.transcript, reloaded):
                assert all((b"?" in ev.flat) == released for ev in t.sent_events()), key
                for ev in t.sent_events():
                    assert (transcript._masked_flat(ev.flat) is ev.flat) != _holds_sealed(ev)
                split = [len(records.decode(ev.flat)) for ev in t.sent_events()
                         if released and _holds_sealed(ev)]
                built.clear()
                with monkeypatch.context() as patched:
                    patched.setattr(records, "Record", Counted)
                    determinism_digest(t)
                assert len(built) == sum(split), (key, released)


def test_reload_decodes_each_message_once(honest_sims, monkeypatch):
    calls = []
    from_flat = transcript.from_flat

    def counted(flat, decoded):
        calls.append(flat)
        return from_flat(flat, decoded)

    monkeypatch.setattr(transcript, "from_flat", counted)
    for key, sim in honest_sims.items():
        calls.clear()
        reloaded = transcript_from_wire(transcript_to_wire(sim.transcript))
        audit_views(reloaded)
        determinism_digest(reloaded)
        assert calls == [ev.flat for ev in reloaded.sent_events()], key


@pytest.mark.parametrize(
    "forged, message, element",
    [(b"+IFTSTA+OTHER-RUN", "SENT type differs", 1), (b"+IFTMCS+OTHER-RUN", "SENT instance", 8)],
    ids=["type", "instance"],
)
def test_forged_sent_record_is_rejected(honest_sims, forged, message, element):
    # the first SENT record names another type or run than its own flat holds
    wire = transcript_to_wire(honest_sims[("export", "p2p")].transcript)
    at = wire.index(b"+IFTMCS+", wire.index(b"EVT+SENT+"))
    run_end = wire.index(b"+", at + len(b"+IFTMCS+"))
    with pytest.raises(ParseError, match=message) as e:
        transcript_from_wire(wire[:at] + forged + wire[run_end:])
    assert e.value.offset == at + element


def test_a_forged_sent_sender_is_rejected(honest_sims):
    """A SENT record names the sender its flat's SND names: relabelled, the
    audit would hold another actor to the fields the sender sent."""
    wire = transcript_to_wire(honest_sims[("export", "p2p")].transcript)
    at = wire.index(b"EVT+SENT+delivery+sl1-clerk+") + len(b"EVT+SENT+delivery+")
    forged = wire[:at] + b"pa-officer" + wire[at + len(b"sl1-clerk"):]
    with pytest.raises(ParseError, match="SENT sender differs") as e:
        transcript_from_wire(forged)
    assert e.value.offset == at


_DELIVERY = b"EVT+SENT+delivery+sl1-clerk+t1-op+CODECO+R1+"
_DELIVERY_VALIDATED = b"EVT+VALIDATED+t1-op+CODECO+R1+ACCEPT+"


def _dropped_line(wire: bytes, start: bytes) -> bytes:
    """``wire`` without the line that begins with ``start``."""
    at = wire.index(b"\n" + start) + 1
    return wire[:at] + wire[wire.index(b"\n", at) + 1:]


@pytest.mark.parametrize("edit, message, at", [
    (lambda w: w.replace(_DELIVERY, b"EVT+SENT+delivery+sl1-clerk+pa-officer+CODECO+R1+"),
     "VALIDATED actor differs from its SENT's receiver", b"EVT+VALIDATED+"),
    (lambda w: w.replace(_DELIVERY_VALIDATED, b"EVT+VALIDATED+t1-op+IFSTA+R1+ACCEPT+"),
     "VALIDATED type differs from its SENT's", b"EVT+VALIDATED+t1-op+"),
    (lambda w: w.replace(_DELIVERY_VALIDATED, b"EVT+VALIDATED+t1-op+CODECO+R2+ACCEPT+"),
     "VALIDATED instance differs from its SENT's", b"EVT+VALIDATED+t1-op+CODECO+"),
    (lambda w: _dropped_line(w, _DELIVERY_VALIDATED),
     "SENT record not followed by its VALIDATED record", b"EVT+"),
    (lambda w: w[:w.index(b"\n", w.index(_DELIVERY)) + 1],
     "SENT record without its VALIDATED record", None),
], ids=["receiver", "type", "instance", "dropped", "last"])
def test_a_sent_record_is_followed_by_its_receivers_validated_record(honest_sims, edit,
                                                                      message, at):
    """No byte of a hop's flat names its receiver: the VALIDATED record
    that follows its SENT record binds it. Relabelled, the audit would
    hold another actor to the fields the hop carried."""
    wire = transcript_to_wire(honest_sims[("export", "p2p")].transcript)
    forged = edit(wire)
    assert forged != wire
    with pytest.raises(ParseError, match=message) as e:
        transcript_from_wire(forged)
    # the offending element: in the record after the delivery hop's, or the end
    after = forged.index(b"\n", forged.index(b"EVT+SENT+delivery+")) + 1
    assert e.value.offset == (len(forged) if at is None else after + len(at))


def test_a_validated_record_follows_its_sent_record(honest_sims):
    """A VALIDATED record that follows no SENT record would claim that an
    actor judged a message it never received; the load refuses it at the
    record's kind element."""
    wire = transcript_to_wire(honest_sims[("export", "p2p")].transcript)
    start = wire.index(b"EVT+VALIDATED+")
    end = wire.index(b"\n", start) + 1
    doubled = wire[:end] + wire[start:end] + wire[end:]
    with pytest.raises(ParseError, match="VALIDATED record without its SENT record") as e:
        transcript_from_wire(doubled)
    assert e.value.offset == end + len(b"EVT+")


def test_a_validated_verdict_is_accept_or_reject(base_fixtures):
    """A REJECT relabelled to another word would still make the run FAIL,
    so the header check alone would not refuse it."""
    spec = AttackSpec(AttackKind.TAMPER_FIELD, attribute="CNT_W", payload="1 kg")
    t, _ = inject_attack(base_fixtures, "export", spec, "p2p")
    wire = transcript_to_wire(t)
    at = wire.index(b"+REJECT+")
    with pytest.raises(ParseError, match="unknown VALIDATED verdict 'MAYBE'") as e:
        transcript_from_wire(wire[:at] + b"+MAYBE+" + wire[at + len(b"+REJECT+"):])
    assert e.value.offset == at + 1


@pytest.mark.parametrize("report, message, element", [
    (b"VERDICT+REJECT'\n", "VALIDATED verdict differs from its report's 'REJECT'", 5),
    (b"", "unreadable VALIDATED report: report file lacks VERDICT header", 6),
    (b"FINDING+a+b+c'\nVERDICT+ACCEPT'\n", "unreadable VALIDATED report: VERDICT record out", 6),
    (b"VERDICT+ACCEPT+ACCEPT'\n", "unreadable VALIDATED report: VERDICT record takes 1", 6),
], ids=["other-verdict", "empty", "out-of-order", "wrong-count"])
def test_a_validated_verdict_is_its_reports(honest_sims, report, message, element):
    """A VALIDATED record's verdict word must be the VERDICT record of its
    report, read under the report's own layout; the error names the
    offending element. The last VALIDATED record is forged, after the load
    has read the honest ACCEPT report."""
    wire = transcript_to_wire(honest_sims[("export", "p2p")].transcript)
    start = wire.rindex(b"EVT+VALIDATED+")
    end = wire.index(b"\n", start)
    rec = records.decode(wire[start:end])[0]
    assert rec.text(5) == "ACCEPT"
    line = b"+".join([*rec.elems[:6], base64.urlsafe_b64encode(report)]) + b"'"
    forged = wire[:start] + line + wire[end:]
    with pytest.raises(ParseError, match=message) as e:
        transcript_from_wire(forged)
    assert e.value.offset == start + rec.offsets[element]


def test_an_audit_flag_is_flag_or_ok(honest_sims):
    wire = transcript_to_wire(honest_sims[("export", "p2p")].transcript)
    at = wire.index(b"+OK'", wire.index(b"EVT+AUDIT+"))
    with pytest.raises(ParseError, match="unknown AUDIT flag 'MAYBE'") as e:
        transcript_from_wire(wire[:at] + b"+MAYBE'" + wire[at + len(b"+OK'"):])
    assert e.value.offset == at + 1


@pytest.mark.parametrize("listed", [
    b"B_NO,,CNT_C,CSG_DATA,DG", b",B_NO,CNT_C,CSG_DATA,DG", b"B_NO,CNT_C,CSG_DATA,DG,",
    b"DG,CSG_DATA,CNT_C,B_NO", b"B_NO,CNT_C,CNT_C,CSG_DATA,DG", b"B_NO,CNT_C,CSG_DATA,dg",
    b",",
], ids=["empty-entry", "leading-empty", "trailing-empty", "reversed", "repeat", "bad-name",
        "only-empty"])
def test_an_audit_attribute_list_has_one_byte_form(honest_sims, listed):
    """An AUDIT record lists the sorted, distinct attribute names that
    ``Transcript.audit`` writes; any other spelling of the same set, which
    would load to the same or another digest, is refused at the list."""
    wire = transcript_to_wire(honest_sims[("export", "p2p")].transcript)
    record = b"EVT+AUDIT+importer-1+"
    written = record + b"B_NO,CNT_C,CSG_DATA,DG+"
    assert transcript_from_wire(wire) and wire.count(written) == 1
    with pytest.raises(ParseError, match="AUDIT attributes .* are not sorted, distinct names") as e:
        transcript_from_wire(wire.replace(written, record + listed + b"+"))
    assert e.value.offset == wire.index(written) + len(record)


def test_a_transcript_mode_is_p2p_or_ledger(honest_sims):
    for mode in ("p2p", "ledger"):
        assert transcript_from_wire(transcript_to_wire(honest_sims[("export", mode)].transcript))
    wire = transcript_to_wire(honest_sims[("export", "p2p")].transcript)
    assert wire.startswith(b"TRS+1+export+p2p+PASS'\n")
    with pytest.raises(ParseError, match="unknown transcript mode 'xyz'") as e:
        transcript_from_wire(b"TRS+1+export+xyz+" + wire[len(b"TRS+1+export+p2p+"):])
    assert e.value.offset == len(b"TRS+1+export+")


@pytest.mark.parametrize("mode", ["p2p", "ledger"])
def test_every_battery_transcript_reloads(base_fixtures, mode):
    for scenario in ("export", "import"):
        for spec in battery(scenario):
            t, _ = inject_attack(base_fixtures, scenario, spec, mode)
            wire = transcript_to_wire(t)
            assert transcript_to_wire(transcript_from_wire(wire)) == wire, (scenario, spec)


# --- each distinct record decoded once per load -------------------------------


@pytest.fixture(scope="module")
def p2p_wires(base_fixtures):
    """The stored transcript of each honest p2p run, export and import,
    with and without dangerous goods."""
    return {
        (scenario, dg): transcript_to_wire(
            run_scenario(base_fixtures.with_values(DG=dg), scenario, "p2p").transcript)
        for scenario in ("export", "import") for dg in ("false", "true")
    }


def _field_and_signature_records(t: Transcript) -> list[tuple[bytes, ...]]:
    """The elements of every ATT and SIG record of ``t``'s flats, in order."""
    return [tuple(rec.elems) for ev in t.sent_events() for rec in records.decode(ev.flat)
            if rec.tag in (b"ATT", b"SIG")]


def test_a_reloaded_message_equals_its_flat_decoded_alone(p2p_wires):
    for key, wire in p2p_wires.items():
        reloaded = transcript_from_wire(wire)
        held = _field_and_signature_records(reloaded)
        assert len(held) > len(set(held)), key  # copies to share
        for ev in reloaded.sent_events():
            assert ev.message == from_flat(ev.flat), (key, ev.step)


def test_a_load_decodes_each_distinct_record_once(p2p_wires, monkeypatch):
    """Forwarded fields and carried signatures repeat hop after hop; a
    load decodes each distinct record once, and the events share what it
    decoded."""
    decodes = []
    for name in ("_parse_att", "_parse_sig"):
        parse = getattr(model, name)
        monkeypatch.setattr(model, name, lambda rec, parse=parse: decodes.append(rec) or parse(rec))
    for key, wire in p2p_wires.items():
        decodes.clear()
        reloaded = transcript_from_wire(wire)
        held = _field_and_signature_records(reloaded)
        assert len(decodes) == len(set(held)), key
        values = {id(v) for ev in reloaded.sent_events()
                  for v in (*ev.message.message.fields, *ev.message.signatures)}
        assert len(values) == len(set(held)), key
        if key == ("export", "false"):
            assert (len(decodes), len(held)) == (17, 78)


def _second_copy_of_a_sealed_field(t: Transcript) -> tuple[int, bytes]:
    """The index of the second SENT event holding a sealed field an
    earlier one holds, and that field's record."""
    first = {}
    for i, ev in enumerate(t.events):
        if isinstance(ev, SentEvent):
            for rec in records.decode(ev.flat):
                if rec.tag == b"ATT" and rec.elems[2] == b"S":
                    raw = b"+".join(rec.elems) + b"'"
                    if first.setdefault(raw, i) != i:
                        return i, raw
    raise AssertionError("no sealed field is forwarded")


@pytest.mark.parametrize("damage, valid", [
    (lambda elem: b"#" + elem[1:], False),  # not base64: the load fails
    (lambda elem: (b"B" if elem[:1] == b"A" else b"A") + elem[1:], True),  # another digest
], ids=["broken", "changed"])
def test_a_changed_copy_of_a_repeated_record_decodes_on_its_own(p2p_wires, damage, valid):
    """One byte of a sealed field's digest changed in its second copy only:
    a broken copy fails the load at that copy's own element, and a still
    valid one decodes to its own digest, not the first copy's."""
    t = transcript_from_wire(p2p_wires[("export", "false")])
    i, raw = _second_copy_of_a_sealed_field(t)
    ev = t.events[i]
    name, _, digest = raw.split(b"+")[1:4]
    at = ev.flat.index(raw) + len(b"ATT+" + name + b"+S+")  # the digest, in the flat
    flat = ev.flat[:at] + damage(digest) + ev.flat[at + len(digest):]
    t.events[i] = dataclasses.replace(ev, flat=flat)
    wire = transcript_to_wire(t)
    if valid:
        again = transcript_from_wire(wire).events[i].message
        assert again == from_flat(flat)
        assert again.message.get(name.decode()).digest != \
            ev.message.message.get(name.decode()).digest
        return
    line = [rec for rec in records.decode_lines(wire) if rec.tag == b"EVT"][i]
    with pytest.raises(ParseError, match="non-canonical base64|invalid base64") as e:
        transcript_from_wire(wire)
    assert e.value.offset == line.offsets[7]
    assert f"(at byte {at})" in str(e.value)
