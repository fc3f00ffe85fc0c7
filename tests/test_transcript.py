"""Transcript wire format: strictness and randomness masking."""

import dataclasses
import random

import pytest

from portsec import model, records, transcript
from portsec.attacks import AttackKind, AttackSpec, battery, inject_attack
from portsec.audit import audit_views
from portsec.envelope import DEFAULT_SUITE
from portsec.model import Message, ParseError, Sealed, SecuredMessage, from_flat, to_flat
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
    rng = random.Random(seed)
    sealed = 0
    for scenario in ("export", "import"):
        for dg in ("false", "true"):
            fx = base_fixtures.with_values(
                # '+' in the run tag puts release characters into every flat
                run_tag=f"S{seed}+{scenario}-{dg}",
                B_NO=f"BKG-{rng.randint(0, 999999):06d}",
                CNT_C=f"{rng.randint(10, 900)} crates lot {rng.random()}",
                CNT_W=f"{rng.randint(900, 30480)} kg",
                DG=dg,
            )
            live = run_scenario(fx, scenario, "p2p").transcript
            reloaded = transcript_from_wire(transcript_to_wire(live))
            for t in (live, reloaded):
                assert determinism_digest(t) == _reference_digest(t), (scenario, dg)
            sealed += sum(isinstance(v, Sealed) for ev in live.sent_events()
                          for _, v in ev.message.message.fields)
    assert sealed > 0


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


def test_an_audit_flag_is_flag_or_ok(honest_sims):
    wire = transcript_to_wire(honest_sims[("export", "p2p")].transcript)
    at = wire.index(b"+OK'", wire.index(b"EVT+AUDIT+"))
    with pytest.raises(ParseError, match="unknown AUDIT flag 'MAYBE'") as e:
        transcript_from_wire(wire[:at] + b"+MAYBE'" + wire[at + len(b"+OK'"):])
    assert e.value.offset == at + 1


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
