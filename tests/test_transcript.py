"""Transcript wire format: strictness and randomness masking."""

import random

import pytest

from portsec import transcript
from portsec.audit import audit_views
from portsec.envelope import DEFAULT_SUITE
from portsec.model import Message, ParseError, Sealed, SecuredMessage, to_flat
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

    def counted(flat):
        calls.append(flat)
        return from_flat(flat)

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
