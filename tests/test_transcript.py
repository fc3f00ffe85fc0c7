"""Transcript wire format: strictness and randomness masking."""

import pytest

from portsec import transcript
from portsec.audit import audit_views
from portsec.model import ParseError
from portsec.sim import run_scenario
from portsec.transcript import (
    AuditEvent,
    Transcript,
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
