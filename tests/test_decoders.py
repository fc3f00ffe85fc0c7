"""Every decoder of the record formats fails closed, at the real offset.

Any byte string either parses or raises a ``ParseError``; nothing else
(another ``ModelError``, ``IndexError``, ``ValueError``, ...) may escape. Error offsets count from
the start of the input, not from the start of the offending line.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portsec.attacks import attack_from_wire
from portsec.fixtures import fixtures_from_bytes, fixtures_to_bytes
from portsec.ledger import export_chain, parse_chain
from portsec.model import ParseError, from_flat
from portsec.pki import cert_to_wire
from portsec.records import encode
from portsec.transcript import transcript_from_wire, transcript_to_wire


@pytest.fixture(scope="session")
def honest(base_fixtures, honest_sims):
    """decoder name -> (decoder, one honest encoding)."""
    p2p = honest_sims[("export", "p2p")]
    return {
        "from_flat": (from_flat, p2p.transcript.sent_events()[1].flat),
        # a certificate alone: the CERT record parser behind both file loaders
        "certificate": (fixtures_from_bytes, cert_to_wire(base_fixtures.certs["pcs-op"])),
        "parse_chain": (parse_chain, export_chain(honest_sims[("import", "ledger")].net)),
        "fixtures_from_bytes": (fixtures_from_bytes, fixtures_to_bytes(base_fixtures)),
        "transcript_from_wire": (transcript_from_wire, transcript_to_wire(p2p.transcript)),
        "attack_from_wire": (
            attack_from_wire, b"ATK+TAMPER_FIELD+step+delivery+attribute+CNT_W+payload+1 kg'"),
    }


_RECORD = re.compile(rb"(?:[^'?]|\?[\s\S])*'\n?")
_special_or_any = st.one_of(st.sampled_from(list(b"+'?\n -0A=")), st.integers(0, 255))


def _corrupt(data, honest_bytes: bytes) -> bytes:
    how = data.draw(st.sampled_from(("bytes", "truncation", "mutation", "respliced")))
    if how == "bytes":
        return data.draw(st.binary(max_size=120))
    if how == "truncation":
        return honest_bytes[: data.draw(st.integers(0, len(honest_bytes)))]
    if how == "mutation":
        i = data.draw(st.integers(0, len(honest_bytes) - 1))
        return honest_bytes[:i] + bytes([data.draw(_special_or_any)]) + honest_bytes[i + 1:]
    # Keep one record's tag, rebuild its elements from tokens of the file:
    # reaches every record parser with the wrong arity or element kinds.
    recs = _RECORD.findall(honest_bytes)
    k = data.draw(st.integers(0, len(recs) - 1))
    pool = sorted(set(re.split(rb"[+'\n]", honest_bytes)) - {b""})[:300]
    elems = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    tag = recs[k].split(b"+", 1)[0].rstrip(b"'\n")
    line = b"+".join([tag, *elems]) + b"'" + (b"\n" if recs[k].endswith(b"\n") else b"")
    return b"".join(recs[:k]) + line + b"".join(recs[k + 1:])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_decoders_fail_closed(honest, data):
    name = data.draw(st.sampled_from(sorted(honest)), label="decoder")
    decode, honest_bytes = honest[name]
    blob = _corrupt(data, honest_bytes)
    try:
        decode(blob)
    except ParseError:
        pass


def test_fixture_record_arity_is_checked():
    with pytest.raises(ParseError) as e:
        fixtures_from_bytes(b"FIX+2+x'\nRUN+a+b'\n")
    assert e.value.offset == 9


_CHAIN_HEAD = b"LEDGER+1+s'\nANCHOR+o+AA=='\nBLK+0+AA==+AA=='\n"


def _sent(msg_type: str, flat: bytes) -> bytes:
    """A transcript with one SENT event for run R1 carrying ``flat``."""
    event = encode("EVT", "SENT", "booking", "a", "b", msg_type, "R1", flat)
    return b"TRS+1+export+p2p+PASS'\n" + event + b"\n"


# the embedded flat lacks its SND record; its base64 starts "TVNH" ("MSG")
_SENT_NO_SENDER = _sent("IFTMCS", b"MSG+IFTMCS+R1'")
_SENT_FORGED_TYPE = _sent("IFTSTA", b"MSG+IFTMCS+R1'SND+a'")
_ATT = b"ATT+B_NO+H+AA=='"


@pytest.mark.parametrize(
    "decode, data, offset, at",
    [
        # sealed field whose wrapped-key count is not a number
        (from_flat, b"MSG+ICU+RUN1'ATT+B_NO+S+AA==+AA==+x'SND+t'", 34, b"x'"),
        # not-before is not an integer
        (fixtures_from_bytes, b"CERT+1+a+b+c+d+x+2+AA==+AA=='", 15, b"x+2"),
        # a zero-padded serial: a certificate has one byte form
        (fixtures_from_bytes, b"CERT+01+a+b+c+d+1+2+AA==+AA=='", 5, b"01+"),
        # TXN whose invoker has no certificate record: the TXN's own offset
        (parse_chain, _CHAIN_HEAD + b"TXN+CREATE+c+ghost+1+AA==+000+000'\n", 44, b"TXN+"),
        # release character before an ordinary byte on the second line
        (fixtures_from_bytes, b"FIX+2+x'\nRUN+abc?d'\n", 16, b"?d"),
        # event record without its kind: the end of the tag
        (transcript_from_wire, b"TRS+1+export+p2p+PASS'\nEVT'\n", 26, b"'\n"),
        # block is not an integer, after a blank first line
        (attack_from_wire, b"\nATK+TAMPER_FIELD+block+soon'\n", 24, b"soon"),
        # a SENT event's flat that does not parse: the flat element's offset
        (transcript_from_wire, _SENT_NO_SENDER, 54, b"TVNH"),
        # a SENT event naming another type than its flat: the type element
        (transcript_from_wire, _SENT_FORGED_TYPE, 44, b"IFTSTA+"),
        # what the message model refuses is a ParseError at its segment:
        # a repeated ATT name, a SIG covering one attribute twice, and an
        # unknown tag (here empty) first or after the MSG segment
        (from_flat, b"MSG+ICU+R'" + _ATT + _ATT + b"SND+t'", 26, b"ATT+"),
        (from_flat, b"MSG+ICU+R'" + _ATT + b"SIG+t+B_NO,B_NO+AA=='SND+t'", 26, b"SIG+"),
        (from_flat, b"'MSG+ICU+R'SND+t'", 0, b"'MSG"),
        (from_flat, b"MSG+ICU+R'" + _ATT + b"ZZZ+x'SND+t'", 26, b"ZZZ+"),
        # an ATT without the name it is keyed by: the end of its tag
        (from_flat, b"MSG+ICU+R'ATT'SND+t'", 13, b"'SND"),
    ],
    ids=["flat", "cert", "cert-serial", "chain", "fixtures", "transcript", "attack", "sent-flat",
         "sent-type", "flat-repeated-att", "flat-sig-duplicates", "flat-unknown-first",
         "flat-unknown-mid", "flat-att-without-name"],
)
def test_error_offsets_are_file_offsets(decode, data, offset, at):
    assert data[offset:offset + len(at)] == at
    with pytest.raises(ParseError) as e:
        decode(data)
    assert e.value.offset == offset
