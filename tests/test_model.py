"""Message model and flat wire format.

Frozen oracles: canonical byte encodings computed by hand, parse-error byte
offsets counted on the raw wire strings.
"""

import base64
import functools
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portsec.fixtures import fixtures_from_bytes
from portsec.model import (
    CORE_ATTRIBUTES,
    AttributeSignature,
    DuplicateAttribute,
    HashOnly,
    InvariantViolation,
    Message,
    ParseError,
    Plain,
    Sealed,
    SecuredMessage,
    ModelError,
    canonical_bytes,
    from_flat,
    to_flat,
    validate_attribute_name,
)
from portsec.sim import run_scenario


def b64(raw: bytes) -> bytes:
    return base64.urlsafe_b64encode(raw)


# --- canonical bytes --------------------------------------------------------


def test_canonical_bytes_ascii():
    assert canonical_bytes("COSU1234567") == b"COSU1234567"


def test_canonical_bytes_two_byte_char():
    # U+00DC LATIN CAPITAL LETTER U WITH DIAERESIS is 0xC3 0x9C in UTF-8.
    assert canonical_bytes("Ü") == b"\xc3\x9c"
    assert len(canonical_bytes("LÜBECK")) == 7


def test_canonical_bytes_empty():
    assert canonical_bytes("") == b""


@given(st.text(max_size=40))
def test_canonical_bytes_injective_decode(text):
    assert canonical_bytes(text).decode("utf-8") == text


# --- structural invariants --------------------------------------------------


def test_attribute_name_validation():
    for ok in CORE_ATTRIBUTES + ("DG", "CNT_LOC", "A1"):
        assert validate_attribute_name(ok) == ok
    for bad in ("", "b_no", "B-NO", "B NO", "B+NO"):
        with pytest.raises(InvariantViolation):
            validate_attribute_name(bad)


def test_sealed_requires_wrapped_key():
    with pytest.raises(InvariantViolation):
        Sealed(b"\x00" * 32, b"ct", {})


def test_signature_requires_attrs():
    with pytest.raises(InvariantViolation):
        AttributeSignature("importer", (), b"sig")
    with pytest.raises(DuplicateAttribute):
        AttributeSignature("importer", ("B_NO", "B_NO"), b"sig")


def test_message_rejects_duplicate_field():
    with pytest.raises(DuplicateAttribute):
        Message("ICU", "RUN1", (("CNT_NO", Plain("a")), ("CNT_NO", Plain("b"))))


def test_secured_message_signature_must_cover_present_attrs():
    msg = Message("ICU", "RUN1", (("CNT_NO", Plain("COSU1")),))
    sig = AttributeSignature("terminal", ("B_NO",), b"s")
    with pytest.raises(InvariantViolation):
        SecuredMessage(msg, (sig,), "terminal")


def test_replace_field():
    msg = Message("ICU", "RUN1", (("CNT_NO", Plain("old")), ("B_NO", Plain("x"))))
    swapped = msg.replace_field("CNT_NO", HashOnly(b"\x01" * 32))
    assert swapped.get("CNT_NO") == HashOnly(b"\x01" * 32)
    assert swapped.get("B_NO") == Plain("x")
    assert msg.get("CNT_NO") == Plain("old")
    with pytest.raises(KeyError):
        msg.replace_field("CSG_DATA", Plain("y"))


# --- serialization oracles --------------------------------------------------


def test_minimal_wire_layout():
    """One Plain field: exact segment-by-segment layout."""
    msg = Message("ICU", "RUN1", (("CNT_NO", Plain("COSU1234567")),))
    sig = AttributeSignature("terminal", ("CNT_NO",), b"\x01\x02")
    wire = to_flat(SecuredMessage(msg, (sig,), "terminal"))
    expected = (
        b"MSG+ICU+RUN1'"
        b"ATT+CNT_NO+P+" + b64(b"COSU1234567") + b"'"
        b"SIG+terminal+CNT_NO+" + b64(b"\x01\x02") + b"'"
        b"SND+terminal'"
    )
    assert wire == expected


def test_sealed_wire_sorted_readers():
    sealed = Sealed(b"\xaa" * 4, b"\xbb" * 6, {"pcs": b"k2", "customs": b"k1"})
    msg = Message("MANIFEST", "R", (("CSG_DATA", sealed),))
    wire = to_flat(SecuredMessage(msg, (), "shipping"))
    body = (
        b"ATT+CSG_DATA+S+" + b64(b"\xaa" * 4) + b"+" + b64(b"\xbb" * 6)
        + b"+002+customs+" + b64(b"k1") + b"+pcs+" + b64(b"k2") + b"'"
    )
    assert body in wire
    # Determinism: insertion order of the wrapped-key map must not matter.
    sealed2 = Sealed(b"\xaa" * 4, b"\xbb" * 6, {"customs": b"k1", "pcs": b"k2"})
    msg2 = Message("MANIFEST", "R", (("CSG_DATA", sealed2),))
    assert to_flat(SecuredMessage(msg2, (), "shipping")) == wire


def test_escaping_round_trip():
    msg = Message("A+B'C?D", "id+with?'specials", (("B_NO", Plain("x'y+z?w")),))
    sm = SecuredMessage(msg, (), "send+er'?")
    assert from_flat(to_flat(sm)) == sm


# --- parse errors with frozen offsets ---------------------------------------


def test_parse_empty_input():
    with pytest.raises(ParseError) as e:
        from_flat(b"")
    assert e.value.offset == 0


def test_parse_unterminated_final_segment():
    wire = b"MSG+ICU+RUN1'ATT+CNT_NO"
    with pytest.raises(ParseError) as e:
        from_flat(wire)
    assert e.value.offset == len(wire)


def test_parse_first_segment_not_msg():
    with pytest.raises(ParseError, match="lacks MSG header") as e:
        from_flat(b"ATT+CNT_NO+P+" + b64(b"v") + b"'")
    assert e.value.offset == 0
    with pytest.raises(ParseError, match="unknown message record b'XXX'") as e:
        from_flat(b"XXX+1'")
    assert e.value.offset == 0


def test_parse_duplicate_attribute():
    wire = (
        b"MSG+ICU+RUN1'"
        b"ATT+CNT_NO+P+" + b64(b"a") + b"'"
        b"ATT+CNT_NO+P+" + b64(b"b") + b"'SND+t'"
    )
    with pytest.raises(ParseError, match="repeated ATT record for CNT_NO") as e:
        from_flat(wire)
    assert e.value.offset == wire.rindex(b"ATT+")


def test_parse_unknown_tag_mid_stream():
    with pytest.raises(ParseError, match="unknown message record b'ZZZ'") as e:
        from_flat(b"MSG+ICU+RUN1'ZZZ+x'SND+t'")
    assert e.value.offset == 13


def test_parse_duplicate_msg_segment():
    with pytest.raises(ParseError):
        from_flat(b"MSG+ICU+RUN1'MSG+ICU+RUN2'SND+t'")


def test_parse_missing_sender():
    with pytest.raises(ParseError, match="lacks SND header") as e:
        from_flat(b"MSG+ICU+RUN1'")
    assert e.value.offset == 0  # a missing header is a fault of the whole input


def test_parse_invalid_base64_offset():
    # Offsets: MSG segment is bytes 0..12, "####" starts at byte 26.
    wire = b"MSG+ICU+RUN1'ATT+CNT_NO+P+####'SND+t'"
    assert wire[26:30] == b"####"
    with pytest.raises(ParseError) as e:
        from_flat(wire)
    assert e.value.offset == 26


def test_parse_non_canonical_base64():
    # "AB==" and "AA==" decode to the same byte; only the canonical form
    # ("AA==") may appear on the wire.
    ok = b"MSG+ICU+RUN1'ATT+CNT_NO+H+AA=='SND+t'"
    assert from_flat(ok).message.get("CNT_NO") == HashOnly(b"\x00")
    with pytest.raises(ParseError) as e:
        from_flat(b"MSG+ICU+RUN1'ATT+CNT_NO+H+AB=='SND+t'")
    assert e.value.offset == 26


def test_parse_dangling_release_character():
    wire = b"MSG+ICU+RUN1?"
    with pytest.raises(ParseError) as e:
        from_flat(wire)
    assert e.value.offset == 12


def test_parse_release_before_ordinary_byte():
    with pytest.raises(ParseError):
        from_flat(b"MSG+IC?AU+RUN1'SND+t'")


def test_parse_sealed_count_mismatch():
    sealed_seg = (
        b"ATT+CSG_DATA+S+" + b64(b"\x01") + b"+" + b64(b"\x02") + b"+002+pcs+" + b64(b"k") + b"'"
    )
    with pytest.raises(ParseError):
        from_flat(b"MSG+ICU+RUN1'" + sealed_seg + b"SND+t'")


def test_parse_bad_signature_element_offset():
    # a bad element of a SIG record is reported where it starts, once
    wire = b"MSG+ICU+RUN1'ATT+B_NO+H+AA=='SIG+t+B_NO+A#=='SND+t'"
    with pytest.raises(ParseError) as e:
        from_flat(wire)
    assert e.value.offset == wire.index(b"A#==") == 40
    assert str(e.value).count("(at byte") == 1


def test_parse_attribute_name_with_a_trailing_line_break():
    assert from_flat(b"MSG+ICU+RUN1'ATT+CNT_NO+H+AA=='SND+t'")
    with pytest.raises(ParseError, match="attribute name") as e:
        from_flat(b"MSG+ICU+RUN1'ATT+CNT_NO\n+H+AA=='SND+t'")
    assert e.value.offset == 17
    with pytest.raises(InvariantViolation):
        validate_attribute_name("CNT_NO\n")


def test_parse_sig_covering_absent_attribute():
    wire = (
        b"MSG+ICU+RUN1'ATT+CNT_NO+P+" + b64(b"v") + b"'"
        b"SIG+terminal+B_NO+" + b64(b"s") + b"'SND+t'"
    )
    with pytest.raises(ParseError):
        from_flat(wire)


# --- round-trip property ----------------------------------------------------

_name = st.from_regex(r"[A-Z0-9_]{1,10}", fullmatch=True)
_token = st.text(
    alphabet=st.sampled_from("ABCxyz019 +'?Ü._-"), min_size=1, max_size=12
)
_blob = st.binary(max_size=48)


def _sealed(draw):
    readers = draw(
        st.dictionaries(_token, _blob, min_size=1, max_size=3)
    )
    return Sealed(draw(_blob), draw(_blob), readers)


_field_value = st.one_of(
    st.builds(Plain, st.text(max_size=24)),
    st.builds(HashOnly, _blob),
    st.composite(_sealed)(),
)


@st.composite
def secured_messages(draw):
    names = draw(st.lists(_name, min_size=1, max_size=6, unique=True))
    fields = tuple((n, draw(_field_value)) for n in names)
    sigs = []
    for _ in range(draw(st.integers(0, 3))):
        covered = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        sigs.append(AttributeSignature(draw(_token), tuple(covered), draw(_blob)))
    return SecuredMessage(
        Message(draw(_token), draw(_token), fields), tuple(sigs), draw(_token)
    )


@settings(max_examples=150, deadline=None)
@given(secured_messages())
def test_round_trip(sm):
    wire = to_flat(sm)
    parsed = from_flat(wire)
    assert parsed == sm
    assert to_flat(parsed) == wire


# --- one wire form per message ----------------------------------------------

_SEALED_HEAD = b"MSG+ICU+RUN1'ATT+B_NO+S+AA==+AA==+"


def test_sealed_reader_count_is_three_digits():
    ok = from_flat(_SEALED_HEAD + b"001+t+AA=='SND+t'")
    assert ok.message.get("B_NO").wrapped_keys == {"t": b"\0"}
    for count in (b"1", b"01", b"0001"):
        with pytest.raises(ParseError, match="non-canonical integer") as e:
            from_flat(_SEALED_HEAD + count + b"+t+AA=='SND+t'")
        assert e.value.offset == len(_SEALED_HEAD)


@pytest.mark.parametrize("readers, bad", [(b"u+AA==+t", b"t"), (b"t+AA==+t", b"t")],
                         ids=["descending", "repeated"])
def test_sealed_readers_must_ascend(readers, bad):
    wire = _SEALED_HEAD + b"002+" + readers + b"+AA=='SND+t'"
    with pytest.raises(ParseError, match="out of order") as e:
        from_flat(wire)
    assert e.value.offset == len(_SEALED_HEAD) + len(b"002+") + len(readers) - len(bad)


@pytest.mark.parametrize(
    "wire, at",
    [
        (b"MSG+ICU+RUN1'SIG+t+B_NO+AA=='ATT+B_NO+H+AA=='SND+t'", b"ATT"),
        (b"MSG+ICU+RUN1'ATT+B_NO+H+AA=='SND+t'SIG+t+B_NO+AA=='", b"SIG"),
        (b"MSG+ICU+RUN1'SND+t'ATT+B_NO+H+AA=='", b"ATT"),
    ],
    ids=["att-after-sig", "sig-after-snd", "att-after-snd"],
)
def test_segments_come_in_wire_order(wire, at):
    with pytest.raises(ParseError, match="out of order") as e:
        from_flat(wire)
    assert e.value.offset == wire.index(b"'" + at) + 1


@functools.cache
def _golden_flats() -> list[bytes]:
    """Every message the honest p2p runs send over the committed world."""
    data = Path(__file__).resolve().parent / "data" / "golden.psf"
    fx = fixtures_from_bytes(data.read_bytes())
    flats = [
        ev.flat
        for scenario in ("export", "import")
        for ev in run_scenario(fx, scenario, "p2p").transcript.sent_events()
    ]
    assert flats and not any(b"?" in f for f in flats)  # no release characters
    return flats


_any_byte = st.one_of(st.sampled_from(list(b"+'0123")), st.integers(0, 255))


def _mutate(data, flat: bytes) -> bytes:
    """One byte edit, or one edit of the record structure: two records or
    two elements swapped, a sealed field's reader count written at another
    width, or two of its readers swapped or given one name."""
    how = data.draw(st.sampled_from(
        ("byte", "insert", "delete", "records", "elements", "count", "readers")))
    if how in ("byte", "insert", "delete"):
        i = data.draw(st.integers(0, len(flat) - 1))
        new = b"" if how == "delete" else bytes([data.draw(_any_byte)])
        return flat[:i] + new + flat[i + (how != "insert"):]
    recs = [r.split(b"+") for r in flat.split(b"'")[:-1]]
    if how in ("records", "elements"):
        k = data.draw(st.integers(0, len(recs) - 1))
        seq, low = (recs, 0) if how == "records" else (recs[k], 1)
        i, j = (data.draw(st.integers(low, max(low, len(seq) - 1))) for _ in range(2))
        if max(i, j) < len(seq):
            seq[i], seq[j] = seq[j], seq[i]
    else:
        sealed = [r for r in recs if r[0] == b"ATT" and r[2] == b"S"]
        if not sealed:
            return flat
        rec = data.draw(st.sampled_from(sealed))
        if how == "count":
            rec[5] = rec[5].lstrip(b"0").zfill(data.draw(st.integers(1, 4)))
        else:
            i, j = (6 + 2 * data.draw(st.integers(0, int(rec[5]) - 1)) for _ in range(2))
            if data.draw(st.booleans()):
                rec[i:i + 2], rec[j:j + 2] = rec[j:j + 2], rec[i:i + 2]
            else:
                rec[i] = rec[j]
    return b"".join(b"+".join(r) + b"'" for r in recs)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_a_flat_that_decodes_has_one_wire_form(data):
    flat = _golden_flats()[data.draw(st.integers(0, len(_golden_flats()) - 1), label="flat")]
    mutated = _mutate(data, flat)
    try:
        parsed = from_flat(mutated)
    except ModelError:
        return
    assert to_flat(parsed) == mutated


def _is_interned(text: str) -> bool:
    # an equal string built afresh interns to ``text`` only if ``text``
    # is the interned one
    return sys.intern(text.encode().decode()) is text


def test_decoded_identifiers_are_interned_and_values_are_not():
    """Identifiers repeat across every stored receipt, so ``from_flat``
    returns the one interned copy of each; field values are data and stay
    the decoded strings. (Only values with a space are checked: the
    compiler interns identifier-like literals by itself.)"""
    texts = 0
    for flat in _golden_flats():
        sm = from_flat(flat)
        names = [sm.message.msg_type, sm.message.instance_id, sm.sender]
        for name, value in sm.message.fields:
            names.append(name)
            if isinstance(value, Sealed):
                names += value.wrapped_keys
            elif isinstance(value, Plain) and " " in value.text:
                assert not _is_interned(value.text), value.text
                texts += 1
        for sig in sm.signatures:
            names += (sig.signer, *sig.attrs)
        for name in names:
            assert _is_interned(name), name
    assert texts
