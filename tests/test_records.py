"""The shared record grammar: escaping, base64 elements and accessors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from portsec.records import ParseError, decode, decode_lines, encode


def test_encode_escapes_text_and_base64s_bytes():
    assert encode("A+B", "x'y?", b"\xff\xfe", "") == b"A?+B+x?'y??+__4=+'"


_elem = st.one_of(st.text(alphabet="ab+'?Ü\t", max_size=6), st.binary(max_size=8))


@given(st.lists(st.lists(_elem, max_size=5), min_size=1, max_size=4))
def test_round_trip(recs):
    wire = b"".join(encode("T", *elems) for elems in recs)
    decoded = decode(wire)
    assert len(decoded) == len(recs)
    for rec, elems in zip(decoded, recs):
        rec.need(len(elems) + 1)
        for i, e in enumerate(elems, start=1):
            assert (rec.b64(i) if isinstance(e, bytes) else rec.text(i)) == e


def test_lines_skip_blanks_and_count_from_file_start():
    recs = list(decode_lines(b"\n  A+1'  \r\n\nB+x+007'\n"))
    assert [r.tag for r in recs] == [b"A", b"B"]
    assert recs[1].offsets == [12, 14, 16]
    assert recs[1].int(2) == 7


def test_one_record_per_line():
    with pytest.raises(ParseError) as e:
        list(decode_lines(b"A+1'B+2'\n"))
    assert e.value.offset == 4


@pytest.mark.parametrize(
    "call, offset",
    [
        (lambda r: r.need(2), 0),
        (lambda r: r.text(4), 11),
        (lambda r: r.int(1), 2),
        (lambda r: r.int(2), 5),
        (lambda r: r.b64(2), 5),
        (lambda r: r.text(3), 9),
    ],
    ids=["arity", "missing", "int-sign", "int-text", "base64", "utf8"],
)
def test_accessor_errors_carry_element_offsets(call, offset):
    (rec,) = decode(b"T+-1+AB=+\xff\xfe'")
    with pytest.raises(ParseError) as e:
        call(rec)
    assert e.value.offset == offset
