"""The shared record grammar: escaping, base64 elements, accessors and the
file layout check."""

import base64
import binascii
import re
from functools import cache

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from portsec import ledger, records
from portsec.fixtures import build_net, build_world, fixtures_from_bytes
from portsec.model import AttributeSignature, Message, Plain, SecuredMessage, from_flat, to_flat
from portsec.records import ParseError, decode, decode_lines, encode
from portsec.sim import run_scenario
from portsec.transcript import transcript_to_wire
from test_golden import FIXTURES
from test_ledger import full_lifecycle


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


@given(st.lists(st.lists(_elem, max_size=5), min_size=1, max_size=4))
@example([["x'y"], ["a+b"]])
@example([["plain"], []])
def test_split_cuts_where_decode_does(recs):
    """``split`` gives each record's own bytes, without its closing ``'``:
    by ``bytes.split`` on a wire without a release character and at
    ``decode``'s offsets on one with, and each piece decodes alone to the
    record ``decode`` finds."""
    wire = b"".join(encode("T", *elems) for elems in recs)
    pieces = records.split(wire)
    assert b"".join(p + b"'" for p in pieces) == wire
    assert [decode(p + b"'")[0].elems for p in pieces] == [rec.elems for rec in decode(wire)]
    for cut in (wire[:-1], wire + b"T+x"):
        with pytest.raises(ParseError, match="unterminated final segment") as e:
            records.split(cut)
        assert e.value.offset == len(cut)


def test_lines_skip_blanks_and_count_from_file_start():
    recs = list(decode_lines(b"\n  A+1'  \r\n\nB+x+007'\n"))
    assert [r.tag for r in recs] == [b"A", b"B"]
    assert recs[1].offsets == [12, 14, 16]
    assert recs[1].int(2) == 7


_LINE = re.compile(rb"[^\r\n]+")


def _regex_decode_lines(data: bytes):
    """The line split ``decode_lines`` replaced, kept as its oracle: a
    regex over runs of bytes that are not CR or LF."""
    for m in _LINE.finditer(data):
        start, end = m.span()
        while start < end and data[start] in b" \t\v\f":
            start += 1
        while end > start and data[end - 1] in b" \t\v\f":
            end -= 1
        if start == end:
            continue
        found = records._scan(data, start, end)
        if len(found) != 1:
            raise ParseError("one record per line expected", found[1].offset)
        yield found[0]


def _lines_decoded(decode_lines, data: bytes):
    """Every record up to the first error, then the error's text and offset."""
    out = []
    try:
        for r in decode_lines(data):
            out.append((r.elems, r.offsets, r.released))
    except ParseError as exc:
        out.append((str(exc), exc.offset))
    return out


@cache
def _real_files() -> dict[str, bytes]:
    """Three files portsec writes, as written: a chain export (two
    lifecycles, as ``long_net`` in test_ledger builds one), a p2p
    transcript and the golden fixture file."""
    fixtures = fixtures_from_bytes(FIXTURES.read_bytes())
    world = build_world(fixtures)
    net = build_net(world)
    full_lifecycle(world, net)
    full_lifecycle(world, net, cnt_no="MSCU7654321")
    transcript = run_scenario(fixtures, "export", "p2p").transcript
    return {"chain": ledger.export_chain(net), "transcript": transcript_to_wire(transcript),
            "fixtures": FIXTURES.read_bytes()}


#: Each way a file's lines may be written: LF, CRLF and CR-only ends,
#: indented, and with no break after the last line.
LINE_ENDS = {
    "lf": lambda lines: b"\n".join(lines) + b"\n",
    "crlf": lambda lines: b"\r\n".join(lines) + b"\r\n",
    "cr": lambda lines: b"\r".join(lines) + b"\r",
    "indented": lambda lines: b"".join(b" \t" + line + b"\n" for line in lines),
    "unterminated": lambda lines: b"\n".join(lines),
}


def _real_file(name: str) -> bytes:
    """``kind/line-end``: that file of ``_real_files`` with those line ends."""
    kind, ends = name.split("/")
    return LINE_ENDS[ends](_real_files()[kind].splitlines())


def _on_real_files(test):
    """``test`` with every real file, by name, as an explicit example."""
    for kind in ("chain", "transcript", "fixtures"):
        for ends in LINE_ENDS:
            test = example(f"{kind}/{ends}")(test)
    return test


@given(st.lists(st.sampled_from([*b"AB+'?\r\n \t\v\f\x1c\x85xy"]), max_size=40).map(bytes))
@_on_real_files
def test_line_split_matches_the_regex_split(data):
    if isinstance(data, str):  # an explicit example: a real file, by name
        data = _real_file(data)
    assert _lines_decoded(decode_lines, data) == _lines_decoded(_regex_decode_lines, data)


@pytest.mark.parametrize("ends", LINE_ENDS)
def test_a_chain_parses_alike_under_every_line_end(ends):
    """Each block of a chain written with other line ends parses to the
    link digest it has as written: a block hashes its records, not the
    file's lines."""
    digests = [ledger._link_digest(b)
               for b in ledger.parse_chain(_real_file(f"chain/{ends}")).blocks]
    assert len(digests) == 9
    assert digests == [ledger._link_digest(b)
                       for b in ledger.parse_chain(_real_files()["chain"]).blocks]


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


def _reference_b64(raw: bytes):
    """The stdlib's validating URL-safe decode plus the canonical check."""
    try:
        decoded = base64.b64decode(raw, altchars=b"-_", validate=True)
    except (binascii.Error, ValueError):
        return None
    return decoded if base64.urlsafe_b64encode(decoded) == raw else None


@given(st.one_of(
    st.binary(max_size=12).map(base64.urlsafe_b64encode),
    st.text("AQgw-_/+=#? ", max_size=12).map(str.encode),
    st.binary(max_size=12),
))
def test_b64_accepts_exactly_the_canonical_urlsafe_encodings(raw):
    rec = records.Record([b"T", raw], 0, set())
    try:
        got = rec.b64(1)
    except ParseError as exc:
        assert exc.offset == 2
        got = None
    assert got == _reference_b64(raw)


def _scanned(scan, data: bytes, start: int, end: int):
    try:
        return [(r.elems, r.offsets, r.released) for r in scan(data, start, end)]
    except ParseError as exc:
        return str(exc), exc.offset


_no_release = st.one_of(
    st.sampled_from([b"+", b"'", b"ab"]), st.binary(max_size=3).map(lambda b: b.replace(b"?", b""))
)


@given(st.binary(max_size=4), st.lists(_no_release, max_size=12), st.binary(max_size=4))
def test_split_scan_matches_the_regex_scan(prefix, parts, suffix):
    # offsets are absolute, so the release-free span sits inside other bytes
    body = b"".join(parts)
    data = prefix + body + suffix
    start, end = len(prefix), len(prefix) + len(body)
    assert _scanned(records._scan, data, start, end) == _scanned(
        records._scan_released, data, start, end
    )


def _eager_scan(data: bytes, start: int, end: int):
    """The scan ``_scan`` replaced, kept as the oracle of record offsets:
    one regex pass that lists every element's offset as it goes, giving
    (elements, offsets, released) per record."""
    found = []
    elems, offsets, released = [], [start], set()
    for m in records._SCAN.finditer(data, start, end):
        at = m.start()
        if data[at] == ord("?"):
            if m.end() - at == 1:
                raise ParseError("dangling release character", at)
            released.add(len(elems))
            continue
        elems.append(data[start:at])
        start = at + 1
        if data[at] == ord("+"):
            offsets.append(start)
        else:
            found.append((elems, offsets, released))
            elems, offsets, released = [], [start], set()
    if elems or start != end:
        raise ParseError("unterminated final segment", end)
    return found


class _EagerRecord(records.Record):
    """A record whose offsets are the oracle's list."""

    __slots__ = ("eager",)

    @property
    def offsets(self):
        return self.eager


def _failure(call):
    try:
        call()
    except ParseError as exc:
        return str(exc), exc.offset
    return None


_plain = [b"A", b"0", b"7", b"=", b"-", b"\xc3\xa9", b"\xff"]
_released = [*_plain, b"?+", b"?'", b"??", b"?A"]


def _records(tokens):
    """Well-formed record text over ``tokens``, so that most draws scan."""
    elem = st.lists(st.sampled_from(tokens), max_size=4).map(b"".join)
    record = st.lists(elem, min_size=1, max_size=5).map(lambda es: b"+".join(es) + b"'")
    return st.lists(record, max_size=4).map(b"".join)


@given(st.binary(max_size=3), _records(_plain) | _records(_released),
       st.sampled_from([b"", b"A", b"?", b"+A"]))
def test_offsets_match_the_eager_scan(prefix, body, tail):
    """Records keep only their start; each element's offset, and the offset
    of every error a scan or an accessor raises, is the eager scan's."""
    body += tail
    data = prefix + body + b"?"
    start, end = len(prefix), len(prefix) + len(body)
    scanned, eager = _failure(lambda: records._scan(data, start, end)), _failure(
        lambda: _eager_scan(data, start, end))
    assert scanned == eager
    if eager is not None:
        return
    for rec, (elems, offsets, released) in zip(records._scan(data, start, end),
                                                _eager_scan(data, start, end), strict=True):
        assert (rec.elems, rec.offsets, rec.released) == (elems, offsets, released)
        oracle = _EagerRecord(elems, offsets[0], released)
        oracle.eager = offsets
        for i in range(len(elems) + 1):
            for name in ("text", "b64", "int", "need"):
                assert _failure(lambda: getattr(rec, name)(i)) == _failure(
                    lambda: getattr(oracle, name)(i)), (name, i)


@pytest.mark.parametrize(
    "data, message, offset",
    [
        (b"A+b", "unterminated final segment", 3),
        (b"A+b'C", "unterminated final segment", 5),
        (b"A+b?", "dangling release character", 3),
    ],
)
def test_scan_errors(data, message, offset):
    with pytest.raises(ParseError, match=message) as e:
        decode(data)
    assert e.value.offset == offset


def test_empty_input_has_no_records():
    assert decode(b"") == []


def test_release_characters_take_the_regex_scan(monkeypatch):
    calls = []
    scan_released = records._scan_released

    def counted(data, start, end):
        calls.append((start, end))
        return scan_released(data, start, end)

    monkeypatch.setattr(records, "_scan_released", counted)
    sm = SecuredMessage(
        Message("IFTMCS", "RUN'1+a?", (("CNT_NO", Plain("C1")),)),
        (AttributeSignature("sl1-clerk", ("CNT_NO",), b"sig"),),
        "sl1+clerk",
    )
    flat = to_flat(sm)
    assert b"?" in flat
    assert from_flat(flat) == sm
    assert calls == [(0, len(flat))]


_LAYOUT = {b"H": (0, 2, 0), b"E": (1, 3, 1), b"R": (2, 0, None)}


def test_read_file_yields_a_file_in_its_layout():
    data = b"H+1'\nE+a+1'\nE+b+1'\nR'\nR+x'\n"
    assert [r.tag for r in records.read_file(data, _LAYOUT, "test")] == [
        b"H", b"E", b"E", b"R", b"R"]


@pytest.mark.parametrize(
    "data, message, offset",
    [
        (b"H+1'\nX'\n", "unknown test record b'X'", 5),
        (b"H+1+2'\n", "H record takes 1 elements, found 2", 0),
        (b"H+1'\nR'\nH+1'\n", "repeated H record", 8),
        (b"H+1'\nE+k+1'\nE+k+2'\n", "repeated E record for k", 12),
        (b"H+1'\nR'\nE+k+1'\n", "E record out of order", 8),
        (b"E+k+1'\n", "test file lacks H header", 0),
    ],
    ids=["unknown-tag", "count", "repeated-header", "repeated-entry", "order", "no-header"],
)
def test_read_file_refusals(data, message, offset):
    """Each refusal in turn; a repeat is named before the order it breaks."""
    with pytest.raises(ParseError, match=re.escape(message)) as e:
        list(records.read_file(data, _LAYOUT, "test"))
    assert e.value.offset == offset
