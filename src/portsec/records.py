"""The record grammar shared by every portsec wire and file format.

A record is ``TAG+elem+elem'`` in the EDIFACT style (ISO 9735): ``+``
separates elements, ``'`` ends the record, and ``?`` is the release
character that escapes ``+ ' ?`` inside a text element. Binary elements
travel as URL-safe base64, whose alphabet never collides with the
separators, and must be canonical: a decoded payload must re-encode to the
exact element text.

The message wire is one line of records (``decode``); the file formats hold
one record per line (``decode_lines``, which finds the line breaks
``bytes.splitlines`` finds in place, without a list of the lines).
``check`` holds either to its format's layout, a file through
``read_file``. A span without a release character is split with
``bytes.split``; only a span holding ``?`` takes the regex scan. Decoding
is lazy: a ``Record`` keeps its raw elements and unescapes or
base64-decodes one only when asked. Every decoding error is a
``ParseError`` carrying the byte offset of the problem, counted from the
start of the input.
"""

from __future__ import annotations

import binascii
import re
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

# One scan finds every release pair (or a dangling release) and separator.
_SCAN = re.compile(rb"\?[\s\S]?|['+]")
_RELEASED = re.compile(rb"\?([\s\S])")
_ESCAPES = str.maketrans({c: "?" + c for c in "+'?"})
_BLANK = b" \t\v\f\r\n"  # stripped around a line, its break included
_RELEASE, _PLUS, _ZERO = ord("?"), ord("+"), ord("0")
# URL-safe base64 through the standard codec: swap the two alphabet bytes.
_FROM_URLSAFE = bytes.maketrans(b"-_", b"+/")
_TO_URLSAFE = bytes.maketrans(b"+/", b"-_")


class ModelError(Exception):
    """Base class for message-model and record errors."""


class ParseError(ModelError):
    """Malformed input. ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


def encode(tag: str, *elems: str | bytes) -> bytes:
    """``TAG+elem+…'``: text (the tag included) is escaped, bytes become
    canonical base64. Numbers are passed as their text."""
    parts = []
    for e in (tag, *elems):
        if isinstance(e, bytes):
            parts.append(_b64encode(e))
        elif "?" in e or "+" in e or "'" in e:
            parts.append(e.translate(_ESCAPES).encode())
        else:
            parts.append(e.encode())
    return b"+".join(parts) + b"'"


def _b64encode(data: bytes) -> bytes:
    return binascii.b2a_base64(data, newline=False).translate(_TO_URLSAFE)


class Record:
    """One decoded record: raw elements, tag first, from byte ``offset``."""

    __slots__ = ("elems", "offset", "released")

    def __init__(self, elems: list[bytes], offset: int, released: set[int]):
        self.elems = elems
        self.offset = offset
        self.released = released  # indices of elements holding a release pair

    @property
    def offsets(self) -> list[int]:
        """Each element's offset: one separator byte follows each. Only
        error paths read it, so no scan computes it."""
        return list(accumulate((len(e) + 1 for e in self.elems[:-1]), initial=self.offset))

    @property
    def tag(self) -> bytes:
        return self.elems[0]

    def __len__(self) -> int:
        return len(self.elems)

    def _name(self) -> str:
        return self.tag.decode("utf-8", "replace")

    def need(self, n: int) -> None:
        """Require exactly ``n`` elements, the tag included."""
        if len(self.elems) != n:
            raise ParseError(
                f"{self._name()} record takes {n - 1} elements, found {len(self.elems) - 1}",
                self.offset,
            )

    def _raw(self, i: int) -> bytes:
        if i >= len(self.elems):
            end = self.offsets[-1] + len(self.elems[-1])
            raise ParseError(f"{self._name()} record has no element {i}", end)
        return self.elems[i]

    def text(self, i: int) -> str:
        raw = self._raw(i)
        if i in self.released:
            for m in _RELEASED.finditer(raw):
                if m.group(1) not in b"+'?":
                    raise ParseError(
                        "release character before non-special byte", self.offsets[i] + m.start()
                    )
            raw = _RELEASED.sub(rb"\1", raw)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"token is not valid UTF-8: {exc}", self.offsets[i]) from None

    def texts(self, idx: Sequence[int]) -> list[str]:
        """``text`` of each of the elements ``idx``, which ``need`` has
        bounded: a record with no release pair has each decoded as it is."""
        if not self.released:
            elems = self.elems
            try:
                return [elems[i].decode() for i in idx]
            except UnicodeDecodeError:
                pass  # text() names the element
        return [self.text(i) for i in idx]

    def b64s(self, idx: Iterable[int]) -> list[bytes]:
        """``b64`` of each of the elements ``idx``, which ``need`` has
        bounded."""
        elems = self.elems
        return [self._b64(elems[i], i) for i in idx]

    def b64(self, i: int) -> bytes:
        return self._b64(self._raw(i), i)

    def _b64(self, raw: bytes, i: int) -> bytes:
        """Element ``i``, ``raw``, decoded from canonical URL-safe base64."""
        try:
            decoded = binascii.a2b_base64(raw.translate(_FROM_URLSAFE))
        except binascii.Error as exc:
            raise ParseError(f"invalid base64 element: {exc}", self.offsets[i]) from None
        if _b64encode(decoded) != raw:
            raise ParseError("non-canonical base64 element", self.offsets[i])
        return decoded

    def int(self, i: int, width: int = 0) -> int:
        """A non-negative decimal integer; given a ``width``, only as written
        zero-padded to ``width`` digits, with no other leading zero."""
        raw = self._raw(i)
        try:
            value = int(raw) if raw.isdigit() else None
        except ValueError:  # beyond the interpreter's digit limit
            value = None
        if value is None:
            raise ParseError(f"expected a decimal integer, got {raw[:20]!r}", self.offsets[i])
        if width and (len(raw) < width or len(raw) > width and raw[0] == _ZERO):
            raise ParseError(f"non-canonical integer {raw[:20]!r}", self.offsets[i])
        return value


def _scan(data: bytes, start: int, end: int) -> list[Record]:
    """Split ``data[start:end]`` into records; offsets are absolute."""
    if data.find(b"?", start, end) >= 0:
        return _scan_released(data, start, end)
    *parts, tail = data[start:end].split(b"'")
    if tail:
        raise ParseError("unterminated final segment", end)
    records = []
    for part in parts:
        records.append(Record(part.split(b"+"), start, set()))
        start += len(part) + 1
    return records


def _scan_released(data: bytes, start: int, end: int) -> list[Record]:
    """``_scan`` for a span holding release characters: one regex scan
    that also records which elements hold a release pair."""
    records = []
    elems: list[bytes] = []
    first = start
    released: set[int] = set()
    for m in _SCAN.finditer(data, start, end):
        at = m.start()
        sep = data[at]
        if sep == _RELEASE:
            if m.end() - at == 1:
                raise ParseError("dangling release character", at)
            released.add(len(elems))
            continue
        elems.append(data[start:at])
        start = at + 1
        if sep != _PLUS:
            records.append(Record(elems, first, released))
            elems, first, released = [], start, set()
    if elems or start != end:
        raise ParseError("unterminated final segment", end)
    return records


def decode(data: bytes) -> list[Record]:
    """All records of a one-line message wire, in order."""
    return _scan(data, 0, len(data))


def decode_lines(data: bytes) -> Iterator[Record]:
    """One record per non-blank line of a file; surrounding whitespace on a
    line is ignored. A line ends at CR, LF or CR LF, as ``bytes.splitlines``
    splits, but the breaks are found in ``data`` itself, which is never
    copied whole. A canonical line (one record, no release character, no
    blank around it, ended by LF or by the end of ``data``) is split from
    one slice of ``data``; any other is stripped first."""
    size = len(data)
    pos = 0
    lf = cr = -1  # the next LF and CR at or after pos, size if none
    while pos < size:
        if lf < pos:
            lf = data.find(b"\n", pos)
            lf = size if lf < 0 else lf
        if cr < pos:
            cr = data.find(b"\r", pos)
            cr = size if cr < 0 else cr
        start, end = pos, min(lf, cr)
        pos = end + 2 if lf == cr + 1 else end + 1
        if (end == lf and data[start] not in _BLANK and data.find(b"'", start, end) == end - 1
                and data.find(b"?", start, end) < 0):
            yield Record(data[start:end - 1].split(b"+"), start, set())
            continue
        line = data[start:end]
        body = line.strip(_BLANK)
        if not body:
            continue
        if body[0] != line[0]:  # the line is indented
            start += len(line) - len(line.lstrip(_BLANK))
        found = _scan(data, start, start + len(body))
        if len(found) != 1:
            raise ParseError("one record per line expected", found[1].offset)
        yield found[0]


def read_file(data: bytes, layout: dict[bytes, tuple[int, int, int | None]],
              what: str) -> Iterator[Record]:
    """The records of a file, one per line, each passed by ``check``."""
    return check(decode_lines(data), layout, what)


def holds_line_break(texts: Iterable[str]) -> bool:
    """Does any of ``texts`` hold a line break? A file keeps one record per
    line and the escapes cover ``+ ' ?`` only, so no text a file carries
    may hold one: what is written must parse back to the same records."""
    joined = "".join(texts)
    return "\r" in joined or "\n" in joined


def check(recs: Iterable[Record], layout: dict[bytes, tuple[int, int, int | None]],
          what: str) -> Iterator[Record]:
    """Each record of ``recs``, checked against its format's ``layout``,
    which maps a tag to its rank, its element count (0: the reader counts)
    and its key element (0: a header, k: an entry keyed by element k, None:
    a repeatable record). Input has one byte form: no unknown tag, no
    wrong count, no repeated header or entry, no record of a lower rank
    after a higher one, and every header."""
    seen: set[tuple[bytes, bytes]] = set()
    last = 0
    for rec in recs:
        elems = rec.elems
        tag = elems[0]
        spec = layout.get(tag)
        if spec is None:
            raise ParseError(f"unknown {what} record {tag!r}", rec.offset)
        rank, count, key = spec
        if count:
            rec.need(count)
        if key is not None:
            if key >= len(elems):  # a record the reader counts may lack its key
                rec._raw(key)  # raises ParseError
            entry = tag, elems[key]
            if entry in seen:
                raise ParseError(f"repeated {rec._name()} record"
                                 + (f" for {rec.text(key)}" if key else ""), rec.offset)
            seen.add(entry)
        if rank < last:
            raise ParseError(f"{rec._name()} record out of order", rec.offset)
        last = rank
        yield rec
    for tag, (_, _, key) in layout.items():
        if key == 0 and (tag, tag) not in seen:
            raise ParseError(f"{what} file lacks {tag.decode()} header", 0)
