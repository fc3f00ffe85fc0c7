"""Global access-control matrix and per-message protection plans.

The policy document assigns each (role, attribute) pair one of NONE / R /
RW; the matrix keeps, per attribute, the roles that may read it and the
roles that may write it. Read permissions drive confidentiality (who may
see a value in plaintext, and therefore which representation an attribute
takes on the wire); write permissions drive integrity (whose signature can
vouch for an attribute).

A protection plan answers, for a concrete send: which attributes travel
PLAIN, which are SEALED and for whom, and which are reduced to HASH_ONLY.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .model import CORE_ATTRIBUTES, InvariantViolation, validate_attribute_name


class Role(str, enum.Enum):
    IMPORTER = "IMPORTER"
    SHIPPING_LINE = "SHIPPING_LINE"
    PCS = "PCS"
    TERMINAL = "TERMINAL"
    CUSTOMS = "CUSTOMS"
    PORT_AUTHORITY = "PORT_AUTHORITY"


#: Table rows of the core matrix; PORT_AUTHORITY is an extension role.
CORE_ROLES = (Role.IMPORTER, Role.SHIPPING_LINE, Role.PCS, Role.TERMINAL, Role.CUSTOMS)


class Permission(str, enum.Enum):
    NONE = "-"
    READ = "R"
    READ_WRITE = "RW"


class Action(str, enum.Enum):
    READ = "READ"
    WRITE = "WRITE"


class PolicyError(Exception):
    """Base class for policy errors."""


class PolicyParseError(PolicyError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MissingEntry(PolicyError):
    """A core (role, attribute) cell is absent from the document."""


class NoWriterForAttribute(PolicyError):
    """No role holds RW on an attribute, so nobody could ever author it."""


class SenderCannotRead(PolicyError):
    """A plan would have the sender transmit plaintext it may not hold."""


class PlanKind(str, enum.Enum):
    PLAIN = "PLAIN"
    HASH_ONLY = "HASH_ONLY"
    SEALED = "SEALED"


@dataclass(frozen=True)
class Decision:
    """Wire representation chosen for one attribute."""

    kind: PlanKind
    readers: frozenset[Role] = frozenset()

    def __post_init__(self):
        if self.kind is PlanKind.SEALED and not self.readers:
            raise InvariantViolation("SEALED decision needs at least one reader")
        if self.kind is not PlanKind.SEALED and self.readers:
            raise InvariantViolation(f"{self.kind.value} decision carries no readers")


#: The answer for a name the policy does not hold: nobody.
_NOBODY = frozenset()


@dataclass(frozen=True)
class AccessMatrix:
    """The policy's two facts per attribute: the roles that may read it and
    the roles that may write it, as read-only mappings, so worlds can share
    one matrix. Each role's read column is derived from them once. Every
    query is one lookup, and a role or attribute the policy does not hold
    is readable and writable by nobody."""

    readers: Mapping[str, frozenset[Role]]
    writers: Mapping[str, frozenset[Role]]

    def __post_init__(self):
        columns = {r: frozenset(a for a, rs in self.readers.items() if r in rs) for r in Role}
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_holders", {Action.READ: self.readers, Action.WRITE: self.writers})

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(self.readers)

    def check(self, role: Role, attribute: str, action: Action) -> bool:
        try:
            holders = self._holders[action]
        except KeyError:
            raise ValueError(f"unknown action {action!r}") from None
        return role in holders.get(attribute, _NOBODY)

    def writers_of(self, attribute: str) -> frozenset[Role]:
        return self.writers.get(attribute, _NOBODY)

    def readers_of(self, attribute: str) -> frozenset[Role]:
        return self.readers.get(attribute, _NOBODY)

    def read_column(self, role: Role) -> frozenset[str]:
        return self._columns.get(role, _NOBODY)


def load_policy(document: bytes | str) -> AccessMatrix:
    """Parse `<ROLE> <ATTRIBUTE> <R|RW|->` lines into a total matrix.

    Unlisted cells of attributes that do appear default to NONE; the five
    core roles must be given explicitly for every core attribute, and every
    attribute must end up with at least one writer.
    """
    try:
        text = document.decode("utf-8") if isinstance(document, bytes) else document
    except UnicodeDecodeError as exc:
        # the bad bytes end the prefix as U+FFFD, which breaks no line
        line_no = len(document[: exc.end].decode("utf-8", "replace").splitlines())
        raise PolicyParseError(f"not UTF-8: {exc.reason}", line_no) from None
    given: dict[tuple[Role, str], Permission] = {}
    attributes: list[str] = list(CORE_ATTRIBUTES)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise PolicyParseError(f"expected 3 tokens, got {len(tokens)}", line_no)
        role_tok, attr, perm_tok = tokens
        try:
            role = Role(role_tok)
        except ValueError:
            raise PolicyParseError(f"unknown role {role_tok!r}", line_no) from None
        try:
            validate_attribute_name(attr)
        except InvariantViolation as exc:
            raise PolicyParseError(str(exc), line_no) from None
        try:
            perm = Permission(perm_tok)
        except ValueError:
            raise PolicyParseError(
                f"permission must be R, RW or -, got {perm_tok!r}", line_no
            ) from None
        if (role, attr) in given:
            raise PolicyParseError(f"duplicate entry for ({role.value}, {attr})", line_no)
        given[(role, attr)] = perm
        if attr not in attributes:
            attributes.append(attr)

    for role in CORE_ROLES:
        for attr in CORE_ATTRIBUTES:
            if (role, attr) not in given:
                raise MissingEntry(f"core cell ({role.value}, {attr}) absent")

    def holders(attr: str, *perms: Permission) -> frozenset[Role]:
        return frozenset(r for r in Role if given.get((r, attr)) in perms)

    readers = {a: holders(a, Permission.READ, Permission.READ_WRITE) for a in attributes}
    writers = {a: holders(a, Permission.READ_WRITE) for a in attributes}
    for attr, roles in writers.items():
        if not roles:
            raise NoWriterForAttribute(f"no role holds RW on {attr}")
    return AccessMatrix(MappingProxyType(readers), MappingProxyType(writers))


def protection_plan(
    matrix: AccessMatrix,
    sender: Role,
    receiver: Role,
    downstream_readers: Iterable[Role],
    attributes: Sequence[str],
) -> dict[str, Decision]:
    """Choose a wire representation per attribute for one send.

    PLAIN if the receiver may read; otherwise SEALED for the downstream
    parties that may read; otherwise HASH_ONLY. The sender must itself
    hold read permission on anything it would emit as PLAIN or SEALED,
    since both require the plaintext in hand. An attribute the policy
    does not hold is readable by nobody, so it goes HASH_ONLY.
    """
    downstream = frozenset(Role(r) for r in downstream_readers)
    decisions: dict[str, Decision] = {}
    for attr in attributes:
        if matrix.check(receiver, attr, Action.READ):
            d = Decision(PlanKind.PLAIN)
        else:
            readers = downstream & matrix.readers_of(attr) - {Role(receiver)}
            d = Decision(PlanKind.SEALED, readers) if readers else Decision(PlanKind.HASH_ONLY)
        if d.kind is not PlanKind.HASH_ONLY and not matrix.check(sender, attr, Action.READ):
            raise SenderCannotRead(
                f"{Role(sender).value} may not read {attr} but would send it {d.kind.value}"
            )
        decisions[attr] = d
    return decisions


DEFAULT_POLICY_TEXT = """\
# Global access control policy.
# One triple per line: <ROLE> <ATTRIBUTE> <R|RW|->

# Core attributes.
IMPORTER        B_NO      R
IMPORTER        BL_NO     R
IMPORTER        CNT_C     RW
IMPORTER        CNT_W     RW
IMPORTER        CSG_DATA  RW
IMPORTER        CNT_NO    R

SHIPPING_LINE   B_NO      RW
SHIPPING_LINE   BL_NO     RW
SHIPPING_LINE   CNT_C     R
SHIPPING_LINE   CNT_W     RW
SHIPPING_LINE   CSG_DATA  R
SHIPPING_LINE   CNT_NO    RW

PCS             B_NO      R
PCS             BL_NO     R
PCS             CNT_C     -
PCS             CNT_W     R
PCS             CSG_DATA  -
PCS             CNT_NO    R

TERMINAL        B_NO      R
TERMINAL        BL_NO     R
TERMINAL        CNT_C     -
TERMINAL        CNT_W     R
TERMINAL        CSG_DATA  -
TERMINAL        CNT_NO    R

CUSTOMS         B_NO      -
CUSTOMS         BL_NO     R
CUSTOMS         CNT_C     R
CUSTOMS         CNT_W     R
CUSTOMS         CSG_DATA  R
CUSTOMS         CNT_NO    R

PORT_AUTHORITY  B_NO      -
PORT_AUTHORITY  BL_NO     -
PORT_AUTHORITY  CNT_C     -
PORT_AUTHORITY  CNT_W     -
PORT_AUTHORITY  CSG_DATA  -
PORT_AUTHORITY  CNT_NO    R

# Extension attributes: dangerous-goods flag, container location,
# customs import reference, clearance status.
IMPORTER        DG        RW
SHIPPING_LINE   DG        R
PCS             DG        R
TERMINAL        DG        R
CUSTOMS         DG        R
PORT_AUTHORITY  DG        R

IMPORTER        CNT_LOC   -
SHIPPING_LINE   CNT_LOC   -
PCS             CNT_LOC   R
TERMINAL        CNT_LOC   RW
CUSTOMS         CNT_LOC   -
PORT_AUTHORITY  CNT_LOC   R

IMPORTER        ATB_NO    -
SHIPPING_LINE   ATB_NO    R
PCS             ATB_NO    R
TERMINAL        ATB_NO    R
CUSTOMS         ATB_NO    RW
PORT_AUTHORITY  ATB_NO    -

IMPORTER        CLR       -
SHIPPING_LINE   CLR       R
PCS             CLR       R
TERMINAL        CLR       R
CUSTOMS         CLR       RW
PORT_AUTHORITY  CLR       -
"""


@cache
def default_matrix() -> AccessMatrix:
    """The default policy, parsed once per process and shared read-only."""
    return load_policy(DEFAULT_POLICY_TEXT)
