"""Per-actor confidentiality audit over a run transcript.

Exposure is measured from wire evidence alone: an attribute counts as
seen in plaintext by whoever sent or received it as a Plain field, or
received it sealed with a key wrapped for them. Hash-only values never
count. The audit then holds each actor's exposure against the read column
of its role token; anything beyond the column is flagged, so an actor whose
token names no role has an empty column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ledger import ORDERER_ROLE
from .model import Plain, Sealed
from .policy import AccessMatrix, Role, default_matrix
from .transcript import LedgerEvent, SentEvent, Transcript

#: The only attribute a ledger participant learns from the chain itself.
LEDGER_ATTRS = frozenset({"CNT_NO"})


@dataclass(frozen=True)
class AuditResult:
    exposure: dict[str, frozenset[str]]  # identity -> attrs seen in plaintext
    excess: dict[str, frozenset[str]]  # identity -> exposure beyond the column

    def flagged(self) -> list[str]:
        return sorted(i for i, e in self.excess.items() if e)

    def compliant(self) -> bool:
        return not any(self.excess.values())


def read_column(matrix: AccessMatrix, role: Role) -> frozenset[str]:
    return matrix.read_column(role)


def audit_views(transcript: Transcript, matrix: AccessMatrix | None = None) -> AuditResult:
    matrix = matrix or default_matrix()
    exposure: dict[str, set[str]] = {}

    for ev in transcript.events:
        if isinstance(ev, SentEvent):
            s_exp = exposure.setdefault(ev.sender, set())
            r_exp = exposure.setdefault(ev.receiver, set())
            for name, value in ev.message.message.fields:
                if isinstance(value, Plain):
                    s_exp.add(name)
                    r_exp.add(name)
                elif isinstance(value, Sealed) and ev.receiver in value.wrapped_keys:
                    r_exp.add(name)
        elif isinstance(ev, LedgerEvent):
            exposure.setdefault(ev.invoker, set()).update(LEDGER_ATTRS)

    excess: dict[str, frozenset[str]] = {}
    for identity, exposed in exposure.items():
        token = transcript.actors.get(identity)
        column = LEDGER_ATTRS if token == ORDERER_ROLE else read_column(matrix, token)
        excess[identity] = frozenset(exposed - column)

    return AuditResult(
        exposure={i: frozenset(v) for i, v in exposure.items()},
        excess=excess,
    )
