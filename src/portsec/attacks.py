"""Attack injection harness and the two-mode comparison.

The attacker model: an in-transit mutator plus an insider who keeps old
transcripts and their signatures (and, as an insider, owns keys of some
uninvolved organization) but holds no other private keys. Message attacks
mutate a SecuredMessage between sender and receiver; ledger attacks
mutate the serialized chain or push rogue transactions at the chaincode.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from . import records
from .adapter import FindingCode, Severity
from .envelope import field_digests, multi_sign, value_digest
from .fixtures import FixtureSet, build_world
from .ledger import (
    LedgerAction,
    LedgerError,
    build_transaction,
    export_chain,
    parse_chain,
    submit,
    verify_exported,
)
from .model import HashOnly, ParseError, Plain, Sealed, SecuredMessage
from .policy import default_matrix
from .sim import SCENARIOS, run_scenario
from .transcript import AuditEvent, Transcript, ValidatedEvent


class AttackKind(str, enum.Enum):
    TAMPER_FIELD = "TAMPER_FIELD"
    REPLAY_SPLICE = "REPLAY_SPLICE"
    NONCE_REUSE = "NONCE_REUSE"
    UNAUTHORIZED_AUTHOR = "UNAUTHORIZED_AUTHOR"
    LEDGER_TAMPER = "LEDGER_TAMPER"
    ATTR_SWAP = "ATTR_SWAP"


class TargetUnresolved(Exception):
    pass


@dataclass(frozen=True)
class AttackSpec:
    kind: AttackKind
    step: str = ""  # message step to strike, or "" for the scenario default
    attribute: str = ""  # TAMPER_FIELD target / first ATTR_SWAP attribute
    payload: str = ""  # replacement text / insider identity / second ATTR_SWAP attribute
    block: int = -1  # LEDGER_TAMPER block index
    sig_of: str = ""  # TAMPER_FIELD: flip this signer's signature instead


#: The spec fields each kind reads, the same in both modes. TAMPER_FIELD
#: reads ``sig_of`` instead of ``attribute`` and ``payload``.
KIND_FIELDS = {
    AttackKind.TAMPER_FIELD: {"step", "attribute", "payload", "sig_of"},
    AttackKind.REPLAY_SPLICE: {"step"},
    AttackKind.NONCE_REUSE: set(),
    AttackKind.UNAUTHORIZED_AUTHOR: {"step", "payload"},
    AttackKind.LEDGER_TAMPER: {"block"},
    AttackKind.ATTR_SWAP: {"step", "attribute", "payload"},
}


def _refuse_unread_fields(spec: AttackSpec) -> None:
    """A spec that sets a field its kind does not read describes another
    attack than the one that would run, so it is refused."""
    unread = [name for name in _SPEC_FIELDS if name not in KIND_FIELDS[spec.kind]
              and getattr(spec, name) != getattr(AttackSpec, name)]
    if unread:
        raise TargetUnresolved(f"{spec.kind.value} does not read {', '.join(unread)}")
    if spec.sig_of and (spec.attribute or spec.payload):
        raise TargetUnresolved("TAMPER_FIELD with sig_of reads no attribute or payload")


@dataclass(frozen=True)
class DetectionReport:
    kind: AttackKind
    scenario: str
    mode: str
    detected: bool
    detected_by: str = ""
    finding: str = ""
    localized: str = ""


#: Default strike point per scenario: the hop carrying the most data.
DEFAULT_STEP = {"export": "delivery", "import": "iftmcs"}

#: The steps a spec may name: each scenario's message steps.
_MESSAGE_STEPS = {
    name: {s.name for s in steps("p2p") if s.kind == "message"}
    for name, steps in SCENARIOS.items()
}


def battery(scenario: str) -> tuple[AttackSpec, ...]:
    """The shipped attack set: one representative spec per kind."""
    step = DEFAULT_STEP[scenario]
    return (
        AttackSpec(AttackKind.TAMPER_FIELD, step=step, attribute="CNT_W",
                   payload="1 kg"),
        AttackSpec(AttackKind.REPLAY_SPLICE, step=step),
        AttackSpec(AttackKind.NONCE_REUSE),
        AttackSpec(AttackKind.UNAUTHORIZED_AUTHOR, step=step, payload="t2-op"),
        AttackSpec(AttackKind.LEDGER_TAMPER, block=1),
        AttackSpec(AttackKind.ATTR_SWAP, step=step),
    )


def mutate_field(sm: SecuredMessage, attribute: str, payload: str, suite) -> SecuredMessage:
    """In-transit substitution of one field, shaped to its representation:
    plain text is rewritten, hash-only and sealed values get the digest of
    the substitute (the only mutation every representation must catch).
    ``suite`` is not read: there is one suite, and callers pass it."""
    try:
        value = sm.message.get(attribute)
    except KeyError:
        raise TargetUnresolved(f"message has no attribute {attribute}") from None
    fake = payload or "tampered"
    if isinstance(value, Plain):
        new = Plain(fake)
    elif isinstance(value, HashOnly):
        new = HashOnly(value_digest(fake))
    else:
        new = Sealed(value_digest(fake), value.ciphertext, dict(value.wrapped_keys))
    return SecuredMessage(sm.message.replace_field(attribute, new), sm.signatures, sm.sender)


def replace_signature(sm: SecuredMessage, signer: str, new) -> SecuredMessage:
    """Put ``new(old)`` in place of the first signature by ``signer``: the
    attacker's one signature move, whether a flipped byte, an insider's
    re-signing or a signature kept from another run."""
    for i, s in enumerate(sm.signatures):
        if s.signer == signer:
            sigs = (*sm.signatures[:i], new(s), *sm.signatures[i + 1:])
            return SecuredMessage(sm.message, sigs, sm.sender)
    raise TargetUnresolved(f"no signature by {signer}")


def swap_attributes(sm: SecuredMessage, first: str, second: str) -> SecuredMessage:
    """Swap the values of two attributes and relabel every signature that
    covers both to match, so each still covers the same digests in the
    same order: only a signature that binds names sees the swap."""
    try:
        a, b = sm.message.get(first), sm.message.get(second)
    except KeyError as exc:
        raise TargetUnresolved(f"message has no attribute {exc}") from None
    swap = {first: second, second: first}
    sigs = tuple(
        replace(s, attrs=tuple(swap.get(n, n) for n in s.attrs))
        if first in s.attrs and second in s.attrs else s
        for s in sm.signatures
    )
    msg = sm.message.replace_field(first, b).replace_field(second, a)
    return SecuredMessage(msg, sigs, sm.sender)


def _first_finding(kind, scenario, transcript: Transcript, hit) -> DetectionReport:
    """A p2p report: detected by the actor of the first validator finding
    ``hit`` picks, with its code and detail; missed when none does."""
    for ev in transcript.events:
        if isinstance(ev, ValidatedEvent) and ev.report:
            for f in ev.report.findings:
                if hit(f):
                    return DetectionReport(
                        kind, scenario, "p2p", True, ev.actor, f.code.value, f.detail
                    )
    return DetectionReport(kind, scenario, "p2p", False)


def inject_attack(
    fixtures: FixtureSet, scenario: str, spec: AttackSpec, mode: str = "p2p"
) -> tuple[Transcript, DetectionReport]:
    """Run the scenario with the attack applied; report whether, where,
    and how it was caught. A spec field the kind does not read, see
    ``KIND_FIELDS``, a ``step`` that names no message step of the scenario
    and an ``attribute``, or ATTR_SWAP's second one in ``payload``, that
    the access matrix does not hold raise TargetUnresolved in either mode,
    before anything runs."""
    _refuse_unread_fields(spec)
    if spec.step and spec.step not in _MESSAGE_STEPS.get(scenario, ()):
        raise TargetUnresolved(f"scenario {scenario} has no message step {spec.step}")
    swapped = spec.payload if spec.kind is AttackKind.ATTR_SWAP else ""
    for name in filter(None, (spec.attribute, swapped)):
        if name not in default_matrix().attributes:
            raise TargetUnresolved(f"the access matrix holds no attribute {name}")
    if mode == "ledger":
        return _inject_ledger(fixtures, scenario, spec)
    return _inject_p2p(fixtures, scenario, spec)


def _inject_p2p(fixtures, scenario, spec) -> tuple[Transcript, DetectionReport]:
    step = spec.step or DEFAULT_STEP[scenario]
    kind = spec.kind
    world = build_world(fixtures)

    if kind is AttackKind.NONCE_REUSE:
        run_scenario(fixtures, scenario, "p2p", world=world)
        again = fixtures.with_values(run_tag=fixtures.run_tag + "-replay")
        sim = run_scenario(again, scenario, "p2p", world=world)
        return sim.transcript, _first_finding(
            kind, scenario, sim.transcript, lambda f: f.code is FindingCode.NONCE_REUSE
        )

    if kind is AttackKind.LEDGER_TAMPER:
        sim = run_scenario(fixtures, scenario, "p2p", world=world)
        return sim.transcript, DetectionReport(
            kind, scenario, "p2p", False, finding="NO_CHAIN",
            localized="no chain exists in p2p mode",
        )

    # the remaining kinds mutate the message at ``step`` in transit
    if kind is AttackKind.REPLAY_SPLICE:
        origin = fixtures.with_values(
            run_tag=fixtures.run_tag + "-origin",
            B_NO="BKG-0007",
            CNT_C="600 crates declared as textiles",
            CSG_DATA="consignee Vanta Trading Ltd",
        )
        booking = run_scenario(origin, scenario, "p2p", world=world).inbound["booking"][1]
        stolen = next(s for s in booking.signatures if s.signer == "importer-1")

        def mutate(sm):
            return replace_signature(sm, "importer-1", lambda _: stolen)
    elif kind is AttackKind.TAMPER_FIELD and spec.sig_of:
        def mutate(sm):
            return replace_signature(
                sm, spec.sig_of, lambda s: replace(s, sig=s.sig[:-1] + bytes([s.sig[-1] ^ 0x01]))
            )
    elif kind is AttackKind.TAMPER_FIELD:
        def mutate(sm):
            return mutate_field(sm, spec.attribute, spec.payload, world.suite)
    elif kind is AttackKind.UNAUTHORIZED_AUTHOR:
        insider = spec.payload or "t2-op"
        if insider not in world.key_pairs:
            raise TargetUnresolved(f"no insider keys for {insider}")

        def mutate(sm):
            # authorship fraud: the insider re-signs the importer's attributes
            digests = field_digests(sm.message)
            return replace_signature(sm, "importer-1", lambda s: replace(
                multi_sign(world.key_pairs[insider], s.attrs, digests), signer=insider
            ))
    else:  # ATTR_SWAP
        def mutate(sm):
            return swap_attributes(sm, spec.attribute or "CNT_C", spec.payload or "CSG_DATA")

    struck = []

    def strike(name, sm):
        if name != step:
            return sm
        forged = mutate(sm)
        if forged == sm:
            raise TargetUnresolved(f"{kind.value} at step {step} changes nothing")
        struck.append(name)
        return forged

    sim = run_scenario(fixtures, scenario, "p2p", world=world, interceptor=strike)
    if not struck:
        raise TargetUnresolved(f"scenario {scenario} delivered nothing at step {step}")
    return sim.transcript, _first_finding(
        kind, scenario, sim.transcript, lambda f: f.severity is Severity.REJECT
    )


def _inject_ledger(fixtures, scenario, spec) -> tuple[Transcript, DetectionReport]:
    """Ledger-mode analogue of each attack kind: chain byte/field
    mutations are caught by re-validation; rogue or replayed transactions
    die at the chaincode gates."""
    kind = spec.kind
    world = build_world(fixtures)
    sim = run_scenario(fixtures, scenario, "ledger", world=world)
    net = sim.net
    cnt = fixtures.value("CNT_NO")
    transcript = sim.transcript

    def denial(action, invoker, args=()):
        tx, chain = build_transaction(
            LedgerAction(action), cnt, args, world.chain_of(invoker), world.key_pairs[invoker]
        )
        try:
            submit(net, tx, chain)
        except LedgerError as exc:
            transcript.ledger(action, cnt, invoker, type(exc).__name__, str(exc))
            return DetectionReport(
                kind, scenario, "ledger", True, "chaincode",
                type(exc).__name__, str(exc),
            )
        return DetectionReport(kind, scenario, "ledger", False)

    if kind is AttackKind.NONCE_REUSE:
        # the same container booked onto the chain a second time
        return transcript, denial("CREATE", "sl1-clerk", args=(("terminal", "T1"),))

    if kind is AttackKind.REPLAY_SPLICE:
        # a captured CLEAR transaction replayed after commit
        return transcript, denial("CLEAR", "pcs-op")

    if kind is AttackKind.UNAUTHORIZED_AUTHOR:
        # wrong role invokes CREATE
        insider = spec.payload or "customs-officer"
        return transcript, denial("CREATE", insider, args=(("terminal", "T1"),))

    if kind is AttackKind.ATTR_SWAP:
        return transcript, DetectionReport(
            kind, scenario, "ledger", False, finding="NO_ATTRIBUTES",
            localized="ledger transactions carry no attributes",
        )

    # LEDGER_TAMPER and TAMPER_FIELD edit the exported chain
    data = export_chain(net)
    if kind is AttackKind.LEDGER_TAMPER:
        mutated = _flip_block_byte(data, spec.block if spec.block >= 0 else 1)
    else:
        mutated = _rewrite_txn_token(data, cnt)
    try:
        res = verify_exported(parse_chain(mutated))
        detected = not res.valid
        where = f"block {res.first_bad_block}: {res.reason}" if detected else ""
    except ParseError as exc:
        detected, where = True, f"chain unparseable: {exc}"
    transcript.ledger("VERIFY", cnt, net.orderer_identity,
                      "INVALID" if detected else "VALID", where)
    return transcript, DetectionReport(
        kind, scenario, "ledger", detected, "ledger-verify", "ChainTamper", where
    )


def _flip_block_byte(data: bytes, block: int) -> bytes:
    """Flip one byte inside the prev-hash element of the given block."""
    marker = b"\n" + records.encode("BLK", f"{block}", "")[:-1]  # a BLK line is never first
    at = data.find(marker)
    if at < 0:
        raise TargetUnresolved(f"chain has no block {block}")
    out = bytearray(data)
    out[at + len(marker) + 3] ^= 0x02
    return bytes(out)


def _rewrite_txn_token(data: bytes, cnt: str) -> bytes:
    """Rewrite the container number inside the CREATE transaction line,
    modeling an on-chain field edit."""
    forged_cnt = cnt[:-1] + ("X" if cnt[-1] != "X" else "Y")
    needle = records.encode("TXN", "CREATE", cnt)[:-1]
    forged = records.encode("TXN", "CREATE", forged_cnt)[:-1]
    if needle not in data:
        raise TargetUnresolved("chain has no CREATE transaction to edit")
    return data.replace(needle, forged, 1)


# --- mode comparison ----------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    kind: AttackKind
    scenario: str
    p2p: DetectionReport
    ledger: DetectionReport


@dataclass
class ComparisonReport:
    honest: dict[tuple[str, str], str] = field(default_factory=dict)
    rows: list[ComparisonRow] = field(default_factory=list)
    exposure: dict[str, dict[str, frozenset[str]]] = field(default_factory=dict)

    def detected_somewhere(self, kind: AttackKind) -> bool:
        return any(
            (r.p2p.detected or r.ledger.detected) for r in self.rows if r.kind is kind
        )

    @property
    def verdict(self) -> str:
        ok = all(v == "PASS" for v in self.honest.values())
        ok &= all(self.detected_somewhere(k) for k in AttackKind)
        ok &= any(r.kind is AttackKind.TAMPER_FIELD and r.p2p.detected for r in self.rows)
        ok &= any(r.kind is AttackKind.LEDGER_TAMPER and r.ledger.detected for r in self.rows)
        return "PASS" if ok else "FAIL"


def compare_modes(fixtures: FixtureSet) -> ComparisonReport:
    """Honest runs plus the full battery in both modes: the integrity /
    traceability vs confidentiality trade-off, in one table."""
    report = ComparisonReport()
    for scenario in ("export", "import"):
        for mode in ("p2p", "ledger"):
            sim = run_scenario(fixtures, scenario, mode)
            report.honest[(scenario, mode)] = sim.transcript.verdict
            bucket = report.exposure.setdefault(mode, {})
            for ev in sim.transcript.events:
                if isinstance(ev, AuditEvent):
                    bucket[ev.actor] = bucket.get(ev.actor, frozenset()).union(ev.attributes)
        for spec in battery(scenario):
            _, p2p = inject_attack(fixtures, scenario, spec, "p2p")
            _, led = inject_attack(fixtures, scenario, spec, "ledger")
            report.rows.append(ComparisonRow(spec.kind, scenario, p2p, led))
    return report


def _outcome(report: DetectionReport) -> tuple[str, str, str]:
    return "DETECTED" if report.detected else "MISSED", report.detected_by, report.finding


def comparison_to_wire(report: ComparisonReport) -> bytes:
    lines = [records.encode("CMP", "1", report.verdict)]
    lines += [
        records.encode("HON", scenario, mode, verdict)
        for (scenario, mode), verdict in sorted(report.honest.items())
    ]
    lines += [
        records.encode("ATK", r.kind.value, r.scenario,
                       "p2p", *_outcome(r.p2p), "ledger", *_outcome(r.ledger))
        for r in report.rows
    ]
    for mode in sorted(report.exposure):
        for ident in sorted(report.exposure[mode]):
            attrs = ",".join(sorted(report.exposure[mode][ident]))
            lines.append(records.encode("EXP", mode, ident, attrs))
    return b"\n".join(lines) + b"\n"


# --- attack spec files --------------------------------------------------------


_SPEC_FIELDS = ("step", "attribute", "payload", "block", "sig_of")


def attack_from_wire(data: bytes) -> AttackSpec:
    (rec,) = records.read_file(data, {b"ATK": (0, 0, 0)}, "attack")
    if len(rec) % 2 != 0:
        raise ParseError("malformed ATK record", rec.offset)
    try:
        kind = AttackKind(rec.text(1))
    except ValueError:
        raise ParseError("unknown attack kind", rec.offsets[1]) from None
    fields: dict[str, object] = {}
    for i in range(2, len(rec), 2):
        key = rec.text(i)
        if key not in _SPEC_FIELDS:
            raise ParseError(f"unknown ATK field {key!r}", rec.offsets[i])
        if key in fields:
            raise ParseError(f"repeated ATK field {key!r}", rec.offsets[i])
        fields[key] = rec.int(i + 1) if key == "block" else rec.text(i + 1)
    return AttackSpec(kind, **fields)
