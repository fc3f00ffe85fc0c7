"""Deterministic multi-actor scenario simulator.

Runs the container export and import workflows over an in-process actor
mesh, either as signed peer-to-peer messages (every hop through
secure_outbound / validate_inbound) or as ledger transactions. Delivery
is synchronous and in script order; an optional interceptor mutates
messages in transit, which is how the attack harness gets its hands on
the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .adapter import ValidationReport, forward, secure_outbound, validate_inbound
from .audit import audit_views
from .fixtures import FixtureSet, World, build_net, build_world
from .ledger import LedgerAction, LedgerError, LedgerNet, build_transaction, commit, endorse
from .ledger import query as ledger_query
from .ledger import submit, verify_chain
from .model import MESSAGE_TYPES, Message, Plain, SecuredMessage, from_flat, to_flat
from .policy import Role
from .transcript import Transcript

Interceptor = Callable[[str, SecuredMessage], SecuredMessage]

_POLICY_ROLES = frozenset(r.value for r in Role)


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class Step:
    """One scripted action. ``kind`` selects the interpreter path:

    message   one secured message sender -> receiver; built fresh from
              ``fields`` (values and carried signatures drawn from
              ``source``, sealed for the identities ``field_reach``
              derives from the later steps, signed over what the
              sender's role may write plus ``B_NO``), or, with no
              ``fields``, re-planned from the sender's validated copy of
              ``source``, which seals and signs nothing new.
    ledger    one transaction by ``sender``: submit, endorse when
              ``endorser`` is named (who is also CREATE's terminal), commit.
    query     one ledger read by ``sender``.
    verify    full chain verification.

    The last three share one interpreter path, which records one LEDGER
    event per step, a denial included.
    """

    name: str
    kind: str
    sender: str = ""
    receiver: str = ""
    msg_type: str = ""
    fields: tuple[str, ...] = ()
    source: str = ""
    action: str = ""
    endorser: str = ""
    dg_only: bool = False


@dataclass(frozen=True)
class ScenarioScript:
    name: str
    mode: str  # "p2p" | "ledger"
    steps: tuple[Step, ...]
    fixtures: FixtureSet

    def __post_init__(self):
        # only an identity whose certificate holds a policy role has an adapter
        known = {i for i, role in self.fixtures.actors.items() if role in _POLICY_ROLES}
        seen: set[str] = set()
        for s in self.steps:
            for who in (s.sender, s.receiver, s.endorser):
                if who and who not in known:
                    raise ScenarioError(f"step {s.name}: unknown actor {who}")
            if s.kind == "message" and s.msg_type not in MESSAGE_TYPES:
                raise ScenarioError(f"step {s.name}: unknown message type {s.msg_type}")
            if s.kind == "message" and not (s.fields or s.source):
                raise ScenarioError(f"step {s.name}: a message needs fields or a source")
            if s.source and s.source not in seen:
                raise ScenarioError(f"step {s.name}: source {s.source} not executed before it")
            seen.add(s.name)


#: The booking pair both p2p workflows open with.
_BOOKING = (
    Step("booking_ref", "message", sender="sl1-clerk", receiver="importer-1",
         msg_type="IFTMCS", fields=("B_NO",)),
    Step("booking", "message", sender="importer-1", receiver="sl1-clerk",
         msg_type="IFTMCS", fields=("B_NO", "CNT_C", "CSG_DATA", "DG"),
         source="booking_ref"),
)

#: The ledger steps both workflows share, up to customs clearance.
_LEDGER = (
    Step("create", "ledger", sender="sl1-clerk", action="CREATE", endorser="t1-op"),
    Step("acknowledge", "ledger", sender="t1-op", action="ACKNOWLEDGE_DELIVERY",
         endorser="pcs-op"),
    Step("pcs_sees_arrival", "query", sender="pcs-op"),
    Step("clear", "ledger", sender="pcs-op", action="CLEAR", endorser="t1-op"),
)


def export_steps(mode: str) -> tuple[Step, ...]:
    """Fig 2-1 shape: delivery, arrival notices, DG copies, container
    move, the two-message customs exchange, clearance fan-out."""
    if mode == "ledger":
        return _LEDGER + (
            Step("load", "ledger", sender="t1-op", action="LOAD", endorser="pcs-op"),
            Step("verify", "verify"),
        )
    return _BOOKING + (
        Step("delivery", "message", sender="sl1-clerk", receiver="t1-op",
             msg_type="CODECO",
             fields=("B_NO", "CNT_NO", "CNT_W", "DG", "CNT_C", "CSG_DATA"),
             source="booking"),
        Step("arrival_icu", "message", sender="t1-op", receiver="pcs-op",
             msg_type="ICU", source="delivery"),
        Step("arrival_codeco", "message", sender="t1-op", receiver="sl1-clerk",
             msg_type="CODECO", source="delivery"),
        Step("arrival_pa", "message", sender="t1-op", receiver="pa-officer",
             msg_type="ICU", source="delivery", dg_only=True),
        Step("move_lcu", "message", sender="t1-op", receiver="pcs-op",
             msg_type="LCU",
             fields=("B_NO", "CNT_NO", "CNT_W", "DG", "CNT_C", "CSG_DATA", "CNT_LOC"),
             source="delivery"),
        Step("move_pa", "message", sender="t1-op", receiver="pa-officer",
             msg_type="LCU",
             fields=("B_NO", "CNT_NO", "CNT_W", "DG", "CNT_C", "CSG_DATA", "CNT_LOC"),
             source="delivery", dg_only=True),
        Step("export_declaration", "message", sender="pcs-op", receiver="customs-officer",
             msg_type="MANIFEST", source="move_lcu"),
        Step("clearance", "message", sender="customs-officer", receiver="pcs-op",
             msg_type="IFSTA", fields=("B_NO", "CNT_NO", "CNT_W", "CLR"),
             source="export_declaration"),
        Step("clearance_terminal", "message", sender="pcs-op", receiver="t1-op",
             msg_type="IFSTA", source="clearance"),
        Step("clearance_line", "message", sender="pcs-op", receiver="sl1-clerk",
             msg_type="IFSTA", source="clearance"),
    )


def import_steps(mode: str) -> tuple[Step, ...]:
    """Fig 2-2 shape: manifest in, port order (+DG copy), customs risk
    assessment on a hash-only booking number, ATB fan-out."""
    if mode == "ledger":
        return _LEDGER + (Step("verify", "verify"),)
    return _BOOKING + (
        Step("iftmcs", "message", sender="sl1-clerk", receiver="pcs-op",
             msg_type="IFTMCS",
             fields=("B_NO", "BL_NO", "CNT_NO", "CNT_W", "DG", "CNT_C", "CSG_DATA"),
             source="booking"),
        Step("port_order", "message", sender="pcs-op", receiver="t1-op",
             msg_type="PORT_ORDER", source="iftmcs"),
        Step("port_order_pa", "message", sender="pcs-op", receiver="pa-officer",
             msg_type="PORT_ORDER", source="iftmcs", dg_only=True),
        Step("manifest", "message", sender="pcs-op", receiver="customs-officer",
             msg_type="MANIFEST", source="iftmcs"),
        Step("atb_notice", "message", sender="customs-officer", receiver="pcs-op",
             msg_type="ATB_NOTICE",
             fields=("B_NO", "BL_NO", "CNT_NO", "CNT_W", "ATB_NO"), source="manifest"),
        Step("ifsta_terminal", "message", sender="pcs-op", receiver="t1-op",
             msg_type="IFSTA", source="atb_notice"),
        Step("ifsta_line", "message", sender="pcs-op", receiver="sl1-clerk",
             msg_type="IFSTA", source="atb_notice"),
    )


SCENARIOS = {"export": export_steps, "import": import_steps}


def field_reach(script: ScenarioScript) -> dict[str, dict[str, set[str]]]:
    """For each message step with ``fields``, the identities each of those
    fields reaches through the run's later steps: the receivers of every
    step that carries it on from there. A forward carries all of its
    source's fields; a step with ``fields`` carries those it takes from its
    source. A ``dg_only`` step counts only in a dangerous-goods run.

    The script is the port's standard workflow, so this is whom a sender
    seals a field for: the parties that will receive it, not every holder
    of a role that may read it."""
    reach: dict[str, dict[str, set[str]]] = {}
    #: step -> field -> the steps with ``fields`` it came through
    via: dict[str, dict[str, tuple[str, ...]]] = {}
    for step in script.steps:
        if step.kind != "message" or (step.dg_only and not script.fixtures.dangerous_goods):
            continue
        upstream, authored = via.get(step.source, {}), (step.name,) if step.fields else ()
        here = via[step.name] = {}
        for name in step.fields or upstream:
            for author in upstream.get(name, ()):
                reach[author][name].add(step.receiver)
            here[name] = upstream.get(name, ()) + authored
        if step.fields:
            reach[step.name] = {name: set() for name in step.fields}
    return reach


def make_script(fixtures: FixtureSet, scenario: str, mode: str) -> ScenarioScript:
    if scenario not in SCENARIOS:
        raise ScenarioError(f"unknown scenario {scenario}")
    if mode not in ("p2p", "ledger"):
        raise ScenarioError(f"unknown mode {mode}")
    return ScenarioScript(scenario, mode, SCENARIOS[scenario](mode), fixtures)


class Simulation:
    """One scripted run. Keeps every intermediate validated copy so
    attacks and audits can inspect any hop afterwards."""

    def __init__(
        self,
        script: ScenarioScript,
        world: World | None = None,
        interceptor: Interceptor | None = None,
    ):
        self.script = script
        self.fixtures = script.fixtures
        self.world = world or build_world(script.fixtures)
        self.interceptor = interceptor
        #: a run halts at its first rejection; later steps would forward
        #: a message that never validated
        self.halted = False
        self.net: LedgerNet | None = build_net(self.world) if script.mode == "ledger" else None
        self.transcript = Transcript(
            script.name, script.mode,
            actors=script.fixtures.actors,
        )
        #: step name -> (report, message) at the receiver
        self.inbound: dict[str, tuple[ValidationReport, SecuredMessage]] = {}
        self.reach = field_reach(script)

    def run(self) -> "Simulation":
        for step in self.script.steps:
            if self.halted:
                break
            if step.dg_only and not self.fixtures.dangerous_goods:
                continue
            if step.kind == "message":
                self._message_step(step)
            elif step.kind in ("ledger", "query", "verify"):
                self._ledger_step(step)
            else:
                raise ScenarioError(f"unknown step kind {step.kind}")
        self._audit()
        return self

    # --- p2p ------------------------------------------------------------

    def _message_step(self, step: Step) -> None:
        sender = self.world.adapter(step.sender)
        receiver_role = self.world.adapter(step.receiver).role
        if not step.fields:
            report, received = self.inbound[step.source]
            sm = forward(sender, report, received, receiver_role, step.msg_type)
        else:
            sm = secure_outbound(
                sender,
                self._compose(step),
                self._carried(step),
                receiver_role,
                self.reach[step.name],
            )
        self.deliver(step.name, step.sender, step.receiver, sm)

    def _compose(self, step: Step) -> Message:
        """Field values come from the sender's validated copy of the source
        step when present there, else from the fixture sheet."""
        source = self.inbound[step.source][1].message if step.source else None
        fields = []
        for name in step.fields:
            if source is not None and source.has(name):
                fields.append((name, source.get(name)))
            else:
                fields.append((name, Plain(self.fixtures.value(name))))
        return Message(step.msg_type, self.fixtures.run_tag, tuple(fields))

    def _carried(self, step: Step):
        """Signatures inherited from the source hop, minus any whose
        attributes the new message no longer carries."""
        if not step.source:
            return []
        received = self.inbound[step.source][1]
        keep = set(step.fields)
        return [s for s in received.signatures if set(s.attrs) <= keep]

    def deliver(
        self, step_name: str, sender: str, receiver: str, sm: SecuredMessage
    ) -> tuple[ValidationReport, SecuredMessage]:
        if self.interceptor is not None:
            sm = self.interceptor(step_name, sm)
        flat = to_flat(sm)
        received = from_flat(flat)  # a real wire round trip every hop
        self.transcript.sent(step_name, sender, receiver, flat, received)
        report = validate_inbound(
            self.world.adapter(receiver), received, self.world.chain_of(received.sender)
        )
        self.transcript.validated(receiver, received, report)
        self.inbound[step_name] = (report, received)
        if not report.accepted:
            self.halted = True
        return report, received

    # --- ledger ----------------------------------------------------------

    def _ledger_step(self, step: Step) -> None:
        """A ledger, query or verify step; its denial is recorded, not raised."""
        net, world, cnt = self.net, self.world, self.fixtures.value("CNT_NO")
        action = {"query": "QUERY", "verify": "VERIFY"}.get(step.kind, step.action)
        invoker = net.orderer_identity if step.kind == "verify" else step.sender
        try:
            if step.kind == "verify":
                res = verify_chain(net)
                outcome, detail = "VALID" if res.valid else "INVALID", res.reason
            elif step.kind == "query":
                asset = ledger_query(net, world.chain_of(invoker), cnt)
                outcome, detail = "VISIBLE", asset.state.value
            else:
                args = (("terminal", world.chain_of(step.endorser)[0].org),) \
                    if action == "CREATE" and step.endorser else ()
                tx, chain = build_transaction(LedgerAction(action), cnt, args,
                                              world.chain_of(invoker), world.key_pairs[invoker])
                pending = submit(net, tx, chain)
                if step.endorser:
                    endorse(net, pending, world.chain_of(step.endorser),
                            world.key_pairs[step.endorser])
                result = commit(net, [pending])
                if result.block is None:
                    raise result.rejected[0][1]
                outcome, detail = "COMMITTED", ""
        except LedgerError as exc:
            outcome, detail = type(exc).__name__, str(exc)
        self.transcript.ledger(action, cnt, invoker, outcome, detail)

    # --- closing audit ----------------------------------------------------

    def _audit(self) -> None:
        result = audit_views(self.transcript, self.world.matrix)
        for identity in sorted(result.exposure):
            self.transcript.audit(
                identity, result.exposure[identity], bool(result.excess.get(identity))
            )


def run_scenario(
    fixtures: FixtureSet,
    scenario: str,
    mode: str,
    world: World | None = None,
    interceptor: Interceptor | None = None,
) -> Simulation:
    script = make_script(fixtures, scenario, mode)
    return Simulation(script, world, interceptor).run()
