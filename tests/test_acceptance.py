"""Acceptance gate: twelve criteria, one test and one verdict line each.

Run with -s to see the verdict lines; each test exercises its criterion
end to end against fresh state unless noted.
"""

import random

from portsec.adapter import FindingCode, secure_outbound, validate_inbound
from portsec.attacks import (
    AttackKind,
    battery,
    inject_attack,
    mutate_field,
)
from portsec.audit import audit_views, read_column
from portsec.envelope import field_digests, multi_sign, value_digest, verify_multi_sig
from portsec.fixtures import CA_VALIDITY, LEAF_VALIDITY, ROOT_VALIDITY, build_world
from portsec.ledger import (
    ContainerAsset,
    LedgerAction,
    LedgerError,
    LifecycleState,
    build_transaction,
    commit,
    create_net,
    endorse,
    export_chain,
    parse_chain,
    submit,
    verify_exported,
)
from portsec.model import (
    HashOnly,
    Message,
    ParseError,
    Plain,
    Sealed,
    SecuredMessage,
    from_flat,
    to_flat,
)
from portsec.model import AttributeSignature
from portsec.pki import create_root, create_subordinate
from portsec.policy import Role, default_matrix
from portsec.sim import run_scenario
from portsec.transcript import LedgerEvent, ValidatedEvent, determinism_digest
from test_sim import transit

CNT = "COSU1234567"


def _ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def _rejects(t) -> list[ValidatedEvent]:
    return [e for e in t.events if isinstance(e, ValidatedEvent) and e.verdict != "ACCEPT"]


def _codes(report) -> set[FindingCode]:
    return {f.code for f in report.findings}


# --- 1. honest runs -----------------------------------------------------------

EXPORT_SENT = ("booking_ref", "booking", "delivery", "arrival_icu",
               "arrival_codeco", "move_lcu", "export_declaration",
               "clearance", "clearance_terminal", "clearance_line")
IMPORT_SENT = ("booking_ref", "booking", "iftmcs", "port_order",
               "manifest", "atb_notice", "ifsta_terminal", "ifsta_line")
EXPORT_LEDGER = ("CREATE", "ACKNOWLEDGE_DELIVERY", "QUERY", "CLEAR", "LOAD", "VERIFY")
IMPORT_LEDGER = ("CREATE", "ACKNOWLEDGE_DELIVERY", "QUERY", "CLEAR", "VERIFY")


def test_c01_honest_runs_match_goldens(base_fixtures, honest_sims):
    for (scenario, mode), sim in honest_sims.items():
        t = sim.transcript
        assert t.verdict == "PASS" and not _rejects(t), (scenario, mode)
        again = run_scenario(base_fixtures, scenario, mode)
        assert determinism_digest(again.transcript) == determinism_digest(t)
    sent = lambda key: tuple(e.step for e in honest_sims[key].transcript.sent_events())
    assert sent(("export", "p2p")) == EXPORT_SENT
    assert sent(("import", "p2p")) == IMPORT_SENT
    actions = lambda key: tuple(
        e.action for e in honest_sims[key].transcript.events if isinstance(e, LedgerEvent)
    )
    assert actions(("export", "ledger")) == EXPORT_LEDGER
    assert actions(("import", "ledger")) == IMPORT_LEDGER
    _ok(1, "4 honest runs, zero rejects, golden sequences, stable digests")


# --- 2. tamper sweep ----------------------------------------------------------

def test_c02_tamper_sweep_full_detection(base_fixtures):
    total = misses = 0
    for scenario in ("export", "import"):
        sim = run_scenario(base_fixtures, scenario, "p2p")
        world = sim.world
        for event in sim.transcript.sent_events():
            sm = from_flat(event.flat)
            receiver = world.adapters[event.receiver]
            chain = world.chain_of(event.sender)
            mutants = [
                mutate_field(sm, name, value + "-tampered"
                             if isinstance(field, Plain) else "tampered",
                             world.suite)
                for name, field in sm.message.fields
                for value in [field.text if isinstance(field, Plain) else ""]
            ]
            for i, sig in enumerate(sm.signatures):
                flipped = AttributeSignature(
                    sig.signer, sig.attrs, sig.sig[:-1] + bytes([sig.sig[-1] ^ 1])
                )
                mutants.append(SecuredMessage(
                    sm.message,
                    sm.signatures[:i] + (flipped,) + sm.signatures[i + 1:],
                    sm.sender,
                ))
            for mutant in mutants:
                total += 1
                report = validate_inbound(receiver, mutant, chain)
                if report.accepted:
                    misses += 1
    assert misses == 0
    assert total >= 100
    _ok(2, f"{total} single-field/signature mutations, {total} rejections")


# --- 3. representation equivalence --------------------------------------------

def test_c03_representation_equivalence(world):
    values = [("B_NO", "BKG-7401"), ("CNT_W", "18400 kg"),
              ("CNT_C", "400 cartons"), ("CSG_DATA", "consignee ACME")]
    key = world.key_pairs["sl1-clerk"]
    public = key.public_key
    combos = 0

    def digests(fields, mask=-1):
        """Field digests of a message carrying field i in plaintext when
        bit i of ``mask`` is set, else hash-only."""
        msg = Message("IFTMCS", "R1", tuple(
            (n, Plain(v)) if mask & (1 << i) else (n, HashOnly(value_digest(v)))
            for i, (n, v) in enumerate(fields)
        ))
        return field_digests(msg)

    for k in (1, 2, 3, 4):
        fields = values[:k]
        sig = multi_sign(key, [n for n, _ in fields], digests(fields))
        for mask in range(2 ** k):
            assert verify_multi_sig(public, sig, digests(fields, mask))
            combos += 1
        wrong = digests([(n, v + "!") for n, v in fields])
        assert not verify_multi_sig(public, sig, wrong)
    assert combos == 30
    _ok(3, "30/30 plaintext/hash-only field combinations verify; forgeries do not")


# --- 4. splice rejection ------------------------------------------------------

def test_c04_replay_splice_localized(base_fixtures):
    spec = next(s for s in battery("export") if s.kind is AttackKind.REPLAY_SPLICE)
    transcript, report = inject_attack(base_fixtures, "export", spec, "p2p")
    assert report.detected
    assert report.finding == "LinkageMismatch"
    assert report.detected_by == "t1-op"
    assert "B_NO" in report.localized
    assert "-origin" in report.localized  # names the run the signature came from
    assert transcript.verdict == "FAIL"
    _ok(4, "spliced importer signature gives LinkageMismatch(B_NO) with origin run")


# --- 5. confidentiality audit -------------------------------------------------

def test_c05_confidentiality_audit_equality(honest_sims, base_fixtures):
    matrix = default_matrix()
    union: dict[str, frozenset] = {}
    for scenario in ("export", "import"):
        t = honest_sims[(scenario, "p2p")].transcript
        views, handled_by = audit_views(t), transit(t)
        assert not views.flagged(), scenario
        for identity, role_token in t.actors.items():
            try:
                role = Role(role_token)
            except ValueError:
                continue
            handled = handled_by.get(identity, frozenset())
            exposed = views.exposure.get(identity, frozenset())
            assert exposed == read_column(matrix, role) & handled, (scenario, identity)
            union[identity] = union.get(identity, frozenset()) | exposed
    # the steady actors handle every attribute they may read, so equality
    # against the bare read column is exact for them
    for identity, role in (("sl1-clerk", Role.SHIPPING_LINE), ("pcs-op", Role.PCS),
                           ("t1-op", Role.TERMINAL),
                           ("customs-officer", Role.CUSTOMS)):
        assert union[identity] == read_column(matrix, role), identity
    assert union["pcs-op"] & {"CNT_C", "CSG_DATA"} == frozenset()
    assert "B_NO" not in union["customs-officer"]
    dg = audit_views(run_scenario(
        base_fixtures.with_values(run_tag="R1-DG", DG="true"), "export", "p2p"
    ).transcript)
    assert dg.exposure["pa-officer"] == read_column(matrix, Role.PORT_AUTHORITY)
    _ok(5, "plaintext exposure equals entitled read columns for every actor")


# --- 6. write-coverage gate ---------------------------------------------------

def test_c06_missing_importer_signature_rejected(base_fixtures):
    world = build_world(base_fixtures)
    fields = ("B_NO", "BL_NO", "CNT_NO", "CNT_W", "CNT_C", "CSG_DATA")
    msg = Message("IFTMCS", base_fixtures.run_tag,
                  tuple((n, Plain(base_fixtures.values[n])) for n in fields))
    sm = secure_outbound(
        world.adapters["sl1-clerk"], msg, (), Role.PCS,
        dict.fromkeys(("CNT_C", "CSG_DATA"), ("customs-officer",)),
    )
    report = validate_inbound(
        world.adapters["pcs-op"], sm, world.chain_of("sl1-clerk")
    )
    assert not report.accepted
    gaps = {f.subject for f in report.findings
            if f.code is FindingCode.WRITE_COVERAGE_GAP}
    assert gaps == {"CNT_C", "CSG_DATA"}
    _ok(6, "IFTMCS without the importer signature rejected, gap on CNT_C+CSG_DATA")


# --- 7 & 9. ledger access oracle and lifecycle totality -------------------------

ORACLE_INVOKERS = (
    ("sl1-clerk", Role.SHIPPING_LINE, "SL1"),
    ("sl2-clerk", Role.SHIPPING_LINE, "SL2"),
    ("t1-op", Role.TERMINAL, "T1"),
    ("t2-op", Role.TERMINAL, "T2"),
    ("pcs-op", Role.PCS, "PCS1"),
)
ORACLE_STATES = (None, LifecycleState.CREATED, LifecycleState.DELIVERED,
                 LifecycleState.CLEARED, LifecycleState.LOADED)
ACTION_ROLE = {
    LedgerAction.CREATE: Role.SHIPPING_LINE,
    LedgerAction.ACKNOWLEDGE_DELIVERY: Role.TERMINAL,
    LedgerAction.CLEAR: Role.PCS,
    LedgerAction.LOAD: Role.TERMINAL,
}
PRECONDITION = {
    LedgerAction.ACKNOWLEDGE_DELIVERY: LifecycleState.CREATED,
    LedgerAction.CLEAR: LifecycleState.DELIVERED,
    LedgerAction.LOAD: LifecycleState.CLEARED,
}


def _oracle(role, org, action, state):
    # mirror of the published gate order: role, existence, tenancy, lifecycle
    if role is not ACTION_ROLE[action]:
        return "RoleDenied"
    if action is LedgerAction.CREATE:
        return "DuplicateContainer" if state is not None else "OK"
    if state is None:
        return "UnknownContainer"
    if action in (LedgerAction.ACKNOWLEDGE_DELIVERY, LedgerAction.LOAD) and org != "T1":
        return "TenancyDenied"
    return "OK" if state is PRECONDITION[action] else "LifecycleDenied"


def _seeded_net(world, state):
    baseline = None
    if state is not None:
        baseline = {CNT: ContainerAsset(CNT, state, "SL1", "T1")}
    return create_net(
        orderer_identity=world.orderer,
        orderer_key=world.key_pairs[world.orderer],
        trust=world.trust,
        baseline_state=baseline,
    )


def _submit_verdict(world, invoker, action, state):
    net = _seeded_net(world, state)
    args = (("terminal", "T1"),) if action is LedgerAction.CREATE else ()
    tx, chain = build_transaction(
        action, CNT, args, world.chain_of(invoker), world.key_pairs[invoker]
    )
    try:
        submit(net, tx, chain)
        return "OK"
    except LedgerError as exc:
        return type(exc).__name__


def test_c07_ledger_access_oracle(world):
    cases = mismatches = 0
    for identity, role, org in ORACLE_INVOKERS:
        for action in LedgerAction:
            for state in ORACLE_STATES:
                cases += 1
                got = _submit_verdict(world, identity, action, state)
                if got != _oracle(role, org, action, state):
                    mismatches += 1
    assert cases == 100 and mismatches == 0
    _ok(7, f"{cases} enumerated submissions match the access oracle row for row")


def test_c09_lifecycle_totality(world):
    accepted = set()
    for action in LedgerAction:
        invoker = {Role.SHIPPING_LINE: "sl1-clerk", Role.TERMINAL: "t1-op",
                   Role.PCS: "pcs-op"}[ACTION_ROLE[action]]
        for state in ORACLE_STATES:
            if _submit_verdict(world, invoker, action, state) == "OK":
                accepted.add((state, action))
    assert accepted == {
        (None, LedgerAction.CREATE),
        (LifecycleState.CREATED, LedgerAction.ACKNOWLEDGE_DELIVERY),
        (LifecycleState.DELIVERED, LedgerAction.CLEAR),
        (LifecycleState.CLEARED, LedgerAction.LOAD),
    }
    _ok(9, "exactly CREATED>DELIVERED>CLEARED>LOADED accepted; 16 pairs denied")


# --- 8. chain immutability ------------------------------------------------------

def _lifecycle_chain(world) -> bytes:
    from portsec.fixtures import build_net

    net = build_net(world)
    plan = (
        (LedgerAction.CREATE, "sl1-clerk", "t1-op", (("terminal", "T1"),)),
        (LedgerAction.ACKNOWLEDGE_DELIVERY, "t1-op", "pcs-op", ()),
        (LedgerAction.CLEAR, "pcs-op", "t1-op", ()),
        (LedgerAction.LOAD, "t1-op", "pcs-op", ()),
    )
    for action, invoker, endorser, args in plan:
        tx, chain = build_transaction(
            action, CNT, args, world.chain_of(invoker), world.key_pairs[invoker]
        )
        pending = submit(net, tx, chain)
        endorse(net, pending, world.chain_of(endorser), world.key_pairs[endorser])
        result = commit(net, [pending])
        assert result.block is not None and not result.rejected
    return export_chain(net)


def _chain_ok(data: bytes) -> bool:
    try:
        return verify_exported(parse_chain(data)).valid
    except (ParseError, LedgerError):
        return False


def test_c08_chain_immutability(world):
    data = _lifecycle_chain(world)
    assert _chain_ok(data)
    starts = [i for i in range(len(data)) if data.startswith(b"BLK+", i)]
    assert len(starts) == 5  # genesis + one block per lifecycle action
    spans = list(zip(starts, starts[1:] + [len(data)]))
    rng = random.Random(0x5EAC0DE)
    positions = set(rng.sample(range(len(data)), 100))
    for lo, hi in spans:  # every block gets direct hits
        positions.update(rng.sample(range(lo, hi), 4))
    assert len(positions) >= 100
    surviving = [
        pos for pos in sorted(positions)
        if _chain_ok(data[:pos] + bytes([data[pos] ^ 0x01]) + data[pos + 1:])
    ]
    assert surviving == []
    _ok(8, f"{len(positions)} single-byte mutations across all 5 blocks detected")


# --- 10. PKI gates ---------------------------------------------------------------

def _booking_message(world, fixtures):
    msg = Message("IFTMCS", fixtures.run_tag, (("B_NO", Plain(fixtures.values["B_NO"])),))
    return secure_outbound(world.adapters["sl1-clerk"], msg, (), Role.TERMINAL)


def test_c10_pki_gates_both_modes(base_fixtures):
    from portsec.fixtures import build_net
    from portsec.ledger import ChainInvalidCert

    world = build_world(base_fixtures)
    sm = _booking_message(world, base_fixtures)

    foreign_root = create_root("Foreign-Root", ROOT_VALIDITY)
    foreign_ca = create_subordinate(foreign_root, "Foreign-SL-CA", CA_VALIDITY)
    foreign_leaf = foreign_ca.issue(
        "sl1-clerk", "SL1", Role.SHIPPING_LINE.value,
        world.key_pairs["sl1-clerk"].public_key, LEAF_VALIDITY,
    )
    foreign_chain = (foreign_leaf, foreign_ca.cert, foreign_root.cert)
    report = validate_inbound(world.adapters["t1-op"], sm, foreign_chain)
    assert not report.accepted and FindingCode.CHAIN_INVALID in _codes(report)

    net = build_net(world)
    tx, _ = build_transaction(
        LedgerAction.CREATE, CNT, (("terminal", "T1"),), world.chain_of("sl1-clerk"),
        world.key_pairs["sl1-clerk"],
    )
    try:
        submit(net, tx, foreign_chain)
        raise AssertionError("foreign-rooted invoker accepted")
    except ChainInvalidCert:
        pass

    # now revoke the genuine leaf and retry both paths with the real chain
    world.trust.cas["SL1-CA"].revoke(world.chain_of("sl1-clerk")[0].serial)
    report = validate_inbound(
        world.adapters["t1-op"], sm, world.chain_of("sl1-clerk")
    )
    assert not report.accepted and FindingCode.CHAIN_INVALID in _codes(report)
    try:
        submit(net, tx, world.chain_of("sl1-clerk"))
        raise AssertionError("revoked invoker accepted")
    except ChainInvalidCert:
        pass
    _ok(10, "revoked and foreign-rooted certificates refused in both modes")


# --- 11. serialization round trip -------------------------------------------------

_NAME_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
_TEXT_CHARS = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " +'?-_.,:;/\\#éüß中文\U0001f6a2\n\t"
)
_TYPES = ("IFTMCS", "IFSTA", "CODECO", "ICU", "LCU", "PORT_ORDER",
          "MANIFEST", "ATB_NOTICE")


def _random_secured_message(rng: random.Random) -> SecuredMessage:
    def text(lo, hi, chars=_TEXT_CHARS):
        return "".join(rng.choice(chars) for _ in range(rng.randint(lo, hi)))

    names = rng.sample(
        [text(1, 10, _NAME_CHARS) for _ in range(12)], rng.randint(1, 6)
    )
    names = list(dict.fromkeys(names)) or ["A"]
    fields = []
    for name in names:
        shape = rng.randrange(3)
        if shape == 0:
            fields.append((name, Plain(text(0, 30))))
        elif shape == 1:
            fields.append((name, HashOnly(rng.randbytes(32))))
        else:
            fields.append((name, Sealed(
                rng.randbytes(32), rng.randbytes(rng.randint(1, 48)),
                {text(1, 8): rng.randbytes(rng.randint(16, 40))
                 for _ in range(rng.randint(1, 3))},
            )))
    signatures = tuple(
        AttributeSignature(
            text(1, 10),
            tuple(rng.sample(names, rng.randint(1, len(names)))),
            rng.randbytes(rng.randint(1, 96)),
        )
        for _ in range(rng.randint(0, 3))
    )
    return SecuredMessage(
        Message(rng.choice(_TYPES), text(1, 12), tuple(fields)),
        signatures,
        text(1, 12),
    )


def test_c11_thousand_round_trips():
    rng = random.Random(0xF1A7)
    for i in range(1000):
        sm = _random_secured_message(rng)
        flat = to_flat(sm)
        again = from_flat(flat)
        assert again == sm, i
        assert to_flat(again) == flat, i
    _ok(11, "1000 randomized secured messages round-trip byte-exactly")


# --- 12. mode comparison -----------------------------------------------------------

def test_c12_mode_comparison(comparison):
    assert comparison.verdict == "PASS"
    assert all(v == "PASS" for v in comparison.honest.values())
    rows = {(r.scenario, r.kind): r for r in comparison.rows}
    for kind in AttackKind:
        assert comparison.detected_somewhere(kind), kind
    for scenario in ("export", "import"):
        assert rows[(scenario, AttackKind.TAMPER_FIELD)].p2p.detected
        assert rows[(scenario, AttackKind.LEDGER_TAMPER)].ledger.detected
        assert not rows[(scenario, AttackKind.LEDGER_TAMPER)].p2p.detected
    for attrs in comparison.exposure["ledger"].values():
        assert attrs & {"CNT_C", "CSG_DATA"} == frozenset()
    _ok(12, "every attack kind caught in at least one mode; trade-off reproduced")
