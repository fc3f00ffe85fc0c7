"""Ledger net: chaincode gates, endorsement, chain integrity, replay."""

import os
import threading
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portsec import envelope, ledger, records, sim
from portsec.envelope import DEFAULT_SUITE
from portsec.fixtures import build_net, build_world, fixtures_from_bytes
from portsec.ledger import (
    GENESIS_PREV,
    ORDERER_ROLE,
    ChainInvalidCert,
    ContainerAsset,
    DuplicateContainer,
    DuplicateEndorsement,
    IneligibleEndorser,
    InsufficientEndorsements,
    LedgerAction,
    LedgerError,
    LifecycleDenied,
    LifecycleState,
    MalformedTransaction,
    NotVisible,
    PendingTransaction,
    RoleDenied,
    StaleTransaction,
    TenancyDenied,
    UnknownContainer,
    _sign_block,
    block_bytes,
    build_transaction,
    commit,
    create_net,
    endorse,
    export_chain,
    parse_chain,
    query,
    rollover,
    submit,
    verify_chain,
    verify_exported,
)
from portsec.sim import run_scenario
from test_envelope import P256_SPKI_PREFIX, high_s, long_form
from test_golden import FIXTURES

CNT = "COSU1234567"


@pytest.fixture
def net(world):
    return build_net(world)


def make_tx(world, identity, action, cnt_no=CNT, args=()):
    return build_transaction(
        action, cnt_no, args, world.chain_of(identity), world.key_pairs[identity]
    )


def submit_by(world, net, identity, action, cnt_no=CNT, args=()):
    tx, chain = make_tx(world, identity, action, cnt_no, args)
    return submit(net, tx, chain)


def endorse_by(world, net, pending, identity):
    return endorse(net, pending, world.chain_of(identity), world.key_pairs[identity])


def run_step(world, net, invoker, action, endorser, cnt_no=CNT, args=()):
    pending = submit_by(world, net, invoker, action, cnt_no, args)
    endorse_by(world, net, pending, endorser)
    result = commit(net, [pending])
    assert result.block is not None and not result.rejected
    return result


def full_lifecycle(world, net, cnt_no=CNT):
    run_step(world, net, "sl1-clerk", LedgerAction.CREATE, "t1-op", cnt_no, (("terminal", "T1"),))
    run_step(world, net, "t1-op", LedgerAction.ACKNOWLEDGE_DELIVERY, "pcs-op", cnt_no)
    run_step(world, net, "pcs-op", LedgerAction.CLEAR, "t1-op", cnt_no)
    run_step(world, net, "t1-op", LedgerAction.LOAD, "pcs-op", cnt_no)


def seeded_net(world, state):
    """Net whose baseline already holds CNT in the given state (SL1's box
    at terminal T1), sidestepping replay when probing a single gate."""
    baseline = {}
    if state is not None:
        baseline[CNT] = ContainerAsset(CNT, state, "SL1", "T1")
    orderer = "orderer-1"
    return create_net(
        orderer,
        world.key_pairs[orderer],
        world.trust,
        baseline_state=baseline,
    )


def test_genesis_block(net):
    assert len(net.chain) == 1
    genesis = net.chain[0]
    assert genesis.index == 0
    assert genesis.prev_hash == GENESIS_PREV
    assert genesis.transactions == ()
    assert verify_chain(net).valid


def test_full_lifecycle_and_creator_binding(world, net):
    full_lifecycle(world, net)
    assert len(net.chain) == 5
    asset = net.world_state[CNT]
    assert asset.state is LifecycleState.LOADED
    assert asset.shipping_line == "SL1"
    assert asset.terminal == "T1"
    res = verify_chain(net)
    assert res.valid, res.reason


def test_create_ignores_owner_argument(world, net):
    # sl1's clerk cannot assign the asset to SL2 through the args
    args = (("terminal", "T1"), ("shipping_line", "SL2"))
    run_step(world, net, "sl1-clerk", LedgerAction.CREATE, "t1-op", CNT, args)
    assert net.world_state[CNT].shipping_line == "SL1"


def test_chain_gate_rejects_bad_signature_and_wrong_chain(world, net):
    tx, chain = make_tx(world, "sl1-clerk", LedgerAction.CREATE, args=(("terminal", "T1"),))
    bad = tx.invoker_signature[:-1] + bytes([tx.invoker_signature[-1] ^ 1])
    import dataclasses

    with pytest.raises(ChainInvalidCert):
        submit(net, dataclasses.replace(tx, invoker_signature=bad), chain)
    with pytest.raises(ChainInvalidCert):
        submit(net, tx, world.chain_of("sl2-clerk"))


@pytest.mark.parametrize("call", ["submit", "endorse", "query"])
def test_an_empty_presented_chain_is_refused(world, net, call):
    """No chain at all fails the chain check, before any leaf is read."""
    tx, chain = make_tx(world, "sl1-clerk", LedgerAction.CREATE, args=(("terminal", "T1"),))
    with pytest.raises(ChainInvalidCert) as err:
        if call == "submit":
            submit(net, tx, ())
        elif call == "endorse":
            endorse(net, submit(net, tx, chain), (), world.key_pairs["t1-op"])
        else:
            query(net, (), CNT)
    who = {"submit": "invoker sl1-clerk", "endorse": "endorser", "query": "reader"}[call]
    assert str(err.value) == f"{who}: UntrustedRoot: no certificate chain"


def test_revoked_invoker_denied(world, net):
    cert = world.chain_of("sl1-clerk")[0]
    world.trust.cas[cert.issuer].revoke(cert.serial)
    with pytest.raises(ChainInvalidCert):
        submit_by(world, net, "sl1-clerk", LedgerAction.CREATE, args=(("terminal", "T1"),))


ORACLE_INVOKERS = {
    # identity: (role, org)
    "sl1-clerk": ("SHIPPING_LINE", "SL1"),
    "sl2-clerk": ("SHIPPING_LINE", "SL2"),
    "t1-op": ("TERMINAL", "T1"),
    "t2-op": ("TERMINAL", "T2"),
    "pcs-op": ("PCS", "PCS1"),
}
ORACLE_STATES = (None, LifecycleState.CREATED, LifecycleState.DELIVERED,
                 LifecycleState.CLEARED, LifecycleState.LOADED)


def oracle_outcome(role, org, action, state):
    """Independent statement of the access rules for SL1's box at T1.
    Returns None for success or the expected denial class."""
    needed_role = {
        LedgerAction.CREATE: "SHIPPING_LINE",
        LedgerAction.ACKNOWLEDGE_DELIVERY: "TERMINAL",
        LedgerAction.CLEAR: "PCS",
        LedgerAction.LOAD: "TERMINAL",
    }[action]
    if role != needed_role:
        return RoleDenied
    if action is LedgerAction.CREATE:
        return DuplicateContainer if state is not None else None
    if state is None:
        return UnknownContainer
    if role == "TERMINAL" and org != "T1":
        return TenancyDenied
    prior = {
        LedgerAction.ACKNOWLEDGE_DELIVERY: LifecycleState.CREATED,
        LedgerAction.CLEAR: LifecycleState.DELIVERED,
        LedgerAction.LOAD: LifecycleState.CLEARED,
    }[action]
    return None if state is prior else LifecycleDenied


def test_access_gate_oracle(world):
    """Every invoker x action x lifecycle state, checked row by row."""
    cases = 0
    for state in ORACLE_STATES:
        for identity, (role, org) in ORACLE_INVOKERS.items():
            for action in LedgerAction:
                net = seeded_net(world, state)
                args = (("terminal", "T1"),) if action is LedgerAction.CREATE else ()
                expected = oracle_outcome(role, org, action, state)
                cases += 1
                if expected is None:
                    submit_by(world, net, identity, action, CNT, args)
                else:
                    with pytest.raises(expected):
                        submit_by(world, net, identity, action, CNT, args)
    assert cases == 100


def test_lifecycle_totality(world):
    """From every state, exactly one action advances; the rest deny."""
    advancing = {
        LifecycleState.CREATED: LedgerAction.ACKNOWLEDGE_DELIVERY,
        LifecycleState.DELIVERED: LedgerAction.CLEAR,
        LifecycleState.CLEARED: LedgerAction.LOAD,
        LifecycleState.LOADED: None,
    }
    invoker_for = {
        LedgerAction.ACKNOWLEDGE_DELIVERY: "t1-op",
        LedgerAction.CLEAR: "pcs-op",
        LedgerAction.LOAD: "t1-op",
    }
    for state, good in advancing.items():
        for action, invoker in invoker_for.items():
            net = seeded_net(world, state)
            if action is good:
                submit_by(world, net, invoker, action)
            else:
                with pytest.raises(LifecycleDenied):
                    submit_by(world, net, invoker, action)


def test_endorsement_rules(world, net):
    pending = submit_by(world, net, "sl1-clerk", LedgerAction.CREATE, CNT, (("terminal", "T1"),))

    res = commit(net, [pending])
    assert res.block is None
    assert isinstance(res.rejected[0][1], InsufficientEndorsements)

    with pytest.raises(IneligibleEndorser):  # not the designated terminal
        endorse_by(world, net, pending, "t2-op")
    with pytest.raises(IneligibleEndorser):  # role not in the eligible set
        endorse_by(world, net, pending, "pcs-op")

    endorse_by(world, net, pending, "t1-op")
    with pytest.raises(DuplicateEndorsement):
        endorse_by(world, net, pending, "t1-op")

    res = commit(net, [pending])
    assert res.block is not None
    assert net.world_state[CNT].state is LifecycleState.CREATED


def forge_endorsement(world, pending, identity):
    """Append ``identity``'s genuine endorsement signature past ``endorse()``."""
    tx, key = pending.tx, world.key_pairs[identity]
    payload = DEFAULT_SUITE.digest(tx.body_bytes() + tx.invoker_signature)
    pending.endorsements.append((identity, DEFAULT_SUITE.sign(key.private, payload)))


def _flip(data):
    return bytes([data[0] ^ 1]) + data[1:]


def order_by_hand(net, *transactions):
    """Append a block of ``transactions`` signed with the orderer key as
    ``commit`` signs one, but without ``commit``'s checks: a forged chain."""
    prev = DEFAULT_SUITE.digest(block_bytes(net.chain[-1]))
    net.chain.append(_sign_block(net, len(net.chain), prev, transactions))
    return net.chain[-1]


INELIGIBLE = {
    # case: (action, invoker, endorser, denial, block)
    "self": (LedgerAction.CREATE, "sl1-clerk", "sl1-clerk", IneligibleEndorser, 1),
    "duplicate": (LedgerAction.CREATE, "sl1-clerk", "t1-op", DuplicateEndorsement, 1),
    "wrong-role": (LedgerAction.CREATE, "sl1-clerk", "pcs-op", IneligibleEndorser, 1),
    "wrong-terminal": (LedgerAction.CREATE, "sl1-clerk", "t2-op", IneligibleEndorser, 1),
    "wrong-owner": (LedgerAction.ACKNOWLEDGE_DELIVERY, "t1-op", "sl2-clerk", IneligibleEndorser, 2),
}


@pytest.mark.parametrize("case", list(INELIGIBLE))
def test_ineligible_endorsement_fails_verification(world, net, case):
    """An endorsement that ``endorse()`` refuses, appended past it, is
    refused by ``commit`` too; ordered into a block by hand, it fails both
    verifiers."""
    action, invoker, endorser, denial, block = INELIGIBLE[case]
    create_args = (("terminal", "T1"),)
    if action is not LedgerAction.CREATE:
        run_step(world, net, "sl1-clerk", LedgerAction.CREATE, "t1-op", CNT, create_args)
    pending = submit_by(world, net, invoker, action, CNT,
                        create_args if action is LedgerAction.CREATE else ())
    if case == "duplicate":
        endorse_by(world, net, pending, endorser)
    with pytest.raises(denial) as refused:
        endorse_by(world, net, pending, endorser)
    forge_endorsement(world, pending, endorser)
    reason = f"endorsement gate failure: {refused.value}"
    res = commit(net, [pending])
    assert res.block is None
    assert [(type(exc), str(exc)) for _, exc in res.rejected] == [(denial, reason)]
    assert order_by_hand(net, pending.endorsed()).index == block

    for res in (verify_chain(net), verify_exported(parse_chain(export_chain(net)))):
        assert (res.valid, res.first_bad_block, res.reason) == (False, block, reason)


def _past_submit(world, net, tx):
    """``tx`` endorsed by ``t1-op`` without passing ``submit``."""
    return endorse_by(world, net, PendingTransaction(tx, None), "t1-op")


def _endorsed_create(world, net, edit):
    """SL1's honest CREATE endorsed by ``t1-op``, its endorsements then
    replaced by ``edit`` of them."""
    pending = submit_by(world, net, "sl1-clerk", LedgerAction.CREATE, CNT, (("terminal", "T1"),))
    endorse_by(world, net, pending, "t1-op")
    pending.endorsements[:] = edit(pending.endorsements)
    return pending


def _relabelled_invoker(world, net):
    forged = replace(world.chain_of("customs-officer")[0], role="SHIPPING_LINE")
    tx, _ = build_transaction(LedgerAction.CREATE, CNT, (("terminal", "T1"),), (forged,),
                              world.key_pairs["customs-officer"])
    return _past_submit(world, net, tx)


def _flipped_invoker_signature(world, net):
    tx, _ = make_tx(world, "sl1-clerk", LedgerAction.CREATE, CNT, (("terminal", "T1"),))
    return _past_submit(world, net, replace(tx, invoker_signature=_flip(tx.invoker_signature)))


def _ineligible_endorsement(world, net):
    pending = _endorsed_create(world, net, list)
    forge_endorsement(world, pending, "t2-op")
    return pending


def _orderer_invoker(world, net):
    tx, _ = make_tx(world, "orderer-1", LedgerAction.CREATE, CNT, (("terminal", "T1"),))
    return _past_submit(world, net, tx)


def _orderer_endorsement(world, net):
    pending = _endorsed_create(world, net, lambda e: [])
    forge_endorsement(world, pending, "orderer-1")
    return pending


REFUSED_AT_COMMIT = {
    # case: (pending, denial, reason)
    "invoker-certificate": (_relabelled_invoker, ChainInvalidCert,
                            "invoker customs-officer differs from its certificate record"),
    "invoker-signature": (_flipped_invoker_signature, ChainInvalidCert,
                          f"invoker signature broken on {CNT}"),
    "endorsement-signature": (
        lambda world, net: _endorsed_create(world, net, lambda e: [(e[0][0], _flip(e[0][1]))]),
        ChainInvalidCert, "endorsement by t1-op broken",
    ),
    "no-endorsement": (lambda world, net: _endorsed_create(world, net, lambda e: []),
                       InsufficientEndorsements, "under-endorsed CREATE"),
    "ineligible-endorsement": (_ineligible_endorsement, IneligibleEndorser,
                               "endorsement gate failure: terminal T2 is not the designated T1"),
    "orderer-invoker": (_orderer_invoker, StaleTransaction,
                        "replay gate failure: ORDERER is not a ledger role"),
    "orderer-endorsement": (_orderer_endorsement, IneligibleEndorser,
                            "endorsement gate failure: ORDERER is not an endorsing role"),
    "endorser-without-certificate": (
        lambda world, net: _endorsed_create(world, net, lambda e: [("nobody", e[0][1])]),
        IneligibleEndorser, "endorser nobody has no certificate",
    ),
}


@pytest.mark.parametrize("case", list(REFUSED_AT_COMMIT))
def test_commit_never_appends_a_block_its_verifiers_refuse(world, net, case):
    """``commit`` refuses each pending that replay refuses, with the
    verifiers' reason. Ordered into a block by hand, it fails both
    verifiers there, except that the chain file binds each invoker to its
    subject's certificate record: a relabelled invoker certificate leaves
    the net as the directory's, and fails offline as what that one may not
    do."""
    make, denial, reason = REFUSED_AT_COMMIT[case]
    pending = make(world, net)
    res = commit(net, [pending])
    assert res.block is None and len(net.chain) == 1
    assert [(type(exc), str(exc)) for _, exc in res.rejected] == [(denial, reason)]
    assert order_by_hand(net, pending.endorsed()).index == 1
    live = verify_chain(net)
    assert (live.valid, live.first_bad_block, live.reason) == (False, 1, reason)
    if case == "invoker-certificate":
        reason = "replay gate failure: CREATE requires SHIPPING_LINE, invoker is CUSTOMS"
    offline = verify_exported(parse_chain(export_chain(net)))
    assert (offline.valid, offline.first_bad_block, offline.reason) == (False, 1, reason)


def test_line_break_text_is_refused(world, net):
    """The chain file keeps one record per line, so text holding a line
    break is refused at submit, at commit and in replay: it never reaches
    a chain whose export cannot be parsed."""
    terminal = (("terminal", "T1"),)
    for cnt_no, args in (("CNT\n1", terminal), ("CNT\r1", terminal),
                         (CNT, (("terminal", "T1\n"),)), (CNT, (*terminal, ("no\rte", "x")))):
        with pytest.raises(MalformedTransaction):
            submit_by(world, net, "sl1-clerk", LedgerAction.CREATE, cnt_no, args)

    tx, _ = make_tx(world, "sl1-clerk", LedgerAction.CREATE, "CNT\n1", terminal)
    pending = endorse_by(world, net, PendingTransaction(tx, None), "t1-op")  # past submit
    res = commit(net, [pending])
    assert res.block is None and isinstance(res.rejected[0][1], StaleTransaction)
    order_by_hand(net, pending.endorsed())
    res = verify_chain(net)
    assert (res.valid, res.first_bad_block, res.reason) == (
        False, 1, "replay gate failure: transaction text may not hold a line break"
    )
    with pytest.raises(records.ParseError):
        parse_chain(export_chain(net))


def test_a_role_outside_the_policy_is_refused_by_name(world, net):
    """The orderer's role is no ledger role: ``submit`` refuses it as an
    invoker and ``endorse`` as an endorser, each naming the role."""
    create = (LedgerAction.CREATE, CNT, (("terminal", "T1"),))
    with pytest.raises(RoleDenied) as denied:
        submit_by(world, net, "orderer-1", *create)
    assert str(denied.value) == "ORDERER is not a ledger role"
    pending = submit_by(world, net, "sl1-clerk", *create)
    with pytest.raises(IneligibleEndorser) as refused:
        endorse_by(world, net, pending, "orderer-1")
    assert str(refused.value) == "ORDERER is not an endorsing role"
    assert not pending.endorsements


def test_invoker_cannot_self_endorse(world, net):
    pending = submit_by(world, net, "sl1-clerk", LedgerAction.CREATE, CNT, (("terminal", "T1"),))
    with pytest.raises(IneligibleEndorser):
        endorse_by(world, net, pending, "sl1-clerk")


def test_acknowledge_endorsers(world):
    # the owning shipping line or the PCS may endorse, a foreign line may not
    for endorser, ok in (("sl1-clerk", True), ("pcs-op", True), ("sl2-clerk", False)):
        net = seeded_net(world, LifecycleState.CREATED)
        pending = submit_by(world, net, "t1-op", LedgerAction.ACKNOWLEDGE_DELIVERY)
        if ok:
            endorse_by(world, net, pending, endorser)
        else:
            with pytest.raises(IneligibleEndorser):
                endorse_by(world, net, pending, endorser)


def test_batch_double_spend_is_stale(world):
    net = seeded_net(world, LifecycleState.DELIVERED)
    first = submit_by(world, net, "pcs-op", LedgerAction.CLEAR)
    second = submit_by(world, net, "pcs-op", LedgerAction.CLEAR)
    endorse_by(world, net, first, "t1-op")
    endorse_by(world, net, second, "t1-op")
    res = commit(net, [first, second])
    assert res.block is not None
    assert len(res.block.transactions) == 1
    assert len(res.rejected) == 1
    assert isinstance(res.rejected[0][1], StaleTransaction)
    assert net.world_state[CNT].state is LifecycleState.CLEARED


def test_pending_goes_stale_across_commits(world):
    net = seeded_net(world, LifecycleState.CREATED)
    early = submit_by(world, net, "t1-op", LedgerAction.ACKNOWLEDGE_DELIVERY)
    endorse_by(world, net, early, "pcs-op")
    run_step(world, net, "t1-op", LedgerAction.ACKNOWLEDGE_DELIVERY, "pcs-op")
    res = commit(net, [early])
    assert res.block is None
    assert isinstance(res.rejected[0][1], StaleTransaction)


QUERY_ORACLE = {
    # reader: visible states (of SL1's box at T1)
    "sl1-clerk": {LifecycleState.CREATED, LifecycleState.DELIVERED,
                  LifecycleState.CLEARED, LifecycleState.LOADED},
    "sl2-clerk": set(),
    "t1-op": {LifecycleState.CREATED, LifecycleState.DELIVERED,
              LifecycleState.CLEARED, LifecycleState.LOADED},
    "t2-op": set(),
    "pcs-op": {LifecycleState.DELIVERED, LifecycleState.CLEARED},
    "customs-officer": set(),
    "pa-officer": set(),
}


def test_query_visibility_oracle(world):
    for state in list(LifecycleState):
        net = seeded_net(world, state)
        for reader, visible in QUERY_ORACLE.items():
            chain = world.chain_of(reader)
            if state in visible:
                assert query(net, chain, CNT).state is state
            else:
                with pytest.raises(NotVisible):
                    query(net, chain, CNT)
    with pytest.raises(UnknownContainer):
        query(seeded_net(world, None), world.chain_of("sl1-clerk"), CNT)


def test_export_round_trip(world, net):
    full_lifecycle(world, net)
    data = export_chain(net)
    parsed = parse_chain(data)
    assert parsed.orderer_identity == "orderer-1"
    assert parsed.blocks == tuple(net.chain)
    assert not parsed.baseline_state
    res = verify_exported(parsed)
    assert res.valid, res.reason


def test_export_is_deterministic(base_fixtures):
    """Two runs over one fixture set export the same bytes, each signing
    every block itself: the P-256 orderer signs with RFC 6979 nonces."""
    dumps = []
    for _ in range(2):
        envelope.sign.cache_clear()
        w = build_world(base_fixtures)
        n = build_net(w)
        full_lifecycle(w, n)
        dumps.append(export_chain(n))
    assert dumps[0] == dumps[1]
    assert parse_chain(dumps[0]).certs["orderer-1"].public_key.startswith(P256_SPKI_PREFIX)


def test_structural_tamper_is_detected(world, net):
    full_lifecycle(world, net)
    data = export_chain(net)

    def flip(payload, index):
        b = bytearray(payload)
        b[index] ^= 0x01
        return bytes(b)

    # one probe inside every record kind: header, anchor, cert, block
    # header, previous hash, orderer signature, txn body, endorsement
    probes = []
    for line_start, line in _lines(data):
        for marker, skip in ((b"LEDGER+", 9), (b"ANCHOR+", 8), (b"CERT+", 30),
                             (b"BLK+2+", 8), (b"TXN+", 5)):
            if line.startswith(marker.rstrip(b"+")) and len(line) > skip:
                probes.append(line_start + skip)
    assert len(probes) >= 5
    for pos in probes:
        mutated = flip(data, pos)
        try:
            res = verify_exported(parse_chain(mutated))
        except Exception:
            continue  # refusing to parse counts as detection
        assert not res.valid, f"byte {pos} went unnoticed"


def _lines(data):
    start = 0
    for line in data.split(b"\n"):
        if line:
            yield start, line
        start += len(line) + 1


def test_first_bad_block_is_localized(world, net):
    full_lifecycle(world, net)
    data = export_chain(net)
    # corrupt the prev-hash element of the LOAD block (index 4)
    target = None
    for start, line in _lines(data):
        if line.startswith(b"BLK+4+"):
            target = start + len(b"BLK+4+") + 2
    assert target is not None
    mutated = bytearray(data)
    mutated[target:target + 1] = b"A" if data[target:target + 1] != b"A" else b"B"
    res = verify_exported(parse_chain(bytes(mutated)))
    assert not res.valid
    assert res.first_bad_block == 4
    assert "previous-hash" in res.reason


def test_hand_edited_world_state_fails_audit(world, net):
    full_lifecycle(world, net)
    net.world_state[CNT] = ContainerAsset(CNT, LifecycleState.CREATED, "SL1", "T1")
    res = verify_chain(net)
    assert not res.valid
    assert "world state" in res.reason


def test_rollover_carries_state_and_commitment(world, net):
    full_lifecycle(world, net)
    fresh = rollover(net)
    assert len(fresh.chain) == 1
    assert fresh.chain[0].prev_hash != GENESIS_PREV
    assert fresh.world_state[CNT].state is LifecycleState.LOADED
    assert verify_chain(fresh).valid
    # the carried asset still answers queries under the same rules
    assert query(fresh, world.chain_of("sl1-clerk"), CNT).cnt_no == CNT
    with pytest.raises(NotVisible):
        query(fresh, world.chain_of("pcs-op"), CNT)


def test_rollover_baseline_round_trips(world, net):
    full_lifecycle(world, net)
    fresh = rollover(net)
    parsed = parse_chain(export_chain(fresh))
    assert parsed.baseline_state[CNT] == fresh.world_state[CNT]
    assert verify_exported(parsed).valid


def test_a_repeated_baseline_container_does_not_parse(world, net):
    full_lifecycle(world, net)
    data = export_chain(rollover(net))
    line = next(line for line in data.splitlines(keepends=True) if line.startswith(b"BASE+"))
    with pytest.raises(records.ParseError, match=f"repeated BASE record for {CNT}"):
        parse_chain(data.replace(line, line + line))


def test_forged_baseline_breaks_the_genesis_link(world, net):
    full_lifecycle(world, net)
    fresh = rollover(net)
    data = export_chain(fresh)
    cut = data.index(b"\nCERT+") + 1
    res = verify_exported(parse_chain(
        data[:cut] + records.encode("BASE", "C9", "CLEARED", "SL1", "T1") + b"\n" + data[cut:]
    ))
    assert (res.valid, res.first_bad_block, res.reason) == (False, 0, "previous-hash link broken")

    # the live net, with the asset slipped into its baseline and world state
    forged = ContainerAsset("C9", LifecycleState.CLEARED, "SL1", "T1")
    fresh.baseline_state["C9"] = fresh.world_state["C9"] = forged
    res = verify_chain(fresh)
    assert (res.valid, res.first_bad_block, res.reason) == (False, 0, "previous-hash link broken")


def test_anchor_hash_is_not_trusted(world, net):
    """Verification derives the genesis link from the BASE records, so a
    rewritten ANCHOR hash element does not break an honest chain."""
    full_lifecycle(world, net)
    data = export_chain(rollover(net))
    start = data.index(b"\nANCHOR+") + 1
    end = data.index(b"\n", start)
    anchor = records.encode("ANCHOR", "orderer-1", bytes(32))
    assert verify_exported(parse_chain(data[:start] + anchor + data[end:])).valid


def test_orderer_must_hold_the_orderer_role(world):
    assert world.fixtures.actors["orderer-1"] == ORDERER_ROLE
    net = create_net("sl1-clerk", world.key_pairs["sl1-clerk"], world.trust)
    for res in (verify_chain(net), verify_exported(parse_chain(export_chain(net)))):
        assert (res.valid, res.first_bad_block, res.reason) == (
            False, None, "sl1-clerk is not an orderer"
        )


def test_commit_error_types_are_ledger_errors():
    for exc in (ChainInvalidCert, RoleDenied, TenancyDenied, LifecycleDenied,
                DuplicateContainer, UnknownContainer, IneligibleEndorser,
                DuplicateEndorsement, InsufficientEndorsements, StaleTransaction,
                NotVisible):
        assert issubclass(exc, LedgerError)


# --- the orderer's chain, checked when a net is created ------------------------


def _refuse_orderer(world, refusal):
    """Make the trust view refuse ``orderer-1``'s chain; the reason it
    gives."""
    trust = world.trust
    leaf, ca, root = trust.chains["orderer-1"]
    if refusal == "revoked":
        trust.cas["ORD-CA"].revoke(leaf.serial)
        return f"Revoked: orderer-1 (serial {leaf.serial})"
    if refusal == "expired":
        trust.clock = leaf.not_after + 1
        return f"Expired: orderer-1 valid ({leaf.not_before}, {leaf.not_after})"
    if refusal == "broken-ca-signature":
        trust.chains["orderer-1"] = (leaf, replace(ca, org="ZZZ"), root)
        return "BrokenSignature: signature on ORD-CA"
    del trust.chains["orderer-1"]
    return "no certificate chain"


@pytest.mark.parametrize("make", ["create_net", "rollover"])
@pytest.mark.parametrize("refusal", ["revoked", "expired", "broken-ca-signature", "no-chain"])
def test_a_net_refuses_an_orderer_whose_chain_fails(world, net, make, refusal):
    """The orderer's chain meets the check an invoker's meets at submit,
    in the trust view as it is when the net is made: a rollover successor
    is checked again. A failure names the orderer, and no net is made."""
    if make == "rollover":
        full_lifecycle(world, net)
    reason = _refuse_orderer(world, refusal)
    with pytest.raises(ChainInvalidCert) as err:
        if make == "rollover":
            rollover(net)
        else:
            create_net("orderer-1", world.key_pairs["orderer-1"], world.trust)
    assert str(err.value).startswith(f"orderer orderer-1: {reason}")


def test_a_created_net_records_its_orderers_chain(world, counting_suite):
    """The links the orderer's chain check verified join the record, so a
    fresh net's and a fresh successor's first verify check no signature."""
    net = build_net(world)
    head = _live_head(net)
    assert sorted(head.certs) == ["ORD-CA", "PortRoot", "orderer-1"]
    assert _recorded(net, head) == list(head.certs)
    res, verifies = _verifies_during(counting_suite, lambda: verify_chain(net))
    assert res.valid and verifies == 0
    full_lifecycle(world, net)
    assert verify_chain(net).valid
    successor = rollover(net)
    res, verifies = _verifies_during(counting_suite, lambda: verify_chain(successor))
    assert res.valid and verifies == 0


def test_the_orderer_key_is_derived_once_per_key(world, net):
    """``_sign_block`` derives the public half of the key it signs with
    once, and again when the net signs with another key. The recorder
    shadows ``DEFAULT_SUITE.public_bytes`` for the test only."""
    for ident in ("sl1-clerk", "t1-op", "pcs-op"):
        world.key_pairs[ident].private  # loading a key derives its public half too
    derived = []
    public_bytes = DEFAULT_SUITE.public_bytes
    DEFAULT_SUITE.public_bytes = lambda key: derived.append(key) or public_bytes(key)
    try:
        full_lifecycle(world, net)
        assert derived == []  # create_net derived it for the genesis block
        net.orderer_key = world.key_pairs["t1-op"]
        full_lifecycle(world, net, cnt_no="MSCU7654321")
    finally:
        del DEFAULT_SUITE.public_bytes
    assert len(derived) == 1
    assert net._signing_key == (world.key_pairs["t1-op"].private,
                                world.chain_of("t1-op")[0].public_key)


# --- the live verified-prefix watermark ----------------------------------------


@pytest.fixture
def counted(world, counting_suite):
    """A world and net, counted, one lifecycle committed and verified, so
    the net holds a watermark over its five blocks."""
    net = build_net(world)
    full_lifecycle(world, net)
    assert verify_chain(net).valid
    return world, net


def _txn_verifies(blocks):
    """Signature checks the blocks' transactions need: per transaction the
    invoker's and one per endorsement."""
    return sum(1 + len(tx.endorsements) for b in blocks for tx in b.transactions)


def _block_verifies(blocks):
    """Signature checks the blocks need one by one: per block the
    orderer's and its transactions'. A verify that finds the chain valid
    checks the orderer's on the last block only."""
    return len(blocks) + _txn_verifies(blocks)


def _verifies_during(counts, call):
    before = counts.verifies
    res = call()
    return res, counts.verifies - before


def test_watermark_checks_only_new_blocks(counted, counting_suite):
    """Only the new blocks are checked, and none of their signatures for
    real: submit and commit checked the invokers' and endorsements' on this
    net, and commit made the orderer's."""
    world, net = counted
    checked = len(net.chain)
    full_lifecycle(world, net, cnt_no="MSCU7654321")
    res, verifies = _verifies_during(counting_suite, lambda: verify_chain(net))
    assert res.valid, res.reason
    assert len(net.chain) - checked == 4
    assert verifies == 0


def test_watermark_sees_a_replaced_checked_block(counted):
    _, net = counted
    old = net.chain[2]
    net.chain[2] = replace(old, orderer_signature=bytes([old.orderer_signature[0] ^ 1])
                           + old.orderer_signature[1:])
    res = verify_chain(net)
    assert not res.valid
    assert res.first_bad_block == 2


def test_watermark_still_compares_world_state(counted):
    _, net = counted
    net.world_state[CNT] = ContainerAsset(CNT, LifecycleState.CREATED, "SL1", "T1")
    res = verify_chain(net)
    assert not res.valid
    assert "world state" in res.reason


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_a_plain_tuple_of_the_fields_is_no_asset(counted, warm):
    """An asset equals only an asset: a world state entry replaced by a
    plain tuple of the same fields fails the replay comparison."""
    _, net = counted
    asset = net.world_state[CNT]
    fields = (asset.cnt_no, asset.state, asset.shipping_line, asset.terminal)
    assert asset != fields and fields != asset and not asset == fields
    net.world_state[CNT] = fields
    if not warm:
        net._verified = None
    res = verify_chain(net)
    assert (res.valid, res.first_bad_block, res.reason) == (
        False, None, "world state does not match replay")


def test_watermark_with_no_new_block(counted, counting_suite):
    world, net = counted
    res, verifies = _verifies_during(counting_suite, lambda: verify_chain(net))
    assert res.valid, res.reason
    assert verifies == 0


def test_offline_verify_ignores_the_watermark(counted, counting_suite):
    world, net = counted
    exported = parse_chain(export_chain(net))
    res, verifies = _verifies_during(counting_suite, lambda: verify_exported(exported))
    assert res.valid, res.reason
    assert verifies == len(exported.certs) + _txn_verifies(net.chain) + 1


# --- the net's record of passed signature checks -------------------------------


def _recorded(net, head):
    """Subjects of ``head``'s certificates whose signature check the net's
    record holds."""
    return [c.subject for c in head.certs.values()
            if ledger._link_check(c, head.certs[c.issuer]) in net._passed]


def _live_head(net):
    return ledger._head(net, ledger._referenced(net.chain))


def test_offline_verify_ignores_the_record(counted, counting_suite):
    """The export of a net whose record holds the new blocks' checks and
    the head's certificate links is still checked in full: no record
    outlives its net."""
    world, net = counted
    full_lifecycle(world, net, cnt_no="MSCU7654321")
    # an invoker, an endorsement and an orderer per new block, then the
    # links of the three actors' chains: three leaves, three CAs, the root
    assert len(net._passed) == 12 + 7
    assert len(_recorded(net, _live_head(net))) == 7
    exported = parse_chain(export_chain(net))
    res, verifies = _verifies_during(counting_suite, lambda: verify_exported(exported))
    assert res.valid, res.reason
    assert verifies == len(exported.certs) + _txn_verifies(net.chain) + 1


def test_a_cold_verify_runs_only_the_checks_the_record_lacks(counted, counting_suite):
    """With the watermark gone, the transactions of the blocks checked
    before it and the head certificates no submit or endorsement recorded
    (the orderer's and its CA's) are checked again; the new blocks' checks,
    the last block's orderer signature, which vouches for the earlier
    blocks, and the other certificate links are read from the record."""
    world, net = counted
    checked = len(net.chain)
    full_lifecycle(world, net, cnt_no="MSCU7654321")
    net._verified = None
    head = _live_head(net)
    lacking = len(head.certs) - len(_recorded(net, head))
    assert lacking == 2
    res, verifies = _verifies_during(counting_suite, lambda: verify_chain(net))
    assert res.valid, res.reason
    assert verifies == lacking + _txn_verifies(net.chain[:checked])


def test_only_a_valid_verify_empties_the_record(world, net):
    full_lifecycle(world, net)
    assert net._passed
    state, net.world_state = net.world_state, {}
    assert not verify_chain(net).valid
    assert net._passed
    net.world_state = state
    assert verify_chain(net).valid
    assert not net._passed


def _chain_links(net):
    """The record entry of each certificate link on each chain of the
    trust view."""
    return {ledger._link_check(*link) for chain in net.trust.chains.values()
            for link in net.trust.check(chain).links}


def test_every_recorded_check_verifies_again(world, net):
    """The record holds only checks that pass: each entry, the certificate
    links create_net, submit and endorse recorded among them, verifies
    again."""
    full_lifecycle(world, net)
    # the seven links of the three actors' chains, then the orderer's and ORD-CA's
    assert len(net._passed & _chain_links(net)) == 9
    assert all(DEFAULT_SUITE.verify(*check) for check in net._passed)


def test_a_query_records_nothing(world, net):
    """A reader's chain check passes without entering the record: a
    reader's certificates reach the head only when it also acts."""
    full_lifecycle(world, net)
    assert verify_chain(net).valid
    assert query(net, world.chain_of("sl1-clerk"), CNT).state is LifecycleState.LOADED
    assert not net._passed


def _replace_certificate(net, old, new):
    """``new`` in place of ``old`` on every chain of the net's trust view."""
    net.trust.chains.update({
        ident: tuple(new if cert == old else cert for cert in chain)
        for ident, chain in net.trust.chains.items()
    })


@pytest.mark.parametrize("subject", ["t1-op", "T1-CA", "PortRoot"])
@pytest.mark.parametrize("edit", [
    lambda cert: replace(cert, not_after=cert.not_after + 1),
    lambda cert: replace(cert, signature=_flip(cert.signature)),
], ids=["body", "signature"])
def test_an_edited_recorded_certificate_fails_at_the_head(world, net, subject, edit):
    """A head certificate whose link a submit or an endorsement recorded,
    changed in the trust view afterwards, misses the record: the cold
    live verify fails at the head, as the offline one does."""
    full_lifecycle(world, net)
    head = _live_head(net)
    assert subject in _recorded(net, head)
    _replace_certificate(net, head.certs[subject], edit(head.certs[subject]))
    reason = f"{subject}: certificate signature broken"
    for res in (verify_chain(net), verify_exported(parse_chain(export_chain(net)))):
        assert (res.valid, res.first_bad_block, res.reason) == (False, None, reason)


def _gain_an_identity(world, net):
    """One lifecycle committed and verified, then sl2-clerk's CREATE
    endorsed by t2-op: the head held at the watermark, and the head now."""
    full_lifecycle(world, net)
    assert verify_chain(net).valid
    assert not net._passed
    run_step(world, net, "sl2-clerk", LedgerAction.CREATE, "t2-op", "MSCU7654321",
             (("terminal", "T2"),))
    return net._verified.head, _live_head(net)


def test_a_head_that_gained_an_identity_reads_only_what_was_recorded_since(
        world, net, checked_signatures):
    """After a valid verify empties the record, a head that only gained
    identities keeps the watermark: the next verify checks none of the
    earlier blocks' signatures and none of the old head's certificates,
    and reads the new certificates' links, which the later submit and
    endorsement recorded, from the record."""
    old, head = _gain_an_identity(world, net)
    assert head != old and net._verified.kept_by(head)  # the head only grew
    recorded = _recorded(net, head)
    assert sorted(recorded) == ["PortRoot", "SL2-CA", "T2-CA", "sl2-clerk", "t2-op"]
    assert sorted(head.certs.keys() - old.certs.keys()) == ["SL2-CA", "T2-CA", "sl2-clerk",
                                                            "t2-op"]
    checked_signatures.clear()
    assert verify_chain(net).valid
    assert checked_signatures == []


def test_a_grown_head_checks_its_new_certificates(world, net, checked_signatures):
    """A new certificate whose link the record lacks is checked for real,
    and an edited one fails at the head; the old head's certificates and
    the earlier blocks are not checked again."""
    old, head = _gain_an_identity(world, net)
    gained = [c for c in head.certs.values() if c.subject not in old.certs]
    net._passed -= {ledger._link_check(c, head.certs[c.issuer]) for c in gained}
    checked_signatures.clear()
    assert verify_chain(net).valid
    assert checked_signatures == [c.signature for c in gained]

    net = build_net(world)
    _, head = _gain_an_identity(world, net)
    cert = head.certs["t2-op"]
    _replace_certificate(net, cert, replace(cert, not_after=cert.not_after + 1))
    assert net._verified.kept_by(_live_head(net))  # t2-op's certificate is new
    res = verify_chain(net)
    assert (res.valid, res.first_bad_block, res.reason) == (
        False, None, "t2-op: certificate signature broken")


def _txn_signatures(blocks):
    """Every signature the transactions of ``blocks`` carry: each
    invoker's and endorser's."""
    return [s for b in blocks for tx in b.transactions
            for s in (tx.invoker_signature, *(e for _, e in tx.endorsements))]


@pytest.mark.parametrize("subject", ["t1-op", "T1-CA"])
def test_an_edited_old_certificate_fails_at_the_head(world, net, subject):
    """A head that grew but holds a checked certificate edited since is
    checked from the start, and fails at the head, as offline."""
    _, head = _gain_an_identity(world, net)
    cert = head.certs[subject]
    _replace_certificate(net, cert, replace(cert, not_after=cert.not_after + 1))
    assert not net._verified.kept_by(_live_head(net))
    reason = f"{subject}: certificate signature broken"
    for res in (verify_chain(net), verify_exported(parse_chain(export_chain(net)))):
        assert (res.valid, res.first_bad_block, res.reason) == (False, None, reason)


def test_a_reissued_old_certificate_forces_the_full_check(world, net, checked_signatures):
    """A valid re-issue of a checked CA certificate changes its bytes, so
    the next verify starts at block 0: it checks the earlier blocks'
    transaction signatures and every head certificate the record lacks for
    real. The last block's orderer signature, which the record holds,
    vouches for the earlier blocks'."""
    _gain_an_identity(world, net)
    earlier = _txn_signatures(net._verified.blocks)
    cert = net.trust.chains["t1-op"][1]
    assert cert.subject == "T1-CA"
    reissued = world.trust.cas[cert.issuer].issue(
        cert.subject, cert.org, cert.role, cert.public_key, (cert.not_before, cert.not_after))
    _replace_certificate(net, cert, reissued)
    head = _live_head(net)
    assert not net._verified.kept_by(head)
    lacking = [c.signature for c in head.certs.values() if c.subject not in _recorded(net, head)]
    assert reissued.signature in lacking
    checked_signatures.clear()
    assert verify_chain(net).valid
    assert checked_signatures == lacking + earlier


@pytest.fixture
def checked_signatures():
    """The signatures the one suite really checks, in call order. The
    recorder shadows ``DEFAULT_SUITE.verify`` for the test only."""
    calls = []
    check = DEFAULT_SUITE.verify

    def counted(public, payload, sig):
        calls.append(sig)
        return check(public, payload, sig)

    DEFAULT_SUITE.verify = counted
    yield calls
    del DEFAULT_SUITE.verify


@pytest.mark.parametrize("broken", ["invoker", "endorsement"])
def test_a_failed_check_is_never_recorded(world, net, checked_signatures, broken):
    """A signature that failed at submit or commit, ordered into a block by
    hand, is checked again, and fails, on every verify."""
    tx, chain = make_tx(world, "sl1-clerk", LedgerAction.CREATE, CNT, (("terminal", "T1"),))
    if broken == "invoker":
        tx = replace(tx, invoker_signature=_flip(tx.invoker_signature))
        with pytest.raises(ChainInvalidCert):
            submit(net, tx, chain)
        pending = endorse_by(world, net, PendingTransaction(tx, None), "t1-op")  # past submit
        bad, reason = tx.invoker_signature, f"invoker signature broken on {CNT}"
    else:
        pending = endorse_by(world, net, submit(net, tx, chain), "t1-op")
        ident, sig = pending.endorsements[0]
        pending.endorsements[0] = (ident, _flip(sig))
        assert commit(net, [pending]).block is None
        bad, reason = _flip(sig), "endorsement by t1-op broken"
    assert checked_signatures.count(bad) == 1
    order_by_hand(net, pending.endorsed())
    for _ in range(2):
        res = verify_chain(net)
        assert (res.valid, res.first_bad_block, res.reason) == (False, 1, reason)
    assert checked_signatures.count(bad) == 3


def _reissue_key(world, net, ident, key_of):
    """Give ``ident``'s directory certificate ``key_of``'s public key, signed
    by its CA under the same serial."""
    old, *chain = net.trust.chains[ident]
    unsigned = replace(old, public_key=net.trust.chains[key_of][0].public_key)
    ca_key = world.trust.cas[old.issuer].key_pair.private
    net.trust.chains[ident] = (replace(unsigned, signature=DEFAULT_SUITE.sign(
        ca_key, DEFAULT_SUITE.digest(unsigned.body_bytes())
    )), *chain)


def _edit_last_transaction(edit):
    """A tamper that re-orders the last block with its transaction edited."""
    def apply(world, net):
        last = net.chain.pop()
        tx, = last.transactions
        order_by_hand(net, edit(tx))
    return apply


@pytest.mark.parametrize("tamper, block, reason", [
    (lambda world, net: _reissue_key(world, net, "t1-op", "t2-op"), 1,
     "endorsement by t1-op broken"),
    (_edit_last_transaction(lambda tx: replace(
        tx, invoker_signature=_flip(tx.invoker_signature))), 4,
     f"invoker signature broken on {CNT}"),
    (_edit_last_transaction(lambda tx: replace(
        tx, endorsements=((tx.endorsements[0][0], _flip(tx.endorsements[0][1])),))), 4,
     "endorsement by pcs-op broken"),
], ids=["reissued-key", "invoker-signature", "endorsement-signature"])
def test_the_record_misses_every_changed_byte(world, net, tamper, block, reason):
    """Each check a committed block needs was recorded at submit and commit;
    a changed key or signature misses the record and fails at its block,
    live as offline."""
    full_lifecycle(world, net)
    # the genesis signature, then three per block, then the seven links of
    # sl1-clerk's, t1-op's and pcs-op's chains and the orderer's and ORD-CA's
    assert len(net._passed) == 13 + 9
    tamper(world, net)
    for res in (verify_chain(net), verify_exported(parse_chain(export_chain(net)))):
        assert (res.valid, res.first_bad_block, res.reason) == (False, block, reason)


@pytest.mark.parametrize("swap", ["orderer-key", "directory-certificate"])
def test_the_record_holds_no_directory_key(world, swap):
    """Block signatures enter the record under the key that made them: a
    net whose orderer key is not the one on the orderer's directory
    certificate fails at its genesis block, live as offline."""
    if swap == "orderer-key":
        net = create_net("orderer-1", world.key_pairs["sl1-clerk"], world.trust)
    else:
        net = build_net(world)
        _reissue_key(world, net, "orderer-1", "t1-op")
    assert net._passed
    for res in (verify_chain(net), verify_exported(parse_chain(export_chain(net)))):
        assert (res.valid, res.first_bad_block, res.reason) == (
            False, 0, "orderer signature broken"
        )


def test_a_block_signed_with_another_key_fails_at_that_block(world, net):
    """A block that the net signed with another valid key (``t1-op``'s)
    misses the record, live on a warm net as offline."""
    full_lifecycle(world, net)
    assert verify_chain(net).valid
    orderer_key, net.orderer_key = net.orderer_key, world.key_pairs["t1-op"]
    try:
        run_step(world, net, "sl1-clerk", LedgerAction.CREATE, "t1-op", "MSCU7654321",
                 (("terminal", "T1"),))
    finally:
        net.orderer_key = orderer_key
    for res in (verify_chain(net), verify_exported(parse_chain(export_chain(net)))):
        assert (res.valid, res.first_bad_block, res.reason) == (
            False, 5, "orderer signature broken"
        )


@pytest.mark.parametrize("scenario", ["export", "import"])
def test_a_cold_verify_checks_only_the_head(base_fixtures, counting_suite, monkeypatch,
                                            scenario):
    """A ledger scenario's one ``verify_chain`` runs cold over blocks the
    net signed and checked itself and over certificate links that
    ``create_net``, its submits and its endorsements checked: every head
    certificate is in the record, so it makes no signature verification."""
    calls = []

    def counted(net):
        head = _live_head(net)
        recorded = _recorded(net, head)
        unrecorded = [subject for subject in head.certs if subject not in recorded]
        res, verifies = _verifies_during(counting_suite, lambda: verify_chain(net))
        calls.append((res, verifies, unrecorded))
        return res

    monkeypatch.setattr(sim, "verify_chain", counted)
    run_scenario(base_fixtures, scenario, "ledger")
    [(res, verifies, unrecorded)] = calls
    assert res.valid, res.reason
    assert unrecorded == []
    assert verifies == 0


@pytest.mark.parametrize("scenario, checks", [("export", 18), ("import", 16)])
def test_an_offline_verify_of_a_scenario_checks_every_signature(base_fixtures, counting_suite,
                                                                scenario, checks):
    """The export of a ledger scenario's net is checked in full, whatever
    the net recorded: each head certificate, each invoker and endorsement,
    and the last block's orderer signature."""
    net = run_scenario(base_fixtures, scenario, "ledger").net
    exported = parse_chain(export_chain(net))
    res, verifies = _verifies_during(counting_suite, lambda: verify_exported(exported))
    assert res.valid, res.reason
    assert verifies == len(exported.certs) + _txn_verifies(net.chain) + 1 == checks


def test_each_transaction_digest_is_hashed_once(world, counting_suite):
    """``build_transaction`` hashes the body it signs, the transaction its
    own body and endorsement payload, and ``commit`` the block's two
    digests; submit, endorse, commit and the live verify read them back."""
    net = build_net(world)

    def step(cnt_no):
        tx, chain = build_transaction(LedgerAction.CREATE, cnt_no, (("terminal", "T1"),),
                                      world.chain_of("sl1-clerk"), world.key_pairs["sl1-clerk"])
        pending = endorse_by(world, net, submit(net, tx, chain), "t1-op")
        assert commit(net, [pending]).block is not None

    step(CNT)  # the certificate links are checked, and remembered, once
    assert verify_chain(net).valid
    before = counting_suite.digests
    step("MSCU7654321")
    assert verify_chain(net).valid
    assert counting_suite.digests - before == 5


def test_replace_forgets_the_transaction_digests(world):
    tx, _ = make_tx(world, "sl1-clerk", LedgerAction.CREATE, CNT, (("terminal", "T1"),))
    ledger._tx_digests(tx)
    assert tx._memo is not None
    edited = replace(tx, cnt_no="MSCU7654321")
    assert edited._memo is None
    assert ledger._tx_digests(edited) == (
        DEFAULT_SUITE.digest(edited.body_bytes()),
        DEFAULT_SUITE.digest(edited.body_bytes() + edited.invoker_signature),
    )
    # no digest covers the endorsements, so an endorsed copy keeps them
    assert PendingTransaction(tx, None, [("t1-op", b"sig")]).endorsed()._memo is tx._memo


# --- the live head, built from the net's own objects ---------------------------


def test_object_head_equals_the_parsed_export_head():
    """The head ``verify_chain`` builds is the head ``verify_exported``
    checks: the export parsed back, without its blocks."""
    fixtures = fixtures_from_bytes(FIXTURES.read_bytes())
    for scenario in ("export", "import"):
        net = run_scenario(fixtures, scenario, "ledger").net
        for checked in (net, rollover(net)):  # the successor has a baseline
            assert verify_chain(checked).valid
            parsed = parse_chain(export_chain(checked))
            assert checked._verified.head == replace(parsed, blocks=()), scenario


def test_live_verify_neither_encodes_nor_parses_the_head(counted, monkeypatch):
    world, net = counted

    def refuse(*_):
        raise AssertionError("verify_chain encoded or parsed its head")

    for name in ("parse_chain", "export_chain", "cert_to_wire"):
        monkeypatch.setattr(ledger, name, refuse)
    full_lifecycle(world, net, cnt_no="MSCU7654321")
    assert verify_chain(net).valid  # warm
    net._verified = None
    assert verify_chain(net).valid  # cold


def test_warm_call_compares_the_head_by_value(counted, counting_suite):
    world, net = counted
    entry = net.trust.chains["t1-op"]
    net.trust.chains["t1-op"] = (replace(entry[0]), *entry[1:])  # an equal, new object
    try:
        res, verifies = _verifies_during(counting_suite, lambda: verify_chain(net))
    finally:
        net.trust.chains["t1-op"] = entry
    assert res.valid, res.reason
    assert verifies == 0


def test_warm_call_sees_an_in_place_directory_swap(world, net):
    full_lifecycle(world, net)
    assert verify_chain(net).valid
    old, *chain = net.trust.chains["sl1-clerk"]
    reissued = world.trust.cas[old.issuer].issue(
        old.subject, old.org, old.role, old.public_key, (old.not_before, old.not_after)
    )
    net.trust.chains["sl1-clerk"] = (reissued, *chain)
    res = verify_chain(net)
    assert (res.valid, res.first_bad_block, res.reason) == (
        False, 1, "invoker sl1-clerk differs from its certificate record"
    )


def test_warm_call_sees_an_in_place_baseline_edit(world, net):
    full_lifecycle(world, net)
    successor = rollover(net)
    assert verify_chain(successor).valid
    successor.baseline_state[CNT] = successor.baseline_state[CNT]._replace(terminal="T2")
    res = verify_chain(successor)
    assert (res.valid, res.first_bad_block, res.reason) == (False, 0, "previous-hash link broken")


@pytest.mark.parametrize("edit", [{"org": "T1\n"}, {"role": "C\rA"}, {"not_before": -1}],
                         ids=["line-break", "carriage-return", "negative"])
def test_head_refuses_a_certificate_the_file_cannot_carry(world, net, edit):
    """A CA certificate, genuinely signed, that the chain file cannot carry:
    the export does not parse, and the live verifier says so instead of
    passing a head no file can hold."""
    full_lifecycle(world, net)
    leaf, ca, root = net.trust.chains["t1-op"]
    unsigned = replace(ca, **edit)
    root_key = world.trust.cas[root.subject].key_pair.private
    forged = replace(unsigned, signature=DEFAULT_SUITE.sign(
        root_key, DEFAULT_SUITE.digest(unsigned.body_bytes())
    ))
    net.trust.chains["t1-op"] = (leaf, forged, root)
    res = verify_chain(net)
    assert (res.valid, res.first_bad_block, res.reason) == (
        False, None, f"{forged.subject!r}: not a chain file record"
    )
    with pytest.raises(records.ParseError):
        parse_chain(export_chain(net))


@pytest.mark.parametrize("key, asset", [
    (CNT, ContainerAsset(CNT, LifecycleState.CREATED, "SL1", "T1\n")),
    (CNT, ContainerAsset(CNT, LifecycleState.CREATED, "SL\r1", "T1")),
    ("CNT\n1", ContainerAsset("CNT\n1", LifecycleState.CREATED, "SL1", "T1")),
    ("OTHER", ContainerAsset(CNT, LifecycleState.CREATED, "SL1", "T1")),
], ids=["terminal", "shipping-line", "container", "key"])
def test_create_net_refuses_a_baseline_the_file_cannot_carry(world, key, asset):
    """The export keys each BASE record by its container number and keeps
    one record per line, so any other baseline would not parse back."""
    with pytest.raises(MalformedTransaction, match="cannot carry baseline entry"):
        create_net("orderer-1", world.key_pairs["orderer-1"], world.trust,
                   baseline_state={key: asset})


# --- each block encoded once -----------------------------------------------------


@pytest.fixture
def txn_lines(monkeypatch):
    """The transactions ``ledger._txn_line`` encodes, in call order."""
    calls = []
    encode = ledger._txn_line

    def counted(tx):
        calls.append(tx)
        return encode(tx)

    monkeypatch.setattr(ledger, "_txn_line", counted)
    return calls


def test_commit_encodes_each_new_transaction_once(world, net, txn_lines):
    full_lifecycle(world, net)
    assert txn_lines == [b.transactions[0] for b in net.chain[1:]]
    txn_lines.clear()
    pendings = []
    for cnt_no in ("MSCU7654321", "MAEU1111111"):
        pending = submit_by(world, net, "sl1-clerk", LedgerAction.CREATE, cnt_no,
                            (("terminal", "T1"),))
        pendings.append(endorse_by(world, net, pending, "t1-op"))
    block = commit(net, pendings).block
    assert txn_lines == list(block.transactions)


def test_live_verifier_encodes_no_block(world, net, txn_lines):
    """A cold and a warm live verify read the digests commit remembered."""
    full_lifecycle(world, net)
    txn_lines.clear()
    assert verify_chain(net).valid  # cold
    full_lifecycle(world, net, cnt_no="MSCU7654321")
    txn_lines.clear()
    assert verify_chain(net).valid  # warm, over four new blocks
    assert txn_lines == []


def test_offline_verifier_encodes_no_parsed_block(world, net, txn_lines):
    """A parsed block remembers the digests of the records it was read
    from, so neither its first verify nor a second encodes it again."""
    full_lifecycle(world, net)
    parsed = parse_chain(export_chain(net))
    txn_lines.clear()
    assert verify_exported(parsed).valid
    assert txn_lines == []
    assert verify_exported(parsed).valid
    assert txn_lines == []


@pytest.fixture
def encoded(monkeypatch):
    """The tag of each ``records.encode`` call, in call order."""
    calls = []
    encode = records.encode

    def counted(tag, *elems):
        calls.append(tag)
        return encode(tag, *elems)

    monkeypatch.setattr(records, "encode", counted)
    return calls


def test_parse_chain_encodes_nothing(world, net, encoded):
    """Parsing an export encodes no record, and neither does its offline
    verify: each parsed certificate remembers the body digest of the record
    it was read from, which is the digest of its canonical encoding. A
    ``replace`` copy hashes its own bytes again."""
    full_lifecycle(world, net)
    data = export_chain(net)
    encoded.clear()
    parsed = parse_chain(data)
    assert encoded == []
    assert verify_exported(parsed).valid
    assert encoded == []
    for cert in parsed.certs.values():
        copy = replace(cert)
        assert copy._digest is None
        assert copy.body_digest() == cert._digest
    assert encoded == ["CERT"] * len(parsed.certs)


def test_an_offline_check_holds_the_chain_file_once(world, net):
    """``export_chain`` allocates the file once, not a copy of its blocks
    and then the file (2.1 times its size on this chain), and
    ``parse_chain`` holds no list of the file's lines beside the file
    (1.14 times its size): each peaks near what it returns."""
    for i in range(25):
        full_lifecycle(world, net, cnt_no=f"COSU{i:07d}")
    assert len(net.chain) == 101
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = export_chain(net)
        peak = tracemalloc.get_traced_memory()[1] - before
        assert peak < 1.5 * len(data)
        tracemalloc.reset_peak()
        parsed = parse_chain(data)
        kept, peak = tracemalloc.get_traced_memory()
        assert peak - kept < len(data) / 4
    finally:
        tracemalloc.stop()
    assert len(parsed.blocks) == 101


def _content_edit(block):
    tx, *rest = block.transactions
    return replace(block, transactions=(replace(tx, cnt_no=tx.cnt_no + "X"), *rest))


def _committed(world, net):
    """A net after one lifecycle that ``commit`` ordered."""
    full_lifecycle(world, net)
    return net


def _ordered_by_hand(world, net):
    """A net after one committed lifecycle and a CREATE that
    ``order_by_hand`` signed, ``commit``'s checks skipped."""
    full_lifecycle(world, net)
    pending = submit_by(world, net, "sl1-clerk", LedgerAction.CREATE, "MSCU7654321",
                        (("terminal", "T1"),))
    order_by_hand(net, endorse_by(world, net, pending, "t1-op").endorsed())
    return net


def _rolled_over(world, net):
    """The successor of a net after one lifecycle, after a lifecycle of
    its own: its genesis links to a baseline that holds the first box."""
    full_lifecycle(world, net)
    successor = rollover(net)
    full_lifecycle(world, successor, cnt_no="MSCU7654321")
    return successor


@pytest.mark.parametrize("build", [_committed, _ordered_by_hand, _rolled_over],
                         ids=["commit", "order_by_hand", "rollover"])
def test_kept_bytes_never_outlive_their_fields(world, net, encoded, build):
    """Each block ``_sign_block`` made keeps the bytes it signed, so an
    export encodes only its head records; the kept bytes are the block's
    own encoding, so a chain of ``replace`` copies exports the same bytes.
    A block swapped in by ``replace`` keeps none: the export holds its own
    re-encoded bytes, which fail offline verification at that block."""
    net = build(world, net)
    encoded.clear()
    data = export_chain(net)
    parsed = parse_chain(data)
    assert encoded == ["LEDGER", "ANCHOR", *["BASE"] * len(net.baseline_state),
                       *["CERT"] * len(parsed.certs)]
    assert all(block._bytes == block_bytes(replace(block)) for block in net.chain)
    assert export_chain(replace(net, chain=[replace(b) for b in net.chain])) == data
    assert verify_exported(parsed).valid

    i = len(net.chain) - 1 if build is _ordered_by_hand else 2
    swapped = _content_edit(net.chain[i])
    assert swapped._bytes is None
    kept, net.chain[i] = net.chain[i], swapped
    encoded.clear()
    try:
        edited = export_chain(net)
    finally:
        net.chain[i] = kept
    assert encoded.count("BLK") == 1 and encoded.count("TXN") == 1
    assert block_bytes(swapped) in edited and kept._bytes not in edited
    res = verify_exported(parse_chain(edited))
    assert (res.valid, res.first_bad_block, res.reason) == (False, i, "orderer signature broken")


def test_blocks_and_transactions_hold_no_dict(world, net):
    """A block and its transactions keep their fields in slots, committed
    or parsed, so the bytes a committed block keeps are most of what it
    adds."""
    full_lifecycle(world, net)
    for block in (net.chain[-1], parse_chain(export_chain(net)).blocks[-1]):
        assert not hasattr(block, "__dict__")
        assert not any(hasattr(tx, "__dict__") for tx in block.transactions)


def test_a_parsed_block_hashes_its_orderer_payload_when_it_is_checked(world, long_net):
    """Verifying a parsed honest chain hashes no orderer payload but the
    last block's, which the parse hashed; a link broken at block 3 checks
    the orderer signatures of the blocks before it, and hashes those
    payloads then."""
    parsed = parse_chain(export_chain(long_net))
    assert verify_exported(parsed).valid
    hashed = [b._memo[0] is not None for b in parsed.blocks]
    assert hashed == [False] * (len(hashed) - 1) + [True]

    block = long_net.chain[3]
    chain = [*long_net.chain[:3], replace(block, prev_hash=_flip(block.prev_hash)),
             *long_net.chain[4:]]
    parsed = parse_chain(export_chain(replace(long_net, chain=chain)))
    res = verify_exported(parsed)
    assert (res.valid, res.first_bad_block, res.reason) == (False, 3, "previous-hash link broken")
    hashed = [b._memo[0] is not None for b in parsed.blocks]
    assert hashed == [True] * 3 + [False] * (len(hashed) - 4) + [True]
    assert [ledger._digests(b) for b in parsed.blocks] == [ledger._digests(b) for b in chain]


@pytest.mark.parametrize("edit, reason", [
    (lambda b: replace(b, prev_hash=_flip(b.prev_hash)), "previous-hash link broken"),
    (lambda b: replace(b, orderer_signature=_flip(b.orderer_signature)),
     "orderer signature broken"),
    (_content_edit, "orderer signature broken"),
], ids=["prev_hash", "orderer_signature", "transactions"])
def test_a_replaced_block_forgets_its_digests(world, net, edit, reason):
    """``replace`` builds a block without the digests of the one it copies,
    so both verifiers check the forgery's own bytes, whether the original
    was committed or parsed and verified."""
    full_lifecycle(world, net)
    parsed = parse_chain(export_chain(net))
    assert verify_exported(parsed).valid  # the parsed blocks now remember their digests
    for blocks in (net.chain, parsed.blocks):
        edited = [*blocks[:2], edit(blocks[2]), *blocks[3:]]
        live = verify_chain(replace(net, chain=edited))
        offline = verify_exported(replace(parsed, blocks=tuple(edited)))
        for res in (live, offline):
            assert (res.valid, res.first_bad_block, res.reason) == (False, 2, reason)


def test_a_parsed_block_encoded_again_has_the_committed_digests(world, net, txn_lines):
    """The digests a parsed block remembers from its records, and the
    digests of its canonical encoding once ``replace`` has dropped them,
    equal the ones commit hashed from the lines it signed."""
    full_lifecycle(world, net)
    parsed = parse_chain(export_chain(net))
    committed = [ledger._digests(b) for b in net.chain]
    assert [ledger._digests(b) for b in parsed.blocks] == committed
    txn_lines.clear()
    assert [ledger._digests(replace(b)) for b in parsed.blocks] == committed
    assert txn_lines == [tx for b in parsed.blocks for tx in b.transactions]


# --- differential: the live verifier against the offline one -------------------

#: Text for container numbers and notes: the record separators and release
#: character, non-ASCII letters, and line breaks, which submit refuses.
_text = st.text(alphabet="AZ09 +'?é€中", max_size=6) | st.text(alphabet="A+é\n\r", max_size=3)
_op = st.one_of(
    st.tuples(st.just("new"), _text, _text),  # CREATE with this number and note
    st.tuples(st.just("next"), st.integers(0, 7)),  # advance a container not yet loaded
)

#: Honest lifecycle step per container state: action, invoker, endorser.
NEXT_STEP = {
    None: (LedgerAction.CREATE, "sl1-clerk", "t1-op"),
    LifecycleState.CREATED: (LedgerAction.ACKNOWLEDGE_DELIVERY, "t1-op", "pcs-op"),
    LifecycleState.DELIVERED: (LedgerAction.CLEAR, "pcs-op", "t1-op"),
    LifecycleState.CLEARED: (LedgerAction.LOAD, "t1-op", "pcs-op"),
}


@pytest.fixture(scope="module")
def shared_world(base_fixtures):
    return build_world(base_fixtures)


def _pending_for(world, net, op, created):
    """Submit and endorse ``op``'s next step, or None when it has none."""
    if op[0] == "new":
        cnt_no, args = op[1], (("terminal", "T1"), ("note", op[2]))
        if any(c in cnt_no + op[2] for c in "\r\n"):
            with pytest.raises(MalformedTransaction):
                submit_by(world, net, "sl1-clerk", LedgerAction.CREATE, cnt_no, args)
            return None
        if cnt_no in net.world_state:
            return None
    else:
        moving = [c for c in created if net.world_state[c].state is not LifecycleState.LOADED]
        if not moving:
            return None
        cnt_no, args = moving[op[1] % len(moving)], ()
    asset = net.world_state.get(cnt_no)
    action, invoker, endorser = NEXT_STEP[asset.state if asset else None]
    return endorse_by(world, net, submit_by(world, net, invoker, action, cnt_no, args), endorser)


def _warm_verify(net, chain, k, states):
    """``verify_chain`` of ``net`` holding ``chain`` after a valid call
    covered ``chain[:k]``, and whether the head it resumes under gained
    certificates over the one that call checked."""
    warm_net = replace(net, chain=list(chain[:k]), world_state=states[k])
    assert verify_chain(warm_net).valid
    warm_net.chain[k:] = chain[k:]
    warm_net.world_state = net.world_state
    seen, head = warm_net._verified, _live_head(warm_net)
    assert seen.kept_by(head)  # an edited block names the same identities
    return verify_chain(warm_net), head != seen.head


def _verdicts(net, chain, k, states):
    """(valid, first bad block, reason) of a cold ``verify_chain``, of a
    warm one whose last valid call covered ``chain[:k]``, of a warm one
    whose head grew since its last valid call, and of ``verify_exported``
    on the export, for ``net`` holding ``chain``. The grown one's last
    valid call covered at most ``chain[:2]``, whose head lacks pcs-op's
    chain: block 2 is the first that pcs-op endorses."""
    cold = verify_chain(replace(net, chain=list(chain)))
    warm, _ = _warm_verify(net, chain, k, states)
    grown, gained = _warm_verify(net, chain, min(k, 2), states)
    assert gained
    exported = parse_chain(export_chain(replace(net, chain=list(chain))))
    offline = verify_exported(exported)
    return [(r.valid, r.first_bad_block, r.reason) for r in (cold, warm, grown, offline)]


def _in_place_verdict(net, i, chain):
    """(valid, first bad block, reason) of ``verify_chain`` on ``net``
    itself, with its record and watermark, while its blocks from ``i`` on
    are ``chain``'s."""
    kept, net.chain[i:] = net.chain[i:], chain[i:]
    try:
        r = verify_chain(net)
    finally:
        net.chain[i:] = kept
    return r.valid, r.first_bad_block, r.reason


def _edit_a_recorded_certificate(world, net, states, pick):
    """A submit that is never committed records sl1-clerk's chain; then
    ``pick`` chooses a head certificate whose link the record holds and
    edits, in ``net.trust.chains``, its body or one signature byte: (valid,
    first bad block, reason) of ``verify_chain`` on ``net`` itself, with
    its record, of a cold one, of a warm one whose last valid call covered
    ``chain[:2]`` (so an edited certificate of pcs-op's chain is new to its
    head) and of ``verify_exported``. The trust view, which the world
    shares, is restored."""
    submit_by(world, net, "sl1-clerk", LedgerAction.CREATE, "MSCU7654321", (("terminal", "T1"),))
    grown = replace(net, chain=list(net.chain[:2]), world_state=states[2])
    assert verify_chain(grown).valid
    grown.chain[2:] = net.chain[2:]
    grown.world_state = net.world_state
    head = _live_head(net)
    recorded = sorted(_recorded(net, head))
    cert = head.certs[recorded[pick % len(recorded)]]
    if pick % 2:
        edited = replace(cert, not_after=cert.not_after + 1)
    else:
        edited = replace(cert, signature=_flip(cert.signature))
    kept = dict(net.trust.chains)
    _replace_certificate(net, cert, edited)
    try:
        runs = (verify_chain(net), verify_chain(replace(net, chain=list(net.chain))),
                verify_chain(grown), verify_exported(parse_chain(export_chain(net))))
    finally:
        net.trust.chains.update(kept)
    return [(r.valid, r.first_bad_block, r.reason) for r in runs]


def _edits(chain, picks):
    """One ``replace`` edit per kind, each of a block chosen by ``picks``,
    then the last block's orderer signature, so that an unverified last
    batch is always edited, then a block's orderer signature with every
    later link recomputed, then a block's orderer signature swapped for
    its high-S twin, which the ECDSA equation alone would accept: (first
    edited block, edited chain)."""
    def pick(candidates, n):
        return candidates[picks[n] % len(candidates)]

    def one(i, block):
        return i, [*chain[:i], block, *chain[i + 1:]]

    later = range(1, len(chain))
    i = pick(later, 0)
    yield one(i, replace(chain[i], prev_hash=_flip(chain[i].prev_hash)))
    i = pick(later, 1)
    yield one(i, replace(chain[i], orderer_signature=_flip(chain[i].orderer_signature)))
    i = pick([j for j in later if chain[j].transactions[0].args], 2)
    tx, *rest = chain[i].transactions
    (key, value), *more = tx.args
    yield one(i, replace(chain[i], transactions=(
        replace(tx, args=((key, value + "?"), *more)), *rest
    )))
    i = pick(later, 3)
    tx, *rest = chain[i].transactions
    (ident, sig), *more = tx.endorsements
    yield one(i, replace(chain[i], transactions=(
        replace(tx, endorsements=((ident, _flip(sig)), *more)), *rest
    )))
    yield one(len(chain) - 1,
              replace(chain[-1], orderer_signature=_flip(chain[-1].orderer_signature)))
    i = pick(range(1, len(chain) - 1), 0)
    yield i, _relinked(chain, i)
    i = pick(later, 4)
    yield one(i, replace(chain[i], orderer_signature=high_s(chain[i].orderer_signature)))


_batches = st.lists(st.lists(_op, min_size=1, max_size=2), min_size=1, max_size=5)


def _grow(world, batches):
    """A net that ran one whole lifecycle, then committed ``batches``,
    verifying each batch but the last: the net and its world state by
    chain length."""
    net = build_net(world)
    states = {1: {}}  # world state by chain length
    for state, (action, invoker, endorser) in NEXT_STEP.items():
        # one whole lifecycle first, so the head names every identity used
        args = (("terminal", "T1"),) if state is None else ()
        run_step(world, net, invoker, action, endorser, CNT, args)
        states[len(net.chain)] = dict(net.world_state)
    created = [CNT]
    for batch in batches:
        verified = verify_chain(net)  # each batch but the last is verified
        assert verified.valid, verified.reason
        pendings = [p for p in (_pending_for(world, net, op, created) for op in batch) if p]
        if not pendings:
            continue
        res = commit(net, pendings)
        # only a second step on one container in the same batch is refused
        touched = {p.tx.cnt_no for p in pendings}
        assert len(res.rejected) == len(pendings) - len(touched)
        assert all(isinstance(exc, StaleTransaction) for _, exc in res.rejected)
        created += [tx.cnt_no for tx in res.block.transactions if tx.cnt_no not in created]
        states[len(net.chain)] = dict(net.world_state)
    return net, states


@settings(max_examples=20)
@given(
    batches=_batches,
    picks=st.lists(st.integers(0, 999), min_size=5, max_size=5),
)
def test_live_and_offline_verifiers_agree(shared_world, batches, picks):
    """Seeded submit/endorse/commit sequences over awkward container text:
    the export parses back to the committed blocks, no committed block is
    rejected, and the cold live, warm live and offline verifiers, and the
    net's own verifier reading its record of the last, unverified batch,
    give the same verdict on the chain, on each single-field edit of it
    (a high-S twin of an orderer signature among them) and on a broken
    orderer signature whose later links are recomputed;
    so does a warm live verifier whose head gained certificates since
    its last valid call. All of them call valid the chain whose later
    blocks the orderer's key signed over a broken orderer signature."""
    _agree(shared_world, batches, picks)


@settings(max_examples=20)
@given(
    batches=_batches,
    picks=st.lists(st.integers(0, 999), min_size=5, max_size=5),
)
def test_live_and_offline_verifiers_agree_when_the_offline_one_forks(shared_world, batches,
                                                                      picks):
    """The differential above, with every offline verify split between
    this process and a forked child."""
    with _forking() as pids:
        _agree(shared_world, batches, picks)
    assert pids


def _agree(world, batches, picks):
    net, states = _grow(world, batches)
    parsed = parse_chain(export_chain(net))
    assert parsed.blocks == tuple(net.chain)
    unverified = net.chain[len(net._verified.blocks):]
    marks = sorted(states)
    for i, edited in _edits(net.chain, picks):
        k = max(m for m in marks if m <= i)
        verdicts = [*_verdicts(net, edited, k, states), _in_place_verdict(net, i, edited)]
        assert len(set(verdicts)) == 1, verdicts
        assert not verdicts[0][0]
    # an invalid verify leaves the record, so each edit above could read it
    assert len(net._passed) >= _block_verifies(unverified)
    verdicts = _edit_a_recorded_certificate(world, net, states, picks[4])
    assert len(set(verdicts)) == 1, verdicts
    assert not verdicts[0][0]
    k = marks[picks[4] % len(marks)]
    own = verify_chain(net)
    verdicts = [*_verdicts(net, net.chain, k, states), (own.valid, own.first_bad_block, own.reason)]
    assert verdicts == [(True, None, "")] * 5
    assert replace(parsed, blocks=()) == net._verified.head
    # the orderer's key signs over a block whose orderer signature it broke
    i = 1 + picks[1] % (len(net.chain) - 2)
    over = _signed_over(net, i)
    k = max(m for m in marks if m <= i)
    verdicts = [*_verdicts(net, over, k, states), _in_place_verdict(net, i, over)]
    assert verdicts == [(True, None, "")] * 5


@settings(max_examples=10)
@given(batches=_batches)
def test_a_parsed_block_hashes_the_bytes_it_was_read_from(shared_world, batches):
    """Over the differential's chains, and their CRLF and indented
    re-writes, each parsed block's link digest, hashed as it was read, and
    its orderer payload digest, hashed on demand but the last block's, are
    those of its canonical re-encoding; each parsed transaction remembers
    the body it encodes to and each parsed certificate the digest of its
    body; a header naming another suite still fails at the head."""
    net, _ = _grow(shared_world, batches)
    data = export_chain(net)
    indented = b"".join(b" \t" + line for line in data.splitlines(keepends=True))
    for text in (data, data.replace(b"\n", b"\r\n"), indented):
        parsed = parse_chain(text)
        assert parsed.blocks == tuple(net.chain)
        for block in parsed.blocks:
            payload, link = ledger._digests(replace(block))
            assert block._memo[1] == link
            assert block._memo[0] == (payload if block is parsed.blocks[-1] else None)
            assert ledger._digests(block) == (payload, link)
            for tx in block.transactions:
                assert tx.body_bytes() == replace(tx).body_bytes()
        for cert in parsed.certs.values():
            assert cert._digest == replace(cert).body_digest()
        other = parse_chain(text.replace(DEFAULT_SUITE.suite_id.encode(), b"OTHER", 1))
        res = verify_exported(other)
        assert (res.valid, res.first_bad_block, res.reason) == (
            False, None, "suite mismatch: OTHER")


# --- offline verification split across processes -------------------------------


@contextmanager
def _forking(cpus=2):
    """``verify_exported`` sees ``cpus`` CPUs and ``FORK_MIN_BLOCKS`` is 1,
    so on two or more CPUs a chain past its genesis block is split. Yields
    the pids forked, as this process saw them."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    with patch.object(ledger, "FORK_MIN_BLOCKS", 1), \
            patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))), \
            patch.object(os, "fork", counted):
        yield pids


@pytest.fixture
def forked():
    with _forking() as pids:
        yield pids


@contextmanager
def _in_the_child(verify):
    """``DEFAULT_SUITE.verify`` is ``verify`` in a forked child and the real
    check in this process."""
    parent, real = os.getpid(), DEFAULT_SUITE.verify
    with patch.object(DEFAULT_SUITE, "verify",
                      lambda *check: (real if os.getpid() == parent else verify)(*check)):
        yield


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def long_net(world, net):
    """Two lifecycles: nine blocks, split at the middle block as blocks 0-3
    for the caller and 4-8 for the child."""
    full_lifecycle(world, net)
    full_lifecycle(world, net, cnt_no="MSCU7654321")
    return net


def _flipped_orderer_signature(i):
    def edit(world, net):
        block = net.chain[i]
        net.chain[i] = replace(block, orderer_signature=_flip(block.orderer_signature))
    return edit


def _flipped_endorsement(i):
    """Block ``i`` signed again over its transaction with the endorsement
    flipped: its orderer signature holds, its endorsement does not."""
    def edit(world, net):
        block = net.chain[i]
        tx, = block.transactions
        (ident, sig), = tx.endorsements
        tx = replace(tx, endorsements=((ident, _flip(sig)),))
        net.chain[i] = _sign_block(net, i, block.prev_hash, (tx,))
    return edit


def _relinked_from(i):
    def edit(world, net):
        net.chain[:] = _relinked(net.chain, i)
    return edit


def _broken_link(i):
    def edit(world, net):
        net.chain[i] = replace(net.chain[i], prev_hash=_flip(net.chain[i].prev_hash))
    return edit


def _replayed_last(world, net):
    """The last LOAD ordered again, with good signatures: block 9."""
    order_by_hand(net, *net.chain[-1].transactions)


def _both(*edits):
    def edit(world, net):
        for one in edits:
            one(world, net)
    return edit


SPLITS = {
    # case: (edit, verdict, the bad block's half)
    "honest": (lambda world, net: None, (True, None, ""), None),
    "orderer-signature-caller": (_flipped_orderer_signature(1),
                                 (False, 1, "orderer signature broken"), "caller"),
    "orderer-signature-child": (_flipped_orderer_signature(7),
                                (False, 7, "orderer signature broken"), "child"),
    "endorsement-caller": (_flipped_endorsement(2),
                           (False, 2, "endorsement by pcs-op broken"), "caller"),
    "endorsement-child": (_flipped_endorsement(6),
                          (False, 6, "endorsement by pcs-op broken"), "child"),
    "previous-hash-child": (_broken_link(5), (False, 5, "previous-hash link broken"), "child"),
    "stale-gate-child": (_replayed_last, (False, 9, "replay gate failure: LOAD requires "
                                                    "state CLEARED, asset is LOADED"), "child"),
    # every link holds, so only the last block's orderer signature fails
    # the walk; the ones before it are checked in order, the caller's first
    "relinked-caller": (_relinked_from(2), (False, 2, "orderer signature broken"), "caller"),
    "relinked-child": (_relinked_from(6), (False, 6, "orderer signature broken"), "child"),
    # the child's verdict names block 7; the caller's own half fails first
    "both-halves": (_both(_flipped_endorsement(2), _flipped_orderer_signature(7)),
                    (False, 2, "endorsement by pcs-op broken"), "caller"),
}


@pytest.mark.parametrize("case", SPLITS)
def test_a_split_verify_gives_the_inline_verdict(world, long_net, counting_suite, case):
    """Split between this process and one child, an offline verify gives
    the inline verdict, a failure in either half included, and leaves no
    child behind. When this process's half passes, the verdict is the
    child's: this process checks none of the child's blocks. The child
    checks the last block's orderer signature, so this process checks its
    own blocks' only when the child reports a failure."""
    edit, verdict, side = SPLITS[case]
    edit(world, long_net)
    data = export_chain(long_net)
    inline = verify_exported(parse_chain(data))  # far below FORK_MIN_BLOCKS
    with _forking() as pids:
        exported = parse_chain(data)
        k = ledger._split_point(exported.blocks)
        split, verifies = _verifies_during(counting_suite, lambda: verify_exported(exported))
    assert len(pids) == 1 and 0 < k < len(exported.blocks)
    if side is not None:
        assert (verdict[1] >= k) == (side == "child")
    if side == "child":
        assert verifies == len(exported.certs) + _block_verifies(exported.blocks[:k])
    elif side is None:
        assert verifies == len(exported.certs) + _txn_verifies(exported.blocks[:k])
    for res in (inline, split):
        assert (res.valid, res.first_bad_block, res.reason) == verdict
    _no_child_left()


@pytest.mark.parametrize("case", SPLITS)
def test_a_split_at_any_block_gives_the_inline_verdict(world, long_net, case):
    """The child resumes at whatever block the split names: split at each
    block past the genesis block, an offline verify gives the inline
    verdict and leaves no child behind. The split itself is the middle
    block, also of the chain with blocks 1-3 holding two transactions."""
    edit, verdict, _ = SPLITS[case]
    edit(world, long_net)
    data = export_chain(long_net)
    inline = verify_exported(parse_chain(data))
    assert (inline.valid, inline.first_bad_block, inline.reason) == verdict
    for k in range(1, len(long_net.chain)):
        with _forking() as pids, patch.object(ledger, "_split_point", lambda blocks, k=k: k):
            res = verify_exported(parse_chain(data))
        assert ((res.valid, res.first_bad_block, res.reason), len(pids)) == (verdict, 1), k
        _no_child_left()
    chain = long_net.chain
    mixed = [chain[0], *(replace(b, transactions=b.transactions * 2) for b in chain[1:4]),
             *chain[4:]]
    assert [len(b.transactions) for b in mixed[1:]] == [2, 2, 2] + [1] * (len(chain) - 4)
    with _forking():
        assert ledger._split_point(mixed) == len(mixed) // 2


def test_the_caller_runs_no_check_a_child_proved(long_net, counting_suite, forked):
    """This process verifies the head's certificates and the transactions
    of its own half, and takes the child's verdict on the rest, whose last
    orderer signature vouches for this process's blocks too."""
    exported = parse_chain(export_chain(long_net))
    k = ledger._split_point(exported.blocks)
    res, verifies = _verifies_during(counting_suite, lambda: verify_exported(exported))
    assert res.valid, res.reason
    assert len(forked) == 1 and 0 < k < len(long_net.chain)
    assert verifies == len(exported.certs) + _txn_verifies(long_net.chain[:k])


def test_a_failure_before_the_childs_range_kills_the_child(world, long_net, forked):
    """A child still checking when this process fails in its own half is
    killed and reaped: the call returns without waiting for it."""
    _flipped_orderer_signature(1)(world, long_net)
    exported = parse_chain(export_chain(long_net))
    started = time.monotonic()
    with _in_the_child(lambda *check: time.sleep(60)):
        res = verify_exported(exported)
    assert time.monotonic() - started < 30
    assert (res.valid, res.first_bad_block, len(forked)) == (False, 1, 1)
    _no_child_left()


def test_a_child_that_exits_non_zero_proves_nothing(world, long_net, counting_suite, forked):
    """A child that fails before it writes gives no verdict: this process
    checks the child's blocks, and the forged block there fails inline.
    The walk admits block 7 before block 8's link breaks; then the orderer
    signatures of blocks 0-7 are checked, the child's first."""
    _flipped_orderer_signature(7)(world, long_net)
    exported = parse_chain(export_chain(long_net))

    def fails(*check):
        raise RuntimeError("no verify in this child")

    with _in_the_child(fails):
        res, verifies = _verifies_during(counting_suite, lambda: verify_exported(exported))
    assert len(forked) == 1
    assert (res.valid, res.first_bad_block, res.reason) == (False, 7, "orderer signature broken")
    assert verifies == len(exported.certs) + _block_verifies(long_net.chain[:8])
    _no_child_left()


@pytest.mark.parametrize("forged", [None, 7])
def test_a_short_write_gives_no_verdict(world, long_net, counting_suite, forked, monkeypatch,
                                        forged):
    """A child that exits 0 after writing all of its verdict but the last
    byte gives none: this process checks the child's blocks itself, up to
    block 8, whose link to the forged block 7 breaks, or to the end."""
    if forged is not None:
        _flipped_orderer_signature(forged)(world, long_net)
    exported = parse_chain(export_chain(long_net))
    parent, write, exit_ = os.getpid(), os.write, os._exit

    def short(fd, data):
        if os.getpid() == parent:
            return write(fd, data)
        write(fd, bytes(data[:-1]))
        exit_(0)

    monkeypatch.setattr(os, "write", short)
    res, verifies = _verifies_during(counting_suite, lambda: verify_exported(exported))
    assert len(forked) == 1
    if forged is None:
        assert res.valid, res.reason
        assert verifies == len(exported.certs) + _txn_verifies(long_net.chain) + 1
    else:
        assert (res.valid, res.first_bad_block, res.reason) == (
            False, 7, "orderer signature broken")
        assert verifies == len(exported.certs) + _block_verifies(long_net.chain[:8])
    _no_child_left()


def test_a_fork_that_fails_leaves_every_check_inline(world, long_net, counting_suite):
    _flipped_orderer_signature(7)(world, long_net)
    exported = parse_chain(export_chain(long_net))

    def fails():
        raise OSError("fork refused")

    with _forking(), patch.object(os, "fork", fails):
        res, verifies = _verifies_during(counting_suite, lambda: verify_exported(exported))
    assert (res.valid, res.first_bad_block, res.reason) == (False, 7, "orderer signature broken")
    # every check of blocks 0-7: block 8's link breaks, and then the
    # orderer signatures are checked up to block 7's
    assert verifies == len(exported.certs) + _block_verifies(long_net.chain[:8])
    _no_child_left()


def test_no_fork_while_a_second_thread_runs(long_net, forked):
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(30,))
    thread.start()
    try:
        res = verify_exported(parse_chain(export_chain(long_net)))
    finally:
        done.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert res.valid and forked == []
    assert ledger._split_point(long_net.chain) < len(long_net.chain)  # the thread alone stopped it


def test_a_one_cpu_affinity_forks_nothing(long_net):
    with _forking(cpus=1) as pids:
        exported = parse_chain(export_chain(long_net))
        k = ledger._split_point(exported.blocks)
        res = verify_exported(exported)
    assert res.valid and pids == []
    assert k == len(exported.blocks)
    with _forking(cpus=2):
        assert ledger._split_point(exported.blocks) < len(exported.blocks)  # the CPUs alone


# --- one orderer signature vouches for the chain -----------------------------


def _relinked(chain, i):
    """``chain`` with block ``i``'s orderer signature flipped and every
    later block's link recomputed, with no key: the links hold, and the
    orderer signatures over the new links do not."""
    block = chain[i]
    edited = [*chain[:i], replace(block, orderer_signature=_flip(block.orderer_signature))]
    for block in chain[i + 1:]:
        edited.append(replace(block, prev_hash=ledger._digests(edited[-1])[1]))
    return edited


def _signed_over(net, i):
    """``net.chain`` with block ``i``'s orderer signature flipped and every
    later block signed again with the orderer's key over the new links: a
    chain only that key can make. The signing goes through a copy of
    ``net`` with a record of its own, so ``net``'s record is unchanged."""
    orderer, block = replace(net), net.chain[i]
    chain = [*net.chain[:i], replace(block, orderer_signature=_flip(block.orderer_signature))]
    for block in net.chain[i + 1:]:
        chain.append(_sign_block(orderer, block.index, ledger._digests(chain[-1])[1],
                                 block.transactions))
    return chain


def _reference_verify(exported):
    """``verify_exported`` as first written, in one process: the head
    checks, then per block its index, its link, its orderer signature and
    each transaction's ``_admit``, the first failure the verdict. Every
    certificate, block and transaction digest is hashed from a ``replace``
    copy's own encoding, not from what the parse remembered."""
    exported = replace(exported, certs={s: replace(c) for s, c in exported.certs.items()})
    passed = set()
    bad = ledger._check_head(exported, passed)
    if bad is not None:
        return bad
    orderer = exported.certs[exported.orderer_identity].public_key
    state = dict(exported.baseline_state)
    prev = ledger._state_digest(state)
    for pos, block in enumerate(exported.blocks):
        block = replace(block, transactions=tuple(map(replace, block.transactions)))
        if block.index != pos:
            return ledger.ChainVerification(False, block.index, "non-consecutive block index")
        if block.prev_hash != prev:
            return ledger.ChainVerification(False, block.index, "previous-hash link broken")
        payload, prev = ledger._digests(block)
        if not DEFAULT_SUITE.verify(orderer, payload, block.orderer_signature):
            return ledger.ChainVerification(False, block.index, "orderer signature broken")
        for tx in block.transactions:
            try:
                ledger._admit(tx, state, exported.certs, passed)
            except LedgerError as exc:
                return ledger.ChainVerification(False, block.index, str(exc))
    return ledger.ChainVerification(True)


@pytest.mark.parametrize("i", [2, 6], ids=["caller-half", "child-half"])
def test_a_chain_the_orderer_signed_over_is_valid(world, long_net, counting_suite, i):
    """Blocks the orderer's key signed over a block with a broken orderer
    signature vouch for it: the chain is valid live, cold and warm, and
    offline, in one process or split with the bad block in either half,
    while the sequential rule fails it at that block. Verified offline in
    one process, it costs one orderer verify."""
    chain = _signed_over(long_net, i)
    cold = replace(long_net, chain=list(chain))
    warm = replace(long_net, chain=chain[:1], world_state={})
    assert verify_chain(warm).valid  # the watermark covers the genesis block
    warm.chain[1:], warm.world_state = chain[1:], long_net.world_state
    data = export_chain(cold)
    exported = parse_chain(data)
    res, verifies = _verifies_during(counting_suite, lambda: verify_exported(exported))
    assert verifies == len(exported.certs) + _txn_verifies(chain) + 1
    with _forking() as pids:
        k = ledger._split_point(chain)
        split = verify_exported(parse_chain(data))
    assert len(pids) == 1 and (i >= k) == (i == 6)
    for r in (res, split, verify_chain(cold), verify_chain(warm)):
        assert (r.valid, r.first_bad_block, r.reason) == (True, None, "")
    ref = _reference_verify(parse_chain(data))
    assert (ref.valid, ref.first_bad_block, ref.reason) == (False, i, "orderer signature broken")
    _no_child_left()


def _element_flips(data):
    """``data`` with one byte flipped in the middle of one element of one
    BLK or TXN record, the tag included, for each such element."""
    for start, line in _lines(data):
        if line.startswith((b"BLK+", b"TXN+")):
            assert b"?" not in line  # so each "+" separates two elements
            at = start
            for elem in line[:-1].split(b"+"):
                mid = at + len(elem) // 2
                yield data[:mid] + bytes([data[mid] ^ 1]) + data[mid + 1:]
                at += len(elem) + 1


def _verdict(verify, data):
    try:
        res = verify(parse_chain(data))
    except records.ParseError:
        return "ParseError"
    return res.valid, res.first_bad_block, res.reason


@pytest.mark.parametrize("fork", [False, True], ids=["inline", "forked"])
def test_each_flipped_byte_gets_the_sequential_verdict(honest_sims, fork):
    """One byte flipped in the middle of each element of each BLK and TXN
    record of the two desk chains: each file fails to parse under both
    verifiers, or ``verify_exported`` gives the sequential rule's verdict,
    block and reason, in one process and split with a child."""
    seen = Counter()
    with _forking() if fork else nullcontext() as pids:
        for scenario in ("export", "import"):
            data = export_chain(honest_sims[(scenario, "ledger")].net)
            for flipped in _element_flips(data):
                verdict = _verdict(verify_exported, flipped)
                assert verdict == _verdict(_reference_verify, flipped)
                seen[verdict if verdict == "ParseError" else verdict[2].split(" ")[0]] += 1
    assert bool(pids) == fork
    assert set(seen) == {"ParseError", "orderer", "previous-hash", "non-consecutive"}
    # the orderer signatures flipped were P-256 ECDSA bytes
    assert parse_chain(data).certs["orderer-1"].public_key.startswith(P256_SPKI_PREFIX)


# --- the orderer's P-256 signature -----------------------------------------------


ORDERER_FORMS = {"high-S": high_s, "long-form": long_form}


@pytest.mark.parametrize("form", ORDERER_FORMS)
@pytest.mark.parametrize("scenario", ["export", "import"])
def test_an_orderer_signature_has_one_byte_form(honest_sims, scenario, form):
    """The last block of each desk chain, its orderer signature re-encoded
    as the high-S twin ``(r, n - s)`` or with a long-form length: the file
    carries it byte for byte, and offline, live warm and live cold
    verification each name that block's orderer signature broken."""
    net = honest_sims[(scenario, "ledger")].net
    last = net.chain[-1]
    edited = [*net.chain[:-1],
              replace(last, orderer_signature=ORDERER_FORMS[form](last.orderer_signature))]
    data = export_chain(replace(net, chain=edited))
    assert parse_chain(data).blocks[-1] == edited[-1]
    want = (False, last.index, "orderer signature broken")
    assert _verdict(verify_exported, data) == want
    assert _in_place_verdict(net, last.index, edited) == want
    cold = verify_chain(replace(net, chain=list(edited)))
    assert (cold.valid, cold.first_bad_block, cold.reason) == want
    assert verify_chain(net).valid


@contextmanager
def _keys_checked():
    """The public key of each signature the one suite really checks."""
    keys, check = [], DEFAULT_SUITE.verify

    def recorded(public, payload, sig):
        keys.append(public)
        return check(public, payload, sig)

    with patch.object(DEFAULT_SUITE, "verify", recorded):
        yield keys


def test_an_offline_check_makes_one_p256_verify(world, net):
    """Under generated fixtures the orderer's P-256 key is checked once by
    ``verify_exported``, on the last block, and never by a warm
    ``verify_chain`` over blocks the net signed; every other check is
    RSA."""
    full_lifecycle(world, net)
    assert verify_chain(net).valid
    full_lifecycle(world, net, cnt_no="MSCU7654321")
    orderer = world.fixtures.certs["orderer-1"].public_key
    with _keys_checked() as keys:
        assert verify_chain(net).valid
    assert orderer not in keys
    with _keys_checked() as keys:
        assert verify_exported(parse_chain(export_chain(net))).valid
    assert [k for k in keys if k.startswith(P256_SPKI_PREFIX)] == [orderer]
    assert len(keys) > 1


@pytest.mark.parametrize("scenario", ["export", "import"])
def test_a_chain_with_an_rsa_orderer_still_verifies(scenario):
    """``tests/data/golden.psf`` keeps its RSA-2048 orderer key: its chains
    verify offline with one RSA orderer verify, and a flipped last
    orderer signature still fails at that block."""
    fx = fixtures_from_bytes(FIXTURES.read_bytes())
    orderer = fx.certs["orderer-1"].public_key
    assert not orderer.startswith(P256_SPKI_PREFIX) and len(orderer) == 294  # RSA-2048 SPKI
    net = run_scenario(fx, scenario, "ledger").net
    with _keys_checked() as keys:
        res = verify_exported(parse_chain(export_chain(net)))
    assert (res.valid, res.first_bad_block, res.reason) == (True, None, "")
    assert keys.count(orderer) == 1
    last = net.chain[-1]
    edited = [*net.chain[:-1], replace(last, orderer_signature=_flip(last.orderer_signature))]
    assert _verdict(verify_exported, export_chain(replace(net, chain=edited))) == (
        False, last.index, "orderer signature broken")
