"""Scenario runs: honest goldens, determinism, DG routing, transcripts,
and the confidentiality audit over wire evidence."""

import pytest

from portsec import adapter, envelope, ledger, pki
from portsec.audit import LEDGER_ATTRS, audit_views, read_column
from portsec.fixtures import build_world
from portsec.model import HashOnly, from_flat
from portsec.policy import Role, default_matrix
from portsec.sim import (
    ScenarioError,
    ScenarioScript,
    Simulation,
    Step,
    make_script,
    run_scenario,
)
from portsec.transcript import (
    LedgerEvent,
    SentEvent,
    ValidatedEvent,
    determinism_digest,
    transcript_from_wire,
    transcript_to_wire,
)
from test_golden import _load_manifest, artefacts

COMMERCIAL = {"CNT_C", "CSG_DATA"}


def transit(transcript) -> dict[str, frozenset[str]]:
    """Identity -> the attributes that passed through it in any form, as
    the transcript's SENT events show."""
    seen: dict[str, set[str]] = {}
    for ev in transcript.sent_events():
        names = {name for name, _ in ev.message.message.fields}
        for identity in (ev.sender, ev.receiver):
            seen.setdefault(identity, set()).update(names)
    return {identity: frozenset(names) for identity, names in seen.items()}


def _validated(t) -> list[ValidatedEvent]:
    return [ev for ev in t.events if isinstance(ev, ValidatedEvent)]

EXPORT_P2P_OUTLINE = (
    ("SENT", "booking_ref", "sl1-clerk", "importer-1", "IFTMCS"),
    ("VALIDATED", "importer-1", "IFTMCS", "ACCEPT"),
    ("SENT", "booking", "importer-1", "sl1-clerk", "IFTMCS"),
    ("VALIDATED", "sl1-clerk", "IFTMCS", "ACCEPT"),
    ("SENT", "delivery", "sl1-clerk", "t1-op", "CODECO"),
    ("VALIDATED", "t1-op", "CODECO", "ACCEPT"),
    ("SENT", "arrival_icu", "t1-op", "pcs-op", "ICU"),
    ("VALIDATED", "pcs-op", "ICU", "ACCEPT"),
    ("SENT", "arrival_codeco", "t1-op", "sl1-clerk", "CODECO"),
    ("VALIDATED", "sl1-clerk", "CODECO", "ACCEPT"),
    ("SENT", "move_lcu", "t1-op", "pcs-op", "LCU"),
    ("VALIDATED", "pcs-op", "LCU", "ACCEPT"),
    ("SENT", "export_declaration", "pcs-op", "customs-officer", "MANIFEST"),
    ("VALIDATED", "customs-officer", "MANIFEST", "ACCEPT"),
    ("SENT", "clearance", "customs-officer", "pcs-op", "IFSTA"),
    ("VALIDATED", "pcs-op", "IFSTA", "ACCEPT"),
    ("SENT", "clearance_terminal", "pcs-op", "t1-op", "IFSTA"),
    ("VALIDATED", "t1-op", "IFSTA", "ACCEPT"),
    ("SENT", "clearance_line", "pcs-op", "sl1-clerk", "IFSTA"),
    ("VALIDATED", "sl1-clerk", "IFSTA", "ACCEPT"),
)

IMPORT_P2P_OUTLINE = (
    ("SENT", "booking_ref", "sl1-clerk", "importer-1", "IFTMCS"),
    ("VALIDATED", "importer-1", "IFTMCS", "ACCEPT"),
    ("SENT", "booking", "importer-1", "sl1-clerk", "IFTMCS"),
    ("VALIDATED", "sl1-clerk", "IFTMCS", "ACCEPT"),
    ("SENT", "iftmcs", "sl1-clerk", "pcs-op", "IFTMCS"),
    ("VALIDATED", "pcs-op", "IFTMCS", "ACCEPT"),
    ("SENT", "port_order", "pcs-op", "t1-op", "PORT_ORDER"),
    ("VALIDATED", "t1-op", "PORT_ORDER", "ACCEPT"),
    ("SENT", "manifest", "pcs-op", "customs-officer", "MANIFEST"),
    ("VALIDATED", "customs-officer", "MANIFEST", "ACCEPT"),
    ("SENT", "atb_notice", "customs-officer", "pcs-op", "ATB_NOTICE"),
    ("VALIDATED", "pcs-op", "ATB_NOTICE", "ACCEPT"),
    ("SENT", "ifsta_terminal", "pcs-op", "t1-op", "IFSTA"),
    ("VALIDATED", "t1-op", "IFSTA", "ACCEPT"),
    ("SENT", "ifsta_line", "pcs-op", "sl1-clerk", "IFSTA"),
    ("VALIDATED", "sl1-clerk", "IFSTA", "ACCEPT"),
)

EXPORT_LEDGER_OUTLINE = (
    ("LEDGER", "CREATE", "sl1-clerk", "COMMITTED"),
    ("LEDGER", "ACKNOWLEDGE_DELIVERY", "t1-op", "COMMITTED"),
    ("LEDGER", "QUERY", "pcs-op", "VISIBLE"),
    ("LEDGER", "CLEAR", "pcs-op", "COMMITTED"),
    ("LEDGER", "LOAD", "t1-op", "COMMITTED"),
    ("LEDGER", "VERIFY", "orderer-1", "VALID"),
)

IMPORT_LEDGER_OUTLINE = (
    ("LEDGER", "CREATE", "sl1-clerk", "COMMITTED"),
    ("LEDGER", "ACKNOWLEDGE_DELIVERY", "t1-op", "COMMITTED"),
    ("LEDGER", "QUERY", "pcs-op", "VISIBLE"),
    ("LEDGER", "CLEAR", "pcs-op", "COMMITTED"),
    ("LEDGER", "VERIFY", "orderer-1", "VALID"),
)


def test_honest_runs_all_pass(honest_sims):
    for key, sim in honest_sims.items():
        assert sim.transcript.verdict == "PASS", key
        assert all(ev.verdict == "ACCEPT" for ev in _validated(sim.transcript)), key


@pytest.mark.parametrize(
    "scenario, mode, outline",
    [
        ("export", "p2p", EXPORT_P2P_OUTLINE),
        ("import", "p2p", IMPORT_P2P_OUTLINE),
        ("export", "ledger", EXPORT_LEDGER_OUTLINE),
        ("import", "ledger", IMPORT_LEDGER_OUTLINE),
    ],
)
def test_golden_step_outlines(honest_sims, scenario, mode, outline):
    assert tuple(honest_sims[(scenario, mode)].transcript.step_outline()) == outline


def test_runs_are_deterministic(base_fixtures, honest_sims):
    # a fresh world (new adapter state, same keys) must reproduce the
    # transcript up to sealing randomness
    for (scenario, mode), sim in honest_sims.items():
        again = run_scenario(base_fixtures, scenario, mode)
        assert determinism_digest(again.transcript) == determinism_digest(
            sim.transcript
        ), (scenario, mode)


def test_signing_memo_leaves_every_byte_unchanged(monkeypatch):
    """With every signer on the raw primitive, each golden artefact (honest
    digests, exported chains, ``compare`` output, every report) is the
    manifest's, which the memoised code reproduces too."""
    for module in (envelope, ledger, pki):
        monkeypatch.setattr(
            module, "sign", lambda private, payload: envelope.DEFAULT_SUITE.sign(private, payload)
        )
    assert artefacts() == _load_manifest()


def test_verify_memo_leaves_every_report_unchanged(monkeypatch):
    """The same with every multi-signature check on the raw primitive; some
    of those checks fail, so the attack reports depend on them."""
    answers = []

    def raw_verify(public, payload, sig):
        answers.append(envelope.DEFAULT_SUITE.verify(public, payload, sig))
        return answers[-1]

    monkeypatch.setattr(envelope, "verify", raw_verify)
    assert artefacts() == _load_manifest()
    assert False in answers


def _fresh_booking(fx, tag):
    """The same world's next booking: every value but the routing flag
    differs, so none of its signatures has been made or checked yet."""
    return fx.with_values(
        run_tag=tag, **{k: f"{v} {tag}" for k, v in fx.values.items() if k != "DG"}
    )


@pytest.mark.parametrize(
    "scenario, carried, wraps, unwraps", [("export", 5, 3, 1), ("import", 4, 1, 1)]
)
def test_crypto_counts_of_one_booking_on_a_warm_world(
    base_fixtures, counting_suite, monkeypatch, scenario, carried, wraps, unwraps
):
    """Each signature a booking carries is made once and checked once,
    however many hops re-check it; a second RSA check of the same bytes
    fails here. Sealing reuses the field digests signing computed, so it
    makes no SHA-256 call of its own."""
    counts = counting_suite
    world = build_world(base_fixtures)
    run_scenario(_fresh_booking(base_fixtures, "B1"), scenario, "p2p", world=world)
    counts.signs = counts.verifies = counts.wraps = counts.unwraps = 0
    sealing_digests = []

    def counted_seal(*args):
        before = counts.digests
        sealed = envelope.seal_field(*args)
        sealing_digests.append(counts.digests - before)
        return sealed

    monkeypatch.setattr(adapter, "seal_field", counted_seal)
    sim = run_scenario(_fresh_booking(base_fixtures, "B2"), scenario, "p2p", world=world)
    assert sim.transcript.verdict == "PASS"
    signatures = {
        (sig.signer, sig.sig)
        for ev in sim.transcript.sent_events()
        for sig in ev.message.signatures
    }
    assert len(signatures) == carried
    assert (counts.signs, counts.verifies) == (carried, carried)
    assert (counts.wraps, counts.unwraps) == (wraps, unwraps)
    assert sealing_digests and not any(sealing_digests)


def test_transcript_wire_round_trip(honest_sims):
    for key, sim in honest_sims.items():
        wire = transcript_to_wire(sim.transcript)
        parsed = transcript_from_wire(wire)
        assert transcript_to_wire(parsed) == wire, key
        assert parsed.verdict == "PASS", key
        assert len(parsed.events) == len(sim.transcript.events), key
        assert parsed.actors == sim.transcript.actors, key


def test_audit_recomputes_from_parsed_transcript(honest_sims):
    sim = honest_sims[("export", "p2p")]
    live = audit_views(sim.transcript)
    stored = audit_views(transcript_from_wire(transcript_to_wire(sim.transcript)))
    assert stored == live


def test_dangerous_goods_widen_routing(base_fixtures):
    dg = base_fixtures.with_values(DG="true")
    by_scenario = {
        "export": {"arrival_pa", "move_pa"},
        "import": {"port_order_pa"},
    }
    for scenario, expected in by_scenario.items():
        sim = run_scenario(dg, scenario, "p2p")
        assert sim.transcript.verdict == "PASS"
        pa_steps = {
            e.step for e in sim.transcript.sent_events() if e.receiver == "pa-officer"
        }
        assert pa_steps == expected
        views = audit_views(sim.transcript)
        assert views.exposure["pa-officer"] <= {"CNT_LOC", "CNT_NO", "DG"}
        assert not views.flagged()


def test_no_port_authority_traffic_without_dangerous_goods(honest_sims):
    for mode in ("p2p", "ledger"):
        for scenario in ("export", "import"):
            t = honest_sims[(scenario, mode)].transcript
            assert not any(
                e.receiver == "pa-officer" for e in t.sent_events()
            ), (scenario, mode)


def test_audit_exposure_equals_entitled_reads(honest_sims):
    matrix = default_matrix()
    for scenario in ("export", "import"):
        sim = honest_sims[(scenario, "p2p")]
        views, handled_by = audit_views(sim.transcript), transit(sim.transcript)
        assert not views.flagged(), scenario
        for identity, role_token in sim.transcript.actors.items():
            try:
                role = Role(role_token)
            except ValueError:
                continue  # orderer holds no policy row
            handled = handled_by.get(identity, frozenset())
            expected = read_column(matrix, role) & handled
            assert views.exposure.get(identity, frozenset()) == expected, (
                scenario,
                identity,
            )


def test_pcs_never_sees_commercial_fields(honest_sims):
    for scenario in ("export", "import"):
        t = honest_sims[(scenario, "p2p")].transcript
        views = audit_views(t)
        assert views.exposure.get("pcs-op", frozenset()) & COMMERCIAL == frozenset()
        # PCS still relays the digests: the fields transit without exposure
        assert COMMERCIAL <= transit(t).get("pcs-op", frozenset())


def test_customs_receives_booking_number_as_digest_only(honest_sims):
    for scenario, step in (("export", "export_declaration"), ("import", "manifest")):
        sim = honest_sims[(scenario, "p2p")]
        views = audit_views(sim.transcript)
        assert "B_NO" not in views.exposure.get("customs-officer", frozenset())
        sent = next(e for e in sim.transcript.sent_events() if e.step == step)
        sm = from_flat(sent.flat)
        assert isinstance(sm.message.get("B_NO"), HashOnly)


def test_ledger_mode_exposes_container_number_only(honest_sims):
    for scenario in ("export", "import"):
        views = audit_views(honest_sims[(scenario, "ledger")].transcript)
        for identity, attrs in views.exposure.items():
            assert attrs <= LEDGER_ATTRS, (scenario, identity)
        assert views.exposure["orderer-1"] == LEDGER_ATTRS
        assert not views.flagged(), scenario


@pytest.mark.parametrize("label", ["NOBODY", "ORDERER", ""])
def test_audit_fails_closed_on_a_relabelled_actor(honest_sims, label):
    """Relabelling an actor's ACT record to a token that names no policy
    role (or to the orderer's) flags everything it saw beyond that
    column, instead of auditing the transcript clean."""
    wire = transcript_to_wire(honest_sims[("export", "p2p")].transcript)
    relabelled = wire.replace(b"\nACT+pcs-op+PCS'\n", f"\nACT+pcs-op+{label}'\n".encode())
    assert relabelled != wire
    views = audit_views(transcript_from_wire(relabelled))
    exposed = views.exposure["pcs-op"]
    assert len(exposed) == 6
    assert views.excess["pcs-op"] == exposed - (LEDGER_ATTRS if label == "ORDERER" else set())
    assert views.flagged() == ["pcs-op"]


def test_mailboxes_preserve_arrival_order(honest_sims):
    sim = honest_sims[("export", "p2p")]
    received = lambda who: [ev.msg_type for ev in sim.transcript.sent_events()
                            if ev.receiver == who]
    assert received("pcs-op") == ["ICU", "LCU", "IFSTA"]
    assert received("sl1-clerk") == ["IFTMCS", "CODECO", "IFSTA"]
    assert received("t1-op") == ["CODECO", "IFSTA"]
    assert received("customs-officer") == ["MANIFEST"]


def test_sent_payloads_replay_through_wire(honest_sims):
    # each recorded flat must parse back to the exact bytes, or the
    # transcript could not stand in for the captured traffic
    for key, sim in honest_sims.items():
        for event in sim.transcript.sent_events():
            assert isinstance(event, SentEvent)
            sm = from_flat(event.flat)
            from portsec.model import to_flat

            assert to_flat(sm) == event.flat, (key, event.step)


def test_unknown_scenario_or_mode_raises(base_fixtures):
    with pytest.raises(ScenarioError):
        make_script(base_fixtures, "transship", "p2p")
    with pytest.raises(ScenarioError):
        make_script(base_fixtures, "export", "gossip")


def test_script_rejects_dangling_source(base_fixtures):
    orphan = Step(
        name="late",
        kind="message",
        sender="importer-1",
        receiver="sl1-clerk",
        msg_type="IFTMCS",
        fields=("B_NO",),
        authored=("B_NO",),
        source="never_ran",
    )
    with pytest.raises(ScenarioError):
        ScenarioScript("export", "p2p", (orphan,), base_fixtures)


def test_script_rejects_unknown_actor(base_fixtures):
    ghost = Step(
        name="ghost",
        kind="message",
        sender="nobody-9",
        receiver="sl1-clerk",
        msg_type="IFTMCS",
        fields=("B_NO",),
        authored=("B_NO",),
    )
    with pytest.raises(ScenarioError):
        ScenarioScript("export", "p2p", (ghost,), base_fixtures)


def test_stop_on_reject_halts_the_run(base_fixtures):
    from portsec.attacks import mutate_field

    world = build_world(base_fixtures)

    def intercept(step_name, sm):
        if step_name == "delivery":
            return mutate_field(sm, "CNT_W", "1 kg", world.suite)
        return sm

    script = make_script(base_fixtures, "export", "p2p")
    sim = Simulation(script, world=world, interceptor=intercept).run()
    assert sim.halted
    assert sim.transcript.verdict == "FAIL"
    rejected = [ev for ev in _validated(sim.transcript) if ev.verdict != "ACCEPT"]
    assert [r.actor for r in rejected] == ["t1-op"]
    # nothing was forwarded past the rejected hop
    assert all(e.step != "arrival_icu" for e in sim.transcript.sent_events())


def _ledger_records(sim) -> list[tuple[str, str, str, str]]:
    return [(ev.action, ev.invoker, ev.outcome, ev.detail)
            for ev in sim.transcript.events if isinstance(ev, LedgerEvent)]


def test_ledger_denials_are_recorded_not_raised(base_fixtures):
    # one LEDGER record per step: a missing endorsement, a read outside the
    # reader's column and an out-of-order transition are each recorded as
    # the gate's denial, and the chain the committed steps built verifies
    steps = (
        Step("create", "ledger", sender="sl1-clerk", action="CREATE", endorser="t1-op"),
        Step("acknowledge", "ledger", sender="t1-op", action="ACKNOWLEDGE_DELIVERY"),
        Step("customs_looks", "query", sender="customs-officer"),
        Step("early_load", "ledger", sender="t1-op", action="LOAD", endorser="pcs-op"),
        Step("verify", "verify"),
    )
    sim = Simulation(ScenarioScript("export", "ledger", steps, base_fixtures)).run()
    assert [(a, who, outcome) for a, who, outcome, _ in _ledger_records(sim)] == [
        ("CREATE", "sl1-clerk", "COMMITTED"),
        ("ACKNOWLEDGE_DELIVERY", "t1-op", "InsufficientEndorsements"),
        ("QUERY", "customs-officer", "NotVisible"),
        ("LOAD", "t1-op", "LifecycleDenied"),
        ("VERIFY", "orderer-1", "VALID"),
    ]
    assert sim.transcript.verdict == "FAIL"


def test_a_create_without_an_endorser_names_no_terminal(base_fixtures):
    # the terminal argument comes from the endorser alone; with none, the
    # chaincode's own gate refuses the transaction
    steps = (Step("create", "ledger", sender="sl1-clerk", action="CREATE"),)
    sim = Simulation(ScenarioScript("export", "ledger", steps, base_fixtures)).run()
    assert _ledger_records(sim) == [
        ("CREATE", "sl1-clerk", "MalformedTransaction", "CREATE requires a terminal argument"),
    ]


def test_live_transcript_reads_like_its_wire_form(honest_sims):
    # live SENT events carry the decoded message; a reloaded transcript
    # decodes each flat at load, and readers must not tell the two apart
    for key, sim in honest_sims.items():
        reloaded = transcript_from_wire(transcript_to_wire(sim.transcript))
        for live, again in zip(sim.transcript.sent_events(), reloaded.sent_events(), strict=True):
            assert again.message == live.message, (key, live.step)
        assert audit_views(sim.transcript) == audit_views(reloaded), key
        assert determinism_digest(sim.transcript) == determinism_digest(reloaded), key


def test_one_encode_and_one_decode_per_hop(base_fixtures, monkeypatch):
    from portsec import model, sim as sim_module, transcript

    calls = {"to_flat": 0, "from_flat": 0}

    def counted(name):
        original = getattr(model, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        wrapper = counted(name)
        for module in (sim_module, transcript):
            if hasattr(module, name):  # transcript decodes, but never encodes
                monkeypatch.setattr(module, name, wrapper)
    for scenario in ("export", "import"):
        for key in calls:
            calls[key] = 0
        hops = len(run_scenario(base_fixtures, scenario, "p2p").transcript.sent_events())
        assert hops > 0
        assert calls == {"to_flat": hops, "from_flat": hops}, scenario
