"""Attack battery: every injected manipulation must be caught by the
mechanism responsible for it, in the mode where that mechanism exists."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portsec import attacks, records
from portsec.attacks import (
    AttackKind,
    AttackSpec,
    ComparisonReport,
    TargetUnresolved,
    attack_from_wire,
    battery,
    comparison_to_wire,
    inject_attack,
)
from portsec.model import ParseError
from portsec.transcript import ValidatedEvent

LEDGER_FINDINGS = {
    AttackKind.TAMPER_FIELD: "ChainTamper",
    AttackKind.REPLAY_SPLICE: "LifecycleDenied",
    AttackKind.NONCE_REUSE: "DuplicateContainer",
    AttackKind.UNAUTHORIZED_AUTHOR: "RoleDenied",
    AttackKind.LEDGER_TAMPER: "ChainTamper",
}

FIRST_VALIDATOR = {"export": "t1-op", "import": "pcs-op"}


def by_kind(scenario):
    return {spec.kind: spec for spec in battery(scenario)}


def test_battery_covers_every_kind():
    for scenario in ("export", "import"):
        assert set(by_kind(scenario)) == set(AttackKind)


@pytest.mark.parametrize("scenario", ["export", "import"])
def test_tampered_field_rejected_at_next_hop(base_fixtures, scenario):
    spec = by_kind(scenario)[AttackKind.TAMPER_FIELD]
    transcript, report = inject_attack(base_fixtures, scenario, spec, "p2p")
    assert report.detected
    assert report.detected_by == FIRST_VALIDATOR[scenario]
    assert report.finding == "SignatureInvalid"
    assert transcript.verdict == "FAIL"


def test_tampering_a_sealed_field_still_breaks_the_signature(base_fixtures):
    # CNT_C travels sealed in the delivery message; the attacker can only
    # rewrite its digest, which the author signature covers
    spec = AttackSpec(AttackKind.TAMPER_FIELD, step="delivery",
                      attribute="CNT_C", payload="600 crates of fireworks")
    _, report = inject_attack(base_fixtures, "export", spec, "p2p")
    assert report.detected
    assert report.finding == "SignatureInvalid"


def test_flipping_a_signature_byte_is_detected(base_fixtures):
    spec = AttackSpec(AttackKind.TAMPER_FIELD, step="delivery", sig_of="sl1-clerk")
    _, report = inject_attack(base_fixtures, "export", spec, "p2p")
    assert report.detected
    assert report.detected_by == "t1-op"
    assert report.finding == "SignatureInvalid"


@pytest.mark.parametrize("scenario", ["export", "import"])
def test_replay_splice_is_localized_to_origin_run(base_fixtures, scenario):
    spec = by_kind(scenario)[AttackKind.REPLAY_SPLICE]
    _, report = inject_attack(base_fixtures, scenario, spec, "p2p")
    assert report.detected
    assert report.finding == "LinkageMismatch"
    assert report.detected_by == FIRST_VALIDATOR[scenario]
    # evidence names the run the stolen signature came from
    assert "-origin" in report.localized
    assert "B_NO" in report.localized


def test_nonce_reuse_flagged_on_second_run(base_fixtures):
    spec = by_kind("export")[AttackKind.NONCE_REUSE]
    transcript, report = inject_attack(base_fixtures, "export", spec, "p2p")
    assert report.detected
    assert report.finding == "NonceReuse"
    # the warning fires at the first actor to see the booking number again
    assert report.detected_by == "importer-1"
    # reuse is a warning, not a rejection: messages still verify
    assert all(ev.verdict == "ACCEPT" for ev in transcript.events
               if isinstance(ev, ValidatedEvent))


@pytest.mark.parametrize("scenario", ["export", "import"])
def test_unauthorized_author_leaves_coverage_gap(base_fixtures, scenario):
    spec = by_kind(scenario)[AttackKind.UNAUTHORIZED_AUTHOR]
    _, report = inject_attack(base_fixtures, scenario, spec, "p2p")
    assert report.detected
    assert report.finding == "WriteCoverageGap"
    assert "IMPORTER" in report.localized


def test_ledger_tamper_has_no_p2p_witness(base_fixtures):
    spec = by_kind("export")[AttackKind.LEDGER_TAMPER]
    _, report = inject_attack(base_fixtures, "export", spec, "p2p")
    assert not report.detected
    assert report.finding == "NO_CHAIN"


@pytest.mark.parametrize("scenario", ["export", "import"])
def test_attr_swap_rejected_at_next_hop(base_fixtures, scenario):
    # the swapped values keep their digest order once importer-1's attrs
    # are permuted to match, so only the signed names give the swap away
    spec = by_kind(scenario)[AttackKind.ATTR_SWAP]
    transcript, report = inject_attack(base_fixtures, scenario, spec, "p2p")
    assert report.detected
    assert report.detected_by == FIRST_VALIDATOR[scenario]
    assert report.finding == "SignatureInvalid"
    assert "CSG_DATA,CNT_C" in report.localized
    assert transcript.verdict == "FAIL"


@pytest.mark.parametrize("scenario", ["export", "import"])
@pytest.mark.parametrize("kind", list(LEDGER_FINDINGS))
def test_ledger_mode_detects_every_kind(base_fixtures, scenario, kind):
    spec = by_kind(scenario)[kind]
    _, report = inject_attack(base_fixtures, scenario, spec, "ledger")
    assert report.detected
    assert report.finding == LEDGER_FINDINGS[kind]
    assert report.detected_by in ("chaincode", "ledger-verify")


def test_attr_swap_does_not_apply_to_the_ledger(base_fixtures):
    spec = by_kind("export")[AttackKind.ATTR_SWAP]
    _, report = inject_attack(base_fixtures, "export", spec, "ledger")
    assert not report.detected
    assert report.finding == "NO_ATTRIBUTES"


def test_attack_against_unknown_step_is_refused(base_fixtures):
    spec = AttackSpec(AttackKind.TAMPER_FIELD, step="teleport", attribute="CNT_W")
    with pytest.raises(TargetUnresolved):
        inject_attack(base_fixtures, "export", spec, "p2p")


@pytest.mark.parametrize("mode", ["p2p", "ledger"])
@pytest.mark.parametrize("spec, match", [
    (AttackSpec(AttackKind.TAMPER_FIELD, step="teleport", attribute="ZZZ"),
     "scenario export has no message step teleport"),
    (AttackSpec(AttackKind.ATTR_SWAP, step="create"), "scenario export has no message step create"),
    (AttackSpec(AttackKind.TAMPER_FIELD, attribute="ZZZ"), "access matrix holds no attribute ZZZ"),
    # ATTR_SWAP's second attribute rides in its payload
    (AttackSpec(AttackKind.ATTR_SWAP, payload="ZZZ"), "access matrix holds no attribute ZZZ"),
], ids=["step-and-attribute", "ledger-step", "attribute", "swap-payload"])
def test_a_target_the_scenario_lacks_is_refused_before_either_mode_runs(
    base_fixtures, monkeypatch, spec, match, mode
):
    # no run may start: the refusal comes first, in both modes
    monkeypatch.setattr(attacks, "run_scenario", None)
    with pytest.raises(TargetUnresolved, match=match):
        inject_attack(base_fixtures, "export", spec, mode)


@pytest.mark.parametrize("spec, match", [
    # booking_ref carries no importer signature to splice over
    (AttackSpec(AttackKind.REPLAY_SPLICE, step="booking_ref"), "no signature by importer-1"),
    # the port authority's copy is only sent for dangerous goods
    (AttackSpec(AttackKind.TAMPER_FIELD, step="arrival_pa", attribute="CNT_W",
                payload="1 kg"), "step arrival_pa"),
    # a field rewritten to its own value, and an attribute swapped with itself
    (AttackSpec(AttackKind.TAMPER_FIELD, attribute="CNT_W", payload="18400 kg"),
     "changes nothing"),
    (AttackSpec(AttackKind.ATTR_SWAP, attribute="CNT_C", payload="CNT_C"), "changes nothing"),
], ids=["splice-unsigned-hop", "skipped-dg-hop", "same-value", "self-swap"])
def test_an_attack_that_never_strikes_is_refused(base_fixtures, spec, match):
    # a strike that never happens is no attack: it must not be reported
    # as one the receivers missed
    fixtures = base_fixtures.with_values(DG="false", CNT_W="18400 kg")
    with pytest.raises(TargetUnresolved, match=match):
        inject_attack(fixtures, "export", spec, "p2p")


@pytest.mark.parametrize("mode", ["p2p", "ledger"])
@pytest.mark.parametrize("spec, match", [
    (AttackSpec(AttackKind.NONCE_REUSE, step="teleport"), "NONCE_REUSE does not read step"),
    (AttackSpec(AttackKind.REPLAY_SPLICE, step="delivery", sig_of="t1-op"),
     "REPLAY_SPLICE does not read sig_of"),
    (AttackSpec(AttackKind.UNAUTHORIZED_AUTHOR, attribute="CNT_W"),
     "UNAUTHORIZED_AUTHOR does not read attribute"),
    (AttackSpec(AttackKind.LEDGER_TAMPER, step="delivery", block=1),
     "LEDGER_TAMPER does not read step"),
    (AttackSpec(AttackKind.ATTR_SWAP, sig_of="sl1-clerk"), "ATTR_SWAP does not read sig_of"),
    (AttackSpec(AttackKind.TAMPER_FIELD, attribute="CNT_W", sig_of="sl1-clerk"),
     "with sig_of reads no attribute"),
], ids=["nonce-step", "splice-sig_of", "author-attribute", "ledger-step", "swap-sig_of",
        "flip-and-field"])
def test_a_field_the_kind_does_not_read_is_refused(base_fixtures, spec, match, mode):
    # the spec would describe another attack than the one that runs
    with pytest.raises(TargetUnresolved, match=match):
        inject_attack(base_fixtures, "export", spec, mode)


def test_comparison_report(comparison):
    assert isinstance(comparison, ComparisonReport)
    assert comparison.verdict == "PASS"
    assert all(v == "PASS" for v in comparison.honest.values())
    for kind in AttackKind:
        assert comparison.detected_somewhere(kind), kind
    rows = {(r.scenario, r.kind): r for r in comparison.rows}
    assert len(rows) == 12
    for scenario in ("export", "import"):
        assert rows[(scenario, AttackKind.TAMPER_FIELD)].p2p.detected
        assert rows[(scenario, AttackKind.ATTR_SWAP)].p2p.detected
        assert rows[(scenario, AttackKind.LEDGER_TAMPER)].ledger.detected
        assert not rows[(scenario, AttackKind.LEDGER_TAMPER)].p2p.detected


def test_comparison_exposure_split(comparison):
    # ledger participants learn container numbers and nothing else;
    # commercial data only ever shows up on the p2p side, at entitled desks
    for attrs in comparison.exposure["ledger"].values():
        assert attrs <= {"CNT_NO"}
    assert "CNT_C" in comparison.exposure["p2p"]["importer-1"]
    assert "CNT_C" not in comparison.exposure["p2p"].get("pcs-op", frozenset())


def test_comparison_wire_is_stable(comparison):
    wire = comparison_to_wire(comparison)
    assert wire.startswith(b"CMP+1+PASS'")
    assert comparison_to_wire(comparison) == wire


token = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=0, max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(AttackKind)),
    step=token, attribute=token, payload=token,
    block=st.integers(min_value=-1, max_value=99),
    sig_of=token,
)
def test_attack_spec_wire_round_trip(kind, step, attribute, payload, block, sig_of):
    spec = AttackSpec(kind, step=step, attribute=attribute,
                      payload=payload, block=block, sig_of=sig_of)
    fields = {"step": step, "attribute": attribute, "payload": payload,
              "block": str(block) if block >= 0 else "", "sig_of": sig_of}
    elems = [e for key, val in fields.items() if val for e in (key, val)]
    again = attack_from_wire(records.encode("ATK", kind.value, *elems))
    assert again == spec


def test_attack_wire_rejects_junk():
    with pytest.raises(ParseError):
        attack_from_wire(b"ATK+TAMPER_FIELD+step+delivery+warp+9'")
    with pytest.raises(ParseError):
        attack_from_wire(b"ATK+MELTDOWN'")
    with pytest.raises(ParseError):
        attack_from_wire(b"ATK+TAMPER_FIELD+block+soon'")


def test_attack_wire_refuses_a_repeated_field():
    """A spec names each field once, so no later value replaces an earlier one."""
    with pytest.raises(ParseError, match="repeated ATK field 'attribute'") as e:
        attack_from_wire(b"ATK+TAMPER_FIELD+attribute+CNT_W+attribute+CNT_C'")
    assert e.value.offset == len(b"ATK+TAMPER_FIELD+attribute+CNT_W+")
