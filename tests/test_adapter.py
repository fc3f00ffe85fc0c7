"""Creator/validator behaviour: the import-manifest flow end to end, plus
every reject path the validator knows."""

from dataclasses import replace
from pathlib import Path

import pytest

from portsec import sim as sim_module
from portsec.adapter import (
    PHASES,
    CarriedSignatureInvalid,
    FindingCode,
    Hop,
    NotValidated,
    forward,
    report_to_wire,
    secure_outbound,
    validate_inbound,
    _store_signatures,
)
from portsec.envelope import (
    DEFAULT_SUITE,
    KEY_TABLE_SIZE,
    field_digests,
    multi_sign,
    value_digest,
)
from portsec.attacks import battery, inject_attack, replace_signature
from portsec.audit import audit_views
from portsec.fixtures import build_world, fixtures_from_bytes
from portsec.model import (
    AttributeSignature,
    HashOnly,
    Message,
    Plain,
    Sealed,
    SecuredMessage,
    from_flat,
    to_flat,
)
from portsec.policy import Role
from portsec.sim import run_scenario

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.psf"

VALUES = {
    "B_NO": "BKG-7401",
    "BL_NO": "BL-55821",
    "CNT_C": "400 cartons machine parts",
    "CNT_W": "18400 kg",
    "CSG_DATA": "consignee ACME Imports, notify NordFreight GmbH",
    "CNT_NO": "COSU1234567",
}


def _codes(report) -> set[FindingCode]:
    return {f.code for f in report.findings}


def _found(report) -> list[tuple[FindingCode, str]]:
    return [(f.code, f.subject) for f in report.findings]


def importer_signature(world, run_id, values=VALUES):
    """The importer's pre-run signature over booking number and consignment
    details, produced by securing its order message to the shipping line."""
    imp = world.adapter("importer-1")
    msg = Message(
        "PORT_ORDER",
        run_id,
        tuple((a, Plain(values[a])) for a in ("B_NO", "CNT_C", "CSG_DATA")),
    )
    sm = secure_outbound(imp, msg, [], Role.SHIPPING_LINE)
    assert len(sm.signatures) == 1
    return sm.signatures[0]


def make_iftmcs(world, run_id="RUN-1", values=VALUES):
    """Shipping line -> PCS manifest carrying the importer's signature."""
    imp_sig = importer_signature(world, run_id, values)
    sl = world.adapter("sl1-clerk")
    msg = Message(
        "IFTMCS",
        run_id,
        tuple((a, Plain(values[a])) for a in ("B_NO", "BL_NO", "CNT_C", "CNT_W", "CSG_DATA", "CNT_NO")),
    )
    return secure_outbound(
        sl,
        msg,
        [imp_sig],
        Role.PCS,
        dict.fromkeys(("CNT_C", "CSG_DATA"), ("customs-officer",)),
    )


def test_secure_outbound_shape(world):
    sm = make_iftmcs(world)
    assert sm.sender == "sl1-clerk"
    assert len(sm.signatures) == 2
    assert sm.signatures[0].signer == "importer-1"
    assert sm.signatures[1].signer == "sl1-clerk"
    assert sm.signatures[1].attrs == ("B_NO", "BL_NO", "CNT_W", "CNT_NO")
    for attr in ("B_NO", "BL_NO", "CNT_W", "CNT_NO"):
        assert isinstance(sm.message.get(attr), Plain)
    for attr in ("CNT_C", "CSG_DATA"):
        sealed = sm.message.get(attr)
        assert isinstance(sealed, Sealed)
        assert set(sealed.wrapped_keys) == {"customs-officer"}
        assert sealed.digest == value_digest(VALUES[attr])


def test_pcs_accepts_and_sees_only_its_columns(world):
    sm = make_iftmcs(world)
    pcs = world.adapter("pcs-op")
    report = validate_inbound(pcs, sm, world.chain_of("sl1-clerk"))
    assert report.accepted, report.findings
    assert set(report.decrypted_view) == {"B_NO", "BL_NO", "CNT_W", "CNT_NO"}
    assert not _codes(report) & {FindingCode.SIGNATURE_INVALID, FindingCode.CHAIN_INVALID}


def test_forward_to_customs(world):
    sm = make_iftmcs(world)
    pcs = world.adapter("pcs-op")
    report = validate_inbound(pcs, sm, world.chain_of("sl1-clerk"))
    fwd = forward(pcs, report, sm, Role.CUSTOMS, "MANIFEST")

    assert fwd.message.msg_type == "MANIFEST"
    assert fwd.sender == "pcs-op"
    assert fwd.message.get("B_NO") == HashOnly(value_digest(VALUES["B_NO"]))
    # Sealed fields pass through byte-identical: the original seal survives.
    assert fwd.message.get("CNT_C") == sm.message.get("CNT_C")
    assert fwd.signatures == sm.signatures

    customs = world.adapter("customs-officer")
    rep = validate_inbound(customs, fwd, world.chain_of("pcs-op"))
    assert rep.accepted, rep.findings
    assert set(rep.decrypted_view) == {"BL_NO", "CNT_W", "CNT_NO", "CNT_C", "CSG_DATA"}
    assert "B_NO" not in rep.decrypted_view
    assert rep.decrypted_view["CNT_C"] == VALUES["CNT_C"]


def test_forward_requires_acceptance(world):
    sm = make_iftmcs(world)
    pcs = world.adapter("pcs-op")
    tampered = SecuredMessage(
        sm.message.replace_field("CNT_W", Plain("1 kg")), sm.signatures, sm.sender
    )
    report = validate_inbound(pcs, tampered, world.chain_of("sl1-clerk"))
    assert not report.accepted
    with pytest.raises(NotValidated):
        forward(pcs, report, tampered, Role.CUSTOMS, "MANIFEST")


def test_a_sender_that_may_write_nothing_signs_nothing(world):
    """t1-op may write neither CNT_C nor B_NO, so its message carries no
    signature of its own, and the receiver finds both unvouched for."""
    t1 = world.adapter("t1-op")
    msg = Message("CODECO", "RUN-1", (
        ("B_NO", HashOnly(value_digest(VALUES["B_NO"]))),
        ("CNT_C", HashOnly(value_digest("contraband"))),
    ))
    sm = secure_outbound(t1, msg, [], Role.CUSTOMS)
    assert sm.signatures == ()
    report = validate_inbound(world.adapter("customs-officer"), sm, world.chain_of("t1-op"))
    assert not report.accepted
    assert _found(report) == [
        (FindingCode.WRITE_COVERAGE_GAP, "B_NO"),
        (FindingCode.WRITE_COVERAGE_GAP, "CNT_C"),
    ]


def test_carried_signature_checked_outbound(world):
    imp_sig = importer_signature(world, "RUN-1")
    sl = world.adapter("sl1-clerk")
    altered = dict(VALUES, CSG_DATA="consignee changed")
    msg = Message(
        "IFTMCS",
        "RUN-1",
        tuple((a, Plain(altered[a])) for a in ("B_NO", "BL_NO", "CNT_C", "CNT_W", "CSG_DATA", "CNT_NO")),
    )
    with pytest.raises(CarriedSignatureInvalid):
        secure_outbound(sl, msg, [imp_sig], Role.PCS,
                        dict.fromkeys(("CNT_C", "CSG_DATA"), ("customs-officer",)))


def test_in_transit_tamper_detected(world):
    sm = make_iftmcs(world)
    pcs = world.adapter("pcs-op")
    tampered = SecuredMessage(
        sm.message.replace_field("CNT_W", Plain("99999 kg")), sm.signatures, sm.sender
    )
    report = validate_inbound(pcs, tampered, world.chain_of("sl1-clerk"))
    assert not report.accepted
    assert FindingCode.SIGNATURE_INVALID in _codes(report)


def test_signature_byte_flip_detected(world):
    sm = make_iftmcs(world)
    sig = sm.signatures[1]
    broken = type(sig)(sig.signer, sig.attrs, sig.sig[:-1] + bytes([sig.sig[-1] ^ 1]))
    tampered = SecuredMessage(sm.message, (sm.signatures[0], broken), sm.sender)
    pcs = world.adapter("pcs-op")
    report = validate_inbound(pcs, tampered, world.chain_of("sl1-clerk"))
    assert not report.accepted
    assert FindingCode.SIGNATURE_INVALID in _codes(report)


def test_write_coverage_gap(world):
    """Dropping the importer's signature leaves the consignment attributes
    vouched for by nobody with write permission."""
    sm = make_iftmcs(world)
    stripped = SecuredMessage(sm.message, (sm.signatures[1],), sm.sender)
    pcs = world.adapter("pcs-op")
    report = validate_inbound(pcs, stripped, world.chain_of("sl1-clerk"))
    assert not report.accepted
    gaps = {f.subject for f in report.findings if f.code is FindingCode.WRITE_COVERAGE_GAP}
    assert gaps == {"CNT_C", "CSG_DATA"}


def test_unauthorized_author_is_a_coverage_gap(world):
    """A terminal clerk hand-rolls a consignment update: the signature is
    cryptographically fine but no writer-role covers CNT_C."""
    t1 = world.adapter("t1-op")
    msg = Message("IFTMCS", "RUN-X", (("CNT_C", Plain("808 cartons")),))
    sig = multi_sign(t1.key_pair, ["CNT_C"], field_digests(msg))
    sm = SecuredMessage(msg, (sig,), "t1-op")
    customs = world.adapter("customs-officer")
    report = validate_inbound(customs, sm, world.chain_of("t1-op"))
    assert not report.accepted
    assert {f.subject for f in report.findings if f.code is FindingCode.WRITE_COVERAGE_GAP} == {"CNT_C"}


def test_representation_violation_plaintext_overshare(world):
    sl = world.adapter("sl1-clerk")
    sig_src = make_iftmcs(world)
    # Rebuild with CNT_C in the clear and ship it to PCS, which may not read it.
    leaky = SecuredMessage(
        sig_src.message.replace_field("CNT_C", Plain(VALUES["CNT_C"])),
        sig_src.signatures,
        sig_src.sender,
    )
    pcs = world.adapter("pcs-op")
    report = validate_inbound(pcs, leaky, world.chain_of("sl1-clerk"))
    assert not report.accepted
    assert FindingCode.REPRESENTATION_VIOLATION in _codes(report)
    assert "CNT_C" not in report.decrypted_view  # never surfaced to the actor


def test_sealed_ciphertext_tamper_found_at_opener(world):
    sm = make_iftmcs(world)
    sealed = sm.message.get("CNT_C")
    ct = bytearray(sealed.ciphertext)
    ct[0] ^= 0xFF
    patched = SecuredMessage(
        sm.message.replace_field("CNT_C", Sealed(sealed.digest, bytes(ct), sealed.wrapped_keys)),
        sm.signatures,
        sm.sender,
    )
    pcs = world.adapter("pcs-op")
    rep_pcs = validate_inbound(pcs, patched, world.chain_of("sl1-clerk"))
    # PCS cannot open the field; nothing else changed, so it still accepts.
    assert rep_pcs.accepted
    fwd = forward(pcs, rep_pcs, patched, Role.CUSTOMS, "MANIFEST")
    customs = world.adapter("customs-officer")
    rep = validate_inbound(customs, fwd, world.chain_of("pcs-op"))
    assert not rep.accepted
    assert FindingCode.DIGEST_MISMATCH in _codes(rep)


def test_sealed_plaintext_that_is_not_utf8_is_a_finding(base_fixtures, world):
    """An on-path attacker holding only customs' public key seals bytes no
    value encodes to, under their own digest: the hop rejects, it does
    not raise."""
    raw, key = b"\xff\xfe not utf-8", bytes(32)
    customs = world.chain_of("customs-officer")[0].public_key
    forged = Sealed(
        DEFAULT_SUITE.digest(raw), DEFAULT_SUITE.encrypt(key, raw),
        {"customs-officer": DEFAULT_SUITE.wrap_key(customs, key)},
    )

    def attack(step, sm):
        if step != "export_declaration":
            return sm
        return SecuredMessage(sm.message.replace_field("CNT_C", forged), sm.signatures, sm.sender)

    sim = run_scenario(base_fixtures, "export", "p2p", world=world, interceptor=attack)
    report, _ = sim.inbound["export_declaration"]
    assert [(f.code, f.subject) for f in report.findings] == [
        (FindingCode.SIGNATURE_INVALID, "importer-1"),
        (FindingCode.WRITE_COVERAGE_GAP, "DG"),
        (FindingCode.WRITE_COVERAGE_GAP, "CNT_C"),
        (FindingCode.WRITE_COVERAGE_GAP, "CSG_DATA"),
        (FindingCode.DIGEST_MISMATCH, "CNT_C"),
    ]
    assert report.findings[-1].detail == "plaintext is not UTF-8"
    assert "clearance" not in sim.inbound  # the run halts at the rejection


def test_nonce_reuse_warning(world):
    pcs = world.adapter("pcs-op")
    first = make_iftmcs(world, run_id="RUN-A")
    assert validate_inbound(pcs, first, world.chain_of("sl1-clerk")).accepted
    second = make_iftmcs(world, run_id="RUN-B")  # same booking number
    report = validate_inbound(pcs, second, world.chain_of("sl1-clerk"))
    assert report.accepted  # warning-class by default
    reuse = [f for f in report.findings if f.code is FindingCode.NONCE_REUSE]
    assert reuse and reuse[0].severity.value == "WARNING"
    assert "RUN-A" in reuse[0].detail


def test_revoked_sender_chain(world):
    sm = make_iftmcs(world)
    world.trust.cas["SL1-CA"].revoke(world.chain_of("sl1-clerk")[0].serial)
    pcs = world.adapter("pcs-op")
    report = validate_inbound(pcs, sm, world.chain_of("sl1-clerk"))
    assert not report.accepted
    chain_findings = [f for f in report.findings if f.code is FindingCode.CHAIN_INVALID]
    assert chain_findings and "Revoked" in chain_findings[0].detail


def test_each_signer_chain_validated_once_per_message(world, monkeypatch):
    """Two signatures by one revoked signer the trust view holds: one chain
    walk for that signer, still one finding per signature."""
    import portsec.pki

    imp = world.adapter("importer-1")
    msg = Message("IFTMCS", "RUN-1", tuple((a, Plain(VALUES[a])) for a in ("B_NO", "CNT_C")))
    signatures = tuple(
        multi_sign(imp.key_pair, attrs, field_digests(msg))
        for attrs in (("B_NO", "CNT_C"), ("CNT_C",))
    )
    sm = SecuredMessage(msg, signatures, "sl1-clerk")
    world.trust.cas["IMP1-CA"].revoke(world.chain_of("importer-1")[0].serial)

    walks = []
    validate = portsec.pki.validate_chain

    def counting(leaf, *args, **kwargs):
        walks.append(leaf.subject)
        return validate(leaf, *args, **kwargs)

    monkeypatch.setattr(portsec.pki, "validate_chain", counting)
    report = validate_inbound(world.adapter("pcs-op"), sm, world.chain_of("sl1-clerk"))
    assert sorted(walks) == ["importer-1", "sl1-clerk"]
    revoked = [f for f in report.findings
               if f.code is FindingCode.CHAIN_INVALID and f.subject == "importer-1"]
    assert len(revoked) == 2
    assert all(f.detail.startswith("signer chain Revoked: importer-1") for f in revoked)


def _splice(world):
    """Run 1's manifest accepted at the PCS, and run 2's manifest carrying
    run 1's importer signature: (PCS state, run 1, spliced run 2)."""
    pcs = world.adapter("pcs-op")
    run1 = make_iftmcs(world, run_id="SPL-R1")
    assert validate_inbound(pcs, run1, world.chain_of("sl1-clerk")).accepted

    values2 = dict(VALUES, B_NO="BKG-9999")
    run2 = make_iftmcs(world, run_id="SPL-R2", values=values2)
    spliced = SecuredMessage(run2.message, (run1.signatures[0], run2.signatures[1]), run2.sender)
    return pcs, run1, spliced


def _linkage(report):
    return [(f.subject, f.detail) for f in report.findings
            if f.code is FindingCode.LINKAGE_MISMATCH]


def test_replay_splice_flagged_as_linkage_mismatch(world):
    """Importer signature from run 1 stitched into run 2's message: the
    booking numbers disagree, and the store knows where the original went."""
    pcs, run1, spliced = _splice(world)
    report = validate_inbound(pcs, spliced, world.chain_of("sl1-clerk"))
    assert not report.accepted
    linkage = [f for f in report.findings if f.code is FindingCode.LINKAGE_MISMATCH]
    assert linkage, report.findings
    assert linkage[0].subject == "B_NO"
    assert "SPL-R1" in linkage[0].detail
    # The forensic trail: the original signature is on file under run 1.
    run1_records = [r for r in pcs.signature_store if r.instance_id == "SPL-R1"]
    assert any(r.signature.sig == run1.signatures[0].sig for r in run1_records)


#: Booking Z, run after booking X on the same world: another booking
#: number, container and weight.
BOOKING_Z = {"B_NO": "BKG-8802", "CNT_NO": "MSCU7654321", "CNT_W": "9100 kg"}


def _booking_x(base_fixtures, scenario):
    """A fresh world that has run booking X honestly, and Z's fixtures."""
    world = build_world(base_fixtures)
    x = run_scenario(base_fixtures.with_values(run_tag="X"), scenario, "p2p", world=world)
    assert x.transcript.verdict == "PASS"
    return world, x, base_fixtures.with_values(run_tag="Z", **BOOKING_Z)


def test_a_clearance_moved_to_a_booking_customs_never_saw_is_rejected(base_fixtures):
    """Z stops after move_lcu, so customs never sees it. pcs-op then sends
    t1-op an IFSTA that holds Z's fields under sl1-clerk's Z signatures and
    CLR under customs' signature from X. CLR reads CLEARED in both runs, so
    only the booking number the signature covers tells them apart."""
    world, x, fz = _booking_x(base_fixtures, "export")
    steps = sim_module.export_steps("p2p")
    cut = [s.name for s in steps].index("move_lcu") + 1
    z = sim_module.Simulation(sim_module.ScenarioScript("export", "p2p", steps[:cut], fz),
                              world=world).run()
    assert z.transcript.verdict == "PASS"
    assert all(ev.receiver != "customs-officer" for ev in z.transcript.sent_events())
    x_clearance = x.inbound["clearance_terminal"][1]
    at_pcs = z.inbound["move_lcu"][1]
    names = ("B_NO", "CNT_NO", "CNT_W")
    ifsta = SecuredMessage(
        Message("IFSTA", "Z", tuple((n, at_pcs.message.get(n)) for n in names)
                + (("CLR", x_clearance.message.get("CLR")),)),
        tuple(s for s in at_pcs.signatures if set(s.attrs) <= set(names))
        + tuple(s for s in x_clearance.signatures if s.signer == "customs-officer"),
        "pcs-op",
    )
    report = validate_inbound(world.adapter("t1-op"), ifsta, world.chain_of("pcs-op"))
    assert not report.accepted
    assert _found(report) == [(FindingCode.LINKAGE_MISMATCH, "B_NO"),
                              (FindingCode.WRITE_COVERAGE_GAP, "CLR")]


@pytest.mark.parametrize("scenario, hop, signer, attr", [
    ("export", "move_lcu", "t1-op", "CNT_LOC"),
    ("import", "atb_notice", "customs-officer", "ATB_NO"),
])
def test_a_signature_moved_to_another_booking_is_rejected(base_fixtures, scenario, hop,
                                                          signer, attr):
    """At ``hop`` of booking Z, the signer's Z signature gives way to its
    signature from X, and ``attr`` to X's value: the receiver holds X's
    signature on file under X's booking number."""
    world, x, fz = _booking_x(base_fixtures, scenario)
    at_x = x.inbound[hop][1]
    stolen = next(s for s in at_x.signatures if s.signer == signer)

    def strike(name, sm):
        if name != hop:
            return sm
        sm = replace_signature(sm, signer, lambda _: stolen)
        return SecuredMessage(sm.message.replace_field(attr, at_x.message.get(attr)),
                              sm.signatures, sm.sender)

    z = run_scenario(fz, scenario, "p2p", world=world, interceptor=strike)
    report = z.inbound[hop][0]
    assert not report.accepted
    assert _found(report) == [(FindingCode.LINKAGE_MISMATCH, "B_NO"),
                              (FindingCode.WRITE_COVERAGE_GAP, attr)]


def test_a_writers_signature_that_names_no_booking_covers_nothing(base_fixtures):
    """Customs' own key signs CLR alone: the signature verifies, but it
    binds no booking, so phase (c) counts it toward nothing."""
    world = build_world(base_fixtures)
    customs = world.adapter("customs-officer").key_pair

    def strike(name, sm):
        if name != "clearance":
            return sm
        unbound = multi_sign(customs, ["CLR"], field_digests(sm.message))
        return replace_signature(sm, "customs-officer", lambda _: unbound)

    sim = run_scenario(base_fixtures, "export", "p2p", world=world, interceptor=strike)
    report = sim.inbound["clearance"][0]
    assert _found(report) == [(FindingCode.WRITE_COVERAGE_GAP, "CLR")]


def test_store_appends_even_on_reject(world):
    pcs = world.adapter("pcs-op")
    sm = make_iftmcs(world)
    tampered = SecuredMessage(
        sm.message.replace_field("CNT_W", Plain("tampered")), sm.signatures, sm.sender
    )
    before = len(pcs.signature_store)
    validate_inbound(pcs, tampered, world.chain_of("sl1-clerk"))
    after = [r for r in pcs.signature_store if r.instance_id == sm.message.instance_id]
    assert len(pcs.signature_store) == before + len(sm.signatures)
    assert len(after) == len(sm.signatures)


class _Unscannable(list):
    """A store that may grow but not be read through."""

    def __iter__(self):
        raise AssertionError("the whole signature store was scanned")


def test_linkage_reads_only_its_index_entry(base_fixtures, world):
    """The splice found in a store padded with 10,000 unrelated receipts,
    one of them the stolen bytes under another signer, that no one may
    iterate: the same findings as in a fresh store."""
    pcs, _, spliced = _splice(world)
    expected = _linkage(validate_inbound(pcs, spliced, world.chain_of("sl1-clerk")))
    assert expected and expected[0][0] == "B_NO"

    padded = build_world(base_fixtures)
    pcs, run1, spliced = _splice(padded)
    stolen = run1.signatures[0].sig
    pad = [AttributeSignature(signer, ("B_NO",), i.to_bytes(256, "big"))
           for i in range(5_000) for signer in ("importer-1", "sl1-clerk")]
    pad[0] = AttributeSignature("t2-op", ("B_NO",), stolen)
    msg = Message("IFTMCS", "PAD", (("B_NO", Plain("BKG-0001")),))
    _store_signatures(pcs, SecuredMessage(msg, tuple(pad), "sl1-clerk"),
                      field_digests(msg), received_from="sl1-clerk")
    before = len(pcs.signature_store)
    pcs.signature_store = _Unscannable(pcs.signature_store)

    report = validate_inbound(pcs, spliced, padded.chain_of("sl1-clerk"))
    assert _linkage(report) == expected
    assert len(pcs.signature_store) == before + len(spliced.signatures)


def test_a_repeated_signature_is_filed_as_the_object_on_file(world):
    """The same manifest received twice, each copy decoded on its own:
    each signature is one object in the store, with one digest tuple. The
    same bytes relabelled to other attributes are a signature of their
    own, kept as their own object."""
    pcs = world.adapter("pcs-op")
    sm = make_iftmcs(world)
    copies = [from_flat(to_flat(sm)) for _ in range(2)]
    assert copies[0].signatures[0] is not copies[1].signatures[0]
    for copy in copies:
        validate_inbound(pcs, copy, world.chain_of("sl1-clerk"))
    for sig in sm.signatures:
        first, again = pcs.signature_index[(sig.signer, sig.sig)]
        assert again.signature is first.signature
        assert again.attr_digests is first.attr_digests
        assert again.instance_id == first.instance_id == sm.message.instance_id

    imp_sig = sm.signatures[0]
    relabelled = replace(imp_sig, attrs=imp_sig.attrs[::-1])
    validate_inbound(pcs, SecuredMessage(sm.message, (relabelled,), sm.sender),
                     world.chain_of("sl1-clerk"))
    first, _, own = pcs.signature_index[(imp_sig.signer, imp_sig.sig)]
    assert own.signature == relabelled and own.signature is not first.signature
    assert pcs.signature_store[-1] is own


def test_store_records_are_compact_and_in_signature_order(world):
    """A receipt carries no per-instance dict, and its digests are those
    of ``signature.attrs``, in that order, whatever the message's order."""
    pcs = world.adapter("pcs-op")
    sm = make_iftmcs(world)
    sl = world.adapter("sl1-clerk")
    reordered = multi_sign(sl.key_pair, ("CNT_NO", "B_NO", "CNT_W"),
                           field_digests(sm.message))
    sm = SecuredMessage(sm.message, (*sm.signatures, reordered), sm.sender)
    validate_inbound(pcs, sm, world.chain_of("sl1-clerk"))
    digests = field_digests(sm.message)
    filed = pcs.signature_store[-len(sm.signatures):]
    assert [r.signature for r in filed] == list(sm.signatures)
    for rec in filed:
        assert rec.attr_digests == tuple(digests[a] for a in rec.signature.attrs)
        assert not hasattr(rec, "__dict__") and not hasattr(rec.signature, "__dict__")


def test_no_adapter_shares_signature_or_digest_bytes(honest_sims):
    """Repeats share objects inside one store only: across the honest p2p
    runs' adapters, no signature, signature bytes or digest is one object
    in two stores."""
    for scenario in ("export", "import"):
        owner = {}
        for ident, state in honest_sims[(scenario, "p2p")].world.adapters.items():
            held = {id(o) for rec in state.signature_store
                    for o in (rec.signature, rec.signature.sig, *rec.attr_digests)}
            for obj in held:
                assert owner.setdefault(obj, ident) == ident, (scenario, ident, owner[obj])


def test_report_wire_form(world):
    sm = make_iftmcs(world)
    pcs = world.adapter("pcs-op")
    report = validate_inbound(pcs, sm, world.chain_of("sl1-clerk"))
    wire = report_to_wire(report)
    assert wire.startswith(b"VERDICT+ACCEPT'")
    assert b"FINDING" not in wire  # honest run: no findings at all


# --- one content key per message and reader set -----------------------------


def _unwrap(world, who, sealed):
    """The content key under ``sealed``, unwrapped outside any count."""
    return DEFAULT_SUITE.unwrap_key(world.adapter(who).key_pair.private, sealed.wrapped_keys[who])


def test_one_content_key_per_message_and_reader_set(world):
    """To the port authority, with customs and the importer reached later:
    B_NO is sealed for the importer alone, CNT_C and CSG_DATA for both.
    Those two share one key and its wraps, each with its own nonce; the
    importer-only group and every group of a second message get keys of
    their own."""
    sl = world.adapter("sl1-clerk")
    msg = Message(
        "IFTMCS", "RUN-1", tuple((a, Plain(VALUES[a])) for a in ("B_NO", "CNT_C", "CSG_DATA"))
    )
    keys = []
    for _ in range(2):
        sm = secure_outbound(sl, msg, [], Role.PORT_AUTHORITY, dict.fromkeys(
            ("B_NO", "CNT_C", "CSG_DATA"), ("customs-officer", "importer-1")))
        b_no, cnt_c, csg = (sm.message.get(a) for a in ("B_NO", "CNT_C", "CSG_DATA"))
        assert set(b_no.wrapped_keys) == {"importer-1"}
        assert set(cnt_c.wrapped_keys) == {"customs-officer", "importer-1"}
        assert csg.wrapped_keys == cnt_c.wrapped_keys
        assert cnt_c.ciphertext[:12] != csg.ciphertext[:12]
        assert _unwrap(world, "customs-officer", cnt_c) == _unwrap(world, "importer-1", cnt_c)
        keys += [_unwrap(world, "importer-1", b_no), _unwrap(world, "importer-1", cnt_c)]
    assert len(set(keys)) == 4


def _export_unwraps(base_fixtures, edit=None, at="arrival_codeco"):
    """One export booking on a fresh world; ``edit(world, sm)`` may change
    the message delivered at step ``at``. At arrival_codeco t1-op forwards
    to sl1-clerk the CNT_C and CSG_DATA that sl1-clerk sealed at delivery.
    Returns the run and the (step, actor) of every RSA-OAEP unwrap."""
    world = build_world(base_fixtures)
    owners = {state.key_pair.private: who for who, state in world.adapters.items()}
    unwraps, step = [], [None]
    unwrap = DEFAULT_SUITE.unwrap_key

    def recording(private, wrapped):
        unwraps.append((step[0], owners[private]))
        return unwrap(private, wrapped)

    def intercept(name, sm):
        step[0] = name
        return edit(world, sm) if edit and name == at else sm

    DEFAULT_SUITE.unwrap_key = recording  # shadows the method for this run only
    try:
        sim = run_scenario(base_fixtures, "export", "p2p", world=world, interceptor=intercept)
    finally:
        del DEFAULT_SUITE.unwrap_key
    return sim, unwraps


def _findings(sim, step):
    report, _ = sim.inbound[step]
    return report.verdict, [(f.code, f.subject, f.detail) for f in report.findings]


def test_each_reader_unwraps_a_content_key_at_most_once(base_fixtures):
    """sl1-clerk opens at arrival_codeco the fields it sealed at delivery
    from its own table; customs, which holds only the wrap, unwraps once
    for both fields of the group."""
    sim, unwraps = _export_unwraps(base_fixtures)
    assert sim.transcript.verdict == "PASS"
    assert unwraps == [("export_declaration", "customs-officer")]
    sealed = sim.inbound["delivery"][1].message.get("CNT_C")
    assert sim.world.adapter("sl1-clerk").content_keys[sealed.wrapped_keys["sl1-clerk"]] == (
        sim.world.adapter("customs-officer").content_keys[sealed.wrapped_keys["customs-officer"]]
    )


def test_a_table_hit_still_decrypts_and_checks(base_fixtures):
    def flip(world, sm):
        sealed = sm.message.get("CNT_C")
        ct = sealed.ciphertext[:-1] + bytes([sealed.ciphertext[-1] ^ 1])
        return SecuredMessage(
            sm.message.replace_field("CNT_C", Sealed(sealed.digest, ct, sealed.wrapped_keys)),
            sm.signatures, sm.sender,
        )

    sim, unwraps = _export_unwraps(base_fixtures, flip)
    assert _findings(sim, "arrival_codeco") == (
        "REJECT", [(FindingCode.DIGEST_MISMATCH, "CNT_C", "authentication tag mismatch")]
    )
    assert unwraps == []


@pytest.mark.parametrize("same_key", [True, False], ids=["same key", "other key"])
def test_another_valid_blob_is_unwrapped_as_without_the_table(base_fixtures, same_key):
    """CNT_C's wrapped key for sl1-clerk is replaced by a fresh wrap of the
    same content key, or of another key. The new bytes miss the table and
    are unwrapped; the report equals the one sl1-clerk gives with an empty
    table, which unwraps both fields."""
    def rewrap(clear_table):
        def edit(world, sm):
            sl = world.adapter("sl1-clerk")
            sealed = sm.message.get("CNT_C")
            # the key sl1-clerk sealed under, from its table: no unwrap joins the record
            key = sl.content_keys[sealed.wrapped_keys["sl1-clerk"]] if same_key else bytes(32)
            blob = DEFAULT_SUITE.wrap_key(sl.key_pair.public_key, key)
            if clear_table:
                sl.content_keys.clear()
            wrapped = dict(sealed.wrapped_keys, **{"sl1-clerk": blob})
            return SecuredMessage(
                sm.message.replace_field("CNT_C", Sealed(sealed.digest, sealed.ciphertext, wrapped)),
                sm.signatures, sm.sender,
            )
        return edit

    runs = [_export_unwraps(base_fixtures, rewrap(clear)) for clear in (False, True)]
    at_hop = [[u for u in unwraps if u[0] == "arrival_codeco"] for _, unwraps in runs]
    assert at_hop == [[("arrival_codeco", "sl1-clerk")], [("arrival_codeco", "sl1-clerk")] * 2]
    (warm, _), (cold, _) = runs
    assert _findings(warm, "arrival_codeco") == _findings(cold, "arrival_codeco")
    assert _findings(warm, "arrival_codeco")[0] == ("ACCEPT" if same_key else "REJECT")


def test_a_key_in_another_actors_table_opens_nothing(base_fixtures):
    """sl1-clerk's blob for CNT_C, which its table holds, is put under
    customs' name at export_declaration: customs unwraps it with its own
    key, which fails, as it would with no table at all."""
    def swap(world, sm):
        sealed = sm.message.get("CNT_C")
        wrapped = dict(sealed.wrapped_keys, **{"customs-officer": sealed.wrapped_keys["sl1-clerk"]})
        assert wrapped["customs-officer"] in world.adapter("sl1-clerk").content_keys
        return SecuredMessage(
            sm.message.replace_field("CNT_C", Sealed(sealed.digest, sealed.ciphertext, wrapped)),
            sm.signatures, sm.sender,
        )

    sim, unwraps = _export_unwraps(base_fixtures, swap, at="export_declaration")
    verdict, findings = _findings(sim, "export_declaration")
    assert verdict == "REJECT"
    assert [(code, subject) for code, subject, _ in findings] == [
        (FindingCode.DIGEST_MISMATCH, "CNT_C")
    ]
    assert findings[0][2].startswith("key unwrap failed")
    assert unwraps == [("export_declaration", "customs-officer")] * 2


@pytest.mark.parametrize("holder, detail", [
    ("pa-officer", "wrapped key offered to pa-officer (PORT_AUTHORITY) without read permission"),
    ("ghost", "wrapped key offered to ghost, who is not in the directory"),
], ids=["non-reader", "unknown"])
def test_a_key_overshared_to_a_non_reader_is_refused_at_the_first_receiver(
    base_fixtures, holder, detail
):
    """sl1-clerk adds to CNT_C at delivery a wrap of its content key for a
    holder that may not read it: the port authority, whose role may not
    read CNT_C, or an identity the trust view lacks. t1-op, which holds no
    key of its own, refuses the hop on CNT_C alone, and the run halts."""
    def overshare(world, sm):
        sealed = sm.message.get("CNT_C")
        key = world.adapter("sl1-clerk").content_keys[sealed.wrapped_keys["sl1-clerk"]]
        blob = DEFAULT_SUITE.wrap_key(world.adapter("pa-officer").key_pair.public_key, key)
        wrapped = dict(sealed.wrapped_keys, **{holder: blob})
        return SecuredMessage(
            sm.message.replace_field("CNT_C", Sealed(sealed.digest, sealed.ciphertext, wrapped)),
            sm.signatures, sm.sender,
        )

    sim, _ = _export_unwraps(base_fixtures.with_values(DG="false"), overshare, at="delivery")
    assert _findings(sim, "delivery") == (
        "REJECT", [(FindingCode.REPRESENTATION_VIOLATION, "CNT_C", detail)]
    )
    assert sim.transcript.verdict == "FAIL"
    assert "arrival_icu" not in sim.inbound


def test_key_table_stays_at_its_bound(base_fixtures, world):
    """100 bookings on one world: every table holds at most
    ``KEY_TABLE_SIZE`` keys, the oldest leaving first."""
    first = last = None
    for n in range(100):
        fx = base_fixtures.with_values(run_tag=f"K{n}", B_NO=f"BKG-{n}")
        sim = run_scenario(fx, "export", "p2p", world=world)
        assert sim.transcript.verdict == "PASS"
        last = sim.inbound["delivery"][1].message.get("CNT_C").wrapped_keys["sl1-clerk"]
        first = first or last
    sizes = {who: len(state.content_keys) for who, state in world.adapters.items()}
    assert sizes["sl1-clerk"] == sizes["customs-officer"] == KEY_TABLE_SIZE
    assert max(sizes.values()) == KEY_TABLE_SIZE
    table = world.adapter("sl1-clerk").content_keys
    assert last in table and first not in table


class _NoPrivateKey:
    """A key pair whose private half no one may read."""

    def __init__(self, owner):
        self.owner = owner

    @property
    def private(self):
        raise AssertionError(f"a validation phase read {self.owner}'s private key")


def test_phases_need_no_private_key_and_are_the_live_rule(monkeypatch):
    """Before each live hop of the honest p2p runs and the p2p battery over
    the committed world, ``PHASES`` runs alone on a copy of the receiver
    with no private key and no content key. It writes nothing to the
    copy's store or booking map, and finds what the live report finds,
    less what decryption finds. The export's messages, misrouted to the
    port authority without a chain, add the findings of phases (a) and
    (d); so each finding code but decryption's shows up, and no phase can
    leave the tuple unseen."""
    live = sim_module.validate_inbound
    hops = []

    def phases_then_live(state, sm, chain):
        copy = replace(state, key_pair=_NoPrivateKey(state.identity), content_keys={},
                       signature_store=list(state.signature_store),
                       signature_index={k: list(v) for k, v in state.signature_index.items()},
                       seen_booking_numbers=dict(state.seen_booking_numbers))
        hop = Hop(copy, sm, chain)
        for phase in PHASES:
            phase(hop)
        assert copy.signature_store == state.signature_store
        assert copy.signature_index == state.signature_index
        assert copy.seen_booking_numbers == state.seen_booking_numbers
        report = live(state, sm, chain)
        hops.append((report, hop.findings))
        return report

    monkeypatch.setattr(sim_module, "validate_inbound", phases_then_live)
    fx = fixtures_from_bytes(GOLDEN.read_bytes())
    export = run_scenario(fx, "export", "p2p")
    run_scenario(fx, "import", "p2p")
    for scenario in ("export", "import"):
        for spec in battery(scenario):
            inject_attack(fx, scenario, spec, "p2p")
    for _, sm in export.inbound.values():
        phases_then_live(export.world.adapter("pa-officer"), sm, ())
    for report, found in hops:
        assert found == [f for f in report.findings if f.code is not FindingCode.DIGEST_MISMATCH]
    assert {report.verdict for report, _ in hops} == {"ACCEPT", "REJECT"}
    assert {f.code for _, found in hops for f in found} == set(FindingCode) - {
        FindingCode.DIGEST_MISMATCH}


@pytest.mark.parametrize("value", [Plain("x"), HashOnly(bytes(32))], ids=["plain", "hash-only"])
def test_an_attribute_the_policy_does_not_hold_is_a_finding(value):
    """The export's delivery reaches t1-op with one more field, ZZZ, which
    the policy does not name. Nobody may write it, so no signature covers
    it; nobody may read it, so its plaintext is a representation
    violation. The hop rejects and nothing raises; the audit flags the
    plaintext for t1-op."""
    def append(step, sm):
        if step != "delivery":
            return sm
        msg = sm.message
        fields = msg.fields + (("ZZZ", value),)
        return SecuredMessage(Message(msg.msg_type, msg.instance_id, fields), sm.signatures,
                              sm.sender)

    sim = run_scenario(fixtures_from_bytes(GOLDEN.read_bytes()), "export", "p2p",
                       interceptor=append)
    report, _ = sim.inbound["delivery"]
    expected = [(FindingCode.WRITE_COVERAGE_GAP, "ZZZ")]
    if isinstance(value, Plain):
        expected.append((FindingCode.REPRESENTATION_VIOLATION, "ZZZ"))
    assert report.verdict == "REJECT"
    assert [(f.code, f.subject) for f in report.findings] == expected
    assert "ZZZ" not in report.decrypted_view
    excess = audit_views(sim.transcript).excess
    assert excess["t1-op"] == ({"ZZZ"} if isinstance(value, Plain) else frozenset())
