"""World construction from a fixture set: which private keys load, and when."""

from collections import Counter
from dataclasses import replace

import pytest

from cryptography.hazmat.primitives.asymmetric import ec, rsa
from cryptography.hazmat.primitives.serialization import load_der_public_key

from portsec.adapter import FindingCode
from portsec.envelope import DEFAULT_SUITE, multi_sign
from portsec.fixtures import (
    LEAF_VALIDITY,
    FixtureError,
    FixtureIncomplete,
    _load_private_cached,
    build_net,
    build_world,
    fixtures_from_bytes,
    fixtures_to_bytes,
)
from portsec.ledger import (
    ORDERER_ROLE, ChainInvalidCert, LedgerAction, build_transaction, rollover, submit,
)
from portsec.pki import CA_ROLE, validate_chain
from portsec.policy import Role
from portsec.sim import run_scenario
from portsec.transcript import ValidatedEvent
from test_envelope import P256_SPKI_PREFIX

P2P_EXPORT = {"importer-1", "sl1-clerk", "t1-op", "customs-officer"}
P2P_IMPORT = {"importer-1", "sl1-clerk", "customs-officer"}
LEDGER = {"orderer-1", "sl1-clerk", "t1-op", "pcs-op"}


@pytest.fixture
def loaded(base_fixtures):
    """The owner of each private key ``DEFAULT_SUITE`` loads during the
    test, in load order. A wrapper shadows its ``load_private`` for the
    test, and the process's load cache starts cold."""
    owners = {der: owner for owner, der in base_fixtures.keys.items()}
    loaded, load = [], DEFAULT_SUITE.load_private

    def recording(der):
        loaded.append(owners[der])
        return load(der)

    _load_private_cached.cache_clear()
    DEFAULT_SUITE.load_private = recording
    yield loaded
    del DEFAULT_SUITE.load_private


def _issue_temp_clerk(world):
    public = world.key_pairs["sl1-clerk"].public_key
    return world.trust.cas["SL1-CA"].issue(
        "sl1-temp", "SL1", Role.SHIPPING_LINE.value, public, LEAF_VALIDITY
    )


def _with_key(fx, owner, der):
    return replace(fx, keys={**fx.keys, owner: der})


def test_build_world_loads_no_key(base_fixtures):
    _load_private_cached.cache_clear()
    world = build_world(base_fixtures)
    assert _load_private_cached.cache_info().misses == 0
    assert set(world.key_pairs) == set(base_fixtures.actors)


@pytest.mark.parametrize("owner", ["t2-op", "SL1-CA"])
@pytest.mark.parametrize("record", ["keys", "certs"])
def test_a_missing_key_or_certificate_fails_the_build(base_fixtures, owner, record):
    held = getattr(base_fixtures, record)
    fx = replace(base_fixtures, **{record: {k: v for k, v in held.items() if k != owner}})
    with pytest.raises(FixtureIncomplete, match=owner):
        build_world(fx)


@pytest.mark.parametrize(
    "scenario, mode, owners",
    [
        ("export", "p2p", P2P_EXPORT),
        ("import", "p2p", P2P_IMPORT),
        ("export", "ledger", LEDGER),
        ("import", "ledger", LEDGER),
    ],
)
def test_a_run_loads_only_the_keys_of_the_actors_that_act(
    base_fixtures, loaded, scenario, mode, owners
):
    assert run_scenario(base_fixtures, scenario, mode).transcript.verdict == "PASS"
    assert Counter(loaded) == Counter(owners)


def test_ten_bookings_load_each_key_once(base_fixtures, loaded):
    world = build_world(base_fixtures)
    for i in range(10):
        tag = f"B{i}"
        fx = base_fixtures.with_values(
            run_tag=tag, **{k: f"{v} {tag}" for k, v in base_fixtures.values.items() if k != "DG"}
        )
        scenario = ("export", "import")[i % 2]
        assert run_scenario(fx, scenario, "p2p", world=world).transcript.verdict == "PASS"
    assert Counter(loaded) == Counter(P2P_EXPORT)


@pytest.mark.parametrize("owner", ["sl2-clerk", "t2-op"])
def test_a_bad_key_of_an_idle_actor_fails_only_its_first_signature(base_fixtures, owner):
    fx = _with_key(base_fixtures, owner, b"\0")
    for scenario in ("export", "import"):
        for mode in ("p2p", "ledger"):
            assert run_scenario(fx, scenario, mode).transcript.verdict == "PASS"
    world = build_world(fx)
    with pytest.raises(FixtureError, match=f"private key of {owner} does not load"):
        multi_sign(world.key_pairs[owner], ["B_NO"], {"B_NO": bytes(32)})


def test_a_receivers_bad_key_raises_from_validation(base_fixtures):
    fx = _with_key(base_fixtures, "customs-officer", b"\0")
    with pytest.raises(FixtureError, match="customs-officer") as err:
        run_scenario(fx, "export", "p2p")
    assert "validate_inbound" in {entry.name for entry in err.traceback}


def test_world_ca_still_issues_valid_certificates(world):
    issued = list(world.trust.cas["SL1-CA"].issued)
    cert = _issue_temp_clerk(world)
    assert cert.serial not in issued
    ca_chain = list(world.chain_of("sl1-clerk")[1:])
    result = validate_chain(cert, ca_chain, world.trust.anchor, 10, world.trust.cas)
    assert result.valid, result


def test_corrupt_ca_key_fails_only_when_the_ca_issues(base_fixtures):
    fx = _with_key(base_fixtures, "SL1-CA", b"not a key")
    world = build_world(fx)
    assert run_scenario(fx, "export", "p2p", world=world).transcript.verdict == "PASS"
    with pytest.raises(FixtureError, match="SL1-CA"):
        _issue_temp_clerk(world)


def test_a_ca_key_is_checked_against_its_certificate(base_fixtures):
    # both keys load, but each signs for the other CA's certificate
    keys = {**base_fixtures.keys, "SL1-CA": base_fixtures.keys["T1-CA"],
            "T1-CA": base_fixtures.keys["SL1-CA"]}
    world = build_world(replace(base_fixtures, keys=keys))
    issued = list(world.trust.cas["SL1-CA"].issued)
    with pytest.raises(FixtureError, match="private key of SL1-CA does not match its certificate"):
        _issue_temp_clerk(world)
    assert world.trust.cas["SL1-CA"].issued == issued


def test_the_orderer_alone_holds_a_p256_key(base_fixtures):
    """Fresh fixtures give the block signer a P-256 key, which matches its
    certificate; every actor and CA keeps RSA-2048."""
    for owner, cert in base_fixtures.certs.items():
        public = load_der_public_key(cert.public_key)
        if owner == "orderer-1":
            assert cert.public_key.startswith(P256_SPKI_PREFIX)
            assert isinstance(public.curve, ec.SECP256R1)
        else:
            assert isinstance(public, rsa.RSAPublicKey) and public.key_size == 2048, owner
    private = DEFAULT_SUITE.load_private(base_fixtures.keys["orderer-1"])
    assert DEFAULT_SUITE.public_bytes(private.public_key()) == base_fixtures.certs[
        "orderer-1"].public_key


def _orderer_key(fx, private):
    """``fx`` with the orderer's KEY record holding ``private``, through the
    fixture file form."""
    keys = {**fx.keys, "orderer-1": DEFAULT_SUITE.private_bytes(private)}
    return fixtures_from_bytes(fixtures_to_bytes(replace(fx, keys=keys)))


def test_an_orderer_key_of_another_curve_does_not_load(base_fixtures):
    fx = _orderer_key(base_fixtures, ec.generate_private_key(ec.SECP384R1()))
    world = build_world(fx)
    with pytest.raises(FixtureError, match="private key of orderer-1 does not load: "):
        build_net(world)


def test_an_orderer_key_is_checked_against_its_certificate(base_fixtures):
    """A P-256 key that loads but is not the one in the orderer's
    certificate signs no block."""
    fx = _orderer_key(base_fixtures, ec.generate_private_key(ec.SECP256R1()))
    world = build_world(fx)
    with pytest.raises(FixtureError,
                       match="private key of orderer-1 does not match its certificate"):
        build_net(world)


def _relabelled(fx, identity, role):
    """``fx`` with ``identity``'s certificate naming ``role``."""
    return replace(fx, certs={**fx.certs, identity: replace(fx.certs[identity], role=role)})


def test_an_adapter_takes_its_role_from_its_certificate(base_fixtures):
    world = build_world(_relabelled(base_fixtures, "importer-1", Role.PCS.value))
    assert world.adapter("importer-1").role is Role.PCS
    assert world.orderer == "orderer-1" and "orderer-1" not in world.adapters
    assert set(world.trust.cas) == {c.subject for c in base_fixtures.certs.values()
                                    if c.role == CA_ROLE}


@pytest.mark.parametrize("held_by", [(), ("orderer-1", "importer-1")], ids=["none", "two"])
def test_the_orderer_role_is_held_by_one_certificate(base_fixtures, held_by):
    """With no orderer a ledger run has no block signer; with two, which
    one signs would be the file's order."""
    fx = _relabelled(base_fixtures, "orderer-1", Role.CUSTOMS.value)
    for identity in held_by:
        fx = _relabelled(fx, identity, ORDERER_ROLE)
    with pytest.raises(FixtureError, match=f"fixtures hold {len(held_by)} ORDERER certificates"):
        build_world(fx)


def test_only_the_orderer_may_hold_a_p256_key(base_fixtures, loaded):
    """A reader's certificate, issued by its own CA, binds a P-256 key that
    no content key can be wrapped for: the build refuses it from the
    certificate and loads no private key."""
    old = base_fixtures.certs["customs-officer"]
    ca = build_world(base_fixtures).trust.cas[old.issuer]
    private = ec.generate_private_key(ec.SECP256R1())
    public = DEFAULT_SUITE.public_bytes(private.public_key())
    cert = ca.issue(old.subject, old.org, old.role, public, LEAF_VALIDITY)
    fx = replace(base_fixtures, certs={**base_fixtures.certs, old.subject: cert},
                 keys={**base_fixtures.keys, old.subject: DEFAULT_SUITE.private_bytes(private)})
    loaded.clear()  # the CA's key, loaded to issue
    with pytest.raises(FixtureError,
                       match="certificate of customs-officer: ECPublicKey is not an RSA key"):
        build_world(fx)
    assert loaded == []


def test_an_issuer_cycle_fails_the_build(base_fixtures):
    """Two CA certificates naming each other as issuer are refused; a walk
    up the chain that never reaches a self-signed root would not end."""
    certs = dict(base_fixtures.certs)
    certs["SL1-CA"] = replace(certs["SL1-CA"], issuer="PCS1-CA")
    certs["PCS1-CA"] = replace(certs["PCS1-CA"], issuer="SL1-CA")
    with pytest.raises(FixtureError, match="repeats issuer"):
        build_world(replace(base_fixtures, certs=certs))


def test_adapters_net_and_world_share_one_trust_view(world):
    net = build_net(world)
    assert world.adapters
    assert all(a.trust is world.trust for a in world.adapters.values())
    assert net.trust is world.trust and rollover(net).trust is world.trust


def test_every_chain_ends_at_the_anchor(world):
    chains = world.trust.chains
    assert set(chains) == set(world.fixtures.actors)
    assert all(chain[-1] is world.trust.anchor for chain in chains.values())
    assert all(world.chain_of(ident) is chain for ident, chain in chains.items())


def test_an_unknown_identity_has_no_chain(world):
    with pytest.raises(FixtureIncomplete, match="no certificate for PortRoot"):
        world.chain_of("PortRoot")


def test_one_clock_expires_every_chain_check(base_fixtures):
    """One assignment to the shared clock, past every leaf's window, fails
    both a p2p hop and a ledger submission with Expired."""
    world = build_world(base_fixtures)
    net = build_net(world)
    world.trust.clock = LEAF_VALIDITY[1] + 1

    sim = run_scenario(base_fixtures, "export", "p2p", world=world)
    report = next(ev.report for ev in sim.transcript.events if isinstance(ev, ValidatedEvent))
    assert not report.accepted
    first = report.findings[0]
    assert first.code is FindingCode.CHAIN_INVALID and first.detail.startswith("Expired: ")

    tx, chain = build_transaction(
        LedgerAction.CREATE, base_fixtures.values["CNT_NO"], (("terminal", "T1"),),
        world.chain_of("sl1-clerk"), world.key_pairs["sl1-clerk"],
    )
    with pytest.raises(ChainInvalidCert, match="invoker sl1-clerk: Expired: "):
        submit(net, tx, chain)
