"""World construction from a fixture set: which private keys load, and when."""

from collections import Counter
from dataclasses import replace

import pytest

from portsec.envelope import CryptoSuite, multi_sign
from portsec.fixtures import (
    LEAF_VALIDITY,
    FixtureError,
    FixtureIncomplete,
    _load_private_cached,
    build_world,
)
from portsec.pki import validate_chain
from portsec.policy import Role
from portsec.sim import run_scenario

P2P_EXPORT = {"importer-1", "sl1-clerk", "t1-op", "customs-officer"}
P2P_IMPORT = {"importer-1", "sl1-clerk", "customs-officer"}
LEDGER = {"orderer-1", "sl1-clerk", "t1-op", "pcs-op"}


class LoadRecordingSuite(CryptoSuite):
    """The default primitives, recording whose private key each load is.
    A fresh suite is a fresh key in the load cache, so it starts cold."""

    def __init__(self, fx):
        self.owners = {der: owner for owner, der in fx.keys.items()}
        self.loaded = []

    def load_private(self, der):
        self.loaded.append(self.owners[der])
        return super().load_private(der)


def _issue_temp_clerk(world):
    public = world.key_pairs["sl1-clerk"].public_key
    return world.ca_registry["SL1-CA"].issue(
        "sl1-temp", "SL1", Role.SHIPPING_LINE.value, public, LEAF_VALIDITY
    )


def _with_key(fx, owner, der):
    return replace(fx, keys={**fx.keys, owner: der})


def test_build_world_loads_no_key(base_fixtures):
    _load_private_cached.cache_clear()
    world = build_world(base_fixtures)
    assert _load_private_cached.cache_info().misses == 0
    assert set(world.key_pairs) == {a.identity for a in base_fixtures.actors}


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
def test_a_run_loads_only_the_keys_of_the_actors_that_act(base_fixtures, scenario, mode, owners):
    suite = LoadRecordingSuite(base_fixtures)
    sim = run_scenario(base_fixtures, scenario, mode, world=build_world(base_fixtures, suite=suite))
    assert sim.transcript.verdict == "PASS"
    assert Counter(suite.loaded) == Counter(owners)


def test_ten_bookings_load_each_key_once(base_fixtures):
    suite = LoadRecordingSuite(base_fixtures)
    world = build_world(base_fixtures, suite=suite)
    for i in range(10):
        tag = f"B{i}"
        fx = base_fixtures.with_values(
            run_tag=tag, **{k: f"{v} {tag}" for k, v in base_fixtures.values.items() if k != "DG"}
        )
        scenario = ("export", "import")[i % 2]
        assert run_scenario(fx, scenario, "p2p", world=world).transcript.verdict == "PASS"
    assert Counter(suite.loaded) == Counter(P2P_EXPORT)


@pytest.mark.parametrize("owner", ["sl2-clerk", "t2-op"])
def test_a_bad_key_of_an_idle_actor_fails_only_its_first_signature(base_fixtures, owner):
    fx = _with_key(base_fixtures, owner, b"\0")
    for scenario in ("export", "import"):
        for mode in ("p2p", "ledger"):
            assert run_scenario(fx, scenario, mode).transcript.verdict == "PASS"
    world = build_world(fx)
    with pytest.raises(FixtureError, match=f"private key of {owner} does not load"):
        multi_sign(world.key_pairs[owner], ["B_NO"], {"B_NO": bytes(32)}, suite=world.suite)


def test_a_receivers_bad_key_raises_from_validation(base_fixtures):
    fx = _with_key(base_fixtures, "customs-officer", b"\0")
    with pytest.raises(FixtureError, match="customs-officer") as err:
        run_scenario(fx, "export", "p2p")
    assert "validate_inbound" in {entry.name for entry in err.traceback}


def test_world_ca_still_issues_valid_certificates(world):
    issued = list(world.ca_registry["SL1-CA"].issued)
    cert = _issue_temp_clerk(world)
    assert cert.serial not in issued
    ca_chain = list(world.chain_of("sl1-clerk")[1:])
    result = validate_chain(cert, ca_chain, world.root_anchor, 10, world.ca_registry, world.suite)
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
    issued = list(world.ca_registry["SL1-CA"].issued)
    with pytest.raises(FixtureError, match="private key of SL1-CA does not match its certificate"):
        _issue_temp_clerk(world)
    assert world.ca_registry["SL1-CA"].issued == issued


def test_an_issuer_cycle_fails_the_build(base_fixtures):
    """Two CA certificates naming each other as issuer are refused; a walk
    up the chain that never reaches a self-signed root would not end."""
    certs = dict(base_fixtures.certs)
    certs["SL1-CA"] = replace(certs["SL1-CA"], issuer="PCS1-CA")
    certs["PCS1-CA"] = replace(certs["PCS1-CA"], issuer="SL1-CA")
    with pytest.raises(FixtureError, match="repeats issuer"):
        build_world(replace(base_fixtures, certs=certs))
