"""World construction from a fixture set: which private keys load, and when."""

from dataclasses import replace

import pytest

from portsec.fixtures import LEAF_VALIDITY, FixtureError, _load_private_cached, build_world
from portsec.pki import validate_chain
from portsec.policy import Role
from portsec.sim import run_scenario


def _issue_temp_clerk(world):
    public = world.suite.public_bytes(world.key_pairs["sl1-clerk"].public)
    return world.ca_registry["SL1-CA"].issue(
        "sl1-temp", "SL1", Role.SHIPPING_LINE.value, public, LEAF_VALIDITY
    )


def test_build_world_loads_only_actor_keys(base_fixtures):
    _load_private_cached.cache_clear()
    world = build_world(base_fixtures)
    assert _load_private_cached.cache_info().misses == len(base_fixtures.actors)
    assert set(world.key_pairs) == {a.identity for a in base_fixtures.actors}


def test_world_ca_still_issues_valid_certificates(world):
    issued = list(world.ca_registry["SL1-CA"].issued)
    cert = _issue_temp_clerk(world)
    assert cert.serial not in issued
    ca_chain = list(world.chain_of("sl1-clerk")[1:])
    result = validate_chain(cert, ca_chain, world.root_anchor, 10, world.ca_registry, world.suite)
    assert result.valid, result


def test_corrupt_ca_key_fails_only_when_the_ca_issues(base_fixtures):
    fx = replace(base_fixtures, keys={**base_fixtures.keys, "SL1-CA": b"not a key"})
    world = build_world(fx)
    assert run_scenario(fx, "export", "p2p", world=world).transcript.verdict == "PASS"
    with pytest.raises(FixtureError, match="SL1-CA"):
        _issue_temp_clerk(world)
