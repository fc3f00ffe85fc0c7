"""Shared desk-scale world: one key/cert generation per session, fresh
adapter states (stores, nonce maps, CA registries) per test."""

import os

import pytest
from hypothesis import settings

from portsec.envelope import CryptoSuite
from portsec.fixtures import build_world, generate_fixtures

# Property tests draw the same examples on every run (a seed derived from
# each test), so a tier-1 result repeats. HYPOTHESIS_PROFILE=deep draws
# fresh random examples, more of them where a test does not fix its count.
settings.register_profile("default", derandomize=True, deadline=None)
settings.register_profile("deep", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


class CountingSuite(CryptoSuite):
    """The default primitives, counting RSA signatures, RSA signature
    verifications, OAEP key wraps and unwraps, and digests."""

    def __init__(self):
        self.signs = 0
        self.verifies = 0
        self.wraps = 0
        self.unwraps = 0
        self.digests = 0

    def sign(self, private, payload):
        self.signs += 1
        return super().sign(private, payload)

    def digest(self, data):
        self.digests += 1
        return super().digest(data)

    def verify(self, public, payload, sig):
        self.verifies += 1
        return super().verify(public, payload, sig)

    def wrap_key(self, public, key_material):
        self.wraps += 1
        return super().wrap_key(public, key_material)

    def unwrap_key(self, private, wrapped):
        self.unwraps += 1
        return super().unwrap_key(private, wrapped)


@pytest.fixture(scope="session")
def counting_suite():
    """Factory: each call gives a fresh suite, so memoised results keyed on
    the suite start empty."""
    return CountingSuite


@pytest.fixture(scope="session")
def base_fixtures():
    return generate_fixtures()


@pytest.fixture
def world(base_fixtures):
    return build_world(base_fixtures)


@pytest.fixture(scope="session")
def honest_sims(base_fixtures):
    """The four honest configurations, run once and shared read-only."""
    from portsec.sim import run_scenario

    return {
        (scenario, mode): run_scenario(base_fixtures, scenario, mode)
        for scenario in ("export", "import")
        for mode in ("p2p", "ledger")
    }


@pytest.fixture(scope="session")
def comparison(base_fixtures):
    from portsec.attacks import compare_modes

    return compare_modes(base_fixtures)
