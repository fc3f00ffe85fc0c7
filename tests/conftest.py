"""Shared desk-scale world: one key/cert generation per session, fresh
adapter states (stores, nonce maps, CA registries) per test."""

import os
from types import SimpleNamespace

import pytest
from hypothesis import settings

from portsec import envelope
from portsec.envelope import DEFAULT_SUITE
from portsec.fixtures import build_world, generate_fixtures

# Property tests draw the same examples on every run (a seed derived from
# each test), so a tier-1 result repeats. HYPOTHESIS_PROFILE=deep draws
# fresh random examples, more of them where a test does not fix its count.
settings.register_profile("default", derandomize=True, deadline=None)
settings.register_profile("deep", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


#: The ``DEFAULT_SUITE`` methods ``counting_suite`` counts, by counter:
#: signatures and signature verifications (RSA, and P-256 for the
#: orderer's key), OAEP key wraps and unwraps, and digests.
COUNTED = {"signs": "sign", "verifies": "verify", "wraps": "wrap_key",
           "unwraps": "unwrap_key", "digests": "digest"}


def _counted(counts, counter, method):
    def counted(*args, **kwargs):
        setattr(counts, counter, getattr(counts, counter) + 1)
        return method(*args, **kwargs)

    return counted


@pytest.fixture
def counting_suite():
    """Counts what ``DEFAULT_SUITE`` runs during the test. The counting
    wrappers are instance attributes that shadow its methods, as the
    benchmark's tracer sets them, and leave with the test. The sign and
    verify memos start empty, so no answer an earlier test left hides a
    count."""
    counts = SimpleNamespace(**dict.fromkeys(COUNTED, 0))
    for counter, attr in COUNTED.items():
        setattr(DEFAULT_SUITE, attr, _counted(counts, counter, getattr(DEFAULT_SUITE, attr)))
    for memo in (envelope.sign, envelope.verify):
        memo.cache_clear()
    yield counts
    for attr in COUNTED.values():
        delattr(DEFAULT_SUITE, attr)


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
