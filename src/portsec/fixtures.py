"""Scenario fixtures: actors, keys, certificates, and consignment data.

A fixture set pins every input a scenario run needs, including private
keys, so repeated runs are reproducible: signatures are deterministic
given fixed keys, leaving sealing randomness as the only varying bytes.
Fixture files are line-oriented UTF-8 in the flat segment style.

Building a world checks that every actor and CA has a KEY and a CERT
record, but loads no private key. An owner's key loads when the owner
first signs or unwraps: it must be a valid RSA key, and it must match the
public key in the owner's certificate, or that use raises FixtureError.
Each key is loaded and checked once per process, so a run pays only for
the keys of the actors that act in it, and a bad key of an owner that
never acts is never reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from . import records
from .adapter import AdapterState
from .envelope import DEFAULT_SUITE
from .ledger import ORDERER_ROLE, LedgerNet, create_net
from .pki import (
    CaState, Certificate, Trust, cert_from_record, cert_to_wire, create_root, create_subordinate,
)
from .policy import AccessMatrix, Role, default_matrix
from .records import ParseError

FIXTURE_VERSION = "1"

#: Validity windows (logical time) for the three certificate tiers.
ROOT_VALIDITY = (0, 1_000_000)
CA_VALIDITY = (0, 500_000)
LEAF_VALIDITY = (0, 400_000)

DEFAULT_VALUES = {
    "B_NO": "BKG-7401",
    "BL_NO": "BL-55821",
    "CNT_NO": "COSU1234567",
    "CNT_C": "400 cartons machine parts",
    "CNT_W": "18400 kg",
    "CSG_DATA": "consignee ACME Imports, notify NordFreight GmbH",
    "DG": "false",
    "CNT_LOC": "YARD-B12",
    "ATB_NO": "ATB-990133",
    "CLR": "CLEARED",
}

#: (identity, role token, organization). One organization CA each.
DEFAULT_ACTORS = (
    ("importer-1", Role.IMPORTER.value, "IMP1"),
    ("sl1-clerk", Role.SHIPPING_LINE.value, "SL1"),
    ("sl2-clerk", Role.SHIPPING_LINE.value, "SL2"),
    ("pcs-op", Role.PCS.value, "PCS1"),
    ("t1-op", Role.TERMINAL.value, "T1"),
    ("t2-op", Role.TERMINAL.value, "T2"),
    ("customs-officer", Role.CUSTOMS.value, "CUST"),
    ("pa-officer", Role.PORT_AUTHORITY.value, "PA"),
    ("orderer-1", ORDERER_ROLE, "ORD"),
)

ROOT_CA = "PortRoot"


class FixtureError(Exception):
    pass


class FixtureIncomplete(FixtureError):
    """A scenario prerequisite (actor, key, cert, value) is missing."""


@dataclass(frozen=True)
class ActorRecord:
    identity: str
    role: str
    org: str


@dataclass(frozen=True)
class FixtureSet:
    suite_id: str
    run_tag: str
    cas: tuple[tuple[str, str | None], ...]  # (name, parent), root first
    actors: tuple[ActorRecord, ...]
    keys: dict[str, bytes]  # identity -> PKCS8 DER private key
    certs: dict[str, Certificate]
    values: dict[str, str]

    @property
    def dangerous_goods(self) -> bool:
        return self.values.get("DG", "false") == "true"

    def by_role(self, role: str) -> ActorRecord:
        """The first actor holding a role; scenario scripts address the
        primary organization of each role."""
        for a in self.actors:
            if a.role == role:
                return a
        raise FixtureIncomplete(f"no actor with role {role}")

    def with_values(self, run_tag: str | None = None, **overrides: str) -> "FixtureSet":
        """Same world, different run tag / consignment values (used to set
        up second runs for replay experiments)."""
        return replace(
            self,
            run_tag=run_tag or self.run_tag,
            values={**self.values, **overrides},
        )


def generate_fixtures(run_tag: str = "R1") -> FixtureSet:
    """Fresh keys and certificates for the default desk-scale world:
    one root CA, one CA per organization, one clerk per actor, under
    ``DEFAULT_SUITE`` with ``DEFAULT_VALUES``."""
    suite = DEFAULT_SUITE
    root = create_root(ROOT_CA, ROOT_VALIDITY)
    cas: list[tuple[str, str | None]] = [(ROOT_CA, None)]
    keys = {ROOT_CA: suite.private_bytes(root.key_pair.private)}
    certs = {ROOT_CA: root.cert}
    ca_states = {ROOT_CA: root}

    records = tuple(ActorRecord(*a) for a in DEFAULT_ACTORS)
    for org in dict.fromkeys(a.org for a in records):
        ca_name = f"{org}-CA"
        ca = create_subordinate(root, ca_name, CA_VALIDITY)
        cas.append((ca_name, ROOT_CA))
        keys[ca_name] = suite.private_bytes(ca.key_pair.private)
        certs[ca_name] = ca.cert
        ca_states[ca_name] = ca

    for a in records:
        kp = suite.generate_keypair(a.identity)
        keys[a.identity] = suite.private_bytes(kp.private)
        certs[a.identity] = ca_states[f"{a.org}-CA"].issue(
            a.identity, a.org, a.role, kp.public, LEAF_VALIDITY
        )

    return FixtureSet(
        suite_id=suite.suite_id,
        run_tag=run_tag,
        cas=tuple(cas),
        actors=records,
        keys=keys,
        certs=certs,
        values=dict(DEFAULT_VALUES),
    )


# --- file form ---------------------------------------------------------------


def fixtures_to_bytes(fx: FixtureSet) -> bytes:
    # Records are line-oriented; the escape mechanism covers + ' ? only.
    for text in (fx.run_tag, *fx.values.values(), *fx.values):
        if records.holds_line_break((text,)):
            raise FixtureError(f"newline in fixture token {text!r}")
    lines = [records.encode("FIX", FIXTURE_VERSION, fx.suite_id), records.encode("RUN", fx.run_tag)]
    lines += [records.encode("CA", name, parent or "-") for name, parent in fx.cas]
    lines += [records.encode("ACTOR", a.identity, a.role, a.org) for a in fx.actors]
    lines += [records.encode("KEY", ident, fx.keys[ident]) for ident in sorted(fx.keys)]
    lines += [cert_to_wire(fx.certs[ident]) for ident in sorted(fx.certs)]
    lines += [records.encode("VAL", attr, fx.values[attr]) for attr in sorted(fx.values)]
    return b"\n".join(lines) + b"\n"


#: Rank (the order ``fixtures_to_bytes`` writes), count and key of each record.
_LAYOUT = {b"FIX": (0, 3, 0), b"RUN": (1, 2, 0), b"CA": (2, 3, 1), b"ACTOR": (3, 4, 1),
           b"KEY": (4, 3, 1), b"CERT": (5, 10, 2), b"VAL": (6, 3, 1)}


def fixtures_from_bytes(data: bytes) -> FixtureSet:
    suite_id = run_tag = ""
    cas: list[tuple[str, str | None]] = []
    actors: list[ActorRecord] = []
    keys: dict[str, bytes] = {}
    certs: dict[str, Certificate] = {}
    values: dict[str, str] = {}

    for rec in records.read_file(data, _LAYOUT, "fixture"):
        tag = rec.tag
        if tag == b"FIX":
            if rec.text(1) != FIXTURE_VERSION:
                raise ParseError("unsupported fixture header", rec.offset)
            suite_id = rec.text(2)
        elif tag == b"RUN":
            run_tag = rec.text(1)
        elif tag == b"CA":
            name, parent = rec.text(1), rec.text(2)
            cas.append((name, None if parent == "-" else parent))
        elif tag == b"ACTOR":
            actors.append(ActorRecord(rec.text(1), rec.text(2), rec.text(3)))
        elif tag == b"KEY":
            keys[rec.text(1)] = rec.b64(2)
        elif tag == b"CERT":
            cert = cert_from_record(rec)
            certs[cert.subject] = cert
        else:
            values[rec.text(1)] = rec.text(2)
    return FixtureSet(suite_id, run_tag, tuple(cas), tuple(actors), keys, certs, values)


# --- world construction ------------------------------------------------------


@lru_cache(maxsize=128)
def _load_private_cached(der: bytes, public_key: bytes, owner: str):
    # Loading validates the key (~70 ms for RSA-2048), and key objects are
    # immutable: a process loads and checks each fixture key once, however
    # many worlds share it and however often its owner signs.
    try:
        private = DEFAULT_SUITE.load_private(der)
    except ValueError as exc:
        raise FixtureError(f"private key of {owner} does not load: {exc}") from None
    if DEFAULT_SUITE.public_bytes(private.public_key()) != public_key:
        raise FixtureError(f"private key of {owner} does not match its certificate")
    return private


@dataclass(frozen=True)
class FixtureKeyPair:
    """An actor's or a CA's key pair from a fixture set. ``private`` loads
    the key, and checks it against ``public_key`` from the owner's
    certificate, when the owner first signs or unwraps."""

    owner: str
    der: bytes = field(repr=False)
    public_key: bytes = field(repr=False)

    @property
    def private(self):
        return _load_private_cached(self.der, self.public_key, self.owner)


@dataclass
class World:
    """Runtime actor mesh rebuilt from a fixture set."""

    fixtures: FixtureSet
    matrix: AccessMatrix
    trust: Trust
    key_pairs: dict[str, FixtureKeyPair]  # actors only; a CA's key sits in its CaState
    adapters: dict[str, AdapterState] = field(default_factory=dict)
    #: The one suite, not a field: the benchmark's workloads read it here.
    suite = DEFAULT_SUITE

    def adapter(self, identity: str) -> AdapterState:
        return self.adapters[identity]

    def chain_of(self, identity: str) -> tuple[Certificate, ...]:
        """Leaf-first chain up to and including the root."""
        try:
            return self.trust.chains[identity]
        except KeyError:
            raise FixtureIncomplete(f"no certificate for {identity}") from None


def build_world(fx: FixtureSet) -> World:
    """Reconstruct the trust view (the root anchor, CA states and each
    actor's chain) and one adapter per actor from a fixture set. Every
    actor and CA needs a KEY and a CERT record; no private key loads until
    its owner first uses it."""
    if fx.suite_id != DEFAULT_SUITE.suite_id:
        raise FixtureIncomplete(
            f"fixtures pin suite {fx.suite_id}, runtime has {DEFAULT_SUITE.suite_id}"
        )
    matrix = default_matrix()

    def key_pair(owner: str, kind: str) -> FixtureKeyPair:
        if owner not in fx.certs or owner not in fx.keys:
            raise FixtureIncomplete(f"{kind} {owner} lacks key or certificate")
        return FixtureKeyPair(owner, fx.keys[owner], fx.certs[owner].public_key)

    key_pairs = {a.identity: key_pair(a.identity, "actor") for a in fx.actors}
    cas: dict[str, CaState] = {}
    for name, _ in fx.cas:
        issued = sorted(c.serial for c in fx.certs.values() if c.issuer == name)
        cas[name] = CaState(key_pair(name, "CA"), fx.certs[name], issued=issued)

    anchor = fx.certs.get(ROOT_CA)
    if anchor is None:
        raise FixtureIncomplete("no root certificate")

    def cert(identity: str) -> Certificate:
        try:
            return fx.certs[identity]
        except KeyError:
            raise FixtureIncomplete(f"no certificate for {identity}") from None

    chains: dict[str, tuple[Certificate, ...]] = {}
    for a in fx.actors:
        chain = [cert(a.identity)]
        while (issuer := chain[-1].issuer) != chain[-1].subject:
            if any(c.subject == issuer for c in chain):
                raise FixtureError(f"certificate chain of {a.identity} repeats issuer {issuer}")
            chain.append(cert(issuer))
        chains[a.identity] = tuple(chain)

    trust = Trust(anchor, cas, chains)
    world = World(fx, matrix, trust, key_pairs)

    for a in fx.actors:
        try:
            role = Role(a.role)
        except ValueError:
            continue  # orderer and similar non-policy identities
        world.adapters[a.identity] = AdapterState(
            identity=a.identity,
            role=role,
            key_pair=key_pairs[a.identity],
            matrix=matrix,
            trust=trust,
        )
    return world


def build_net(world: World) -> LedgerNet:
    """Ledger net over the same trust view as the adapter mesh."""
    orderer = world.fixtures.by_role(ORDERER_ROLE)
    return create_net(
        orderer_identity=orderer.identity,
        orderer_key=world.key_pairs[orderer.identity],
        trust=world.trust,
    )
