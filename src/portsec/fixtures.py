"""Scenario fixtures: keys, certificates, and consignment data.

A fixture set pins every input a scenario run needs, including private
keys, so repeated runs are reproducible: signatures are deterministic
given fixed keys, leaving sealing randomness as the only varying bytes.
Fixture files are line-oriented UTF-8 in the flat segment style: FIX,
RUN, KEY, CERT and VAL records, in that order, each fact once. A
certificate binds its subject to one role and organization and names its
issuer: the CAs are the certificates whose role is ``pki.CA_ROLE``, the
actors are the others.

Building a world checks the set's shape (see ``build_world``) but loads
no private key. An owner's key loads when the owner first signs or
unwraps: it must be a valid RSA or P-256 key (the orderer holds P-256,
every other owner RSA-2048), and it must match the public key in the
owner's certificate, or that use raises FixtureError.
Each key is loaded and checked once per process, so a run pays only for
the keys of the actors that act in it, and a bad key of an owner that
never acts is never reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from . import records
from .adapter import AdapterState
from .envelope import DEFAULT_SUITE, wrapping_key
from .ledger import ORDERER_ROLE, ChainInvalidCert, LedgerNet, create_net
from .pki import (
    CA_ROLE, CaState, Certificate, Trust, cert_from_record, cert_to_wire, create_root,
    create_subordinate,
)
from .policy import AccessMatrix, Role, default_matrix
from .records import ParseError

FIXTURE_VERSION = "2"

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
class FixtureSet:
    suite_id: str
    run_tag: str
    keys: dict[str, bytes]  # owner -> PKCS8 DER private key
    certs: dict[str, Certificate]  # subject -> certificate
    values: dict[str, str]

    @property
    def dangerous_goods(self) -> bool:
        return self.value("DG") == "true"

    def value(self, name: str) -> str:
        try:
            return self.values[name]
        except KeyError:
            raise FixtureIncomplete(f"no fixture value for {name}") from None

    @property
    def actors(self) -> dict[str, str]:
        """Each actor's role token, by identity: the certificates that are
        not a CA's."""
        return {ident: c.role for ident, c in self.certs.items() if c.role != CA_ROLE}

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
    ``DEFAULT_SUITE`` with ``DEFAULT_VALUES``. The orderer's key is P-256,
    whose signature is the cheaper one to make on every block; every other
    key is RSA-2048, whose signatures are checked far more often than made."""
    suite = DEFAULT_SUITE
    root = create_root(ROOT_CA, ROOT_VALIDITY)
    keys = {ROOT_CA: suite.private_bytes(root.key_pair.private)}
    certs = {ROOT_CA: root.cert}
    ca_states = {ROOT_CA: root}

    for org in dict.fromkeys(org for _, _, org in DEFAULT_ACTORS):
        ca_name = f"{org}-CA"
        ca = create_subordinate(root, ca_name, CA_VALIDITY)
        keys[ca_name] = suite.private_bytes(ca.key_pair.private)
        certs[ca_name] = ca.cert
        ca_states[ca_name] = ca

    for identity, role, org in DEFAULT_ACTORS:
        kp = suite.generate_keypair(identity, p256=role == ORDERER_ROLE)
        keys[identity] = suite.private_bytes(kp.private)
        certs[identity] = ca_states[f"{org}-CA"].issue(
            identity, org, role, kp.public, LEAF_VALIDITY
        )

    return FixtureSet(
        suite_id=suite.suite_id,
        run_tag=run_tag,
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
    lines += [records.encode("KEY", ident, fx.keys[ident]) for ident in sorted(fx.keys)]
    lines += [cert_to_wire(fx.certs[ident]) for ident in sorted(fx.certs)]
    lines += [records.encode("VAL", attr, fx.values[attr]) for attr in sorted(fx.values)]
    return b"\n".join(lines) + b"\n"


#: Rank (the order ``fixtures_to_bytes`` writes), count and key of each record.
_LAYOUT = {b"FIX": (0, 3, 0), b"RUN": (1, 2, 0), b"KEY": (2, 3, 1), b"CERT": (3, 10, 2),
           b"VAL": (4, 3, 1)}


def fixtures_from_bytes(data: bytes) -> FixtureSet:
    suite_id = run_tag = ""
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
        elif tag == b"KEY":
            keys[rec.text(1)] = rec.b64(2)
        elif tag == b"CERT":
            cert = cert_from_record(rec)
            certs[cert.subject] = cert
        else:
            values[rec.text(1)] = rec.text(2)
    return FixtureSet(suite_id, run_tag, keys, certs, values)


# --- world construction ------------------------------------------------------


@lru_cache(maxsize=128)
def _load_private_cached(der: bytes, public_key: bytes, owner: str):
    # Loading validates the key (~70 ms for RSA-2048, well under 1 ms for
    # P-256), and key objects are immutable: a process loads and checks
    # each fixture key once, however many worlds share it and however often
    # its owner signs.
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
    orderer: str  # the one identity whose certificate holds the orderer's role
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
    actor's chain) and one adapter per actor that holds a policy role,
    each role read from its holder's certificate. Every key needs a
    certificate and every certificate a key, exactly one certificate holds
    the orderer's role, and every other binds an RSA key; no private key
    loads until its owner first uses it."""
    if fx.suite_id != DEFAULT_SUITE.suite_id:
        raise FixtureIncomplete(
            f"fixtures pin suite {fx.suite_id}, runtime has {DEFAULT_SUITE.suite_id}"
        )
    if fx.keys.keys() != fx.certs.keys():
        owner = min(fx.keys.keys() ^ fx.certs.keys())
        raise FixtureIncomplete(f"{owner} has no {'certificate' if owner in fx.keys else 'key'}")
    actors = fx.actors
    orderers = [ident for ident, role in actors.items() if role == ORDERER_ROLE]
    if len(orderers) != 1:
        raise FixtureError(f"fixtures hold {len(orderers)} {ORDERER_ROLE} certificates, not one")
    for owner, c in fx.certs.items():
        if c.role != ORDERER_ROLE:
            try:
                wrapping_key(c.public_key)
            except ValueError as exc:
                raise FixtureError(f"certificate of {owner}: {exc}") from None
    key_pairs = {i: FixtureKeyPair(i, fx.keys[i], fx.certs[i].public_key) for i in actors}
    cas = {name: CaState(FixtureKeyPair(name, fx.keys[name], c.public_key), c,
                         issued=sorted(x.serial for x in fx.certs.values() if x.issuer == name))
           for name, c in fx.certs.items() if c.role == CA_ROLE}

    anchor = fx.certs.get(ROOT_CA)
    if anchor is None:
        raise FixtureIncomplete("no root certificate")

    chains: dict[str, tuple[Certificate, ...]] = {}
    for ident in actors:
        chain = [fx.certs[ident]]
        while (issuer := chain[-1].issuer) != chain[-1].subject:
            if issuer not in fx.certs:
                raise FixtureIncomplete(f"no certificate for {issuer}")
            if any(c.subject == issuer for c in chain):
                raise FixtureError(f"certificate chain of {ident} repeats issuer {issuer}")
            chain.append(fx.certs[issuer])
        chains[ident] = tuple(chain)

    matrix, trust = default_matrix(), Trust(anchor, cas, chains)
    world = World(fx, matrix, trust, key_pairs, orderers[0])
    for ident, token in actors.items():
        try:
            role = Role(token)
        except ValueError:
            continue  # the orderer and other identities with no policy role
        world.adapters[ident] = AdapterState(identity=ident, role=role, key_pair=key_pairs[ident],
                                             matrix=matrix, trust=trust)
    return world


def build_net(world: World) -> LedgerNet:
    """Ledger net over the same trust view as the adapter mesh. An orderer
    whose chain ``create_net`` refuses is a FixtureError: the fixture set
    cannot run the ledger."""
    try:
        return create_net(
            orderer_identity=world.orderer,
            orderer_key=world.key_pairs[world.orderer],
            trust=world.trust,
        )
    except ChainInvalidCert as exc:
        raise FixtureError(f"{exc}") from None
