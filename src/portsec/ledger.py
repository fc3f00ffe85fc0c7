"""Desk-scale permissioned ledger for container assets.

A single in-process net stands in for the replicated peers: hash-chained
blocks of signed transactions, chaincode gates (role, multitenancy,
lifecycle) on submission, endorsement before commit, and a world state
that is always the deterministic replay of the chain.

Confidential consignment attributes are never ledger data; assets carry
only container number, lifecycle state, owning shipping line, and handling
terminal.

Every digest, signature and signature check runs under the one suite,
``DEFAULT_SUITE``, read where it is used: transactions and blocks remember
their digests without naming a suite, and a net's record of passed checks
holds (key, payload, signature).
"""

from __future__ import annotations

import enum
import marshal
import operator
import os
import signal
import threading
from dataclasses import dataclass, field, replace
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

from . import records
from .envelope import DEFAULT_SUITE, CryptoSuite, Signer, sign
from .pki import Certificate, Trust, cert_from_record, cert_to_wire
from .policy import Role
from .records import ParseError

GENESIS_PREV = bytes(32)
CHAIN_VERSION = "1"

#: Role token of the ordering service identity, the only block signer.
ORDERER_ROLE = "ORDERER"

#: Fewest blocks ``verify_exported`` hands to a forked child. A fork and
#: its pipe round trip cost 2.6-4.1 ms on a 2-vCPU host, as much as ~100
#: RSA-2048 verifies there; 67 blocks of two checks (an invoker's and an
#: endorsement; the orderer's is one per chain) exceed that.
FORK_MIN_BLOCKS = 67


class LifecycleState(str, enum.Enum):
    CREATED = "CREATED"
    DELIVERED = "DELIVERED"
    CLEARED = "CLEARED"
    LOADED = "LOADED"


class LedgerAction(str, enum.Enum):
    CREATE = "CREATE"
    ACKNOWLEDGE_DELIVERY = "ACKNOWLEDGE_DELIVERY"
    CLEAR = "CLEAR"
    LOAD = "LOAD"


#: Chaincode role gate: who may invoke each action.
ACTION_ROLES = {
    LedgerAction.CREATE: Role.SHIPPING_LINE,
    LedgerAction.ACKNOWLEDGE_DELIVERY: Role.TERMINAL,
    LedgerAction.CLEAR: Role.PCS,
    LedgerAction.LOAD: Role.TERMINAL,
}

#: Lifecycle gate: required prior state and resulting state per action.
TRANSITIONS = {
    LedgerAction.ACKNOWLEDGE_DELIVERY: (LifecycleState.CREATED, LifecycleState.DELIVERED),
    LedgerAction.CLEAR: (LifecycleState.DELIVERED, LifecycleState.CLEARED),
    LedgerAction.LOAD: (LifecycleState.CLEARED, LifecycleState.LOADED),
}

#: Endorsement rule: each transaction needs this many endorsements, each
#: from a role eligible for its action. A TERMINAL endorser must be the
#: asset's (for CREATE, the chosen) terminal, a SHIPPING_LINE endorser the
#: asset's owner; PCS endorsers are unconstrained.
ENDORSEMENTS_REQUIRED = 1
ENDORSER_ROLES = {
    LedgerAction.CREATE: frozenset({Role.TERMINAL}),
    LedgerAction.ACKNOWLEDGE_DELIVERY: frozenset({Role.SHIPPING_LINE, Role.PCS}),
    LedgerAction.CLEAR: frozenset({Role.TERMINAL}),
    LedgerAction.LOAD: frozenset({Role.PCS}),
}


class LedgerError(Exception):
    """Base class for ledger denials and faults."""


class ChainInvalidCert(LedgerError):
    pass


class RoleDenied(LedgerError):
    pass


class TenancyDenied(LedgerError):
    pass


class LifecycleDenied(LedgerError):
    pass


class DuplicateContainer(LedgerError):
    pass


class UnknownContainer(LedgerError):
    pass


class MalformedTransaction(LedgerError):
    pass


class IneligibleEndorser(LedgerError):
    pass


class DuplicateEndorsement(LedgerError):
    pass


class InsufficientEndorsements(LedgerError):
    pass


class StaleTransaction(LedgerError):
    pass


class NotVisible(LedgerError):
    pass


class ContainerAsset(NamedTuple):
    """An immutable tuple that equals only another asset: a plain tuple of
    the same fields is no asset, so a world state holding one fails the
    replay comparison."""

    cnt_no: str
    state: LifecycleState
    shipping_line: str  # creator's organization, bound from its certificate
    terminal: str  # chosen at creation, immutable

    def __eq__(self, other: object) -> bool:
        return type(other) is ContainerAsset and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


@dataclass(frozen=True, slots=True)
class Transaction:
    invoker: Certificate
    action: LedgerAction
    cnt_no: str
    args: tuple[tuple[str, str], ...]
    invoker_signature: bytes
    endorsements: tuple[tuple[str, bytes], ...] = ()  # (endorser identity, sig)
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # replace() leaves it out, so the body never outlives its fields
    _body: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def body_bytes(self) -> bytes:
        """Canonical signed portion: everything except signatures, as a
        ``TXB`` record without its terminator, encoded once per object."""
        if self._body is None:
            object.__setattr__(self, "_body", records.encode(
                "TXB", self.invoker.subject, f"{self.invoker.serial}", self.action.value,
                self.cnt_no, *(e for kv in self.args for e in kv))[:-1])
        return self._body

    def arg(self, key: str) -> str | None:
        for k, v in self.args:
            if k == key:
                return v
        return None


@dataclass(frozen=True, slots=True)
class Block:
    index: int
    prev_hash: bytes
    transactions: tuple[Transaction, ...]
    orderer_signature: bytes
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # the bytes ``_sign_block`` encoded; replace() leaves them out, as it does
    # the digests, so they never outlive the fields they encode
    _bytes: bytes | None = field(default=None, init=False, repr=False, compare=False)


@dataclass
class PendingTransaction:
    """A gate-checked transaction collecting endorsements before commit."""

    tx: Transaction
    # the asset endorse() judges eligibility against; commit re-gates through _admit
    asset_before: ContainerAsset | None
    endorsements: list[tuple[str, bytes]] = field(default_factory=list)

    def endorsed(self) -> Transaction:
        tx = replace(self.tx, endorsements=tuple(self.endorsements))
        object.__setattr__(tx, "_memo", self.tx._memo)  # no digest covers the endorsements
        return tx


@dataclass(frozen=True)
class ChainVerification:
    valid: bool
    first_bad_block: int | None = None
    reason: str = ""


@dataclass(frozen=True)
class _Verified:
    """What the last valid ``verify_chain`` of a live net checked."""

    head: ExportedChain  # the head checked, with no blocks
    referenced: frozenset[str]  # invokers and endorsers of ``blocks``
    blocks: tuple[Block, ...]
    state: dict[str, ContainerAsset]  # gate replay state after that block

    def covers_prefix_of(self, net: "LedgerNet") -> bool:
        """Still true of ``net``: the chain starts with the very blocks
        checked."""
        return len(net.chain) >= len(self.blocks) and all(
            map(operator.is_, net.chain, self.blocks)
        )

    def kept_by(self, head: ExportedChain) -> bool:
        """``head`` has the checked head's suite id, orderer and baseline
        and holds each of its certificates, byte for byte: it equals the
        checked head or only gained certificates."""
        old = self.head
        return (head.suite_id == old.suite_id
                and head.orderer_identity == old.orderer_identity
                and head.baseline_state == old.baseline_state
                and old.certs.items() <= head.certs.items())


@dataclass
class LedgerNet:
    """One logical copy of the shared ledger. Single-writer access assumed."""

    orderer_identity: str
    orderer_key: Signer
    trust: Trust
    baseline_state: dict[str, ContainerAsset] = field(default_factory=dict)
    chain: list[Block] = field(default_factory=list)
    world_state: dict[str, ContainerAsset] = field(default_factory=dict)
    _verified: _Verified | None = field(default=None, init=False, repr=False, compare=False)
    #: (key DER, payload, signature) of each signature check that
    #: passed at ``submit``, ``commit`` or ``verify_chain``, of each
    #: certificate link a chain check at ``create_net`` (the orderer's),
    #: ``submit`` or ``endorse`` verified (``_link_check``), and of each
    #: block signature ``_sign_block`` made, under the signing key's own
    #: public half, since the last valid ``verify_chain``, which reads it
    #: instead of checking again
    _passed: set[tuple] = field(default_factory=set, init=False, repr=False, compare=False)
    #: (private key, DER of its public half) of the key ``_sign_block``
    #: last signed with, so the half is derived once per key, not per block
    _signing_key: tuple | None = field(default=None, init=False, repr=False, compare=False)


def create_net(
    orderer_identity: str,
    orderer_key: Signer,
    trust: Trust,
    baseline_state: Mapping[str, ContainerAsset] | None = None,
) -> LedgerNet:
    """New net with an empty, orderer-signed genesis block that links to
    the digest of the baseline state. The orderer's chain in ``trust`` is
    checked as ``submit`` checks an invoker's (anchor, revocation,
    validity, each link's signature), and the links it verified join the
    net's record, so the net's first ``verify_chain`` reads them there.
    Raises ``ChainInvalidCert`` naming the orderer when its chain is
    missing or fails. The orderer's role is a head rule that both
    verifiers check (``_check_head``), not checked here."""
    baseline = dict(baseline_state or {})
    for key, a in baseline.items():
        if key != a.cnt_no or records.holds_line_break((a.cnt_no, a.shipping_line, a.terminal)):
            raise MalformedTransaction(f"the chain file cannot carry baseline entry {key!r}")
    net = LedgerNet(
        orderer_identity=orderer_identity,
        orderer_key=orderer_key,
        trust=trust,
        baseline_state=baseline,
    )
    who = f"orderer {orderer_identity}"
    if orderer_identity not in trust.chains:
        raise ChainInvalidCert(f"{who}: no certificate chain")
    _record_chain(net, trust.chains[orderer_identity], who)
    net.world_state = dict(net.baseline_state)
    genesis = _sign_block(
        net, index=0, prev_hash=_state_digest(net.baseline_state), transactions=()
    )
    net.chain.append(genesis)
    return net


def build_transaction(
    action: LedgerAction,
    cnt_no: str,
    args: Sequence[tuple[str, str]],
    invoker_chain: Sequence[Certificate],
    key_pair: Signer,
    suite: CryptoSuite = DEFAULT_SUITE,
) -> tuple[Transaction, tuple[Certificate, ...]]:
    """Signed transaction plus the chain to present at submission.
    ``suite`` is not read: there is one suite, and callers that pass
    ``World.suite`` pass it."""
    unsigned = Transaction(invoker_chain[0], LedgerAction(action), cnt_no, tuple(args), b"")
    signature = sign(key_pair.private, DEFAULT_SUITE.digest(unsigned.body_bytes()))
    return replace(unsigned, invoker_signature=signature), tuple(invoker_chain)


def _tx_digests(tx: Transaction) -> tuple[bytes, bytes]:
    """(digest the invoker signs: the body; payload each endorser signs: the
    body, then the invoker signature), as the transaction remembers them.
    One built by ``replace`` is hashed again."""
    if tx._memo is None:
        body = tx.body_bytes()
        digest = DEFAULT_SUITE.digest
        object.__setattr__(tx, "_memo", (digest(body), digest(body + tx.invoker_signature)))
    return tx._memo


def _check_cert(
    net: LedgerNet, chain: Sequence[Certificate], who: str
) -> tuple[tuple[Certificate, Certificate], ...]:
    """The (certificate, issuer) links whose signatures ``net.trust.check``
    verified on ``chain``; raises its failure."""
    res = net.trust.check(chain)
    if not res.valid:
        raise ChainInvalidCert(f"{who}: {res.reason.value}: {res.detail}")
    return res.links


def _record_chain(net: LedgerNet, chain: Sequence[Certificate], who: str) -> None:
    """``_check_cert``; the links it verified join the net's record."""
    net._passed.update(_link_check(*link) for link in _check_cert(net, chain, who))


def _named(who: str, chain: Sequence[Certificate]) -> str:
    """``who``, then the subject of ``chain``'s leaf if it has one."""
    return f"{who} {chain[0].subject}" if chain else who


def _link_check(cert: Certificate, issuer: Certificate) -> tuple:
    """The check of ``cert``'s signature as a record of passed checks holds
    it: (issuer key DER, body digest, signature)."""
    return issuer.public_key, cert.body_digest(), cert.signature


def _gate(tx: Transaction, state: Mapping[str, ContainerAsset]) -> ContainerAsset | None:
    """Chaincode decision point, judging from certificate facts and current
    state alone (so replay can reuse it). Returns the asset the action
    touches (None for CREATE) or raises the matching denial."""
    if records.holds_line_break((tx.cnt_no, *map("".join, tx.args))):
        raise MalformedTransaction("transaction text may not hold a line break")
    role, required = tx.invoker.role, ACTION_ROLES[tx.action]
    if role != required:  # Role is a str enum: one is built only to name a denial
        try:
            role = Role(role)
        except ValueError:
            raise RoleDenied(f"{role} is not a ledger role") from None
        raise RoleDenied(f"{tx.action.value} requires {required.value}, invoker is {role.value}")

    if tx.action is LedgerAction.CREATE:
        if tx.cnt_no in state:
            raise DuplicateContainer(tx.cnt_no)
        if tx.arg("terminal") is None:
            raise MalformedTransaction("CREATE requires a terminal argument")
        return None

    asset = state.get(tx.cnt_no)
    if asset is None:
        raise UnknownContainer(tx.cnt_no)
    if tx.action in (LedgerAction.ACKNOWLEDGE_DELIVERY, LedgerAction.LOAD):
        if asset.terminal != tx.invoker.org:
            raise TenancyDenied(
                f"asset {tx.cnt_no} belongs to terminal {asset.terminal}, not {tx.invoker.org}"
            )
    required, _ = TRANSITIONS[tx.action]
    if asset.state is not required:
        raise LifecycleDenied(
            f"{tx.action.value} requires state {required.value}, asset is {asset.state.value}"
        )
    return asset


def _endorsement_gate(
    tx: Transaction,
    cert: Certificate,
    asset_before: ContainerAsset | None,
    endorsed_by: Sequence[str],
) -> None:
    """Endorsement eligibility, judging from certificate facts, the asset
    the transaction touches (None for CREATE) and the identities that
    already endorsed it, so replay can reuse it. Raises the denial."""
    if cert.subject == tx.invoker.subject:
        raise IneligibleEndorser("invoker cannot endorse its own transaction")
    if cert.subject in endorsed_by:
        raise DuplicateEndorsement(cert.subject)
    role, eligible = cert.role, ENDORSER_ROLES[tx.action]
    if role not in eligible:  # as in _gate, a Role is built only to name a denial
        try:
            role = Role(role)
        except ValueError:
            raise IneligibleEndorser(f"{role} is not an endorsing role") from None
        raise IneligibleEndorser(
            f"{tx.action.value} accepts {sorted(r.value for r in eligible)}, got {role.value}"
        )
    if role == Role.TERMINAL:
        expected = asset_before.terminal if asset_before else tx.arg("terminal")
        if cert.org != expected:
            raise IneligibleEndorser(f"terminal {cert.org} is not the designated {expected}")
    if role == Role.SHIPPING_LINE and asset_before is not None:
        if cert.org != asset_before.shipping_line:
            raise IneligibleEndorser(f"shipping line {cert.org} does not own {tx.cnt_no}")


def _apply(tx: Transaction, state: dict[str, ContainerAsset]) -> None:
    if tx.action is LedgerAction.CREATE:
        # Creator binding: owner comes from the certificate, never the args.
        state[tx.cnt_no] = ContainerAsset(
            tx.cnt_no, LifecycleState.CREATED, tx.invoker.org, tx.arg("terminal")
        )
    else:
        a, (_, nxt) = state[tx.cnt_no], TRANSITIONS[tx.action]
        state[tx.cnt_no] = ContainerAsset(a.cnt_no, nxt, a.shipping_line, a.terminal)


def submit(
    net: LedgerNet, tx: Transaction, invoker_chain: Sequence[Certificate]
) -> PendingTransaction:
    """Run the chaincode gates; a pass yields a pending transaction that
    still needs endorsements. Raises the first failing gate's denial. The
    certificate links the chain check verified join the net's record."""
    _record_chain(net, invoker_chain, f"invoker {tx.invoker.subject}")
    if invoker_chain[0] != tx.invoker:
        raise ChainInvalidCert("presented chain does not match transaction invoker")
    if not _signed(net._passed, tx.invoker.public_key, _tx_digests(tx)[0], tx.invoker_signature):
        raise ChainInvalidCert(f"invoker signature by {tx.invoker.subject} does not verify")
    asset = _gate(tx, net.world_state)
    return PendingTransaction(tx=tx, asset_before=asset)


def endorse(
    net: LedgerNet,
    pending: PendingTransaction,
    endorser_chain: Sequence[Certificate],
    endorser_key: Signer,
) -> PendingTransaction:
    """Append one endorsement if the endorser is eligible for the action.
    The certificate links the chain check verified join the net's record."""
    _record_chain(net, endorser_chain, _named("endorser", endorser_chain))
    cert = endorser_chain[0]
    tx = pending.tx
    _endorsement_gate(tx, cert, pending.asset_before, [ident for ident, _ in pending.endorsements])
    payload = _tx_digests(tx)[1]
    pending.endorsements.append((cert.subject, sign(endorser_key.private, payload)))
    return pending


@dataclass(frozen=True)
class CommitResult:
    block: Block | None
    rejected: tuple[tuple[PendingTransaction, LedgerError], ...]


def commit(net: LedgerNet, pendings: Sequence[PendingTransaction]) -> CommitResult:
    """Order, re-validate, and append one block.

    Each pending meets ``_admit`` against the trust view's leaves and
    the provisional state, so earlier transactions in the batch are visible
    (a second CLEAR of the same container is stale, not double-applied) and
    no transaction that verification rejects reaches a block. Rejected
    transactions are reported, not raised, so a partly good batch still
    commits.
    """
    provisional = dict(net.world_state)
    certs = {ident: chain[0] for ident, chain in net.trust.chains.items()}
    good: list[Transaction] = []
    bad: list[tuple[PendingTransaction, LedgerError]] = []
    for pending in pendings:
        tx = pending.endorsed()
        try:
            _admit(tx, provisional, certs, net._passed)
        except LedgerError as exc:
            bad.append((pending, exc))
            continue
        good.append(tx)

    if not good:
        return CommitResult(None, tuple(bad))

    block = _sign_block(
        net,
        index=len(net.chain),
        prev_hash=_link_digest(net.chain[-1]),
        transactions=tuple(good),
    )
    net.chain.append(block)
    net.world_state = provisional
    return CommitResult(block, tuple(bad))


def _admit(
    tx: Transaction,
    state: dict[str, ContainerAsset],
    certs: Mapping[str, Certificate],
    passed: set[tuple],
) -> None:
    """The rule each transaction meets at ``commit`` and in replay: its
    invoker is ``certs``' record for its subject and signed it; it has its
    endorsement quota, each endorser has a record and signed it; it passes
    ``_gate`` on ``state``, then each endorsement ``_endorsement_gate``.
    Then it is applied to ``state``. Raises the first denial, its text the
    verifiers' reason."""
    invoker = tx.invoker
    if certs.get(invoker.subject) != invoker:
        raise ChainInvalidCert(f"invoker {invoker.subject} differs from its certificate record")
    body_digest, payload = _tx_digests(tx)
    if not _signed(passed, invoker.public_key, body_digest, tx.invoker_signature):
        raise ChainInvalidCert(f"invoker signature broken on {tx.cnt_no}")
    if len(tx.endorsements) < ENDORSEMENTS_REQUIRED:
        raise InsufficientEndorsements(f"under-endorsed {tx.action.value}")
    for ident, sig in tx.endorsements:
        cert = certs.get(ident)
        if cert is None:
            raise IneligibleEndorser(f"endorser {ident} has no certificate")
        if not _signed(passed, cert.public_key, payload, sig):
            raise ChainInvalidCert(f"endorsement by {ident} broken")
    try:
        asset = _gate(tx, state)
    except LedgerError as exc:
        raise StaleTransaction(f"replay gate failure: {exc}") from None
    endorsed_by: list[str] = []
    for ident, _ in tx.endorsements:
        try:
            _endorsement_gate(tx, certs[ident], asset, endorsed_by)
        except LedgerError as exc:
            raise type(exc)(f"endorsement gate failure: {exc}") from None
        endorsed_by.append(ident)
    _apply(tx, state)


def _signed(passed: set[tuple], public: bytes, payload: bytes, sig: bytes) -> bool:
    """``DEFAULT_SUITE.verify``, not run for a check ``passed`` holds; a
    check that passes joins ``passed``."""
    check = (public, payload, sig)
    if check not in passed:
        if not DEFAULT_SUITE.verify(public, payload, sig):
            return False
        passed.add(check)
    return True


def query(net: LedgerNet, reader_chain: Sequence[Certificate], cnt_no: str) -> ContainerAsset:
    """Multitenant read: owners see their containers, terminals theirs,
    the PCS only containers currently inside a terminal."""
    _check_cert(net, reader_chain, _named("reader", reader_chain))
    cert = reader_chain[0]
    asset = net.world_state.get(cnt_no)
    if asset is None:
        raise UnknownContainer(cnt_no)
    try:
        role = Role(cert.role)
    except ValueError:
        raise NotVisible(f"{cert.role} has no ledger read rights") from None
    visible = (
        (role is Role.SHIPPING_LINE and asset.shipping_line == cert.org)
        or (role is Role.TERMINAL and asset.terminal == cert.org)
        or (
            role is Role.PCS
            and asset.state in (LifecycleState.DELIVERED, LifecycleState.CLEARED)
        )
    )
    if not visible:
        raise NotVisible(f"{cnt_no} is not visible to {cert.subject}")
    return asset


# --- serialization and verification ------------------------------------------


def _txn_line(tx: Transaction) -> bytes:
    return records.encode(
        "TXN", tx.action.value, tx.cnt_no, tx.invoker.subject, f"{tx.invoker.serial}",
        tx.invoker_signature,
        f"{len(tx.args):03d}", *(e for kv in tx.args for e in kv),
        f"{len(tx.endorsements):03d}", *(e for pair in tx.endorsements for e in pair),
    )


def block_bytes(block: Block) -> bytes:
    """Canonical serialized form: header (with orderer signature) plus one
    TXN line per transaction. prev_hash links digest these bytes. A block
    ``_sign_block`` made keeps them; any other block is encoded here."""
    if block._bytes is not None:
        return block._bytes
    header = records.encode("BLK", f"{block.index}", block.prev_hash, block.orderer_signature)
    return b"\n".join([header, *(_txn_line(t) for t in block.transactions)]) + b"\n"


def _sign_block(net: LedgerNet, index: int, prev_hash: bytes, transactions: tuple) -> Block:
    """A block the orderer signed, keeping its ``block_bytes`` and its two
    ``_digests``. The signature goes into the net's record under the
    signing key's own public half, never a certificate's key, so an orderer
    certificate with any other key misses the entry and is checked for
    real. The half is derived from the key once (``LedgerNet._signing_key``)
    and again only when the net signs with another key."""
    suite, tail = DEFAULT_SUITE, b"".join(b"\n" + _txn_line(t) for t in transactions)
    payload = suite.digest(records.encode("BLK", f"{index}", prev_hash)[:-1] + tail)
    private = net.orderer_key.private
    if net._signing_key is None or net._signing_key[0] is not private:
        net._signing_key = (private, suite.public_bytes(private.public_key()))
    block = Block(index, prev_hash, transactions, sign(private, payload))
    net._passed.add((net._signing_key[1], payload, block.orderer_signature))
    data = records.encode("BLK", f"{index}", prev_hash, block.orderer_signature) + tail + b"\n"
    object.__setattr__(block, "_bytes", data)
    object.__setattr__(block, "_memo", (payload, suite.digest(data)))
    return block


def _digests(block: Block) -> tuple[bytes, bytes]:
    """(digest the orderer signs: the BLK line up to its signature, then the TXN
    lines; link digest of ``block_bytes``), as the block remembers them. A
    parsed block other than the last remembers only its link digest: the
    first check of its orderer signature hashes the other here, from its
    re-encoding. One built by ``replace`` is hashed again."""
    memo = block._memo
    if memo is None or memo[0] is None:
        data = block_bytes(block)
        memo = (_payload_digest(data), DEFAULT_SUITE.digest(data) if memo is None else memo[1])
        object.__setattr__(block, "_memo", memo)
    return memo


def _link_digest(block: Block) -> bytes:
    """``_digests(block)[1]``, which a parsed block remembers alone."""
    memo = block._memo
    return _digests(block)[1] if memo is None else memo[1]


def _payload_digest(data: bytes) -> bytes:
    """The digest the orderer signs, from a block's ``block_bytes``,
    ``data``: its BLK line up to the signature, then its TXN lines."""
    cut = data.index(b"\n")  # the signature ends the BLK line; base64 holds no "+"
    return DEFAULT_SUITE.digest(data[: data.rindex(b"+", 0, cut)] + data[cut:-1])


def export_chain(net: LedgerNet) -> bytes:
    """Offline-verifiable dump: header, baseline state, every referenced
    certificate (so signatures check without the live net), then blocks.
    Each block the orderer signed is written as the bytes it kept (about
    0.9 KB for a one-transaction block); only a block with none, built as a
    plain ``Block`` or by ``replace``, is encoded here. The file is
    allocated once, by one join of the head lines and the block bytes."""
    head = _head(net, _referenced(net.chain))
    lines = [
        records.encode("LEDGER", CHAIN_VERSION, head.suite_id),
        records.encode("ANCHOR", head.orderer_identity, net.chain[0].prev_hash),
    ]
    for cnt_no in sorted(head.baseline_state):
        a = head.baseline_state[cnt_no]
        lines.append(records.encode("BASE", a.cnt_no, a.state.value, a.shipping_line, a.terminal))
    lines += [cert_to_wire(cert) for cert in head.certs.values()]
    return b"".join([b"\n".join(lines), b"\n", *map(block_bytes, net.chain)])


def _referenced(blocks: Sequence[Block], known: frozenset[str] = frozenset()) -> frozenset[str]:
    """``known`` and the invokers and endorsers of ``blocks``."""
    txs = [tx for block in blocks for tx in block.transactions]
    return known.union({tx.invoker.subject for tx in txs},
                       {ident for tx in txs for ident, _ in tx.endorsements})


def _head(net: LedgerNet, referenced: Iterable[str]) -> ExportedChain:
    """The head of ``net``'s chain, with no blocks: the suite id, the
    orderer, the baseline and, by subject, the chain of the orderer and of
    each referenced identity, in identity order, the first certificate per
    subject. An identity the trust view lacks gets none, so verification
    refuses what names it."""
    certs: dict[str, Certificate] = {}
    for ident in sorted({net.orderer_identity, *referenced}):
        for cert in net.trust.chains.get(ident, ()):
            certs.setdefault(cert.subject, cert)
    return ExportedChain(DEFAULT_SUITE.suite_id, net.orderer_identity,
                         dict(net.baseline_state), certs, ())


@dataclass(frozen=True)
class ExportedChain:
    suite_id: str
    orderer_identity: str
    baseline_state: dict[str, ContainerAsset]
    certs: dict[str, Certificate]
    blocks: tuple[Block, ...]


#: Rank (the order ``export_chain`` writes), count and key of each record.
_LAYOUT = {b"LEDGER": (0, 3, 0), b"ANCHOR": (1, 3, 0), b"BASE": (2, 5, 1),
           b"CERT": (3, 10, 2), b"BLK": (4, 4, None), b"TXN": (4, 0, None)}
#: Each ledger action by its element in a TXN record, where no action
#: name needs an escape.
_ACTIONS = {a.value.encode(): a for a in LedgerAction}


def parse_chain(data: bytes) -> ExportedChain:
    """Strict parse of an exported chain under ``records.read_file``'s
    one-byte-form rule; a malformed line or a non-canonical integer raises.
    When the next BLK record (or the end) closes a block, it remembers its
    link digest, hashed from its records' elements: one byte form makes
    them, joined, the records' ``records.encode`` output. Only the last
    block, whose orderer signature ``verify_exported`` always checks, also
    remembers the digest that signature covers; any other block hashes it
    only if its signature is checked (``_digests``). Each BLK and TXN
    element is decoded once, the action by a table of its bytes."""
    suite_id = orderer = ""
    baseline: dict[str, ContainerAsset] = {}
    certs: dict[str, Certificate] = {}
    blocks: list[Block] = []
    header: tuple[int, bytes, bytes] | None = None  # of the open block, with its TXNs
    txns: list[Transaction] = []
    elems: list[list[bytes]] = []  # of each of the open block's records, BLK first

    for rec in records.read_file(data, _LAYOUT, "chain"):
        tag = rec.tag
        if tag == b"TXN":
            if header is None:
                raise ParseError("TXN before any BLK", rec.offset)
            txns.append(_parse_txn(rec, certs))
            elems.append(rec.elems)
        elif tag == b"BLK":
            if header is not None:
                blocks.append(_parsed_block(header, txns, elems, last=False))
            header, txns, elems = (rec.int(1, 1), *rec.b64s((2, 3))), [], [rec.elems]
        elif tag == b"LEDGER":
            if rec.text(1) != CHAIN_VERSION:
                raise ParseError("unsupported chain header", rec.offset)
            suite_id = rec.text(2)
        elif tag == b"ANCHOR":
            orderer = rec.text(1)
            rec.b64(2)  # the genesis link, which verification derives from BASE
        elif tag == b"BASE":
            cnt = rec.text(1)
            try:
                st = LifecycleState(rec.text(2))
            except ValueError:
                raise ParseError("unknown lifecycle state", rec.offsets[2]) from None
            baseline[cnt] = ContainerAsset(cnt, st, rec.text(3), rec.text(4))
        else:  # CERT, the one tag left in _LAYOUT
            cert = cert_from_record(rec)
            certs[cert.subject] = cert
    if header is not None:
        blocks.append(_parsed_block(header, txns, elems, last=True))
    return ExportedChain(suite_id, orderer, baseline, certs, tuple(blocks))


def _parsed_block(header: tuple[int, bytes, bytes], txns: list[Transaction],
                  elems: list[list[bytes]], last: bool) -> Block:
    block = Block(header[0], header[1], tuple(txns), header[2])
    data = b"'\n".join(map(b"+".join, elems)) + b"'\n"
    object.__setattr__(block, "_memo", (_payload_digest(data) if last else None,
                                        DEFAULT_SUITE.digest(data)))
    return block


def _parse_txn(rec: records.Record, certs: Mapping[str, Certificate]) -> Transaction:
    """The transaction of a TXN record, its invoker the certificate record
    of its subject, remembering the ``TXB`` body its elements make."""
    e = rec.elems
    if len(e) < 8:
        rec.need(8)  # the shortest TXN: no argument, no endorsement
    action = _ACTIONS.get(e[1])
    if action is None:
        raise ParseError("unknown ledger action", rec.offsets[1])
    serial = rec.int(4, 1)
    args_end = 7 + 2 * rec.int(6, 3)
    end = args_end + 1 + 2 * rec.int(args_end, 3)
    rec.need(end)
    cnt_no, subject, *texts = rec.texts((2, 3, *range(7, args_end), *range(args_end + 1, end, 2)))
    invoker = certs.get(subject)
    if invoker is None:
        raise ParseError(f"transaction invoker {subject} has no certificate record", rec.offset)
    if invoker.serial != serial:
        raise ParseError(f"certificate serial mismatch for {subject}", rec.offset)
    signature, *sigs = rec.b64s((5, *range(args_end + 2, end, 2)))
    n = args_end - 7
    args = tuple(zip(texts[:n:2], texts[1:n:2]))
    tx = Transaction(invoker, action, cnt_no, args, signature, tuple(zip(texts[n:], sigs)))
    # in the TXB body's order; each text element as encode() escapes it
    object.__setattr__(tx, "_body", b"+".join((b"TXB", e[3], e[4], e[1], e[2], *e[7:args_end])))
    return tx


def verify_exported(exported: ExportedChain) -> ChainVerification:
    """Full offline audit: certificate integrity, the orderer's role, hash
    links from the baseline digest on, each transaction's ``_admit``, and
    the last block's orderer signature, which vouches for every earlier
    block (``_verify_blocks``): an honest chain costs one orderer verify.
    It reads no net's record of passed checks: the head and the blocks
    share one fresh record.

    Once the head checks pass, a long chain is split at its middle block,
    ``_split_point``: a forked child (``_Child``) checks the blocks from
    there on, the last block's orderer signature among them, while this
    process checks the blocks before them without vouching for them, each
    half one ``_verify_blocks`` call given its first block and replay
    state. Only when its own blocks pass does this process read the
    child's verdict, and it checks the child's blocks itself when no whole
    verdict arrives. A failure there is preceded by this process's own
    blocks' orderer signatures, checked in order, so the verdict, its
    block and its reason are the one-process rule's. No child outlives the
    call: it is reaped before the call returns, and killed if it still
    runs."""
    passed: set[tuple] = set()
    bad_head = _check_head(exported, passed)
    if bad_head is not None:
        return bad_head
    blocks, state = exported.blocks, dict(exported.baseline_state)
    k, child = _split_point(blocks), None
    if k < len(blocks):
        try:
            child = _Child(exported, k)
        except OSError:
            k = len(blocks)  # this process checks every block
    try:
        res = _verify_blocks(replace(exported, blocks=blocks[:k]), 0, state, passed, child is None)
        if res is None and child is not None:
            res = (child.verdict() or _verify_blocks(exported, k, state, passed)
                   or ChainVerification(True))
            if not res.valid:  # a broken orderer signature in this half comes first
                res = _broken_orderer(exported, 0, k, passed) or res
    finally:
        if child is not None:
            child.close()
    return res or ChainVerification(True)


def _split_point(blocks: Sequence[Block]) -> int:
    """The first block ``verify_exported`` hands to a forked child, or
    ``len(blocks)`` for none: the middle block, so each process checks
    half the blocks. It forks only when the chain holds at least
    ``2 * FORK_MIN_BLOCKS`` blocks, ``os.fork`` exists, this process may run
    on two or more CPUs and no second thread is alive."""
    end = len(blocks)
    if (end < 2 * FORK_MIN_BLOCKS or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
            or threading.active_count() != 1):
        return end
    return end // 2


class _Child:
    """A forked child that checks blocks ``k`` on of ``exported``: it
    rebuilds the state before block ``k`` with ``_apply`` alone (the replay
    state whenever every earlier block checks), runs ``_verify_blocks`` on
    its blocks with a fresh record of passed checks, and writes its verdict
    to a pipe. It returns to no caller: it ends in ``os._exit``, so it
    flushes no buffer and runs no exit handler."""

    def __init__(self, exported: ExportedChain, k: int):
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            try:
                os.close(read)
                state = dict(exported.baseline_state)
                for tx in (tx for block in exported.blocks[:k] for tx in block.transactions):
                    _apply(tx, state)
                res = _verify_blocks(exported, k, state, set()) or ChainVerification(True)
                os.write(write, marshal.dumps((res.valid, res.first_bad_block, res.reason)))
                os._exit(0)
            finally:
                os._exit(1)
        os.close(write)
        self.fd = read

    def verdict(self) -> ChainVerification | None:
        """The child's verdict, from one read of the pipe; None when no whole
        verdict arrives: the child died or exited before it wrote one, or
        wrote part of it. A verdict longer than a pipe writes at once may
        also arrive in part, and is then none."""
        try:
            return ChainVerification(*marshal.loads(os.read(self.fd, 1 << 16)))
        except (EOFError, ValueError, TypeError):
            return None

    def close(self) -> None:
        """Kill the child if it still runs, reap it and close the pipe."""
        os.kill(self.pid, signal.SIGKILL)  # an exited child stays unreaped, so the pid is its own
        os.waitpid(self.pid, 0)
        os.close(self.fd)


def _check_head(exported: ExportedChain, passed: set[tuple],
                checked: Container[str] = ()) -> ChainVerification | None:
    """The checks that precede the blocks; None when all pass. Each
    certificate's signature is checked through ``_signed`` on ``passed``,
    under the key of the head's certificate for its issuer. The
    certificates of the subjects in ``checked`` are skipped: the caller
    holds them, and their issuers, byte for byte from a head that
    passed."""
    if exported.suite_id != DEFAULT_SUITE.suite_id:
        return ChainVerification(False, None, f"suite mismatch: {exported.suite_id}")

    for cert in exported.certs.values():
        if cert.subject in checked:
            continue
        ints = (cert.serial, cert.not_before, cert.not_after)
        texts = (cert.subject, cert.org, cert.role, cert.issuer)
        if records.holds_line_break(texts) or min(ints) < 0:
            return ChainVerification(False, None, f"{cert.subject!r}: not a chain file record")
        issuer = exported.certs.get(cert.issuer)
        if issuer is None:
            return ChainVerification(False, None, f"{cert.subject}: issuer {cert.issuer} missing")
        if not _signed(passed, *_link_check(cert, issuer)):
            return ChainVerification(False, None, f"{cert.subject}: certificate signature broken")

    orderer = exported.certs.get(exported.orderer_identity)
    if orderer is None:
        return ChainVerification(False, None, "orderer certificate missing")
    if orderer.role != ORDERER_ROLE:
        return ChainVerification(False, None, f"{orderer.subject} is not an orderer")

    if not exported.blocks:
        return ChainVerification(False, None, "empty chain")
    return None


def _verify_blocks(
    exported: ExportedChain,
    start: int,
    state: dict[str, ContainerAsset],
    passed: set[tuple],
    vouch: bool = True,
) -> ChainVerification | None:
    """Check ``exported.blocks[start:]``, ``state`` being the replay state
    before block ``start``. The first links to the link digest of block
    ``start`` - 1, or at block 0 to ``_state_digest(state)``; each
    transaction must meet ``_admit`` against the head's certificates,
    replayed into ``state``; then, if ``vouch``, the last block's orderer
    signature, which covers every earlier byte through the links. Returns
    the failure, or None when every block checks.

    Only a failure checks orderer signatures one by one, in order from
    block ``start`` up to the failing block, and that block's own when
    ``_admit`` failed there; no ``_admit`` runs again. The first broken one
    is the verdict. So each chain gets the sequential rule's verdict
    (index, link, orderer signature, ``_admit``, block by block), except
    one whose later blocks the orderer's key signed over a broken orderer
    signature: it is valid. Digests are the ones each block and
    transaction remembers (``_digests``, ``_tx_digests``); signature
    checks go through ``_signed`` on ``passed``."""
    blocks, res = exported.blocks, None
    prev = _link_digest(blocks[start - 1]) if start else _state_digest(state)
    for pos, block in enumerate(blocks[start:], start):
        idx = block.index
        if idx != pos:
            res = ChainVerification(False, idx, "non-consecutive block index")
        elif block.prev_hash != prev:
            res = ChainVerification(False, idx, "previous-hash link broken")
        else:
            try:
                for tx in block.transactions:
                    _admit(tx, state, exported.certs, passed)
            except LedgerError as exc:  # the sequential rule checked this block's signature
                res, pos = ChainVerification(False, idx, str(exc)), pos + 1
        if res is not None:
            return _broken_orderer(exported, start, pos, passed) or res
        prev = _link_digest(block)
    end = len(blocks)
    if not vouch or start == end:
        return None
    res = _broken_orderer(exported, end - 1, end, passed)
    return res and (_broken_orderer(exported, start, end - 1, passed) or res)


def _broken_orderer(exported: ExportedChain, start: int, end: int,
                    passed: set[tuple]) -> ChainVerification | None:
    """The failure of the first of ``exported.blocks[start:end]`` whose
    orderer signature does not verify under the head's orderer
    certificate, or None."""
    key = exported.certs[exported.orderer_identity].public_key
    for block in exported.blocks[start:end]:
        if not _signed(passed, key, _digests(block)[0], block.orderer_signature):
            return ChainVerification(False, block.index, "orderer signature broken")
    return None


def verify_chain(net: LedgerNet) -> ChainVerification:
    """Audit the live net and confirm the world state is the gate replay.

    The checks of ``verify_exported`` (per transaction, ``_admit``) on the
    net's own objects, nothing encoded or parsed back: the head ``_head``
    builds, the one ``export_chain`` writes, then the blocks. The export
    parses back to exactly these: ``_gate``, ``create_net`` and
    ``_check_head`` refuse what the file cannot carry. While the last valid
    call's record covers a prefix of the chain and the head, rebuilt with
    the new blocks' identities, keeps its head (``_Verified.kept_by``: the
    same suite id, orderer and baseline, and each checked certificate byte
    for byte), ``_check_head`` checks only the head's new certificates and
    ``_verify_blocks`` starts at the first new block from the recorded
    replay state; any other head change starts at block 0. A signature
    check in the net's record (``LedgerNet._passed``) is not run again,
    head certificates included; the record is emptied at each valid call.
    The orderer's signature is checked on the last block only, under
    ``_verify_blocks``' rule, and ``_sign_block`` recorded it. A warm call
    over committed blocks makes no signature verification, and a net's first
    call checks only the head certificates that no ``create_net``,
    ``submit`` or ``endorse`` recorded: none, while the trust view keeps the
    certificates those checks read. ``verify_exported`` re-checks
    everything.
    """
    seen = net._verified
    covered = seen is not None and seen.covers_prefix_of(net)
    start = len(seen.blocks) if covered else 0
    referenced = _referenced(net.chain[start:], seen.referenced if covered else frozenset())
    head = _head(net, referenced)
    exported = replace(head, blocks=tuple(net.chain))
    if covered and seen.kept_by(head):
        bad_head = _check_head(exported, net._passed, seen.head.certs)
        state = dict(seen.state)
    else:
        bad_head = _check_head(exported, net._passed)
        start, state = 0, dict(head.baseline_state)
    if bad_head is not None:
        return bad_head
    res = _verify_blocks(exported, start, state, net._passed)
    if res is not None:
        return res
    if state != net.world_state:
        return ChainVerification(False, None, "world state does not match replay")
    net._verified = _Verified(head, referenced, exported.blocks, state)
    net._passed.clear()  # the watermark now covers every transaction it held
    return ChainVerification(True)


def _state_digest(state: Mapping[str, ContainerAsset]) -> bytes:
    """The genesis link of a chain over ``state``: ``GENESIS_PREV`` for an
    empty state, else the digest of its assets in container order."""
    if not state:
        return GENESIS_PREV
    return DEFAULT_SUITE.digest(
        b"".join(
            records.encode(a.cnt_no, a.state.value, a.shipping_line, a.terminal)
            for a in (state[k] for k in sorted(state))
        )
    )


def rollover(net: LedgerNet) -> LedgerNet:
    """Start a successor chain whose genesis commits to the predecessor:
    the old world state becomes the new baseline, so the new genesis links
    to its digest. ``create_net`` checks the orderer's chain again, in the
    trust view as it is now."""
    return create_net(
        net.orderer_identity,
        net.orderer_key,
        net.trust,
        baseline_state=net.world_state,
    )
