"""Digests, attribute-level multi-signatures, and field sealing.

The signature scheme protects the values v1..vk of an attribute list
n1..nk: each value is hashed, the fixed-length hashes are concatenated
behind the hash of the comma-joined name list, the concatenation is hashed
again, and that double hash is signed with the signer's private key. A
verifier therefore needs, per attribute, either the value or its digest --
which is what lets intermediaries check signatures over data they are not
allowed to read. Binding the names means a signature cannot be relabelled
to vouch for the same values under other attributes.

Sealing pairs a value's digest with its encryption under a content key,
fresh per message and reader set and wrapped once per reader's public key
(one content-encryption key and one RecipientInfo per recipient, as in CMS
EnvelopedData, RFC 5652 §6). Every field of the set carries the same
wrapped blobs and its own nonce and ciphertext, so the wire form is the
one a key per field gives. An actor keeps the keys it wrapped for itself
or unwrapped in a bounded table keyed on the exact wrapped bytes; opening
a field skips the RSA-OAEP unwrap on a hit and still decrypts and checks
the digest.

All primitives sit behind one CryptoSuite, ``DEFAULT_SUITE``: SHA-256,
signatures over the 32-byte payload, RSA-OAEP-SHA256 key wrap, and
AES-256-GCM. The signature scheme follows the key, whose SPKI a CA signs
into its certificate: an RSA-2048 key signs with PKCS#1 v1.5, a P-256 key
(the orderer's) with deterministic ECDSA (RFC 6979) normalised to low S,
and a verifier refuses a high S. Either way a key and a payload have
exactly one valid signature byte string. Its ``suite_id`` is written into
fixture and chain files and checked on reading them; another primitive
set is another ``DEFAULT_SUITE`` with another id. Every module reads
``DEFAULT_SUITE`` where it runs a primitive and binds none of its methods
at import, so the tests and the benchmark count crypto operations by
wrapping its methods. Every signer in the package signs
through ``sign``, which reuses the signature already made for the same key
and payload; every multi-signature check goes through ``verify``, which
reuses the answer already given for the same key, payload and signature.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Mapping, Protocol, Sequence

from cryptography.exceptions import InvalidSignature, InvalidTag, UnsupportedAlgorithm
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec, padding, rsa, utils
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .model import AttributeSignature, Message, Plain, Sealed, canonical_bytes


class EnvelopeError(Exception):
    """Base class for signature/sealing errors."""


class EmptyReaderSet(EnvelopeError):
    pass


class NoWrappedKeyForHolder(EnvelopeError):
    """The opener has no wrapped key: an unauthorized access attempt."""


class AuthDecryptFailure(EnvelopeError):
    """Authenticated decryption failed: the ciphertext was tampered with."""


class DigestMismatch(EnvelopeError):
    """Decrypted plaintext does not match the carried digest."""


#: A signing key: RSA-2048, or P-256 for the orderer.
PrivateKey = rsa.RSAPrivateKey | ec.EllipticCurvePrivateKey


@dataclass(frozen=True)
class KeyPair:
    """One asymmetric key pair per identity, used both to sign and to
    receive wrapped keys. ``public`` is the DER form certificates carry."""

    public: bytes
    private: PrivateKey
    owner: str


class Signer(Protocol):
    """What signing and unwrapping read of a key pair: a ``KeyPair``, or a
    fixture world's key pair, whose private key loads on first use."""

    @property
    def owner(self) -> str: ...

    @property
    def private(self) -> PrivateKey: ...


_OAEP = padding.OAEP(
    mgf=padding.MGF1(hashes.SHA256()), algorithm=hashes.SHA256(), label=None
)
_PKCS1 = padding.PKCS1v15()
_PREHASHED = utils.Prehashed(hashes.SHA256())
#: The order n of P-256's base point: of the two S values ``s`` and
#: ``n - s`` that verify, a signature carries the one at most ``n // 2``.
_P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


@lru_cache(maxsize=None)
def _ecdsa() -> ec.ECDSA:
    """ECDSA over the prehashed payload with RFC 6979 nonces. Built on first
    use: building one imports cryptography's OpenSSL backend module
    (~0.5 MB of RSS), which a process that meets no P-256 key never needs."""
    return ec.ECDSA(_PREHASHED, deterministic_signing=True)


def _signing_key(load):
    """``load()``, an RSA or a P-256 key; raises ValueError for anything else."""
    try:
        key = load()
    except (TypeError, UnsupportedAlgorithm) as exc:
        raise ValueError(str(exc)) from None
    if isinstance(key, (rsa.RSAPublicKey, rsa.RSAPrivateKey)) or (
        isinstance(key, (ec.EllipticCurvePublicKey, ec.EllipticCurvePrivateKey))
        and isinstance(key.curve, ec.SECP256R1)
    ):
        return key
    raise ValueError(f"{type(key).__name__} is not an RSA key or a P-256 key")


@lru_cache(maxsize=256)
def _load_public(der: bytes) -> rsa.RSAPublicKey | ec.EllipticCurvePublicKey:
    """The RSA or P-256 public key in ``der``, type-checked once per cached key."""
    return _signing_key(lambda: serialization.load_der_public_key(der))


def _low_s(sig: bytes) -> bool:
    """Whether ``sig`` is strict DER whose S is at most ``n // 2``: of the
    two byte strings that verify, the one the signer makes."""
    try:
        return utils.decode_dss_signature(sig)[1] <= _P256_ORDER // 2
    except ValueError:
        return False


class CryptoSuite:
    """The deployment's primitive selection: one hash, one signature scheme,
    one key wrap, one authenticated cipher."""

    suite_id = "SHA256-RSA2048-PKCS1V15-OAEP-AESGCM-NAMEBOUND"
    symmetric_key_length = 32
    _nonce_length = 12

    def digest(self, data: bytes) -> bytes:
        return hashlib.sha256(data).digest()

    def generate_keypair(self, owner: str, p256: bool = False) -> KeyPair:
        if p256:
            private = ec.generate_private_key(ec.SECP256R1())
        else:
            private = rsa.generate_private_key(public_exponent=65537, key_size=2048)
        return KeyPair(self.public_bytes(private.public_key()), private, owner)

    def sign(self, private: PrivateKey, payload: bytes) -> bytes:
        if isinstance(private, rsa.RSAPrivateKey):
            return private.sign(payload, _PKCS1, _PREHASHED)
        r, s = utils.decode_dss_signature(private.sign(payload, _ecdsa()))
        return utils.encode_dss_signature(r, min(s, _P256_ORDER - s))

    def verify(self, public: bytes, payload: bytes, sig: bytes) -> bool:
        # verification input may be attacker-controlled down to the key
        # bytes (exported chains embed certificates): fail closed
        try:
            key = _load_public(public)
        except ValueError:
            return False
        if isinstance(key, rsa.RSAPublicKey):
            scheme = (_PKCS1, _PREHASHED)
        elif _low_s(sig):
            scheme = (_ecdsa(),)
        else:
            return False
        try:
            key.verify(sig, payload, *scheme)
            return True
        except InvalidSignature:
            return False

    def wrap_key(self, public: bytes, key_material: bytes) -> bytes:
        key = _load_public(public)
        if not isinstance(key, rsa.RSAPublicKey):
            raise ValueError(f"{type(key).__name__} is not an RSA key")
        return key.encrypt(key_material, _OAEP)

    def unwrap_key(self, private: rsa.RSAPrivateKey, wrapped: bytes) -> bytes:
        try:
            return private.decrypt(wrapped, _OAEP)
        except ValueError as exc:
            raise AuthDecryptFailure(f"key unwrap failed: {exc}") from None

    def encrypt(self, key: bytes, plaintext: bytes) -> bytes:
        nonce = os.urandom(self._nonce_length)
        return nonce + AESGCM(key).encrypt(nonce, plaintext, None)

    def decrypt(self, key: bytes, blob: bytes) -> bytes:
        if len(blob) < self._nonce_length + 16:
            raise AuthDecryptFailure("ciphertext too short")
        try:
            return AESGCM(key).decrypt(blob[: self._nonce_length], blob[self._nonce_length :], None)
        except InvalidTag:
            raise AuthDecryptFailure("authentication tag mismatch") from None

    def public_bytes(self, public: rsa.RSAPublicKey | ec.EllipticCurvePublicKey) -> bytes:
        return public.public_bytes(
            serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
        )

    def private_bytes(self, private: PrivateKey) -> bytes:
        return private.private_bytes(
            serialization.Encoding.DER,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )

    def load_private(self, der: bytes) -> PrivateKey:
        """Raises ValueError unless ``der`` is an unencrypted PKCS#8 RSA or
        P-256 key."""
        return _signing_key(lambda: serialization.load_der_private_key(der, None))


DEFAULT_SUITE = CryptoSuite()

#: Entries in the signing memo. A ``compare_modes`` pass makes 29 distinct
#: signatures, and a long-lived world repeats a signature within the same
#: booking; a run that never repeats one churns at most this many ~0.5 KB
#: entries.
SIGN_MEMO_SIZE = 64


@lru_cache(maxsize=SIGN_MEMO_SIZE)
def sign(private: PrivateKey, payload: bytes) -> bytes:
    """The package's one signing path. A PKCS#1 v1.5 signature, and an
    RFC 6979 ECDSA one normalised to low S, depends only on the key and the
    payload, so a repeated pair returns the bytes ``DEFAULT_SUITE.sign``
    made the first time. The entry holds the key object itself, so its
    identity cannot pass to another key while cached.
    ``DEFAULT_SUITE.sign`` stays the raw primitive: counting it counts real
    signatures."""
    return DEFAULT_SUITE.sign(private, payload)


#: Entries in the verify memo. A p2p booking checks ~5 distinct
#: signatures, each many times over, and a ``compare_modes`` pass 19.
VERIFY_MEMO_SIZE = 64


@lru_cache(maxsize=VERIFY_MEMO_SIZE)
def verify(public: bytes, payload: bytes, sig: bytes) -> bool:
    """The multi-signature check path: ``DEFAULT_SUITE.verify`` over DER
    key bytes, answered once per distinct (key, payload, signature).
    Verification is a pure function of these three, so a cached answer is
    the answer a fresh check would give; any other byte is another entry.
    ``DEFAULT_SUITE.verify`` stays the raw primitive: counting it counts
    real verifications."""
    return DEFAULT_SUITE.verify(public, payload, sig)


def value_digest(text: str) -> bytes:
    """Digest of a field value's canonical bytes."""
    return DEFAULT_SUITE.digest(canonical_bytes(text))


def signing_payload(names: Sequence[str], value_digests: Sequence[bytes]) -> bytes:
    """The name-bound double hash H(H(",".join(names)) || d1 || ... || dk).
    Digests are fixed-length and names cannot hold a comma, so no other
    separators are needed."""
    digest = DEFAULT_SUITE.digest
    return digest(digest(canonical_bytes(",".join(names))) + b"".join(value_digests))


def field_digests(msg: Message) -> dict[str, bytes]:
    """Each field's digest: ``value_digest`` of a plain value's text, or the
    digest a hash-only or sealed value carries. A field's digest is the same
    in every representation, so signing and every check read this one map."""
    return {
        name: value_digest(v.text) if isinstance(v, Plain) else v.digest
        for name, v in msg.fields
    }


def multi_sign(
    key_pair: Signer, attrs: Sequence[str], digests: Mapping[str, bytes]
) -> AttributeSignature:
    """Sign an ordered attribute list with one signature over the values'
    digests (a signer can vouch for linkage to a value it cannot read).
    The unsigned signature is built first, so an empty or duplicate list
    fails the model's checks before any RSA signature is made."""
    unsigned = AttributeSignature(key_pair.owner, tuple(attrs), b"")
    payload = signing_payload(unsigned.attrs, [digests[a] for a in unsigned.attrs])
    return replace(unsigned, sig=sign(key_pair.private, payload))


def verify_multi_sig(public: bytes, sig: AttributeSignature, digests: Mapping[str, bytes]) -> bool:
    """Check a signature against the digests of the attributes it covers,
    under the signer's DER public key."""
    payload = signing_payload(sig.attrs, [digests[a] for a in sig.attrs])
    return verify(public, payload, sig.sig)


#: Entries in an actor's content-key table. A p2p booking files one key
#: with each actor that reads a sealed field, and the key is reused only
#: within that booking, so a long-lived world churns at most this many
#: ~0.4 KB entries per actor.
KEY_TABLE_SIZE = 64


@dataclass(frozen=True)
class ContentKey:
    """A content key and its wraps, one per reader identity."""

    key: bytes = field(repr=False)
    wrapped_keys: Mapping[str, bytes]


def content_key(readers: Mapping[str, bytes]) -> ContentKey:
    """A fresh content key, wrapped once for every reader's public key."""
    if not readers:
        raise EmptyReaderSet("sealing requires at least one reader")
    key = os.urandom(DEFAULT_SUITE.symmetric_key_length)
    return ContentKey(
        key, {ident: DEFAULT_SUITE.wrap_key(public, key) for ident, public in readers.items()}
    )


def remember_key(table: dict[bytes, bytes], wrapped: bytes, key: bytes) -> None:
    """File ``key`` in an actor's table under the exact blob that wraps it
    for that actor; past ``KEY_TABLE_SIZE`` entries the oldest leaves. An
    entry is what unwrapping the blob with the actor's private key gives,
    so the table belongs to one key pair."""
    table[wrapped] = key
    if len(table) > KEY_TABLE_SIZE:
        del table[next(iter(table))]


def seal_field(value: str, digest: bytes, key: ContentKey) -> Sealed:
    """Encrypt a value under ``key`` with a fresh nonce, carry the key's
    wraps, and pair the ciphertext with ``digest``, the value's
    ``value_digest``, which the caller has already computed."""
    return Sealed(
        digest=digest,
        ciphertext=DEFAULT_SUITE.encrypt(key.key, canonical_bytes(value)),
        wrapped_keys=dict(key.wrapped_keys),
    )


def open_field(
    sealed: Sealed, holder: str, private: rsa.RSAPrivateKey, keys: dict[bytes, bytes]
) -> str:
    """Unwrap, decrypt, and check the plaintext against the carried digest.
    ``keys`` is the holder's content-key table: a wrapped blob it holds
    byte for byte skips the unwrap, and a blob unwrapped here is filed in
    it. Decryption and the digest check run on every call."""
    if holder not in sealed.wrapped_keys:
        raise NoWrappedKeyForHolder(f"no wrapped key for {holder}")
    wrapped = sealed.wrapped_keys[holder]
    key = keys.get(wrapped)
    if key is None:
        key = DEFAULT_SUITE.unwrap_key(private, wrapped)
        remember_key(keys, wrapped, key)
    try:
        text = DEFAULT_SUITE.decrypt(key, sealed.ciphertext).decode("utf-8")
    except UnicodeDecodeError:
        # no value's canonical bytes decode this way
        raise DigestMismatch("plaintext is not UTF-8") from None
    if value_digest(text) != sealed.digest:
        raise DigestMismatch("plaintext digest does not match sealed digest")
    return text
