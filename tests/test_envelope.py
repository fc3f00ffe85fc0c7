"""Signature scheme and field sealing.

Key property under test: a verifier holding any mix of plaintext and
hash-only fields for the covered attributes reaches the same verdict, and
any single-value change flips the verdict to False.
"""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import strategies as st

from portsec.envelope import (
    DEFAULT_SUITE,
    SIGN_MEMO_SIZE,
    VERIFY_MEMO_SIZE,
    AuthDecryptFailure,
    DigestMismatch,
    EmptyReaderSet,
    NoWrappedKeyForHolder,
    content_key,
    field_digests,
    multi_sign,
    open_field,
    seal_field,
    sign,
    signing_payload,
    value_digest,
    verify,
    verify_multi_sig,
)
from portsec.model import (
    AttributeSignature,
    DuplicateAttribute,
    HashOnly,
    InvariantViolation,
    Message,
    Plain,
    Sealed,
)

digest = DEFAULT_SUITE.digest


@pytest.fixture(scope="module")
def keys():
    return {name: DEFAULT_SUITE.generate_keypair(name) for name in ("alice", "bob")}


# --- digest oracles ---------------------------------------------------------


def test_sha256_empty_vector():
    assert digest(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_sha256_known_vector():
    assert digest(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_double_hash_formula():
    """digest(digest("N1,N2") || digest("A") || digest("B")), recomputed
    with hashlib and frozen."""
    payload = signing_payload(
        ["N1", "N2"], [value_digest("A"), value_digest("B")]
    )

    def h(data):
        return hashlib.sha256(data).digest()

    assert payload == h(h(b"N1,N2") + h(b"A") + h(b"B"))
    assert payload.hex() == (
        "6c61c04e2f42f246a96ec61a542ae69dad50f30007eb03e3c9af6dd8c5b3154f"
    )
    assert value_digest("A").hex() == (
        "559aead08264d5795d3909718cdd05abd49572e84fe55590eef31a88a08fdffd"
    )


def test_payload_binds_names():
    digests = [value_digest("u"), value_digest("w")]
    assert signing_payload(["X"], digests[:1]) != signing_payload(["Y"], digests[:1])
    assert signing_payload(["X", "Y"], digests) != signing_payload(["Y", "X"], digests)


def test_payload_of_a_name_list_equals_its_tuple(counting_suite):
    suite = counting_suite()
    digests = [value_digest("u"), value_digest("w")]
    first = signing_payload(["X", "Y"], digests, suite=suite)
    assert signing_payload(("X", "Y"), digests, suite=suite) == first
    assert first == signing_payload(["X", "Y"], digests)


# --- signing ----------------------------------------------------------------

FIELDS = [("B_NO", "BK-77120"), ("CNT_C", "400 cartons machine parts"), ("CNT_W", "18400")]


def digests_of(fields, hashed=()):
    """``field_digests`` of a message carrying ``fields`` in plaintext,
    except the names in ``hashed``, which travel hash-only."""
    msg = Message("IFTMCS", "R1", tuple(
        (n, HashOnly(value_digest(v)) if n in hashed else Plain(v)) for n, v in fields
    ))
    return field_digests(msg)


def sign_plain(key_pair, fields):
    return multi_sign(key_pair, [n for n, _ in fields], digests_of(fields))


def test_a_field_has_one_digest_in_every_representation(keys):
    text = "400 cartons machine parts"
    sealed = seal_field(text, value_digest(text), content_key({"bob": keys["bob"].public}))
    msg = Message("IFTMCS", "R1", (
        ("CNT_C", Plain(text)), ("CNT_W", HashOnly(value_digest(text))), ("CSG_DATA", sealed),
    ))
    assert field_digests(msg) == dict.fromkeys(("CNT_C", "CNT_W", "CSG_DATA"), value_digest(text))


def test_memoised_signature_equals_a_fresh_one(keys):
    payload = digest(b"memo")
    private = keys["alice"].private
    assert sign(DEFAULT_SUITE, private, payload) == DEFAULT_SUITE.sign(private, payload)


def test_repeat_signature_signs_once(keys, counting_suite):
    suite = counting_suite()
    payload = digest(b"once")
    first = sign(suite, keys["alice"].private, payload)
    assert sign(suite, keys["alice"].private, payload) == first
    assert suite.signs == 1


def test_new_payload_key_or_suite_signs_again(keys, counting_suite):
    suite, other = counting_suite(), counting_suite()
    alice, bob = keys["alice"].private, keys["bob"].private
    one, two = digest(b"one"), digest(b"two")
    sign(suite, alice, one)
    assert sign(suite, alice, two) != sign(suite, bob, one)
    assert suite.signs == 3
    assert sign(other, alice, one) == sign(suite, alice, one)
    assert (suite.signs, other.signs) == (3, 1)


def test_signing_memo_is_bounded(keys, counting_suite):
    suite = counting_suite()
    payloads = [digest(b"%d" % i) for i in range(SIGN_MEMO_SIZE + 1)]
    for payload in payloads:
        sign(suite, keys["alice"].private, payload)
    assert sign.cache_info().maxsize == SIGN_MEMO_SIZE
    assert sign.cache_info().currsize <= SIGN_MEMO_SIZE
    sign(suite, keys["alice"].private, payloads[0])  # evicted, so signed again
    assert suite.signs == SIGN_MEMO_SIZE + 2


def test_sign_rejects_degenerate_input(keys, counting_suite):
    """An empty or duplicate list fails the model's checks before any RSA
    signature is made."""
    suite = counting_suite()
    digests = {"B_NO": value_digest("a")}
    with pytest.raises(InvariantViolation):
        multi_sign(keys["alice"], [], digests, suite=suite)
    with pytest.raises(DuplicateAttribute):
        multi_sign(keys["alice"], ["B_NO", "B_NO"], digests, suite=suite)
    assert suite.signs == 0


def test_signatures_are_deterministic(keys):
    s1 = sign_plain(keys["alice"], FIELDS)
    s2 = sign_plain(keys["alice"], FIELDS)
    assert s1.sig == s2.sig
    assert s1.attrs == ("B_NO", "CNT_C", "CNT_W")
    assert s1.signer == "alice"


def test_verify_all_view_combinations(keys):
    """Every plaintext/hash-only mix across 3 attributes verifies: 8 combos."""
    sig = sign_plain(keys["alice"], FIELDS)
    pub = keys["alice"].public
    for mask in itertools.product((0, 1), repeat=3):
        hashed = [n for (n, _), bit in zip(FIELDS, mask) if bit]
        assert verify_multi_sig(pub, sig, digests_of(FIELDS, hashed)), mask


def test_verify_rejects_any_single_value_change(keys):
    sig = sign_plain(keys["alice"], FIELDS)
    pub = keys["alice"].public
    names = [n for n, _ in FIELDS]
    for i in range(len(FIELDS)):
        changed = [(n, v + "!" if j == i else v) for j, (n, v) in enumerate(FIELDS)]
        assert not verify_multi_sig(pub, sig, digests_of(changed))
        assert not verify_multi_sig(pub, sig, digests_of(changed, hashed=names))


def test_verify_is_order_sensitive(keys):
    sig = sign_plain(keys["alice"], [("B_NO", "u"), ("BL_NO", "w")])
    swapped = AttributeSignature(sig.signer, ("BL_NO", "B_NO"), sig.sig)
    digests = digests_of([("B_NO", "u"), ("BL_NO", "w")])
    assert not verify_multi_sig(keys["alice"].public, swapped, digests)


def test_verify_rejects_wrong_key(keys):
    sig = sign_plain(keys["alice"], FIELDS)
    assert not verify_multi_sig(keys["bob"].public, sig, digests_of(FIELDS))


def test_verify_accepts_der_public_key(keys):
    """The key is DER bytes, as certificates carry it; bytes that are not
    an RSA public key in DER fail closed."""
    sig = sign_plain(keys["alice"], FIELDS)
    der = keys["alice"].public
    assert verify_multi_sig(der, sig, digests_of(FIELDS))
    for junk in (b"", b"not a key", der[:-1], der[:20]):
        assert not verify_multi_sig(junk, sig, digests_of(FIELDS)), junk


def test_a_non_rsa_key_neither_wraps_nor_verifies(keys):
    """An Ed25519 key in DER is refused with ValueError by the wrap and
    fails closed in a signature check: both go through one loader."""
    der = DEFAULT_SUITE.public_bytes(Ed25519PrivateKey.generate().public_key())
    with pytest.raises(ValueError, match="not an RSA key"):
        DEFAULT_SUITE.wrap_key(der, bytes(32))
    assert not DEFAULT_SUITE.verify(der, bytes(32), bytes(256))
    with pytest.raises(ValueError):  # DER that holds no key at all
        DEFAULT_SUITE.wrap_key(b"not a key", bytes(32))


def test_relabelled_or_permuted_signature_fails(keys):
    """The attribute names are signed: a signature cannot be moved to
    other attributes, nor permuted to follow two swapped values, even
    though the value digests reach the verifier in the signed order."""
    pub = keys["alice"].public
    sig = sign_plain(keys["alice"], [("CNT_W", "18400")])
    assert verify_multi_sig(pub, sig, digests_of([("CNT_W", "18400")]))
    relabelled = AttributeSignature(sig.signer, ("CNT_C",), sig.sig)
    assert not verify_multi_sig(pub, relabelled, digests_of([("CNT_C", "18400")]))

    sig = sign_plain(keys["alice"], [("CNT_C", "400 cartons"), ("CSG_DATA", "consignee ACME")])
    permuted = AttributeSignature(sig.signer, ("CSG_DATA", "CNT_C"), sig.sig)
    swapped = digests_of([("CNT_C", "consignee ACME"), ("CSG_DATA", "400 cartons")])
    assert not verify_multi_sig(pub, permuted, swapped)


# --- the verify memo --------------------------------------------------------


@pytest.fixture(scope="module")
def signed(keys):
    """(DER public key, payload, signature) of one valid alice signature."""
    payload = digest(b"checked")
    der = keys["alice"].public
    return der, payload, DEFAULT_SUITE.sign(keys["alice"].private, payload)


def test_memoised_check_equals_a_fresh_one(signed, counting_suite):
    suite = counting_suite()
    der, payload, sig = signed
    cases = [(payload, sig, True), (digest(b"tampered"), sig, False), (payload, b"garbage", False)]
    for p, s, expected in cases:
        assert verify(suite, der, p, s) is expected
        assert verify(suite, der, p, s) is DEFAULT_SUITE.verify(der, p, s)
    assert suite.verifies == len(cases)


def test_repeat_check_verifies_once(signed, counting_suite):
    suite = counting_suite()
    assert verify(suite, *signed)
    assert verify(suite, *signed)
    assert suite.verifies == 1


def test_new_payload_key_signature_or_suite_verifies_again(keys, signed, counting_suite):
    suite, other = counting_suite(), counting_suite()
    der, payload, sig = signed
    bob = keys["bob"].public
    verify(suite, der, payload, sig)
    assert not verify(suite, der, digest(b"other"), sig)
    assert not verify(suite, bob, payload, sig)
    assert not verify(suite, der, payload, sig[:-1] + bytes([sig[-1] ^ 1]))
    assert verify(other, der, payload, sig)
    assert (suite.verifies, other.verifies) == (4, 1)


def test_cached_true_never_passes_a_flipped_signature_or_another_key(keys, signed, counting_suite):
    suite = counting_suite()
    der, payload, sig = signed
    assert verify(suite, der, payload, sig)
    for i in range(len(sig)):
        flipped = sig[:i] + bytes([sig[i] ^ 0x01]) + sig[i + 1 :]
        assert not verify(suite, der, payload, flipped), i
    assert not verify(suite, keys["bob"].public, payload, sig)
    assert verify(suite, der, payload, sig)


def test_verify_memo_is_bounded(signed, counting_suite):
    suite = counting_suite()
    der, _, sig = signed
    payloads = [digest(b"%d" % i) for i in range(VERIFY_MEMO_SIZE + 1)]
    for payload in payloads:
        verify(suite, der, payload, sig)
    assert verify.cache_info().maxsize == VERIFY_MEMO_SIZE
    assert verify.cache_info().currsize <= VERIFY_MEMO_SIZE
    verify(suite, der, payloads[0], sig)  # evicted, so checked again
    assert suite.verifies == VERIFY_MEMO_SIZE + 2


def test_a_repeated_multi_sig_check_verifies_once(keys, counting_suite):
    suite = counting_suite()
    sig = sign_plain(keys["alice"], FIELDS)
    digests = digests_of(FIELDS)
    der = keys["alice"].public
    assert verify_multi_sig(der, sig, digests, suite=suite)
    assert verify_multi_sig(der, sig, digests, suite=suite)
    assert suite.verifies == 1
    bad = digests_of([(n, v + "!") for n, v in FIELDS])
    assert not verify_multi_sig(der, sig, bad, suite=suite)
    assert not verify_multi_sig(der, sig, bad, suite=suite)
    assert suite.verifies == 2


# --- sealing ----------------------------------------------------------------


def test_seal_open_round_trip(keys):
    text = "400 cartons machine parts"
    sealed = seal_field(
        text, value_digest(text),
        content_key({"alice": keys["alice"].public, "bob": keys["bob"].public}),
    )
    assert set(sealed.wrapped_keys) == {"alice", "bob"}
    assert sealed.digest == value_digest("400 cartons machine parts")
    for who in ("alice", "bob"):
        assert open_field(sealed, who, keys[who].private, {}) == "400 cartons machine parts"


def test_seal_requires_readers():
    with pytest.raises(EmptyReaderSet):
        seal_field("x", value_digest("x"), content_key({}))


def test_open_without_wrapped_key(keys):
    sealed = seal_field("secret", value_digest("secret"), content_key({"alice": keys["alice"].public}))
    with pytest.raises(NoWrappedKeyForHolder):
        open_field(sealed, "bob", keys["bob"].private, {})


def test_open_with_wrong_private_key(keys):
    sealed = seal_field("secret", value_digest("secret"), content_key({"alice": keys["alice"].public}))
    with pytest.raises(AuthDecryptFailure):
        open_field(sealed, "alice", keys["bob"].private, {})


def test_open_tampered_ciphertext(keys):
    sealed = seal_field("secret", value_digest("secret"), content_key({"alice": keys["alice"].public}))
    ct = bytearray(sealed.ciphertext)
    ct[-1] ^= 0x01
    broken = Sealed(sealed.digest, bytes(ct), sealed.wrapped_keys)
    with pytest.raises(AuthDecryptFailure):
        open_field(broken, "alice", keys["alice"].private, {})


def test_open_detects_digest_substitution(keys):
    """Ciphertext decrypts fine but the carried digest names another value."""
    sealed = seal_field("secret", value_digest("secret"), content_key({"alice": keys["alice"].public}))
    forged = Sealed(value_digest("other"), sealed.ciphertext, sealed.wrapped_keys)
    with pytest.raises(DigestMismatch):
        open_field(forged, "alice", keys["alice"].private, {})


def test_open_refuses_a_plaintext_that_is_not_utf8(keys):
    """Its digest matches, but no value's canonical bytes are these."""
    raw, key = b"\xff\xfe not utf-8", bytes(32)
    forged = Sealed(
        digest(raw), DEFAULT_SUITE.encrypt(key, raw),
        {"alice": DEFAULT_SUITE.wrap_key(keys["alice"].public, key)},
    )
    with pytest.raises(DigestMismatch, match="not UTF-8"):
        open_field(forged, "alice", keys["alice"].private, {})


def test_sealing_uses_fresh_keys(keys):
    a = seal_field("same text", value_digest("same text"), content_key({"alice": keys["alice"].public}))
    b = seal_field("same text", value_digest("same text"), content_key({"alice": keys["alice"].public}))
    assert a.digest == b.digest
    assert a.ciphertext != b.ciphertext
    assert a.wrapped_keys["alice"] != b.wrapped_keys["alice"]


def test_ciphertexts_swapped_within_one_content_key_fail_the_digest_check(keys):
    """Two fields sealed under one key decrypt each other's ciphertext, so
    the carried digest, not the tag, catches the swap."""
    key = content_key({"alice": keys["alice"].public})
    a, b = (seal_field(t, value_digest(t), key) for t in ("first", "second"))
    assert a.wrapped_keys == b.wrapped_keys
    with pytest.raises(DigestMismatch):
        open_field(Sealed(a.digest, b.ciphertext, a.wrapped_keys), "alice", keys["alice"].private, {})


def test_a_key_table_answers_only_its_exact_blob(keys, counting_suite):
    suite = counting_suite()
    sealed = seal_field("secret", value_digest("secret"),
                        content_key({"alice": keys["alice"].public}, suite), suite)
    table = {}
    for _ in range(2):
        assert open_field(sealed, "alice", keys["alice"].private, table, suite) == "secret"
    assert suite.unwraps == 1 and len(table) == 1
    blob = sealed.wrapped_keys["alice"]
    flipped = Sealed(sealed.digest, sealed.ciphertext, {"alice": blob[:-1] + bytes([blob[-1] ^ 1])})
    with pytest.raises(AuthDecryptFailure):
        open_field(flipped, "alice", keys["alice"].private, table, suite)
    assert suite.unwraps == 2 and len(table) == 1


# --- properties -------------------------------------------------------------

_value = st.text(min_size=0, max_size=60)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.from_regex(r"[A-Z0-9_]{1,8}", fullmatch=True), _value),
        min_size=1,
        max_size=5,
        unique_by=lambda t: t[0],
    ),
    st.data(),
)
def test_sign_verify_property(keys, fields, data):
    sig = sign_plain(keys["alice"], fields)
    hashed = [n for n, _ in fields if data.draw(st.booleans())]
    assert verify_multi_sig(keys["alice"].public, sig, digests_of(fields, hashed))


@settings(max_examples=25, deadline=None)
@given(_value)
def test_seal_open_property(keys, text):
    sealed = seal_field(text, value_digest(text), content_key({"bob": keys["bob"].public}))
    assert open_field(sealed, "bob", keys["bob"].private, {}) == text
