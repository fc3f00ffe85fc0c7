"""Every edit of a fixture file ends in a verdict or in exit 2.

Each example makes one or two semantic edits of ``data/golden.psf``: a
certificate's role or organization changed, a record dropped or repeated,
two identities' keys swapped, a reader given a P-256 key that its CA
certifies, a value dropped, the orderer's or its CA's certificate given
another organization, issuer or role, or dropped. It runs the edited file through ``main`` as
an export in p2p mode, an import in ledger mode and one p2p attack, then
``audit`` on the transcript the export writes and ``ledger-verify`` on the
chain the import writes. Each must exit 0 or 1 with its VERDICT, ATTACK,
AUDIT or CHAIN line, or exit 2 with one ``error:`` line; an exception that
escapes ``main`` fails the test.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cryptography.hazmat.primitives.asymmetric import ec

from portsec import records
from portsec.cli import main
from portsec.envelope import DEFAULT_SUITE
from portsec.fixtures import LEAF_VALIDITY, build_world, fixtures_from_bytes
from portsec.ledger import ORDERER_ROLE
from portsec.pki import CA_ROLE, cert_to_wire
from portsec.policy import Role
from test_golden import FIXTURES

GOLDEN = FIXTURES.read_bytes().splitlines()
ROLES = [r.value.encode() for r in Role] + [ORDERER_ROLE.encode(), CA_ROLE.encode(), b"NOBODY"]
ORGS = sorted({line.split(b"+")[3] for line in GOLDEN if line.startswith(b"CERT+")}) + [b"ZZZ"]
ISSUERS = sorted({line.split(b"+")[5] for line in GOLDEN if line.startswith(b"CERT+")}) + [
    b"orderer-1", b"ZZZ"]
#: the identities a content key may be wrapped for
READERS = sorted(c.subject for c in fixtures_from_bytes(FIXTURES.read_bytes()).certs.values()
                 if c.role in {r.value for r in Role})


@lru_cache(maxsize=None)
def _p256_records(identity: bytes) -> tuple[bytes, bytes]:
    """A KEY and a CERT line giving ``identity`` a P-256 key, the
    certificate issued by its own CA."""
    fx = fixtures_from_bytes(FIXTURES.read_bytes())
    old = fx.certs[identity.decode()]
    private = ec.generate_private_key(ec.SECP256R1())
    cert = build_world(fx).trust.cas[old.issuer].issue(
        old.subject, old.org, old.role, DEFAULT_SUITE.public_bytes(private.public_key()),
        LEAF_VALIDITY)
    return (records.encode("KEY", old.subject, DEFAULT_SUITE.private_bytes(private)),
            cert_to_wire(cert))


def _indices(lines, tag):
    return [i for i, line in enumerate(lines) if line.startswith(tag)]


def _set_element(data, lines, at, choices, of_ca=None):
    """One CERT line's element ``at`` (3: org, 4: role) set to a drawn
    token; of a CA's certificate, or of an actor's, if ``of_ca`` says."""
    held = [i for i in _indices(lines, b"CERT+")
            if of_ca is None or (lines[i].split(b"+")[4] == CA_ROLE.encode()) == of_ca]
    i = data.draw(st.sampled_from(held), label="certificate")
    elems = lines[i].split(b"+")
    elems[at] = data.draw(st.sampled_from(choices), label="token")
    lines[i] = b"+".join(elems)


#: Each kind of edit, as often as it is drawn: an actor's role edit most,
#: since that role decides which steps of the script the actor can take.
EDITS = ("role", "role", "role", "ca-role", "org", "drop", "repeat", "swap-keys", "p256",
         "drop-value", "orderer-chain")


def _edit(data, lines):
    kind = data.draw(st.sampled_from(EDITS), label="edit")
    if kind in ("role", "ca-role"):
        _set_element(data, lines, 4, ROLES, of_ca=kind == "ca-role")
    elif kind == "org":
        _set_element(data, lines, 3, ORGS)
    elif kind == "drop":
        del lines[data.draw(st.integers(0, len(lines) - 1), label="dropped")]
    elif kind == "repeat":
        i = data.draw(st.integers(0, len(lines) - 1), label="repeated")
        lines.insert(i, lines[i])
    elif kind == "swap-keys":
        i, j = data.draw(st.lists(st.sampled_from(_indices(lines, b"KEY+")), min_size=2,
                                  max_size=2, unique=True), label="keys")
        (a, der_a), (b, der_b) = (lines[i].rsplit(b"+", 1), lines[j].rsplit(b"+", 1))
        lines[i], lines[j] = a + b"+" + der_b, b + b"+" + der_a
    elif kind == "p256":
        who = data.draw(st.sampled_from(READERS), label="reader").encode()
        key, cert = _p256_records(who)
        for i in _indices(lines, b"KEY+" + who + b"+"):
            lines[i] = key
        for i in _indices(lines, b"CERT+"):
            if lines[i].split(b"+")[2] == who:
                lines[i] = cert
    elif kind == "orderer-chain":
        held = [i for i in _indices(lines, b"CERT+")
                if lines[i].split(b"+")[2] in (b"ORD-CA", b"orderer-1")]
        i = data.draw(st.sampled_from(held), label="certificate")
        at = data.draw(st.sampled_from((3, 4, 5, None)), label="element")
        if at is None:
            del lines[i]
        else:
            elems = lines[i].split(b"+")
            elems[at] = data.draw(st.sampled_from({3: ORGS, 4: ROLES, 5: ISSUERS}[at]),
                                  label="token")
            lines[i] = b"+".join(elems)
    else:
        del lines[data.draw(st.sampled_from(_indices(lines, b"VAL+")), label="value")]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The edited file's path, and each command run on it with the line
    that names its outcome and, if it writes a file, that file and its
    reader with the reader's line."""
    root = tmp_path_factory.mktemp("edits")
    spec = root / "tamper.atk"
    spec.write_bytes(b"ATK+TAMPER_FIELD+attribute+CNT_W+payload+1 kg'\n")
    trs, chain = root / "export.trs", root / "import.chain"
    return root / "edited.psf", (
        (["run", "--scenario", "export", "--mode", "p2p", "--out", str(trs)], "VERDICT",
         (trs, ["audit", "--transcript", str(trs)], "AUDIT")),
        (["run", "--scenario", "import", "--mode", "ledger", "--chain-out", str(chain)], "VERDICT",
         (chain, ["ledger-verify", "--chain", str(chain)], "CHAIN")),
        (["attack", "--scenario", "export", "--mode", "p2p", "--spec", str(spec)], "ATTACK", None),
    )


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _ends(argv, word):
    """Run ``argv``: exit 0 or 1 with its ``word`` line, or 2 with one
    ``error:`` line. Its exit code."""
    code, out, err = _outcome(argv)
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
    else:
        assert code in (0, 1) and re.search(f"^{word} ", out, re.M), (argv, code, out, err)
    return code


@given(data=st.data())
def test_an_edited_fixture_file_ends_in_a_verdict_or_exit_two(runs, data):
    path, commands = runs
    lines = list(GOLDEN)
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        _edit(data, lines)
    path.write_bytes(b"\n".join(lines) + b"\n")
    for argv, word, written in commands:
        if written:
            written[0].unlink(missing_ok=True)
        if _ends([*argv, "--fixtures", str(path)], word) != 2 and written:
            _ends(*written[1:])
