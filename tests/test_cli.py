"""End-to-end runs of every subcommand through main(argv)."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import portsec
from portsec.cli import main
from portsec.envelope import DEFAULT_SUITE
from portsec.fixtures import build_net, build_world, fixtures_from_bytes, fixtures_to_bytes
from portsec.ledger import (
    FORK_MIN_CHECKS,
    IneligibleEndorser,
    LedgerAction,
    _sign_block,
    block_bytes,
    build_transaction,
    commit,
    endorse,
    export_chain,
    submit,
)
from portsec.policy import DEFAULT_POLICY_TEXT
from portsec.transcript import transcript_from_wire
from test_golden import FIXTURES


@pytest.fixture(scope="session")
def cli_files(base_fixtures, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "fixtures": root / "fixtures.psf",
        "policy": root / "policy.txt",
        "tamper": root / "tamper.atk",
        "ledger_tamper": root / "ledger_tamper.atk",
        "attr_swap": root / "attr_swap.atk",
        "root": root,
    }
    paths["fixtures"].write_bytes(fixtures_to_bytes(base_fixtures))
    paths["policy"].write_text(DEFAULT_POLICY_TEXT)
    paths["tamper"].write_bytes(b"ATK+TAMPER_FIELD+attribute+CNT_W+payload+1 kg'\n")
    paths["ledger_tamper"].write_bytes(b"ATK+LEDGER_TAMPER+block+1'\n")
    paths["attr_swap"].write_bytes(b"ATK+ATTR_SWAP'\n")
    return paths


def test_run_honest_export(cli_files, tmp_path, capsys):
    out = tmp_path / "export.trs"
    code = main(["run", "--scenario", "export", "--mode", "p2p",
                 "--fixtures", str(cli_files["fixtures"]), "--out", str(out)])
    assert code == 0
    assert "VERDICT PASS" in capsys.readouterr().out
    stored = transcript_from_wire(out.read_bytes())
    assert stored.verdict == "PASS"
    assert stored.scenario == "export"


def test_run_ledger_writes_verifiable_chain(cli_files, tmp_path, capsys):
    chain = tmp_path / "import.chain"
    code = main(["run", "--scenario", "import", "--mode", "ledger",
                 "--fixtures", str(cli_files["fixtures"]),
                 "--chain-out", str(chain)])
    assert code == 0
    capsys.readouterr()
    assert main(["ledger-verify", "--chain", str(chain)]) == 0
    assert "CHAIN VALID" in capsys.readouterr().out


def test_run_halts_at_its_first_rejection(base_fixtures, tmp_path, capsys):
    # a later not_after breaks the CA's signature on t1-op's certificate
    cert = base_fixtures.certs["t1-op"]
    certs = {**base_fixtures.certs, "t1-op": dataclasses.replace(cert, not_after=cert.not_after + 1)}
    path = tmp_path / "fixtures.psf"
    path.write_bytes(fixtures_to_bytes(dataclasses.replace(base_fixtures, certs=certs)))
    code = main(["run", "--scenario", "export", "--mode", "p2p", "--fixtures", str(path)])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "VALIDATED pcs-op ICU REJECT", "VERDICT FAIL",
    ]


def test_chain_out_needs_ledger_mode(cli_files, tmp_path, capsys):
    """The flag is refused before the run: nothing is printed or written."""
    out = tmp_path / "no.trs"
    with pytest.raises(SystemExit) as err:
        main(["run", "--scenario", "export", "--mode", "p2p",
              "--fixtures", str(cli_files["fixtures"]), "--out", str(out),
              "--chain-out", str(tmp_path / "no.chain")])
    assert err.value.code == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_audit_of_honest_transcript_is_clean(cli_files, tmp_path, capsys):
    out = tmp_path / "import.trs"
    main(["run", "--scenario", "import", "--mode", "p2p",
          "--fixtures", str(cli_files["fixtures"]), "--out", str(out)])
    capsys.readouterr()
    assert main(["audit", "--transcript", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "AUDIT CLEAN" in printed
    assert "ACTOR pcs-op" in printed


def test_audit_refuses_a_repeated_header(cli_files, tmp_path, capsys):
    """A copy of the TRS header appended to a stored transcript would
    start it over with no records; the audit refuses the file instead."""
    out = tmp_path / "export.trs"
    main(["run", "--scenario", "export", "--mode", "p2p",
          "--fixtures", str(cli_files["fixtures"]), "--out", str(out)])
    raw = out.read_bytes()
    out.write_bytes(raw + raw.splitlines(keepends=True)[0])
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["audit", "--transcript", str(out)])
    assert err.value.code == 2
    assert "repeated TRS record" in capsys.readouterr().err


def test_attack_spec_with_a_repeated_field_exits_two(cli_files, tmp_path, capsys):
    spec = tmp_path / "repeated.atk"
    spec.write_bytes(b"ATK+TAMPER_FIELD+attribute+CNT_W+attribute+CNT_C'\n")
    with pytest.raises(SystemExit) as err:
        main(["attack", "--scenario", "export", "--mode", "p2p",
              "--fixtures", str(cli_files["fixtures"]), "--spec", str(spec)])
    assert err.value.code == 2
    assert "repeated ATK field 'attribute'" in capsys.readouterr().err


def test_attack_detected_exits_zero(cli_files, capsys):
    code = main(["attack", "--scenario", "export", "--mode", "p2p",
                 "--fixtures", str(cli_files["fixtures"]),
                 "--spec", str(cli_files["tamper"])])
    assert code == 0
    printed = capsys.readouterr().out
    assert "DETECTED" in printed
    assert "FINDING SignatureInvalid" in printed


def test_attr_swap_attack_detected_exits_zero(cli_files, capsys):
    code = main(["attack", "--scenario", "import", "--mode", "p2p",
                 "--fixtures", str(cli_files["fixtures"]),
                 "--spec", str(cli_files["attr_swap"])])
    assert code == 0
    printed = capsys.readouterr().out
    assert "ATTACK ATTR_SWAP import p2p DETECTED" in printed
    assert "FINDING SignatureInvalid" in printed


def test_undetectable_attack_exits_nonzero(cli_files, capsys):
    code = main(["attack", "--scenario", "export", "--mode", "p2p",
                 "--fixtures", str(cli_files["fixtures"]),
                 "--spec", str(cli_files["ledger_tamper"])])
    assert code == 1
    assert "UNDETECTED" in capsys.readouterr().out


def test_ledger_verify_flags_tampering(cli_files, tmp_path, capsys):
    chain = tmp_path / "good.chain"
    main(["run", "--scenario", "export", "--mode", "ledger",
          "--fixtures", str(cli_files["fixtures"]), "--chain-out", str(chain)])
    raw = bytearray(chain.read_bytes())
    raw[raw.find(b"TXN+") + 22] ^= 0x01
    bad = tmp_path / "bad.chain"
    bad.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["ledger-verify", "--chain", str(bad)]) == 1
    assert "CHAIN INVALID" in capsys.readouterr().out


def test_ledger_verify_flags_self_endorsement(base_fixtures, tmp_path, capsys):
    world = build_world(base_fixtures)
    net = build_net(world)
    key = world.key_pairs["sl1-clerk"]
    tx, presented = build_transaction(LedgerAction.CREATE, "COSU1234567", (("terminal", "T1"),),
                                      world.chain_of("sl1-clerk"), key)
    pending = submit(net, tx, presented)
    payload = DEFAULT_SUITE.digest(tx.body_bytes() + tx.invoker_signature)
    pending.endorsements.append(("sl1-clerk", DEFAULT_SUITE.sign(key.private, payload)))
    res = commit(net, [pending])
    assert res.block is None and isinstance(res.rejected[0][1], IneligibleEndorser)
    # ordered by hand, as ``commit`` signs a block but without its checks
    prev = DEFAULT_SUITE.digest(block_bytes(net.chain[-1]))
    net.chain.append(_sign_block(net, 1, prev, (pending.endorsed(),)))
    chain = tmp_path / "self.chain"
    chain.write_bytes(export_chain(net))
    assert main(["ledger-verify", "--chain", str(chain)]) == 1
    assert capsys.readouterr().out == (
        "CHAIN INVALID block 1 endorsement gate failure: "
        "invoker cannot endorse its own transaction\n"
    )


@pytest.fixture(scope="module")
def export_chain_bytes(cli_files):
    chain = cli_files["root"] / "export.chain"
    assert main(["run", "--scenario", "export", "--mode", "ledger",
                 "--fixtures", str(cli_files["fixtures"]), "--chain-out", str(chain)]) == 0
    return chain.read_bytes()


def test_ledger_verify_names_a_head_failure(export_chain_bytes, tmp_path, capsys):
    """A failure before any block (here, another suite) names the head,
    not a block."""
    first, rest = export_chain_bytes.split(b"\n", 1)
    chain = tmp_path / "suite.chain"
    chain.write_bytes(first.replace(b"NAMEBOUND", b"OTHER") + b"\n" + rest)
    capsys.readouterr()
    assert main(["ledger-verify", "--chain", str(chain)]) == 1
    assert capsys.readouterr().out.startswith("CHAIN INVALID head suite mismatch: ")


def _edit_first(raw: bytes, tag: bytes, i: int, edit) -> bytes:
    """``raw`` with element ``i`` of its first ``tag`` line passed through ``edit``."""
    start = raw.index(b"\n" + tag + b"+") + 1
    end = raw.index(b"\n", start)
    elems = raw[start:end].split(b"+")
    elems[i] = edit(elems[i])
    return raw[:start] + b"+".join(elems) + raw[end:]


def _unpadded(elem: bytes) -> bytes:
    return b"%d" % int(elem)


@pytest.mark.parametrize("edit", [
    lambda raw: raw.replace(b"\nBLK+2+", b"\nBLK+002+"),
    lambda raw: _edit_first(raw, b"TXN", 4, lambda serial: b"0" + serial),
    lambda raw: _edit_first(raw, b"TXN", 6, _unpadded),  # the argument count
    lambda raw: _edit_first(raw, b"TXN", 9, _unpadded),  # the endorsement count
    lambda raw: _edit_first(raw, b"CERT", 1, lambda serial: b"000" + serial),
    lambda raw: _edit_first(raw, b"CERT", 6, lambda at: b"0" + at),  # not before
    lambda raw: _edit_first(raw, b"CERT", 7, lambda at: b"0" + at),  # not after
], ids=["padded block index", "padded serial", "unpadded argument count",
        "unpadded endorsement count", "padded certificate serial", "padded not-before",
        "padded not-after"])
def test_ledger_verify_refuses_non_canonical_integers(export_chain_bytes, tmp_path, capsys,
                                                     edit):
    """A chain file has one byte form per block and per certificate, so an
    integer the exporter would write otherwise is refused before any block
    is checked."""
    edited = edit(export_chain_bytes)
    assert edited != export_chain_bytes
    chain = tmp_path / "edited.chain"
    chain.write_bytes(edited)
    capsys.readouterr()
    assert main(["ledger-verify", "--chain", str(chain)]) == 1
    assert capsys.readouterr().out.startswith("CHAIN INVALID parse non-canonical integer ")


@pytest.mark.parametrize("edit", [
    lambda raw: raw.replace(b"\n", b"\r\n"),
    lambda raw: b"".join(b" \t" + line for line in raw.splitlines(keepends=True)),
], ids=["CRLF", "indented"])
def test_ledger_verify_tolerates_line_ends_and_indentation(export_chain_bytes, tmp_path,
                                                          capsys, edit):
    chain = tmp_path / "copy.chain"
    chain.write_bytes(edit(export_chain_bytes))
    capsys.readouterr()
    assert main(["ledger-verify", "--chain", str(chain)]) == 0
    assert capsys.readouterr().out == "CHAIN VALID blocks 5\n"


def _repeat_first(raw: bytes, tag: bytes) -> bytes:
    """``raw`` with its first ``tag`` line copied right after it."""
    lines = raw.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(tag + b"+"))
    return b"".join([*lines[:i + 1], *lines[i:]])


@pytest.mark.parametrize("tag, what", [
    (b"LEDGER", "LEDGER record"), (b"ANCHOR", "ANCHOR record"), (b"CERT", "CERT record for "),
])
def test_ledger_verify_refuses_a_repeated_record(export_chain_bytes, tmp_path, capsys, tag, what):
    """A chain file holds each header and each certificate once: a copy,
    even a byte-identical one, is refused before any block is checked."""
    chain = tmp_path / "repeated.chain"
    chain.write_bytes(_repeat_first(export_chain_bytes, tag))
    capsys.readouterr()
    assert main(["ledger-verify", "--chain", str(chain)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"CHAIN INVALID parse repeated {what}") and "(at byte " in out


@pytest.mark.parametrize("tag", [b"FIX", b"RUN", b"CA", b"ACTOR", b"KEY", b"CERT", b"VAL"])
def test_a_repeated_fixture_record_exits_two(tmp_path, capsys, tag):
    """A fixture file holds each header, CA, actor, key, certificate and
    value once, so no later line replaces or adds to an earlier one."""
    path = tmp_path / "repeated.psf"
    path.write_bytes(_repeat_first(FIXTURES.read_bytes(), tag))
    with pytest.raises(SystemExit) as err:
        main(["run", "--scenario", "export", "--mode", "p2p", "--fixtures", str(path)])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert err_text.startswith(f"error: bad fixture file {path}: repeated {tag.decode()} record")


def _move_last(raw: bytes, tag: bytes) -> bytes:
    """``raw`` with its ``tag`` lines moved, in order, to the end."""
    lines = raw.splitlines(keepends=True)
    moved = [line for line in lines if line.startswith(tag + b"+")]
    return b"".join([*(line for line in lines if line not in moved), *moved])


def _stored_run(cli_files, path, *argv):
    """Write the transcript of an export p2p ``run``, or another command
    given as ``argv``, to ``path``."""
    main([*(argv or ["run"]), "--scenario", "export", "--mode", "p2p",
          "--fixtures", str(cli_files["fixtures"]), "--out", str(path)])
    return path.read_bytes()


def _audit_refuses(path, capsys, what):
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["audit", "--transcript", str(path)])
    assert err.value.code == 2
    assert what in capsys.readouterr().err


def test_audit_refuses_a_relabelled_sender(cli_files, tmp_path, capsys):
    """A SENT record whose sender is not its flat's would make the audit
    hold another actor to what was sent; the audit refuses the file."""
    path = tmp_path / "export.trs"
    raw = _stored_run(cli_files, path)
    relabelled = raw.replace(b"EVT+SENT+delivery+sl1-clerk+", b"EVT+SENT+delivery+pa-officer+")
    assert relabelled != raw
    path.write_bytes(relabelled)
    _audit_refuses(path, capsys, "SENT sender differs from its flat's")


@pytest.mark.parametrize("kind", ["fixtures", "chain", "transcript"])
def test_a_record_out_of_its_writers_order_is_refused(cli_files, export_chain_bytes, tmp_path,
                                                       capsys, kind):
    """Each file keeps its kinds of record in the order its writer puts
    them, so it has one byte form: a fixture file with its FIX line last,
    a chain file with its LEDGER line last and a transcript with its ACT
    lines last are each refused."""
    path = tmp_path / f"moved.{kind}"
    if kind == "fixtures":
        path.write_bytes(_move_last(FIXTURES.read_bytes(), b"FIX"))
        with pytest.raises(SystemExit) as err:
            main(["run", "--scenario", "export", "--mode", "p2p", "--fixtures", str(path)])
        assert err.value.code == 2
        assert "FIX record out of order" in capsys.readouterr().err
    elif kind == "chain":
        path.write_bytes(_move_last(export_chain_bytes, b"LEDGER"))
        capsys.readouterr()
        assert main(["ledger-verify", "--chain", str(path)]) == 1
        assert capsys.readouterr().out.startswith("CHAIN INVALID parse LEDGER record out of order")
    else:
        path.write_bytes(_move_last(_stored_run(cli_files, tmp_path / "export.trs"), b"ACT"))
        _audit_refuses(path, capsys, "ACT record out of order")


@pytest.mark.parametrize("attack, old, new, what", [
    (False, b"EVT+SENT+delivery+sl1-clerk+t1-op+", b"EVT+SENT+delivery+sl1-clerk+pa-officer+",
     "VALIDATED actor differs from its SENT's receiver"),
    (True, b"+REJECT+", b"+MAYBE+", "unknown VALIDATED verdict 'MAYBE'"),
    (False, b"+OK'", b"+MAYBE'", "unknown AUDIT flag 'MAYBE'"),
], ids=["receiver", "verdict", "flag"])
def test_audit_refuses_a_relabelled_receiver_verdict_or_flag(cli_files, tmp_path, capsys,
                                                             attack, old, new, what):
    """Each would load and audit at face value: the receiver is named by
    no byte of the hop, and an unknown word would read as a verdict or a
    flag."""
    argv = ["attack", "--spec", str(cli_files["tamper"])] if attack else []
    path = tmp_path / "run.trs"
    raw = _stored_run(cli_files, path, *argv)
    assert old in raw
    path.write_bytes(raw.replace(old, new, 1))
    _audit_refuses(path, capsys, what)


@pytest.mark.parametrize("attack, verdict, edited", [
    (False, b"PASS", b"FAIL"),
    (False, b"PASS", b"whatever"),
    (True, b"FAIL", b"PASS"),
], ids=["pass-to-fail", "pass-to-other", "fail-to-pass"])
def test_audit_refuses_a_header_verdict_its_events_do_not_give(cli_files, tmp_path, capsys,
                                                               attack, verdict, edited):
    argv = ["attack", "--spec", str(cli_files["tamper"])] if attack else []
    raw = _stored_run(cli_files, tmp_path / "run.trs", *argv)
    header, rest = raw.split(b"\n", 1)
    assert header.endswith(b"+" + verdict + b"'")
    path = tmp_path / "edited.trs"
    path.write_bytes(header[:-len(verdict) - 1] + edited + b"'\n" + rest)
    _audit_refuses(path, capsys, f"TRS verdict differs from its events' {verdict.decode()}")


def test_compare_prints_report(cli_files, capsys):
    code = main(["compare", "--fixtures", str(cli_files["fixtures"])])
    printed = capsys.readouterr().out
    assert code == 0
    assert printed.startswith("CMP+1+PASS'")
    assert "ATK+LEDGER_TAMPER" in printed
    for scenario in ("export", "import"):
        assert f"ATK+ATTR_SWAP+{scenario}+p2p+DETECTED+" in printed


@pytest.mark.parametrize(
    "role, attr, action, expected",
    [
        ("CUSTOMS", "CNT_C", "read", 0),
        ("PCS", "CSG_DATA", "read", 1),
        ("IMPORTER", "B_NO", "write", 1),
        ("SHIPPING_LINE", "B_NO", "write", 0),
        ("PORT_AUTHORITY", "CNT_NO", "read", 0),
    ],
)
def test_policy_check(cli_files, capsys, role, attr, action, expected):
    code = main(["policy-check", "--policy", str(cli_files["policy"]),
                 "--role", role, "--attr", attr, "--action", action])
    assert code == expected
    assert ("ALLOW" if expected == 0 else "DENY") in capsys.readouterr().out


def test_file_errors_exit_two(cli_files, capsys):
    with pytest.raises(SystemExit) as err:
        main(["audit", "--transcript", "/no/such/file"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["run", "--scenario", "export", "--mode", "p2p",
              "--fixtures", str(cli_files["policy"])])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["policy-check", "--policy", str(cli_files["policy"]),
              "--role", "PIRATE", "--attr", "CNT_C", "--action", "read"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["run", "--scenario", "export", "--mode", "p2p",
              "--fixtures", str(cli_files["fixtures"]), "--out", "/no/such/dir/run.trs"])
    assert err.value.code == 2
    assert "cannot write /no/such/dir/run.trs" in capsys.readouterr().err


_CA_WITHOUT_PARENT = b"FIX+1+x'\nCA+x'\n"
_EVENT_WITHOUT_KIND = b"TRS+1+export+p2p+PASS'\nEVT'\n"
# parses, but names no scenario actor and pins an unknown suite
_THIN_FIXTURE = b"FIX+1+x'\nRUN+a'\n"
_POLICY_NOT_UTF8 = b"# roles\nIMPORTER B_NO \xff\xfe R\n"
# SENT event whose flat is base64 of MSG+ICU+R'ZZZ+x'SND+t' (unknown tag)
_SENT_UNKNOWN_TAG = (
    b"TRS+1+export+p2p+PASS'\nEVT+SENT+s+a+b+ICU+R+TVNHK0lDVStSJ1paWit4J1NORCt0Jw=='\n"
)


@pytest.mark.parametrize(
    "argv, content",
    [
        (["run", "--scenario", "export", "--mode", "p2p", "--fixtures"], _CA_WITHOUT_PARENT),
        (["compare", "--fixtures"], _CA_WITHOUT_PARENT),
        (["attack", "--scenario", "export", "--spec", "spec.atk", "--fixtures"],
         _CA_WITHOUT_PARENT),
        (["audit", "--transcript"], _EVENT_WITHOUT_KIND),
        (["audit", "--transcript"], _SENT_UNKNOWN_TAG),
        (["compare", "--fixtures"], _THIN_FIXTURE),
        (["attack", "--scenario", "export", "--spec", "spec.atk", "--fixtures"],
         _THIN_FIXTURE),
        (["policy-check", "--role", "IMPORTER", "--attr", "B_NO", "--action", "read",
          "--policy"], _POLICY_NOT_UTF8),
    ],
    ids=["run-fixture-arity", "compare-fixture-arity", "attack-fixture-arity",
         "audit-event-arity", "audit-unknown-tag-in-flat", "compare-thin-fixture",
         "attack-thin-fixture", "policy-not-utf8"],
)
def test_malformed_input_exits_two(tmp_path, monkeypatch, capsys, argv, content):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.atk").write_bytes(b"ATK+TAMPER_FIELD+attribute+CNT_W'\n")
    path = tmp_path / "input"
    path.write_bytes(content)
    with pytest.raises(SystemExit) as err:
        main([*argv, str(path)])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert err_text.startswith("error: ")
    assert "cannot read" not in err_text
    if content == _POLICY_NOT_UTF8:
        assert "line 2: not UTF-8" in err_text


def _ec_key() -> bytes:
    from cryptography.hazmat.primitives import serialization
    from cryptography.hazmat.primitives.asymmetric import ec

    return ec.generate_private_key(ec.SECP256R1()).private_bytes(
        serialization.Encoding.DER, serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    )


@pytest.mark.parametrize(
    "command, actor_key",
    [
        (["run", "--scenario", "export", "--mode", "p2p"], None),
        (["run", "--scenario", "export", "--mode", "p2p"], b"not a PKCS#8 key"),
        (["compare"], b"not a PKCS#8 key"),
        (["run", "--scenario", "export", "--mode", "p2p"], "ec"),
    ],
    ids=["run-missing-key", "run-not-pkcs8", "compare-not-pkcs8", "run-ec-key"],
)
def test_bad_actor_key_exits_two(base_fixtures, tmp_path, command, actor_key):
    keys = {k: v for k, v in base_fixtures.keys.items() if k != "sl1-clerk"}
    if actor_key is not None:
        keys["sl1-clerk"] = _ec_key() if actor_key == "ec" else actor_key
    done = _run_fresh(command, tmp_path, dataclasses.replace(base_fixtures, keys=keys))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and "sl1-clerk" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("mode", ["p2p", "ledger"])
def test_swapped_actor_keys_exit_two(base_fixtures, tmp_path, mode):
    # each key loads, but neither matches the key its actor's certificate binds
    keys = dict(base_fixtures.keys)
    keys["sl1-clerk"], keys["importer-1"] = keys["importer-1"], keys["sl1-clerk"]
    done = _run_fresh(["run", "--scenario", "export", "--mode", mode], tmp_path,
                      dataclasses.replace(base_fixtures, keys=keys))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and "does not match its certificate" in done.stderr
    assert "Traceback" not in done.stderr


def test_bad_key_first_used_in_validation_exits_two(base_fixtures, tmp_path):
    # customs-officer signs nothing in an export; it first unwraps a field
    fx = dataclasses.replace(base_fixtures, keys={**base_fixtures.keys, "customs-officer": b"\0"})
    done = _run_fresh(["run", "--scenario", "export", "--mode", "p2p"], tmp_path, fx)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: private key of customs-officer does not load")
    assert "Traceback" not in done.stderr


def test_fixtures_subcommand_writes_a_runnable_file(tmp_path, capsys):
    path = tmp_path / "fresh.psf"
    done = _fresh(["fixtures", "--out", str(path)])
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"FIXTURES {path} ")
    fixtures = fixtures_from_bytes(path.read_bytes())
    assert fixtures.run_tag == "R1" and not fixtures.dangerous_goods
    code = main(["run", "--scenario", "export", "--mode", "p2p", "--fixtures", str(path)])
    assert code == 0
    assert "VERDICT PASS" in capsys.readouterr().out


def _run_fresh(command, tmp_path, fixtures):
    """Run the CLI on ``fixtures`` in a fresh interpreter."""
    path = tmp_path / "fixtures.psf"
    path.write_bytes(fixtures_to_bytes(fixtures))
    return _fresh([*command, "--fixtures", str(path)])


def _fresh(argv, *flags):
    """Run the CLI in a fresh interpreter started with ``flags``, so an
    uncaught exception shows as a traceback."""
    src = str(Path(portsec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *flags, "-m", "portsec", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_ledger_verify_of_a_long_chain_prints_one_verdict(base_fixtures, tmp_path):
    """A chain long enough for ``verify_exported`` to fork a child (on a
    host with two or more CPUs) gets one verdict line, as it would inline:
    a child that returned into the CLI would print a second. ``-W error``
    turns a warning about forking a threaded process into a failure."""
    world = build_world(base_fixtures)
    net = build_net(world)
    for i in range(FORK_MIN_CHECKS):  # three checks a block, past two shares of checks
        tx, presented = build_transaction(
            LedgerAction.CREATE, f"COSU{i:07d}", (("terminal", "T1"),),
            world.chain_of("sl1-clerk"), world.key_pairs["sl1-clerk"])
        pending = endorse(net, submit(net, tx, presented), world.chain_of("t1-op"),
                          world.key_pairs["t1-op"])
        assert commit(net, [pending]).block is not None
    chain = tmp_path / "long.chain"
    chain.write_bytes(export_chain(net))
    done = _fresh(["ledger-verify", "--chain", str(chain)], "-W", "error")
    assert (done.returncode, done.stdout, done.stderr) == (
        0, f"CHAIN VALID blocks {len(net.chain)}\n", "")
    last = net.chain[-1]  # in the child's range
    sig = last.orderer_signature
    net.chain[-1] = dataclasses.replace(last, orderer_signature=bytes([sig[0] ^ 1]) + sig[1:])
    chain.write_bytes(export_chain(net))
    done = _fresh(["ledger-verify", "--chain", str(chain)], "-W", "error")
    assert (done.returncode, done.stdout, done.stderr) == (
        1, f"CHAIN INVALID block {last.index} orderer signature broken\n", "")
