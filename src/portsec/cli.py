"""Command line front end.

Every subcommand exits 0 when the run met its expected outcome: a fixture
file is written, an honest run validates end to end, an injected attack
is detected, a chain file verifies, an audit finds no excess exposure, a
policy lookup allows the action. Anything else exits 1; usage and file
errors exit 2.
"""

from __future__ import annotations

import argparse
import sys
import typing
from pathlib import Path

from .attacks import (
    TargetUnresolved,
    attack_from_wire,
    comparison_to_wire,
    compare_modes,
    inject_attack,
)
from .audit import audit_views
from .fixtures import (
    FixtureError,
    FixtureSet,
    fixtures_from_bytes,
    fixtures_to_bytes,
    generate_fixtures,
)
from .ledger import export_chain, parse_chain, verify_exported
from .model import ModelError, ParseError
from .policy import Action, PolicyError, Role, SenderCannotRead, load_policy
from .sim import ScenarioError, run_scenario
from .transcript import transcript_from_wire, transcript_to_wire


#: A fixture set, script or attack a run cannot play: exit 2, like a bad file.
_SETUP_ERRORS = (ScenarioError, FixtureError, SenderCannotRead, TargetUnresolved)


def _fail(message: str) -> "typing.NoReturn":
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        return _fail(f"cannot read {path}: {exc.strerror}")


def _load_fixtures(path: str) -> FixtureSet:
    try:
        return fixtures_from_bytes(_read(path))
    except (ParseError, FixtureError) as exc:
        return _fail(f"bad fixture file {path}: {exc}")


def _write_out(path: str | None, data: bytes) -> None:
    if path:
        try:
            Path(path).write_bytes(data)
        except OSError as exc:
            _fail(f"cannot write {path}: {exc.strerror}")


def cmd_fixtures(args) -> int:
    fixtures = generate_fixtures()
    _write_out(args.out, fixtures_to_bytes(fixtures))
    print(f"FIXTURES {args.out} run {fixtures.run_tag} actors {len(fixtures.actors)} "
          f"values {len(fixtures.values)}")
    return 0


def cmd_run(args) -> int:
    if args.chain_out and args.mode != "ledger":
        return _fail("--chain-out requires --mode ledger")
    fixtures = _load_fixtures(args.fixtures)
    try:
        sim = run_scenario(fixtures, args.scenario, args.mode)
    except _SETUP_ERRORS as exc:
        return _fail(f"{exc}")
    for entry in sim.transcript.step_outline():
        print(" ".join(entry))
    print(f"VERDICT {sim.transcript.verdict}")
    _write_out(args.out, transcript_to_wire(sim.transcript))
    if args.chain_out:
        _write_out(args.chain_out, export_chain(sim.net))
    return 0 if sim.transcript.verdict == "PASS" else 1


def cmd_attack(args) -> int:
    fixtures = _load_fixtures(args.fixtures)
    try:
        spec = attack_from_wire(_read(args.spec))
    except ParseError as exc:
        return _fail(f"bad attack file {args.spec}: {exc}")
    try:
        transcript, report = inject_attack(fixtures, args.scenario, spec, args.mode)
    except _SETUP_ERRORS as exc:
        return _fail(f"{exc}")
    status = "DETECTED" if report.detected else "UNDETECTED"
    print(f"ATTACK {report.kind.value} {report.scenario} {report.mode} {status}")
    if report.detected:
        print(f"BY {report.detected_by}")
        print(f"FINDING {report.finding}")
    if report.localized:
        print(f"WHERE {report.localized}")
    _write_out(args.out, transcript_to_wire(transcript))
    return 0 if report.detected else 1


def cmd_audit(args) -> int:
    try:
        result = audit_views(transcript_from_wire(_read(args.transcript)))
    except ModelError as exc:
        return _fail(f"bad transcript {args.transcript}: {exc}")
    for identity in sorted(result.exposure):
        exposed = ",".join(sorted(result.exposure[identity])) or "-"
        excess = ",".join(sorted(result.excess.get(identity, ()))) or "-"
        print(f"ACTOR {identity} exposed {exposed} excess {excess}")
    flagged = result.flagged()
    print("AUDIT " + ("FLAGGED " + ",".join(sorted(flagged)) if flagged else "CLEAN"))
    return 1 if flagged else 0


def cmd_compare(args) -> int:
    fixtures = _load_fixtures(args.fixtures)
    try:
        report = compare_modes(fixtures)
    except _SETUP_ERRORS as exc:
        return _fail(f"{exc}")
    sys.stdout.write(comparison_to_wire(report).decode("utf-8"))
    return 0 if report.verdict == "PASS" else 1


def cmd_ledger_verify(args) -> int:
    data = _read(args.chain)
    try:
        exported = parse_chain(data)
    except ParseError as exc:
        print(f"CHAIN INVALID parse {exc}")
        return 1
    outcome = verify_exported(exported)
    if outcome.valid:
        print(f"CHAIN VALID blocks {len(exported.blocks)}")
        return 0
    where = "head" if outcome.first_bad_block is None else f"block {outcome.first_bad_block}"
    print(f"CHAIN INVALID {where} {outcome.reason}")
    return 1


def cmd_policy_check(args) -> int:
    try:
        matrix = load_policy(_read(args.policy))
    except PolicyError as exc:
        return _fail(f"bad policy file {args.policy}: {exc}")
    try:
        role = Role(args.role)
    except ValueError:
        return _fail(f"unknown role {args.role!r}")
    if args.attr not in matrix.attributes:
        return _fail(f"policy has no attribute {args.attr!r}")
    allowed = matrix.check(role, args.attr, Action(args.action.upper()))
    print(f"POLICY {role.value} {args.attr} {args.action} "
          + ("ALLOW" if allowed else "DENY"))
    return 0 if allowed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portsec",
        description="Attribute-level message protection and a desk-scale "
        "container ledger, exercised by scripted port scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fixtures = sub.add_parser(
        "fixtures", help="generate fresh keys, certificates and field values")
    fixtures.add_argument("--out", required=True, metavar="FILE")
    fixtures.set_defaults(func=cmd_fixtures)

    run = sub.add_parser("run", help="run an honest scenario")
    run.add_argument("--scenario", required=True, choices=("export", "import"))
    run.add_argument("--mode", required=True, choices=("p2p", "ledger"))
    run.add_argument("--fixtures", required=True, metavar="FILE")
    run.add_argument("--out", metavar="FILE", help="write the transcript here")
    run.add_argument("--chain-out", metavar="FILE",
                     help="write the exported chain (ledger mode only)")
    run.set_defaults(func=cmd_run)

    attack = sub.add_parser("attack", help="run a scenario with an attack injected")
    attack.add_argument("--scenario", required=True, choices=("export", "import"))
    attack.add_argument("--mode", default="p2p", choices=("p2p", "ledger"))
    attack.add_argument("--fixtures", required=True, metavar="FILE")
    attack.add_argument("--spec", required=True, metavar="FILE",
                        help="attack description (ATK record)")
    attack.add_argument("--out", metavar="FILE", help="write the transcript here")
    attack.set_defaults(func=cmd_attack)

    audit = sub.add_parser("audit", help="recompute the confidentiality audit")
    audit.add_argument("--transcript", required=True, metavar="FILE")
    audit.set_defaults(func=cmd_audit)

    compare = sub.add_parser("compare", help="contrast P2P and ledger mode")
    compare.add_argument("--fixtures", required=True, metavar="FILE")
    compare.set_defaults(func=cmd_compare)

    verify = sub.add_parser("ledger-verify", help="verify an exported chain offline")
    verify.add_argument("--chain", required=True, metavar="FILE")
    verify.set_defaults(func=cmd_ledger_verify)

    policy = sub.add_parser("policy-check", help="look up one access decision")
    policy.add_argument("--policy", required=True, metavar="FILE")
    policy.add_argument("--role", required=True)
    policy.add_argument("--attr", required=True)
    policy.add_argument("--action", required=True, choices=("read", "write"))
    policy.set_defaults(func=cmd_policy_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
