"""Known-answer corpus: byte identity of every run over one committed world.

``data/golden.psf`` is one ``portsec fixtures`` output; its RSA keys exist
for tests only. ``data/golden.manifest`` holds one record per artefact the
simulator makes from it, in the record grammar:

  DIG+scenario+mode+DG+hex   ``determinism_digest`` of an honest run
  CHN+scenario+DG+hex        SHA-256 of a ledger run's exported chain
  CMP+hex                    SHA-256 of ``comparison_to_wire(compare_modes)``
  RPT+hex                    SHA-256 of every ``report_wire`` of the honest
                             p2p runs and of the p2p attack battery, in order

A change that alters bytes on purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_golden.py --update

and lists the old and new records in CHANGES.md.
"""

import hashlib
import sys
from pathlib import Path

from portsec import records
from portsec.attacks import battery, compare_modes, comparison_to_wire, inject_attack
from portsec.fixtures import fixtures_from_bytes
from portsec.ledger import export_chain
from portsec.sim import run_scenario
from portsec.transcript import ValidatedEvent, determinism_digest

DATA = Path(__file__).resolve().parent / "data"
FIXTURES = DATA / "golden.psf"
MANIFEST = DATA / "golden.manifest"


def _report_wires(transcript) -> list[bytes]:
    return [ev.report_wire for ev in transcript.events if isinstance(ev, ValidatedEvent)]


def artefacts() -> list[tuple[str, ...]]:
    """Every artefact as its record elements: tag, key..., hex."""
    fx = fixtures_from_bytes(FIXTURES.read_bytes())
    out: list[tuple[str, ...]] = []
    reports: list[bytes] = []
    for scenario in ("export", "import"):
        for mode in ("p2p", "ledger"):
            for dg in ("false", "true"):
                sim = run_scenario(fx.with_values(DG=dg), scenario, mode)
                out.append(("DIG", scenario, mode, dg, determinism_digest(sim.transcript).hex()))
                if mode == "ledger":
                    chain = hashlib.sha256(export_chain(sim.net)).hexdigest()
                    out.append(("CHN", scenario, dg, chain))
                else:
                    reports += _report_wires(sim.transcript)
    for scenario in ("export", "import"):
        for spec in battery(scenario):
            transcript, _ = inject_attack(fx, scenario, spec, "p2p")
            reports += _report_wires(transcript)
    out.append(("CMP", hashlib.sha256(comparison_to_wire(compare_modes(fx))).hexdigest()))
    out.append(("RPT", hashlib.sha256(b"".join(reports)).hexdigest()))
    return out


def manifest_to_bytes(entries: list[tuple[str, ...]]) -> bytes:
    return b"\n".join(records.encode(*e) for e in entries) + b"\n"


def _load_manifest() -> list[tuple[str, ...]]:
    return [
        tuple(rec.text(i) for i in range(len(rec)))
        for rec in records.decode_lines(MANIFEST.read_bytes())
    ]


def test_every_artefact_matches_the_manifest():
    expected, actual = _load_manifest(), artefacts()
    assert [e[:-1] for e in expected] == [a[:-1] for a in actual], "artefact list changed"
    for want, got in zip(expected, actual):
        assert want == got, f"artefact {' '.join(want[:-1])} differs"


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    MANIFEST.write_bytes(manifest_to_bytes(artefacts()))
    print(f"wrote {MANIFEST}")
