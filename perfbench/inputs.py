"""Seeded inputs for the three workloads, and the fixed desk attack list.

Everything here is plain data derived from the workload seed; nothing
calls into ``portsec``. The same seed always gives the same bookings,
the same container schedule and the same desk order, so the program
under test receives only these generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

#: Bookings come in blocks of this many export/import pairs; in each block
#: exactly one export and one import carry dangerous goods (25%), so every
#: seed gives the same mix of hop counts.
PAIRS_PER_BLOCK = 4

_GOODS = ("cartons machine parts", "crates textiles", "pallets ceramics",
          "drums lubricant", "bales cotton", "cases electronics")
_CONSIGNEES = ("ACME Imports", "Vanta Trading Ltd", "Baltic Foods BV",
               "Norte Logistica SA", "Kestrel Retail")
_NOTIFY = ("NordFreight GmbH", "Harbour Agents Ltd", "Delta Forwarding")


@dataclass(frozen=True)
class Booking:
    index: int
    scenario: str  # "export" | "import"
    run_tag: str
    values: tuple[tuple[str, str], ...]

    @property
    def dangerous_goods(self) -> bool:
        return dict(self.values)["DG"] == "true"


def _booking(rng: random.Random, seed: int, index: int, scenario: str, dg: bool) -> Booking:
    tag = f"S{seed}-B{index:06d}"
    owner = "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ") for _ in range(3))
    values = (
        ("B_NO", f"BKG-{seed % 1000:03d}-{index:06d}"),
        ("BL_NO", f"BL-{seed % 1000:03d}-{index:06d}"),
        ("CNT_NO", f"{owner}U{index:07d}"),
        ("CNT_C", f"{rng.randint(10, 900)} {rng.choice(_GOODS)} lot {index}"),
        ("CNT_W", f"{rng.randint(900, 30480)} kg"),
        ("CSG_DATA", f"consignee {rng.choice(_CONSIGNEES)} ref {index}, "
                     f"notify {rng.choice(_NOTIFY)}"),
        ("DG", "true" if dg else "false"),
        ("CNT_LOC", f"YARD-{rng.choice('ABCDEF')}{rng.randint(1, 40):02d}"),
        ("ATB_NO", f"ATB-{rng.randint(100000, 999999)}"),
        ("CLR", "CLEARED"),
    )
    return Booking(index, scenario, tag, values)


def bookings(seed: int) -> Iterator[Booking]:
    """Endless booking stream for ``p2p_bookings``: export and import
    alternate in pairs, the seed picks the order inside each pair and which
    bookings of a block carry dangerous goods, and every booking has its
    own run tag, numbers and consignment text."""
    rng = random.Random(f"bookings-{seed}")
    index = 0
    while True:
        dg = {"export": rng.randrange(PAIRS_PER_BLOCK), "import": rng.randrange(PAIRS_PER_BLOCK)}
        for pair_no in range(PAIRS_PER_BLOCK):
            pair = ("export", "import") if rng.random() < 0.5 else ("import", "export")
            for scenario in pair:
                yield _booking(rng, seed, index, scenario, dg[scenario] == pair_no)
                index += 1


# --- ledger lifecycles -------------------------------------------------------

LINES = (("sl1-clerk", "SL1"), ("sl2-clerk", "SL2"))
TERMINALS = (("t1-op", "T1"), ("t2-op", "T2"))
PCS = "pcs-op"
#: Parties the ledger must refuse whatever the container's state.
OUTSIDERS = ("customs-officer", "importer-1", "pa-officer")
REFUSED_READ_SHARE = 0.22  # per container; about 10% of all reads
IN_FLIGHT = 8  # containers between CREATE and LOAD at any time


@dataclass(frozen=True)
class Write:
    action: str
    cnt_no: str
    invoker: str
    endorser: str
    args: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Read:
    cnt_no: str
    reader: str
    expect_state: str  # lifecycle state the reader must see, "" = refused


def _container_steps(rng: random.Random, index: int) -> list:
    line, _ = rng.choice(LINES)
    term, term_org = rng.choice(TERMINALS)
    owner = "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ") for _ in range(3))
    cnt = f"{owner}U{index:07d}"
    ack_endorser = rng.choice((line, PCS))
    steps: list = [
        Write("CREATE", cnt, line, term, (("terminal", term_org),)),
        Write("ACKNOWLEDGE_DELIVERY", cnt, term, ack_endorser),
        Read(cnt, PCS, "DELIVERED"),
        Write("CLEAR", cnt, PCS, term),
        Write("LOAD", cnt, term, PCS),
    ]
    states = {0: "CREATED", 1: "DELIVERED", 2: "DELIVERED", 3: "CLEARED", 4: "LOADED"}

    def state_after(pos: int) -> str:
        return states[max(i for i in states if i < pos)]

    pos = rng.randint(1, len(steps))
    steps.insert(pos, Read(cnt, line, state_after(pos)))
    if rng.random() < REFUSED_READ_SHARE:
        other_line = next(ident for ident, _ in LINES if ident != line)
        other_term = next(ident for ident, _ in TERMINALS if ident != term)
        reader = rng.choice((other_line, other_term) + OUTSIDERS)
        steps.insert(rng.randint(1, len(steps)), Read(cnt, reader, ""))
    return steps


def ledger_schedule(seed: int, pass_index: int, containers: int, in_flight: int) -> list:
    """One lifecycle pass: ``containers`` containers through CREATE,
    ACKNOWLEDGE_DELIVERY, CLEAR and LOAD, ``in_flight`` at a time, with the
    owner's read, the PCS read while DELIVERED and the refused reads
    interleaved. The seed picks which container advances next."""
    rng = random.Random(f"ledger-{seed}-{pass_index}")
    pending = [_container_steps(rng, i) for i in range(containers)]
    pending.reverse()
    active: list[list] = []
    out: list = []
    while pending or active:
        while pending and len(active) < in_flight:
            active.append(pending.pop())
        queue = active[rng.randrange(len(active))]
        out.append(queue.pop(0))
        if not queue:
            active.remove(queue)
    return out


# --- desk comparison ---------------------------------------------------------

#: The desk attack list, fixed here so that attacks added to the program's
#: own battery later do not change this workload. Fields follow
#: ``portsec.attacks.AttackSpec``; ``step`` "" means the scenario's
#: default strike hop.
DESK_ATTACKS = (
    {"kind": "TAMPER_FIELD", "step": "", "attribute": "CNT_W", "payload": "1 kg"},
    {"kind": "REPLAY_SPLICE", "step": ""},
    {"kind": "NONCE_REUSE"},
    {"kind": "UNAUTHORIZED_AUTHOR", "step": "", "payload": "t2-op"},
    {"kind": "LEDGER_TAMPER", "block": 1},
)
#: Strike hop per scenario: the hop that carries the most data.
STRIKE_STEP = {"export": "delivery", "import": "iftmcs"}
#: The one attack the paper's trade-off expects to go unnoticed: p2p mode
#: keeps no chain that a rewrite could break.
EXPECTED_MISSES = {("LEDGER_TAMPER", "p2p")}


@dataclass(frozen=True)
class DeskOp:
    scenario: str
    mode: str
    attack: dict | None  # None for an honest run

    @property
    def expect_detected(self) -> bool:
        return self.attack is not None and (self.attack["kind"], self.mode) not in EXPECTED_MISSES

    @property
    def label(self) -> str:
        what = self.attack["kind"] if self.attack else "HONEST"
        return f"{what}/{self.scenario}/{self.mode}"


def desk_pass(seed: int, pass_index: int) -> list[DeskOp]:
    """The 24 ops of one ``compare_modes``-shaped pass, seed-shuffled."""
    ops = []
    for scenario in ("export", "import"):
        for mode in ("p2p", "ledger"):
            ops.append(DeskOp(scenario, mode, None))
            for attack in DESK_ATTACKS:
                spec = dict(attack)
                if "step" in spec and not spec["step"]:
                    spec["step"] = STRIKE_STEP[scenario]
                ops.append(DeskOp(scenario, mode, spec))
    random.Random(f"desk-{seed}-{pass_index}").shuffle(ops)
    return ops
