"""The three closed-loop workloads and their output checks.

One client in one thread drives ``portsec``'s public functions with the
seeded inputs from ``inputs``. Each op is timed on its own; checks run
outside the timed region and only count failures, so a wrong outcome
raises the failure count without stopping the run.

Why these three:

- ``p2p_bookings``: one long-lived world, bookings alternating export and
  import. It is the wire codec, PKI, envelope, adapter, transcript and
  audit path with no ledger, and stores grow with every booking.
- ``ledger_lifecycles``: one net carrying 200 containers through their
  four lifecycle transactions (800 blocks) with reads in between. It is
  the ledger path with no message codec, and the only place where chain
  verification cost grows with chain length.
- ``desk_compare``: the ``compare_modes`` shape, honest runs plus a fixed
  attack list on fresh worlds. It drives the same layers on their reject
  paths, with 5-6-block chains.

Each workload runs a fixed, seed-determined op list, so a run does the
same work on every commit and every count repeats exactly. It returns its
op latencies and its two kinds of verify samples. For the ledger workloads
these are ``verify_chain`` on the live net and export, parse and
``verify_exported`` of the chain bytes. For ``p2p_bookings``, which has no
chain, they are the audit and determinism digest of a live transcript and
of the same transcript reloaded from its wire form. Verify samples carry a
key (chain length, or scenario); ``steady`` turns them into figures.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from portsec import attacks, audit, fixtures, ledger, sim, transcript
from portsec.envelope import DEFAULT_SUITE
from portsec.policy import Role

import inputs
from steady import LoopClock, Result

#: Actors that handle every attribute they may read across one export and
#: one import run, so their exposure equals their whole read column.
STEADY_ACTORS = {"sl1-clerk": Role.SHIPPING_LINE, "pcs-op": Role.PCS, "t1-op": Role.TERMINAL,
                 "customs-officer": Role.CUSTOMS}
#: Hops per p2p run: (scenario, dangerous goods) -> messages sent.
EXPECTED_HOPS = {("export", False): 10, ("export", True): 12,
                 ("import", False): 8, ("import", True): 9}
TRANSCRIPT_EVERY = 4  # verify the transcript of every 4th p2p booking
OFFLINE_REPEATS = 3  # offline verifies of each ledger pass's final chain
DESK_OFFLINE_REPEATS = 3  # offline verifies of each desk pass's honest chains


@dataclass
class Tally:
    """Outcome checks: ops, reads and verifies, each right or wrong."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


@dataclass
class Context:
    seed: int
    fixtures: object  # FixtureSet
    world: object  # World
    net: object | None  # LedgerNet, ledger_lifecycles only
    tracer: object
    tally: Tally = field(default_factory=Tally)
    #: digest of the seed's first booking replayed on a fresh world
    reference_digest: bytes | None = None


def _booking_fixtures(fx, b: inputs.Booking):
    return fx.with_values(run_tag=b.run_tag, **dict(b.values))


def _exposure(t) -> dict[str, frozenset[str]]:
    return {ev.actor: frozenset(ev.attributes) for ev in t.events
            if isinstance(ev, transcript.AuditEvent)}


def _steady_ok(union: dict[str, frozenset[str]], matrix) -> bool:
    return all(union.get(ident) == audit.read_column(matrix, role)
               for ident, role in STEADY_ACTORS.items())


def determinism_check(ctx: Context) -> bytes | None:
    """Replay the seed's first booking on two fresh worlds; the digest must
    match, also after a ``transcript_to_wire`` round trip. Returns the
    digest, or None when the check fails."""
    b = next(inputs.bookings(ctx.seed))
    bfx = _booking_fixtures(ctx.fixtures, b)
    digests = set()
    for _ in range(2):
        t = sim.run_scenario(bfx, b.scenario, "p2p", world=fixtures.build_world(ctx.fixtures)) \
            .transcript
        digests.add(transcript.determinism_digest(t))
        wire = transcript.transcript_to_wire(t)
        digests.add(transcript.determinism_digest(transcript.transcript_from_wire(wire)))
    return digests.pop() if len(digests) == 1 else None


def _tamper(step: str):
    def interceptor(name, sm):
        if name != step:
            return sm
        return attacks.mutate_field(sm, "CNT_W", "1 kg", DEFAULT_SUITE)
    return interceptor


# --- p2p_bookings -------------------------------------------------------------


def p2p_bookings(ctx: Context, count: int, tamper_at: int = -1) -> Result:
    """``count`` bookings on the context's world, which lives for the run.
    Every ``TRANSCRIPT_EVERY``-th booking's transcript is verified live and
    from its wire form, as a check outside the ops and their loop time."""
    world, tr, tally = ctx.world, ctx.tracer, ctx.tally
    matrix = world.matrix
    result = Result()
    pair: dict[str, frozenset[str]] = {}

    tr.phase = "loop"
    clock = LoopClock(tr, result)
    for b in itertools.islice(inputs.bookings(ctx.seed), count):
        bfx = _booking_fixtures(ctx.fixtures, b)
        interceptor = _tamper(inputs.STRIKE_STEP[b.scenario]) if b.index == tamper_at else None
        tr.op = b.index
        t0 = perf_counter()
        try:
            s = sim.run_scenario(bfx, b.scenario, "p2p", world=world, interceptor=interceptor)
            wire = transcript.transcript_to_wire(s.transcript)
        except Exception as exc:  # a wrong outcome is counted, not fatal
            clock.op(t0)
            tally.record(False, f"booking {b.index} ({b.scenario}) raised {exc!r}")
            continue
        clock.op(t0)

        t = s.transcript
        exposure = _exposure(t)
        ok = t.verdict == "PASS" and \
            len(t.sent_events()) == EXPECTED_HOPS[(b.scenario, b.dangerous_goods)]
        if b.dangerous_goods and b.scenario == "export":
            ok &= exposure.get("pa-officer") == audit.read_column(matrix, Role.PORT_AUTHORITY)
        if b.index % 2 == 0:
            pair = exposure
        else:  # second of an export/import pair
            union = {i: pair.get(i, frozenset()) | exposure.get(i, frozenset())
                     for i in STEADY_ACTORS}
            ok &= _steady_ok(union, matrix)
        tally.record(ok, f"booking {b.index} ({b.scenario}, verdict {t.verdict})")

        if b.index % TRANSCRIPT_EVERY == 0:
            with clock.check(f"verify{b.index}"):
                digest = _verify_transcript(b, t, wire, matrix, tally, result)
            if b.index == 0:  # the first booking ran on a still fresh world
                tally.record(digest == ctx.reference_digest,
                             "first booking's digest differs from its replay")
    tr.phase = None
    return clock.finish()


def _verify_transcript(b, t, wire: bytes, matrix, tally: Tally, result: Result) -> bytes:
    """Audit and digest the live transcript, then the same from its wire
    form; both must agree. Samples are keyed by scenario. Returns the
    digest."""
    t0 = perf_counter()
    views = audit.audit_views(t, matrix)
    digest = transcript.determinism_digest(t)
    t1 = perf_counter()
    reloaded = transcript.transcript_from_wire(wire)
    views_off = audit.audit_views(reloaded, matrix)
    digest_off = transcript.determinism_digest(reloaded)
    t2 = perf_counter()
    result.verify_live.append((b.scenario, t0, t1 - t0))
    result.verify_offline.append((b.scenario, t1, t2 - t1))
    ok = views.compliant() and views_off.exposure == views.exposure \
        and digest_off == digest and reloaded.verdict == t.verdict == "PASS"
    tally.record(ok, f"transcript verify of booking {b.index}")
    return digest


# --- ledger_lifecycles ---------------------------------------------------------


def ledger_lifecycles(ctx: Context, passes: int, containers: int, verify_every: int) -> Result:
    """``passes`` lifecycle passes, each on a fresh net (the first on the
    context's), with ``verify_chain`` every ``verify_every`` blocks."""
    world, tr, tally = ctx.world, ctx.tracer, ctx.tally
    chains = {ident: world.chain_of(ident) for ident in world.adapters}
    keys = world.key_pairs
    result = Result()

    tr.phase = "loop"
    clock = LoopClock(tr, result)
    for pass_no in range(passes):
        net = ctx.net if pass_no == 0 else fixtures.build_net(world)
        schedule = inputs.ledger_schedule(ctx.seed, pass_no, containers, inputs.IN_FLIGHT)
        reads = verifies = 0
        for step in schedule:
            if isinstance(step, inputs.Read):
                tr.op = f"read{pass_no}.{reads}"
                reads += 1
                try:
                    seen = ledger.query(net, chains[step.reader], step.cnt_no).state.value
                except ledger.NotVisible:
                    seen = ""
                except ledger.LedgerError as exc:
                    seen = type(exc).__name__
                tally.record(seen == step.expect_state,
                             f"read of {step.cnt_no} by {step.reader}: {seen or 'refused'}")
                continue

            action = ledger.LedgerAction(step.action)
            tr.op = len(result.latencies)
            t0 = perf_counter()
            try:
                tx, presented = ledger.build_transaction(
                    action, step.cnt_no, step.args, chains[step.invoker], keys[step.invoker],
                    world.suite)
                pending = ledger.submit(net, tx, presented)
                ledger.endorse(net, pending, chains[step.endorser], keys[step.endorser])
                committed = ledger.commit(net, [pending])
                outcome = "COMMITTED" if committed.block and not committed.rejected else \
                    "REJECTED"
            except Exception as exc:  # a wrong outcome is counted, not fatal
                outcome = repr(exc)
            clock.op(t0)
            tally.record(outcome == "COMMITTED", f"{step.action} {step.cnt_no}: {outcome}")

            if (len(net.chain) - 1) % verify_every == 0 and outcome == "COMMITTED":
                tr.op = f"verify{pass_no}.{verifies}"
                verifies += 1
                t0 = perf_counter()
                res = ledger.verify_chain(net)
                result.verify_live.append((len(net.chain), t0, perf_counter() - t0))
                tally.record(res.valid, f"verify_chain at {len(net.chain)} blocks: {res.reason}")
        with clock.check(f"offline{pass_no}"):
            _offline_verify([net], OFFLINE_REPEATS, tally, result.verify_offline)
    tr.phase = None
    return clock.finish()


def _offline_verify(nets, repeats: int, tally: Tally, samples) -> None:
    """The ``ledger-verify`` path on each net's chain bytes."""
    for net in nets:
        for _ in range(repeats):
            t0 = perf_counter()
            data = ledger.export_chain(net)
            exported = ledger.parse_chain(data)
            res = ledger.verify_exported(exported)
            samples.append((len(net.chain), t0, perf_counter() - t0))
            tally.record(res.valid and len(exported.blocks) == len(net.chain),
                         f"offline verify of {len(net.chain)} blocks: {res.reason}")


# --- desk_compare -----------------------------------------------------------------


def desk_compare(ctx: Context, passes: int) -> Result:
    """``passes`` passes of the 24 desk ops, each op on a fresh world."""
    fx, tr, tally = ctx.fixtures, ctx.tracer, ctx.tally
    matrix = ctx.world.matrix
    result = Result()

    # The scenario's own verify step checks each fresh 5-6-block chain once;
    # time it where the simulator calls it.
    scenario_verify = sim.verify_chain

    def timed_verify(net):
        t0 = perf_counter()
        try:
            return scenario_verify(net)
        finally:
            result.verify_live.append((len(net.chain), t0, perf_counter() - t0))

    sim.verify_chain = timed_verify
    tr.phase = "loop"
    clock = LoopClock(tr, result)
    try:
        for pass_no in range(passes):
            ops = inputs.desk_pass(ctx.seed, pass_no)
            specs = [attacks.AttackSpec(attacks.AttackKind(op.attack["kind"]),
                                        **{k: v for k, v in op.attack.items() if k != "kind"})
                     if op.attack else None for op in ops]
            outcomes = []
            union: dict[str, frozenset[str]] = defaultdict(frozenset)
            honest_nets = []
            for op, spec in zip(ops, specs):
                tr.op = len(result.latencies)
                t0 = perf_counter()
                try:
                    if spec is None:
                        s = sim.run_scenario(fx, op.scenario, op.mode)
                    else:
                        _, report = attacks.inject_attack(fx, op.scenario, spec, op.mode)
                except Exception as exc:  # a wrong outcome is counted, not fatal
                    clock.op(t0)
                    outcomes.append((op, False, repr(exc)))
                    continue
                clock.op(t0)
                if spec is None:
                    ok = s.transcript.verdict == "PASS"
                    if op.mode == "p2p":
                        for ident, attrs in _exposure(s.transcript).items():
                            union[ident] |= attrs
                    else:
                        honest_nets.append(s.net)
                else:
                    ok = report.detected == op.expect_detected
                outcomes.append((op, ok, ""))
            steady = _steady_ok(union, matrix)
            for op, ok, detail in outcomes:
                if op.attack is None and op.mode == "p2p":
                    ok &= steady
                tally.record(ok, f"{op.label} {detail}".strip())
            with clock.check(f"offline{pass_no}"):
                _offline_verify(honest_nets, DESK_OFFLINE_REPEATS, tally, result.verify_offline)
    finally:
        sim.verify_chain = scenario_verify
    tr.phase = None
    return clock.finish()
