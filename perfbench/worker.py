"""Child processes of the benchmark, each in a fresh interpreter.

    worker.py gen --out FILE
        generate one fixture file (keys, certificates, values)
    worker.py setup --fixtures FILE [--net]
        time one cold set-up: import, load the fixture file, build the world
    worker.py workload --name NAME --seed N --seconds S --trace 0|1 --fixtures FILE ...
        set up, then run one workload

Each prints one JSON object as its last line of output. Set-up runs in a
fresh process every time because ``portsec`` caches loaded keys for the
life of the process, which would make a second set-up nearly free.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import steady  # noqa: E402  (the benchmark's own module, next to this file)

#: Ops per second of ``--seconds`` at the seed commit's speed on a 2-core
#: host: bookings, ledger passes (200 containers, 800 blocks each) and desk
#: passes (24 ops each). Runs do this fixed amount of work, so parent and
#: change measure the same op list and stores grow the same way.
RATES = {"p2p_bookings": 28.0, "ledger_lifecycles": 0.25, "desk_compare": 2.0}
CONTAINERS = 200
VERIFY_EVERY = 100
#: Smoke sizes: bookings, passes, containers per pass, blocks per verify.
SMOKE = {"p2p_bookings": 4, "ledger_lifecycles": 1, "desk_compare": 1,
         "containers": 6, "verify_every": 8}
SETUP_PROBES = 5  # host probes before and after each set-up


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def cmd_gen(args) -> None:
    from portsec.fixtures import fixtures_to_bytes, generate_fixtures

    t0 = perf_counter()
    fx = generate_fixtures(run_tag="BENCH")
    generate_ms = (perf_counter() - t0) * 1e3
    key_sets = 1
    while _tamper_breaks_parsing(fx):
        fx = generate_fixtures(run_tag="BENCH")
        key_sets += 1
    Path(args.out).write_bytes(fixtures_to_bytes(fx))
    emit({"generate_fixtures_ms": generate_ms, "key_sets": key_sets})


def _tamper_breaks_parsing(fx) -> bool:
    """Whether the desk's LEDGER_TAMPER attack makes either chain
    unparseable under these keys.

    The attack flips one character of a block's base64 previous hash. For
    one key set in eight per chain that character stops being base64, the
    chain fails to parse and offline verification never runs; the attack is
    caught either way, but the op then does less work. Drawing a fresh key
    set in that case keeps every count of the desk workload the same from
    one invocation to the next.
    """
    from portsec.attacks import AttackKind, AttackSpec, inject_attack

    spec = AttackSpec(AttackKind.LEDGER_TAMPER, block=1)
    return any(inject_attack(fx, scenario, spec, "ledger")[1].localized
               .startswith("chain unparseable") for scenario in ("export", "import"))


def setup(path: str, with_net: bool):
    """Import ``portsec``, load the fixture file, build the world (and the
    ledger net). Returns (adjusted seconds, raw seconds, fixtures, world,
    net); the adjustment comes from host probes run just before and after
    (see ``steady``)."""
    levels = [steady.probe() for _ in range(SETUP_PROBES)]
    t0 = perf_counter()
    import portsec.attacks  # noqa: F401  (imports every layer the workloads reach)
    from portsec import fixtures

    fx = fixtures.fixtures_from_bytes(Path(path).read_bytes())
    world = fixtures.build_world(fx)
    net = fixtures.build_net(world) if with_net else None
    seconds = perf_counter() - t0
    levels += [steady.probe() for _ in range(SETUP_PROBES)]
    return seconds * steady.host_factor(levels), seconds, fx, world, net


def cmd_setup(args) -> None:
    seconds, raw, *_ = setup(args.fixtures, args.net)
    emit({"setup_s": seconds, "raw_setup_s": raw})


def _run(name: str, ctx, seconds: float, smoke: bool, tamper_at: int):
    import workloads

    size = SMOKE[name] if smoke else max(1, round(seconds * RATES[name]))
    if name == "p2p_bookings":
        return workloads.p2p_bookings(ctx, size, tamper_at)
    if name == "ledger_lifecycles":
        return workloads.ledger_lifecycles(
            ctx, size, SMOKE["containers"] if smoke else CONTAINERS,
            SMOKE["verify_every"] if smoke else VERIFY_EVERY)
    return workloads.desk_compare(ctx, size)


def cmd_workload(args) -> None:
    with_net = args.name == "ledger_lifecycles"

    if args.trace:
        import tracer as tracing

        tr = tracing.Tracer()
        tr.install()
        tr.phase = "setup"
        setup_s, raw_setup_s, fx, world, net = setup(args.fixtures, with_net)
        tr.phase = None
    else:
        setup_s, raw_setup_s, fx, world, net = setup(args.fixtures, with_net)
        from tracer import Untraced

        tr = Untraced()

    import workloads
    from portsec import fixtures

    tally = workloads.Tally()
    ctx = workloads.Context(args.seed, fx, world, net, tr, tally)
    tr.phase = "check"
    reference_digest = ctx.reference_digest = workloads.determinism_check(ctx)
    tr.phase = None

    if args.trace:
        # the same op list untraced first, on fresh state: the difference
        # in loop time is the tracing overhead
        tr.uninstall()
        ref_world = fixtures.build_world(fx)
        ref_ctx = workloads.Context(args.seed, fx, ref_world,
                                    fixtures.build_net(ref_world) if with_net else None,
                                    tracing.Untraced(), tally, reference_digest)
        reference = _run(args.name, ref_ctx, args.seconds, args.smoke, args.tamper_at)
        tr.install()
        result = _run(args.name, ctx, args.seconds, args.smoke, args.tamper_at)
        tr.uninstall()
        metrics = tracing.per_layer(tr, len(result.latencies), args.generate_ms,
                                    steady.HostSpeed(result).loop_s()
                                    / steady.HostSpeed(reference).loop_s() - 1.0)
        tr.write_spans(args.spans)
    else:
        result = _run(args.name, ctx, args.seconds, args.smoke, args.tamper_at)
        metrics = {
            **steady.timings(result),
            "ok_ratio": 1.0 - tally.failed / tally.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    emit({
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "determinism_ok": reference_digest is not None,
        "determinism_digest": reference_digest.hex() if reference_digest else "",
        "probe_levels_ms": steady.probe_levels_ms(result),
        "raw_timings": steady.timings(result, adjust=False),
        "ops": len(result.latencies),
        "loop_s": result.loop_s,
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    gen = sub.add_parser("gen")
    gen.add_argument("--out", required=True)
    probe = sub.add_parser("setup")
    probe.add_argument("--fixtures", required=True)
    probe.add_argument("--net", action="store_true")
    work = sub.add_parser("workload")
    work.add_argument("--name", required=True,
                      choices=("p2p_bookings", "ledger_lifecycles", "desk_compare"))
    work.add_argument("--seed", type=int, required=True)
    work.add_argument("--seconds", type=float, required=True)
    work.add_argument("--trace", type=int, choices=(0, 1), default=0)
    work.add_argument("--fixtures", required=True)
    work.add_argument("--generate-ms", type=float, default=0.0)
    work.add_argument("--spans", default="")
    work.add_argument("--smoke", action="store_true")
    work.add_argument("--tamper-at", type=int, default=-1,
                      help="tamper with this p2p booking in transit (self-test)")
    args = parser.parse_args(argv)
    {"gen": cmd_gen, "setup": cmd_setup, "workload": cmd_workload}[args.cmd](args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
