"""Span recorder for the traced run, and the per-layer metrics built on it.

Spans are recorded from the benchmark's side only: ``install`` rebinds
each layer's public functions, in every ``portsec`` module that imported
them, to a wrapper that opens a span around the call. The methods of the
shared ``DEFAULT_SUITE`` are wrapped the same way to count crypto
operations. Each span keeps (name, op, start, end, parent); spans stay in
memory and are written out once at the end. A span's self time is its
duration minus the time its direct child spans cover.

Spans are only recorded while ``phase`` is set: "setup" (loading the
fixture file and building the world), "loop" (the measured op loop with
its interleaved reads and verifies) or "check" (output checks outside the
loop). Per-op metrics come from the "loop" phase.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

from portsec import (
    adapter, attacks, audit, envelope, fixtures, ledger, model, pki, policy, sim, transcript,
)

#: Every module whose public functions the benchmark reaches (``cli``
#: only dispatches to them).
MODULES = (model, envelope, policy, pki, adapter, ledger, fixtures, sim, transcript, audit,
           attacks)

SUITE_OPS = {
    "sign": "envelope.rsa_sign",
    "verify": "envelope.rsa_verify",
    "wrap_key": "envelope.oaep_wrap",
    "unwrap_key": "envelope.oaep_unwrap",
    "encrypt": "envelope.aesgcm_encrypt",
    "decrypt": "envelope.aesgcm_decrypt",
}


class Tracer:
    def __init__(self):
        self.phase: str | None = None
        self.op: object = None
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span index, name, start, child seconds]
        self.calls: Counter = Counter()  # (phase, name) -> calls
        self.seconds: defaultdict = defaultdict(float)  # (phase, name) -> inclusive s
        self.self_seconds: defaultdict = defaultdict(float)
        self.chain_keys: set = set()  # distinct validate_chain inputs, loop phase
        self.verified: dict[int, tuple[object, int]] = {}  # id(net) -> (net, blocks)
        self.new_blocks = 0
        self.checked_blocks = 0
        self.longest_chain = 0
        self.worlds: list = []
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _enter(self, name: str) -> None:
        self.spans.append(None)
        self._stack.append([len(self.spans) - 1, name, perf_counter(), 0.0])

    def _exit(self) -> None:
        end = perf_counter()
        index, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans[index] = (name, self.op, start, end, parent[0] if parent else -1)
        key = (self.phase, name)
        self.calls[key] += 1
        self.seconds[key] += duration
        self.self_seconds[key] += duration - child

    def count(self, name: str) -> None:
        if self.phase is not None:
            self.calls[(self.phase, name)] += 1

    def wrap(self, fn, name, before=None, after=None):
        """``name`` is a span name or a function of (args, kwargs) giving one."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            tracer._enter(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(result)
            return result

        return traced

    # --- hooks for the derived ratios ----------------------------------------

    def _chain_input(self, args, kwargs) -> None:
        if self.phase == "loop":
            leaf, chain, anchor = args[:3]
            at = kwargs.get("at", args[3] if len(args) > 3 else None)
            self.chain_keys.add((leaf, tuple(chain), anchor, at))

    def _verify_input(self, args, kwargs) -> None:
        if self.phase != "loop":
            return
        net = args[0] if args else kwargs["net"]
        blocks = len(net.chain)
        _, before = self.verified.get(id(net), (net, 0))
        self.verified[id(net)] = (net, blocks)  # holding net keeps its id unique
        self.new_blocks += blocks - before
        self.checked_blocks += blocks
        self.longest_chain = max(self.longest_chain, blocks)

    def _world_built(self, world) -> None:
        if self.phase in ("setup", "loop"):  # not the worlds built for checks
            self.worlds.append(world)

    # --- installing ------------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        def fn(module, attr, name=None, **hooks):
            original = getattr(module, attr)
            self._rebind(original, self.wrap(original, name or f"{module.__name__[8:]}.{attr}",
                                             **hooks))

        fn(model, "from_flat")
        fn(model, "to_flat")
        fn(envelope, "seal_field")
        fn(envelope, "open_field")
        fn(envelope, "verify_multi_sig")
        fn(policy, "protection_plan")
        fn(pki, "validate_chain", before=self._chain_input)
        fn(adapter, "secure_outbound")
        fn(adapter, "forward")
        fn(adapter, "validate_inbound")
        for attr in ("build_transaction", "submit", "endorse", "commit", "query",
                     "export_chain", "parse_chain", "verify_exported"):
            fn(ledger, attr)
        fn(ledger, "verify_chain", before=self._verify_input)
        fn(fixtures, "fixtures_from_bytes")
        fn(fixtures, "build_world", after=self._world_built)
        fn(fixtures, "build_net")
        fn(transcript, "transcript_to_wire", "transcript.to_wire")
        fn(transcript, "transcript_from_wire", "transcript.from_wire")
        fn(transcript, "determinism_digest")
        fn(audit, "audit_views")
        fn(attacks, "inject_attack",
           lambda a, k: f"attacks.inject_attack.{k.get('mode', a[3] if len(a) > 3 else 'p2p')}")

        for attr, name in (("run", None), ("deliver", "sim.deliver")):
            original = getattr(sim.Simulation, attr)
            namer = name or (lambda a, k: f"sim.{a[0].script.name}_{a[0].script.mode}")
            self._undo.append((sim.Simulation, attr, original))
            setattr(sim.Simulation, attr, self.wrap(original, namer))

        suite = envelope.DEFAULT_SUITE
        for attr, name in SUITE_OPS.items():
            self._undo.append((suite, attr, None))
            setattr(suite, attr, self.wrap(getattr(suite, attr), name))
        digest = suite.digest

        def counted_digest(data):
            self.count("envelope.sha256")
            return digest(data)

        self._undo.append((suite, "digest", None))
        suite.digest = counted_digest

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if value is None:
                delattr(owner, attr)  # instance attribute shadowing the method
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # --- output -----------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\top\tstart_us\tend_us\tparent\n")
            origin = self.spans[0][2] if self.spans else 0.0
            for i, (name, op, start, end, parent) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{op}\t{(start - origin) * 1e6:.1f}\t"
                          f"{(end - origin) * 1e6:.1f}\t{parent}\n")


class Untraced:
    """Stand-in with the attributes workloads set on a tracer."""

    phase = None
    op = None


#: Per-layer metrics: name -> unit. Values are per op of the traced loop
#: unless the unit says otherwise.
PER_LAYER = {
    "model.from_flat.calls": "count/op",
    "model.from_flat.ms": "ms/op",
    "model.to_flat.calls": "count/op",
    "model.to_flat.ms": "ms/op",
    "model.decodes_per_hop": "ratio",
    "envelope.rsa_sign.count": "count/op",
    "envelope.rsa_verify.count": "count/op",
    "envelope.oaep_wrap.count": "count/op",
    "envelope.oaep_unwrap.count": "count/op",
    "envelope.aesgcm_encrypt.count": "count/op",
    "envelope.aesgcm_decrypt.count": "count/op",
    "envelope.sha256.count": "count/op",
    "envelope.rsa_sign.ms": "ms/op",
    "envelope.rsa_verify.ms": "ms/op",
    "envelope.oaep.ms": "ms/op",
    "envelope.seal_field.ms": "ms/op",
    "envelope.open_field.ms": "ms/op",
    "envelope.verify_multi_sig.ms": "ms/op",
    "policy.protection_plan.calls": "count/op",
    "policy.protection_plan.ms": "ms/op",
    "pki.validate_chain.calls": "count/op",
    "pki.validate_chain.ms": "ms/op",
    "pki.validate_chain.distinct_ratio": "ratio",
    "adapter.secure_outbound.ms": "ms/op",
    "adapter.forward.ms": "ms/op",
    "adapter.validate_inbound.self_ms": "ms/op",
    "adapter.store_records": "count",
    "adapter.seen_bookings": "count",
    "ledger.build_transaction.ms": "ms/op",
    "ledger.submit.ms": "ms/op",
    "ledger.endorse.ms": "ms/op",
    "ledger.commit.ms": "ms/op",
    "ledger.query.ms": "ms/op",
    "ledger.verify_chain.ms": "ms/op",
    "ledger.export_chain.ms": "ms/op",
    "ledger.parse_chain.ms": "ms/op",
    "ledger.verify_exported.ms": "ms/op",
    "ledger.chain_blocks": "count",
    "ledger.verify.new_block_ratio": "ratio",
    "fixtures.generate_fixtures.ms": "ms",
    "fixtures.fixtures_from_bytes.ms": "ms",
    "fixtures.setup_build_world.ms": "ms",
    "fixtures.build_world.ms": "ms/op",
    "fixtures.build_world.calls": "count/op",
    "sim.export_p2p.ms": "ms/run",
    "sim.import_p2p.ms": "ms/run",
    "sim.export_ledger.ms": "ms/run",
    "sim.import_ledger.ms": "ms/run",
    "sim.hops_per_op": "count/op",
    "transcript.to_wire.ms": "ms/op",
    "transcript.determinism_digest.ms": "ms/call",
    "audit.audit_views.calls": "count/op",
    "audit.audit_views.ms": "ms/op",
    "attacks.inject_attack.p2p.ms": "ms/op",
    "attacks.inject_attack.ledger.ms": "ms/op",
    "trace.ops": "count",
    "trace.spans_per_op": "count/op",
    "trace.overhead_ratio": "ratio",
}

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer, ops: int, generate_ms: float, overhead: float) -> dict[str, float]:
    """Per-layer values from one traced run of ``ops`` ops. Metrics not
    derived below follow from their name: ``<span>.calls``/``.count`` is
    calls per op, ``<span>.ms`` is milliseconds per op (per run for the
    ``sim`` scenario spans)."""
    def calls(name, phase="loop"):
        return tr.calls[(phase, name)]

    def ms(name, phase="loop"):
        return tr.seconds[(phase, name)] * 1e3

    hops = calls("sim.deliver")
    stores = [sum(len(a.signature_store) for a in w.adapters.values()) for w in tr.worlds]
    seen = [sum(len(a.seen_booking_numbers) for a in w.adapters.values()) for w in tr.worlds]
    loop_spans = sum(n for (phase, name), n in tr.calls.items()
                     if phase == "loop" and name != "envelope.sha256")
    out = {
        "model.decodes_per_hop": _ratio(calls("model.from_flat"), hops),
        "envelope.oaep.ms": _ratio(ms("envelope.oaep_wrap") + ms("envelope.oaep_unwrap"), ops),
        "pki.validate_chain.distinct_ratio": _ratio(len(tr.chain_keys),
                                                    calls("pki.validate_chain")),
        "adapter.validate_inbound.self_ms": _ratio(
            tr.self_seconds[("loop", "adapter.validate_inbound")] * 1e3, ops),
        "adapter.store_records": max(stores, default=0),
        "adapter.seen_bookings": max(seen, default=0),
        "ledger.chain_blocks": tr.longest_chain,
        "ledger.verify.new_block_ratio": _ratio(tr.new_blocks, tr.checked_blocks),
        "fixtures.generate_fixtures.ms": generate_ms,
        "fixtures.fixtures_from_bytes.ms": ms("fixtures.fixtures_from_bytes", "setup"),
        "fixtures.setup_build_world.ms": ms("fixtures.build_world", "setup"),
        "sim.hops_per_op": _ratio(hops, ops),
        "transcript.determinism_digest.ms": _ratio(ms("transcript.determinism_digest", "check"),
                                                   calls("transcript.determinism_digest",
                                                         "check")),
        "trace.ops": ops,
        "trace.spans_per_op": _ratio(loop_spans, ops),
        "trace.overhead_ratio": overhead,
    }
    for name, unit in PER_LAYER.items():
        if name in out:
            continue
        span, _, kind = name.rpartition(".")
        if unit == "ms/run":
            out[name] = _ratio(ms(span), calls(span))
        elif kind in ("calls", "count"):
            out[name] = _ratio(calls(span), ops)
        else:
            out[name] = _ratio(ms(span), ops)
    return {name: out[name] for name in PER_LAYER}
