"""Per-layer tracing for the benchmark's traced run.

The tracer replaces public functions and methods of canvault with wrappers,
from the benchmark's side only; canvault itself is unchanged. Each wrapper
adds to an aggregate per layer name: call count, inclusive time, self time
(inclusive time minus the inclusive time of wrapped callees) and outcome
counts. Spans are aggregated per name rather than kept one by one, because a
refresh run makes 3.5 million counter ticks.

A name imported with ``from ... import`` is bound in the importing module as
well, so it is wrapped there too (``canvault.harness:get_group``).

A target that no longer exists is reported with a warning and its layer's
metrics are left out, so a renamed or removed function never reads as zero.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple, Optional


def _raised(result, raised):
    return "rejected" if raised else None


def _disposition(outcome, raised):
    return None if raised else outcome.disposition.value


def _rotation(rotated, raised):
    return "rotations" if rotated else None


# Metrics reported per layer; the unit and direction of each are fixed.
FIELDS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "us_per_call": ("us", "lower"),
    "accepted": ("count", "higher"),
    "ignored": ("count", "lower"),
    "rejected": ("count", "higher"),
    "useful_ratio": ("fraction", "higher"),
}


class Layer(NamedTuple):
    targets: tuple[str, ...]        # "module:qualname" of each wrapped callable
    fields: tuple[str, ...]         # keys of FIELDS reported for the layer
    outcome: Optional[Callable] = None  # (result, raised) -> outcome key or None


_TIMED = ("calls", "self_s")
_PER_CALL = ("calls", "self_s", "us_per_call")

LAYERS = {
    "group.exp": Layer(("canvault.group:Group.exp",), _PER_CALL),
    "group.is_member": Layer(("canvault.group:Group.is_member",), _PER_CALL),
    "group.get_group": Layer(("canvault.group:get_group",
                              "canvault.harness:get_group"), _TIMED),
    "kem.keygen": Layer(("canvault.kem:keygen",), _TIMED),
    "kem.encapsulate": Layer(("canvault.kem:encapsulate",), _PER_CALL),
    "kem.decapsulate": Layer(("canvault.kem:decapsulate",),
                             ("calls", "self_s", "rejected", "us_per_call"), _raised),
    "kem.decode_ciphertext": Layer(("canvault.kem:decode_ciphertext",),
                                   ("calls", "self_s", "rejected"), _raised),
    "primitives.hkdf": Layer(("canvault.primitives:hkdf_split",
                              "canvault.primitives:hkdf_session"), _PER_CALL),
    "primitives.hmac": Layer(("canvault.primitives:hmac_tag",
                              "canvault.primitives:hmac_verify"), _PER_CALL),
    "primitives.aes_ctr": Layer(("canvault.primitives:sym_encrypt",
                                 "canvault.primitives:sym_decrypt"), _PER_CALL),
    "primitives.hash": Layer(("canvault.primitives:hash_to_key",
                              "canvault.primitives:hash_to_scalar"), _TIMED),
    "protocol.handle": Layer(("canvault.protocol:Ecu.handle",
                              "canvault.protocol:Secu.handle"),
                             ("calls", "self_s", "accepted", "ignored", "rejected",
                              "useful_ratio"), _disposition),
    # Traced and shown in the self-time table, but no metric: neither gated
    # workload ticks, so its self time would read 0 on every gated run.
    "protocol.tick_counter": Layer(("canvault.protocol:Ecu.tick_counter",), (),
                                   _rotation),
    "bus.fragment": Layer(("canvault.bus:fragment",), _PER_CALL),
    "bus.reassemble": Layer(("canvault.bus:reassemble",), _PER_CALL),
    "bus.run_to_quiescence": Layer(("canvault.bus:Network.run_to_quiescence",),
                                   ("self_s",)),
    "harness.run_scenario": Layer(("canvault.harness:run_scenario",), ("self_s",)),
}

OVERHEAD_METRIC = ("tracing.overhead_s", "s", "lower")


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = [(f"{name}.{f}", *FIELDS[f])
             for name, layer in LAYERS.items() for f in layer.fields]
    return specs + [OVERHEAD_METRIC]


class _Stat:
    __slots__ = ("calls", "incl", "self", "outcomes")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.outcomes: dict[str, int] = {}


def _resolve(target: str):
    """(owner, attribute name, current value) of "module:Qual.name", or None."""
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except AttributeError:
        return None


class Tracer:
    """Aggregates calls, inclusive and self time per layer while installed."""

    def __init__(self, layers: dict = LAYERS):
        self.layers = layers
        self.missing: list[str] = []       # targets that could not be resolved
        self.absent: set[str] = set()      # layers with a missing target
        self._stats: dict[str, _Stat] = {}
        self._stack: list = []             # [stat, time spent in wrapped callees]

    def reset(self) -> None:
        self._stats = {name: _Stat() for name in self.layers}
        self._stack.clear()     # the wrappers hold this list

    def _wrap(self, name: str, fn, outcome):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat = self._stats[name]
            # A layer calling into itself (hmac_verify -> hmac_tag) is one
            # operation of that layer, not two.
            if stack and stack[-1][0] is stat:
                return fn(*args, **kwargs)
            entry = [stat, 0.0]
            stack.append(entry)
            raised = True
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.incl += dt
                stat.self += dt - entry[1]
                if stack:
                    stack[-1][1] += dt
                if outcome is not None:
                    key = outcome(result, raised)
                    if key is not None:
                        stat.outcomes[key] = stat.outcomes.get(key, 0) + 1
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every resolvable target; restore the originals on exit."""
        self.reset()
        self.missing = []
        self.absent = set()
        patched = []
        for name, layer in self.layers.items():
            for target in layer.targets:
                found = _resolve(target)
                if found is None:
                    self.missing.append(target)
                    self.absent.add(name)
                    print(f"perfbench: warning: trace target {target} not found; "
                          f"{name} metrics are absent", file=sys.stderr)
                    continue
                owner, attr, fn = found
                patched.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, layer.outcome))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(patched):
                setattr(owner, attr, fn)

    def snapshot(self) -> dict:
        """Per-layer totals since the last reset, for layers fully wrapped."""
        return {name: {"calls": s.calls, "incl": s.incl, "self": s.self,
                       "outcomes": dict(s.outcomes)}
                for name, s in self._stats.items() if name not in self.absent}


def counts(snap: dict) -> dict:
    """The deterministic part of a snapshot: calls and outcomes per layer."""
    return {name: (s["calls"], sorted(s["outcomes"].items()))
            for name, s in snap.items()}


def layer_metrics(snaps: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over several traced runs of one scenario.

    Counts come from the first run (every run must repeat them exactly);
    times are medians over the runs. A layer absent from the snapshots, or a
    per-call mean of a layer never called, is left out.
    """
    out = {}
    first = snaps[0]
    for layer, spec in LAYERS.items():
        if layer not in first:
            continue
        stat = first[layer]
        for f in spec.fields:
            if f == "calls":
                value = stat["calls"]
            elif f == "self_s":
                value = statistics.median(s[layer]["self"] for s in snaps)
            elif f == "us_per_call":
                if not stat["calls"]:
                    continue
                value = 1e6 * statistics.median(
                    s[layer]["incl"] / s[layer]["calls"] for s in snaps)
            elif f == "useful_ratio":
                if not stat["calls"]:
                    continue
                useful = stat["outcomes"].get("accepted", 0) + \
                    stat["outcomes"].get("rejected", 0)
                value = useful / stat["calls"]
            else:
                value = stat["outcomes"].get(f, 0)
            out[f"{layer}.{f}"] = (value, FIELDS[f][0])
    return out
