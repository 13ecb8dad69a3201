"""Scenario execution plus the analytic comparison against related schemes.

A scenario runs as plain steps. :func:`_build` makes the nodes, the bus and
the adversary from a validated config. :func:`_run_stage` sends one keying
stage's messages and runs the bus to quiescence (the central node never waits
for per-unit acks, so each stage ends before the next begins). :func:`_stages`
declares the stages for the honest frame count and the closed-form phase
times. :func:`_key_checks` compares every unit's keys with the SECU's. One
:class:`SimReport` then holds the run's metrics and the closed-form
expectations: the 2N+1 message budget, the message counts of two competing
schemes, and per-scheme computation tallies under the active latency profile.
"""

from __future__ import annotations

import enum
import functools
import json
import types
from random import Random
from typing import Optional, Union, get_args, get_origin, get_type_hints

from . import kem
from .adversary import (ACTIONS, ADVERSARY_CAN_ID, ADVERSARY_ID, Adversary,
                        ForgeAction, TamperAction)
from .bus import (DEFAULT_BITRATE_BPS, DEFAULT_FRAME_OVERHEAD_BITS, MAX_MSG_SEQ,
                  BusConfig, Network, fragment, fragment_count, frame_time_us,
                  untimed_ops)
from .errors import ConfigError, DeadlockError, DomainError, RunCheckError
from .group import Group, get_group, GROUP_NAMES
from .protocol import DEFAULT_CTR_MAX, DEFAULT_REPLAY_CACHE, ECU_CAN_BASE, \
    MESSAGE_OPS, SECU_ID, Ecu, MsgKind, Secu, WireMessage, \
    body_length, session_chain_key


class Scheme(enum.Enum):
    OURS = "ours"
    CARVAJAL_ROCA = "carvajal-roca"
    MUSUROI = "musuroi"


def expected_messages(scheme: Scheme, n: int) -> int:
    """Closed-form message count of a scheme for a group of n units."""
    if n < 1:
        raise DomainError(f"group size must be >= 1, got {n}")
    if scheme is Scheme.OURS:
        return 2 * n + 1
    if scheme is Scheme.CARVAJAL_ROCA:
        return 5 * n + 1
    return 4 * (2 * n - 1)


def comparison_ratios(n: int) -> tuple:
    """Our message count over each competitor's, as two exact
    :class:`fractions.Fraction` values. ``fractions`` is imported on the
    first call, not at import, so the return annotation is a plain tuple."""
    from fractions import Fraction
    ours = expected_messages(Scheme.OURS, n)
    return (Fraction(ours, expected_messages(Scheme.CARVAJAL_ROCA, n)),
            Fraction(ours, expected_messages(Scheme.MUSUROI, n)))


def comparison_table(sizes: list[int]) -> list[dict]:
    """Rows for the scheme comparison CSV: one per (size, scheme)."""
    rows = []
    for n in sizes:
        ours = expected_messages(Scheme.OURS, n)
        for scheme in Scheme:
            msgs = expected_messages(scheme, n)
            rows.append({
                "scheme": scheme.value,
                "n": n,
                "messages": msgs,
                "percent_of_ours": round(100 * ours / msgs, 2),
            })
    return rows


# Operation counts behind each scheme's computation estimate at group size 2.
_TALLY_OPS = {
    Scheme.OURS: {"eccdh": 5, "sha": 4, "hkdf": 6, "hmac": 4, "aes": 2},
    Scheme.CARVAJAL_ROCA: {"eccdh": 6, "sha": 2, "aes": 4},
    Scheme.MUSUROI: {"sign": 1, "verify": 2, "eccdh": 4, "aes": 4},
}


def computation_tally_us(scheme: Scheme, op_latency: dict[str, int]) -> Optional[int]:
    """Plug per-op latencies into a scheme's operation tally (size-2 group).

    Returns None when the latency table lacks an operation the scheme needs
    (signature timings exist only for the stm32 profile).
    """
    total = 0
    for op, count in _TALLY_OPS[scheme].items():
        if op not in op_latency:
            return None
        total += count * op_latency[op]
    return total


# -- scenario configuration -------------------------------------------------

def _check_keys(what: str, names, defaults, raw: dict) -> None:
    """Refuse keys that are not among ``names``, and missing ones that
    ``defaults`` holds no value for."""
    unknown = set(raw) - set(names)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for name in names:
        if name not in raw and name not in defaults:
            raise ConfigError(f"missing required {what} key {name!r}")


_type_hints = functools.cache(get_type_hints)      # read once per class


def _check_values(what: str, cls, values: dict) -> None:
    """Refuse a value outside its field's annotation in ``cls``.

    No field takes a bool, so a bool is never an integer here. Every plain
    ``int`` field is a count, size, time or unit id and so >= 0; a forged
    ``receiver`` is the one ``Optional[int]`` field, null for broadcast.
    """
    hints = _type_hints(cls)
    for name, value in values.items():
        hint = hints[name]
        allowed = get_args(hint) if get_origin(hint) is Union else (hint,)
        if isinstance(value, bool) or not isinstance(value, allowed):
            names = " or ".join("null" if t is type(None) else t.__name__
                                for t in allowed)
            raise ConfigError(f"{what} key {name!r} must be {names}")
        if hint is int and value < 0:
            raise ConfigError(f"{what} key {name!r} must be >= 0")


def _read_json_object(what: str, path: str) -> dict:
    """Parse a file that must hold one JSON object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return data


class ScenarioConfig:
    """A scenario. The annotations are the config schema, its keys in order
    and their types, and the class attributes are the optional keys'
    defaults. Every construction (JSON, keywords, :meth:`replace`) is
    checked. An instance holds the keys it was given and reads the other
    keys' defaults from the class."""

    group: str
    n_ecus: int
    latency_profile: str = "stm32"
    bitrate_bps: int = DEFAULT_BITRATE_BPS
    frame_overhead_bits: int = DEFAULT_FRAME_OVERHEAD_BITS
    ctr_max: int = DEFAULT_CTR_MAX
    post_ticks: int = 0
    rng_seed: int = 0
    phase4_sender: int = 0
    replay_cache_size: int = DEFAULT_REPLAY_CACHE
    keyfile: Optional[str] = None
    adversary: list = ()        # no entries; a given value must be a list

    def __init__(self, **values):
        _check_keys("config", ScenarioConfig.__annotations__, vars(ScenarioConfig),
                    values)
        vars(self).update(values)
        self.validate()

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("scenario config must be a JSON object")
        nulls = sorted(key for key, value in raw.items() if value is None)
        if nulls:
            raise ConfigError(f"config keys {nulls} are null; leave an "
                              "optional key out instead")
        return cls(**raw)

    @classmethod
    def from_json_file(cls, path: str) -> "ScenarioConfig":
        return cls.from_dict(_read_json_object("config", path))

    def replace(self, **changes) -> "ScenarioConfig":
        """A copy with ``changes`` applied, checked like any construction."""
        return type(self)(**{**vars(self), **changes})

    def validate(self) -> None:
        _check_values("config", type(self), vars(self))
        if self.group not in GROUP_NAMES:
            raise ConfigError(f"unknown group {self.group!r}")
        _check_latency_profile_name(self.latency_profile)
        if self.n_ecus < 1:
            raise ConfigError("n_ecus must be >= 1")
        if ECU_CAN_BASE + self.n_ecus - 1 >= ADVERSARY_CAN_ID:
            raise ConfigError(f"n_ecus {self.n_ecus} would give a unit the "
                              f"adversary CAN id {ADVERSARY_CAN_ID:#05x}")
        BusConfig(self.bitrate_bps, self.frame_overhead_bits)   # range checks
        if self.ctr_max < 1:
            raise ConfigError("ctr_max must be >= 1")
        if self.replay_cache_size < 1:
            raise ConfigError("replay_cache_size must be >= 1")
        if self.phase4_sender >= self.n_ecus:
            raise ConfigError("phase4_sender must name a unit in [0, n_ecus)")
        group = get_group(self.group)
        actions = [_adversary_action(entry, group) for entry in self.adversary]
        # Every protocol message and every forgery takes the next 16-bit
        # fragment sequence number; a wrap would let two sets share one.
        forges = sum(isinstance(action, ForgeAction) for action in actions)
        messages = expected_messages(Scheme.OURS, self.n_ecus)
        if messages + forges > MAX_MSG_SEQ:
            raise ConfigError(f"{messages} protocol messages and "
                              f"{forges} forgeries exceed the {MAX_MSG_SEQ} "
                              "fragment sequence numbers")


def _adversary_action(entry, group: Group):
    """Check one adversary config entry and return its action."""
    if not isinstance(entry, dict):
        raise ConfigError("adversary entries must be objects")
    action = entry.get("action")
    if not isinstance(action, str) or action not in ACTIONS:
        raise ConfigError(f"adversary action must be one of {sorted(ACTIONS)}")
    cls = ACTIONS[action]
    settings = {k: v for k, v in entry.items() if k not in ("action", "target")}
    _check_keys(f"{action} adversary", cls._fields[1:], cls._field_defaults,
                settings)
    target = entry.get("target")
    try:
        kind = MsgKind(target)
    except ValueError:
        raise ConfigError(f"adversary target must be a message kind, got {target!r}") \
            from None
    _check_values("adversary", cls, settings)
    if cls is TamperAction and settings["bit"] >= body_length(group, kind) * 8:
        raise ConfigError(f"tamper bit {settings['bit']} outside a {target} body")
    return cls(kind, **settings)


# Latency presets, one device's microseconds per operation for every node
# class. The asymmetric figure covers one full encapsulation or decapsulation;
# the sign/verify entries only feed the analytic computation tally.
LATENCY_PRESETS: dict[str, dict[str, int]] = {
    "stm32": {"eccdh": 3_000, "hkdf": 300, "aes": 40, "sha": 40, "hmac": 40,
              "sign": 2_870, "verify": 4_460},
    "w806": {"eccdh": 2_000_000, "hkdf": 700, "aes": 100, "sha": 100, "hmac": 100},
    "uno": {"eccdh": 4_000_000, "hkdf": 88_000, "aes": 1_000, "sha": 1_000,
            "hmac": 1_000},
}

# The latency classes the nodes declare; a profile times each of them.
_NODE_CLASSES = (Secu.node_class, Ecu.node_class)


def _check_latency_profile_name(name: str) -> None:
    """Refuse a name that is neither a preset nor ``custom:<path>``; the
    file behind a custom name is read only by :func:`load_latency_profile`."""
    if name not in LATENCY_PRESETS and not name.startswith("custom:"):
        raise ConfigError(
            f"unknown latency profile {name!r}; presets: {sorted(LATENCY_PRESETS)}")


def load_latency_profile(name: str) -> dict[str, dict[str, int]]:
    """Resolve a preset name or ``custom:<path>`` into a latency table per
    node class; each class gets its own copy of a preset's device table."""
    _check_latency_profile_name(name)
    if name in LATENCY_PRESETS:
        return {cls: dict(LATENCY_PRESETS[name]) for cls in _NODE_CLASSES}
    table = _read_json_object("latency profile", name.split(":", 1)[1])
    for node_class in _NODE_CLASSES:
        ops = table.get(node_class)
        if not isinstance(ops, dict):
            raise ConfigError(f"profile must map {node_class!r} to op latencies")
        for op, us in ops.items():
            if isinstance(us, bool) or not isinstance(us, int) or us < 0:
                raise ConfigError(f"latency {node_class}.{op} must be >= 0 us")
        if missing := untimed_ops(ops):
            raise ConfigError(f"profile {node_class!r} lacks latencies for {missing}")
    return table


# -- key parameter files ------------------------------------------------------

# Sanctioned key lifetimes, recorded with provisioning output as advisory
# metadata; nothing in the simulator enforces them.
CRYPTOPERIODS_YEARS = {
    "private_key_agreement": 2,
    "public_key_agreement": 2,
    "symmetric_authentication": 2,
    "symmetric_data_encryption": 5,
}


def generate_keypairs(group: Group, n: int, seed: int) -> list[kem.EcuKeyPair]:
    """The ``n`` keypairs a seed provisions, for inline runs and keyfiles alike."""
    rng = Random(f"canvault:{seed}:keygen")
    return [kem.keygen(group, i, rng) for i in range(n)]


def write_keyfile(path: str, group: Group, keypairs: list[kem.EcuKeyPair]) -> None:
    """Persist provisioning output; hex plaintext, simulation use only."""
    data = {
        "simulation_only": True,
        "group": group.name,
        "cryptoperiods_years": CRYPTOPERIODS_YEARS,
        "keypairs": [
            {
                "ecu_id": kp.ecu_id,
                "x": f"{kp.key_exp:x}",
                "y": f"{kp.bind_exp:x}",
                "u": group.element_hex(kp.pub_key),
                "v": group.element_hex(kp.pub_bind),
            }
            for kp in keypairs
        ],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _keyfile_exponent(entry: dict, field: str) -> int:
    """``entry[field]``, which must be spelled as :func:`write_keyfile`
    spells an exponent, ``f"{value:x}"``: lower-case hex with no prefix,
    space, separator or leading zero."""
    text = entry[field]
    value = int(text, 16)
    if f"{value:x}" != text:
        raise ValueError(f"{field} {text!r} is not lower-case hex without "
                         "prefix or leading zeros")
    return value


def load_keyfile(path: str, group: Group, n: int) -> list[kem.EcuKeyPair]:
    """Read ``n`` keypairs. Every entry's fields are checked before any power
    is taken: ``x`` and ``y`` must be spelled as :func:`write_keyfile` spells
    them and lie in [1, order), and the unit ids must be 0..n-1. Then each
    keypair is re-derived with :func:`kem.keypair`, and ``u`` and ``v`` must
    be the keyfile text of its ``g^x`` and ``g^y``."""
    data = _read_json_object("keyfile", path)
    if data.get("group") != group.name:
        raise ConfigError(
            f"keyfile group {data.get('group')!r} does not match {group.name!r}")
    entries = data.get("keypairs", [])
    if not isinstance(entries, list):
        raise ConfigError("keyfile keypairs must be a list")
    if len(entries) < n:
        raise ConfigError(f"keyfile holds {len(entries)} keypairs, need {n}")
    fields = []
    for entry in entries[:n]:
        try:
            ecu_id = entry["ecu_id"]
            x, y = (_keyfile_exponent(entry, k) for k in "xy")
            u, v = entry["u"], entry["v"]
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"malformed keyfile entry: {exc}") from exc
        if not (0 < x < group.order and 0 < y < group.order):
            raise ConfigError(
                f"keyfile entry {ecu_id} has exponents outside [1, order)")
        fields.append((ecu_id, x, y, u, v))
    # Unit ids become node and CAN ids: they must be exactly 0..n-1.
    ids = [entry[0] for entry in fields]
    if any(type(i) is not int for i in ids) or sorted(ids) != list(range(n)):
        raise ConfigError(f"keyfile unit ids {ids} must be the ints 0..{n - 1}")
    keypairs = []
    for ecu_id, x, y, u, v in fields:
        kp = kem.keypair(group, ecu_id, x, y)
        if group.element_hex(kp.pub_key) != u or group.element_hex(kp.pub_bind) != v:
            raise ConfigError(
                f"keyfile entry {ecu_id} has inconsistent public values")
        keypairs.append(kp)
    return keypairs


# -- scenario execution -------------------------------------------------------

class SimReport(types.SimpleNamespace):
    """Metrics of one simulation run. All fields are JSON-plain types, so
    ``SimReport(**json.loads(report.to_json()))`` reads a report back."""

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2, sort_keys=True) + "\n"


def _stages(n: int) -> tuple[tuple[str, MsgKind, str, int, tuple[str, ...]], ...]:
    """The keying stages in send order: (name, kind, sending node class,
    message count, receiving node classes). The seed reaches the SECU and
    every unit but its sender, so at n = 1 only the SECU."""
    secu, ecu = _NODE_CLASSES
    return (("pairwise", MsgKind.PAIRWISE_CIPHER, secu, n, (ecu,)),
            ("group_secret", MsgKind.GROUP_SECRET, secu, n, (ecu,)),
            ("session", MsgKind.SEED_BROADCAST, ecu, 1,
             (secu, ecu) if n > 1 else (secu,)))


def _honest_frame_count(group: Group, n: int) -> int:
    return sum(count * fragment_count(body_length(group, kind))
               for _, kind, _, count, _ in _stages(n))


def expected_phase_times(group: Group, n: int, latency: dict[str, dict[str, int]],
                         bus: BusConfig) -> dict[str, dict[str, int]]:
    """The ``phase_times`` of an honest run, in closed form.

    Per stage, a max-plus recurrence: the sender pays the kind's
    ``MESSAGE_OPS`` for each message in turn; a message's frames start once
    it is ready and the previous message has left the bus, and go back to
    back; the stage ends when the last message has been received, after the
    slowest receiver has paid them too.
    """
    times, start = {}, 0
    for name, kind, sender, count, receivers in _stages(n):
        msg = WireMessage(kind, SECU_ID, None, bytes(body_length(group, kind)))
        wire = sum(frame_time_us(f, bus) for f in fragment(msg, 0, 0))
        cost = {node: sum(latency[node][op] for op in MESSAGE_OPS[kind])
                for node in (sender, *receivers)}
        ready = end = start
        for _ in range(count):
            ready += cost[sender]
            end = max(ready, end) + wire
        end += max(cost[node] for node in receivers)
        times[name] = {"start_us": start, "end_us": end, "elapsed_us": end - start}
        start = end
    return times


def _build(cfg: ScenarioConfig, group: Group, latency: dict[str, dict[str, int]]
           ) -> tuple[Network, Secu, list[Ecu]]:
    """The bus with the SECU and the units on it, and the adversary built
    from the config's entries with its forgeries sent."""
    keypairs = generate_keypairs(group, cfg.n_ecus, cfg.rng_seed) \
        if cfg.keyfile is None else load_keyfile(cfg.keyfile, group, cfg.n_ecus)
    secu = Secu(group, [(kp.ecu_id, kp.public) for kp in keypairs])
    ecus = [Ecu(group, kp, ctr_max=cfg.ctr_max,
                replay_cache_size=cfg.replay_cache_size) for kp in keypairs]
    adversary = Adversary([_adversary_action(entry, group) for entry in cfg.adversary],
                          group, cfg.rng_seed)
    net = Network(BusConfig(cfg.bitrate_bps, cfg.frame_overhead_bits), latency,
                  adversary)
    for node in (secu, *ecus):
        net.add(node)
    adversary.start(net)
    return net, secu, ecus


def _run_stage(net: Network, sender_id: int, msgs: list[WireMessage]) -> dict[str, int]:
    """Send one stage's messages and run the bus until it is quiet."""
    start = net.now
    net.schedule_protocol_send(sender_id, msgs)
    end = net.run_to_quiescence()
    return {"start_us": start, "end_us": end, "elapsed_us": end - start}


def _key_checks(secu: Secu, ecus: list[Ecu]) -> tuple[dict[str, bool], list[str]]:
    """The ``converged`` flags, and the units holding a key the SECU did not
    issue (an unkeyed unit, denied service, is not one). Phases 2 and 3
    always run, so the SECU holds every pairwise secret and the group secret."""
    sessions = [e.session for e in ecus]
    converged = {
        "pairwise": all(e.pairwise == secu.pairwise[e.ecu_id] for e in ecus),
        "group_secret": all(e.group_secret == secu.group_secret for e in ecus),
        "session": all(s is not None for s in sessions) and len(
            {(s.session_key, s.round_index) for s in sessions}) == 1,
    }
    chain_key = session_chain_key(secu.group_secret)
    foreign = [e.label for e in ecus
               if e.pairwise not in (None, secu.pairwise[e.ecu_id])
               or e.group_secret not in (None, secu.group_secret)
               or e.session is not None and e.session.chain_key != chain_key]
    return converged, foreign


def run_scenario(cfg: ScenarioConfig, trace_path: Optional[str] = None) -> SimReport:
    """Run the full key establishment under a scenario config.

    Raises:
        DeadlockError: the elected seed sender was left without a group
            secret, so the session stage was skipped (adversary-induced
            stall); the report rides on the exception for persistence.
        RunCheckError: a run-level check failed; the report rides on the
            exception for persistence.
    """
    group = get_group(cfg.group)
    latency = load_latency_profile(cfg.latency_profile)
    proto_rng = Random(f"canvault:{cfg.rng_seed}:protocol")
    net, secu, ecus = _build(cfg, group, latency)

    phase_times = {
        "pairwise": _run_stage(net, SECU_ID, secu.run_phase2(proto_rng)),
        "group_secret": _run_stage(net, SECU_ID, secu.run_phase3(proto_rng)),
    }
    sender = next(e for e in ecus if e.ecu_id == cfg.phase4_sender)
    stalled = sender.group_secret is None
    if not stalled:
        phase_times["session"] = _run_stage(net, sender.ecu_id,
                                            [sender.run_phase4(proto_rng)])
    for i in range(cfg.post_ticks):
        net.schedule_data_frame(ecus[i % len(ecus)].ecu_id)
    net.run_to_quiescence()

    converged, foreign = _key_checks(secu, ecus)
    # One pass over the quiescent bus's frames. Forgeries and replay copies
    # carry the adversary's origin; a tamper flips bits and adds no frames.
    frames = data_frames = honest_frames = logical_messages = 0
    for f in net.sent:
        if f.kind is None:
            data_frames += 1
        else:
            frames += 1
            if f.origin != ADVERSARY_ID:
                honest_frames += 1
                logical_messages += f.header[1] == 0    # a message's first frame
    expected = expected_messages(Scheme.OURS, cfg.n_ecus)
    checks = {
        "message_count": logical_messages == expected,
        "frame_accounting": honest_frames == _honest_frame_count(group, cfg.n_ecus),
        "convergence": not foreign,
    }
    report = SimReport(
        group=cfg.group, n_ecus=cfg.n_ecus, rng_seed=cfg.rng_seed,
        latency_profile=cfg.latency_profile, logical_messages=logical_messages,
        frames=frames, data_frames=data_frames,
        refresh_events=max((e.session.round_index for e in ecus
                            if e.session is not None), default=0),
        phase_times=phase_times, rejections=net.rejections, converged=converged,
        partially_keyed=not all(converged.values()), expected_messages=expected,
        checks=checks, comparison=comparison_table([cfg.n_ecus]),
        computation_tally_us={
            scheme.value: tally for scheme in Scheme
            if (tally := computation_tally_us(scheme, latency[secu.node_class]))
            is not None})

    if trace_path is not None:
        net.write_trace_csv(trace_path)
    held = f"; keys the SECU did not issue held by {', '.join(foreign)}" \
        if foreign else ""
    if stalled:
        raise DeadlockError(f"seed sender {sender.label} holds no group secret; "
                            f"the session phase could not start{held}",
                            report=report)
    if not all(checks.values()):
        failed = sorted(name for name, ok in checks.items() if not ok)
        raise RunCheckError(f"run checks failed: {failed}{held}", report=report)
    return report
