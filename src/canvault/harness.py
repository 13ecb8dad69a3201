"""Scenario execution plus the analytic comparison against related schemes.

A scenario builds a network from a validated config, drives the protocol
through its bus phases stage by stage (each stage runs to quiescence before
the next begins, since the central node never waits for per-unit acks), then
attaches the closed-form expectations: the 2N+1 message budget, the message
counts of two competing schemes, and per-scheme computation tallies under
the active latency profile.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
from dataclasses import MISSING, dataclass, field
from fractions import Fraction
from random import Random
from typing import Optional, Union, get_args, get_origin, get_type_hints

from . import kem
from .bus import (ADVERSARY_CAN_ID, ADVERSARY_ID, ECU_CAN_BASE, LATENCY_PRESETS,
                  MAX_MSG_SEQ, RECV_CHARGES, REFRESH_CHARGE, SEND_CHARGES,
                  BusConfig, ForgeAction, Network, ReplayAction, SimReport,
                  TamperAction, fragment, fragment_count, frame_time_us)
from .errors import ConfigError, DeadlockError, DomainError, RunCheckError
from .group import Group, get_group, GROUP_NAMES
from .protocol import DEFAULT_CTR_MAX, DEFAULT_REPLAY_CACHE, SECU_ID, Ecu, \
    MsgKind, Secu, WireMessage, body_length


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


def comparison_ratios(n: int) -> tuple[Fraction, Fraction]:
    """Our message count over each competitor's, as exact fractions."""
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


def affine_fit(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Least-squares line a + b*x; returns (a, b, max relative residual)."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    b = sxy / sxx
    a = mean_y - b * mean_x
    max_rel = max(abs(a + b * x - y) / y for x, y in zip(xs, ys))
    return a, b, max_rel


# -- scenario configuration -------------------------------------------------

# An adversary entry names its action and, as ``target``, the action's first
# field ``kind``; its other keys are the action's other fields and defaults.
_ACTIONS = {"tamper": TamperAction, "replay": ReplayAction, "forge": ForgeAction}


def _required(f: dataclasses.Field) -> bool:
    return f.default is MISSING and f.default_factory is MISSING


def _check_keys(what: str, fields: tuple, raw: dict) -> None:
    """Refuse keys that are not among ``fields``, and missing required ones."""
    unknown = set(raw) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for f in fields:
        if _required(f) and f.name not in raw:
            raise ConfigError(f"missing required {what} key {f.name!r}")


_type_hints = functools.cache(get_type_hints)      # read once per class


def _check_values(what: str, cls, values: dict) -> None:
    """Refuse a value outside its field's annotation in ``cls``.

    No field takes a bool, so a bool is never an integer here. Every plain
    ``int`` field is a count, size or time and so >= 0; the unit ids
    (``phase4_sender``, ``receiver``) are the ``Optional[int]`` fields.
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


@dataclass
class ScenarioConfig:
    """A scenario. The fields, types and defaults are the config schema, and
    every construction (JSON, keywords, ``dataclasses.replace``) is checked."""

    group: str
    n_ecus: int
    latency_profile: str = "stm32"
    bitrate_bps: int = 1_000_000
    frame_overhead_bits: int = 128
    ctr_max: int = DEFAULT_CTR_MAX
    post_ticks: int = 0
    rng_seed: int = 0
    phase4_sender: Optional[int] = None
    replay_cache_size: int = DEFAULT_REPLAY_CACHE
    keyfile: Optional[str] = None
    adversary: list = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("scenario config must be a JSON object")
        _check_keys("config", dataclasses.fields(cls), raw)
        nulls = sorted(key for key, value in raw.items() if value is None)
        if nulls:
            raise ConfigError(f"config keys {nulls} are null; leave an "
                              "optional key out instead")
        return cls(**raw)

    @classmethod
    def from_json_file(cls, path: str) -> "ScenarioConfig":
        return cls.from_dict(_read_json_object("config", path))

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
        if self.phase4_sender is not None and not 0 <= self.phase4_sender < self.n_ecus:
            raise ConfigError("phase4_sender must name a unit in [0, n_ecus)")
        # Every protocol message and every forgery takes the next 16-bit
        # fragment sequence number; a wrap would let two sets share one.
        forges = sum(isinstance(entry, dict) and entry.get("action") == "forge"
                     for entry in self.adversary)
        if 2 * self.n_ecus + 1 + forges > MAX_MSG_SEQ:
            raise ConfigError(f"{2 * self.n_ecus + 1} protocol messages and "
                              f"{forges} forgeries exceed the {MAX_MSG_SEQ} "
                              "fragment sequence numbers")
        group = get_group(self.group)
        for entry in self.adversary:
            _adversary_action(entry, group)


def _adversary_action(entry, group: Group):
    """Check one adversary config entry and return its bus action."""
    if not isinstance(entry, dict):
        raise ConfigError("adversary entries must be objects")
    action = entry.get("action")
    if not isinstance(action, str) or action not in _ACTIONS:
        raise ConfigError(f"adversary action must be one of {sorted(_ACTIONS)}")
    cls = _ACTIONS[action]
    settings = {k: v for k, v in entry.items() if k not in ("action", "target")}
    _check_keys(f"{action} adversary", dataclasses.fields(cls)[1:], settings)
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


def _check_latency_profile_name(name: str) -> None:
    """Refuse a name that is neither a preset nor ``custom:<path>``; the
    file behind a custom name is read only by :func:`load_latency_profile`."""
    if name not in LATENCY_PRESETS and not name.startswith("custom:"):
        raise ConfigError(
            f"unknown latency profile {name!r}; presets: {sorted(LATENCY_PRESETS)}")


# Every op the bus charges; a custom profile must time each of them.
_CHARGED_OPS = frozenset().union(*SEND_CHARGES.values(), *RECV_CHARGES.values(),
                                 REFRESH_CHARGE)


def load_latency_profile(name: str) -> tuple[str, dict[str, dict[str, int]]]:
    """Resolve a preset name or ``custom:<path>`` into a latency table."""
    _check_latency_profile_name(name)
    if name in LATENCY_PRESETS:
        return name, LATENCY_PRESETS[name]
    table = _read_json_object("latency profile", name.split(":", 1)[1])
    for node_class in ("secu", "ecu"):
        ops = table.get(node_class)
        if not isinstance(ops, dict):
            raise ConfigError(f"profile must map {node_class!r} to op latencies")
        for op, us in ops.items():
            if isinstance(us, bool) or not isinstance(us, int) or us < 0:
                raise ConfigError(f"latency {node_class}.{op} must be >= 0 us")
        missing = _CHARGED_OPS - set(ops)
        if missing:
            raise ConfigError(
                f"profile {node_class!r} lacks latencies for {sorted(missing)}")
    return name, table


def _forged_body(group: Group, kind: MsgKind, rng: Random) -> bytes:
    if kind is MsgKind.PAIRWISE_CIPHER:
        # Random valid group elements: they decode fine and then fail the
        # decapsulation consistency check.
        return b"".join(
            group.encode_element(group.exp(group.generator, group.random_scalar(rng)))
            for _ in range(2))
    return rng.randbytes(body_length(group, kind))


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


def load_keyfile(path: str, group: Group, n: int) -> list[kem.EcuKeyPair]:
    """Read ``n`` keypairs, each checked by re-deriving its public halves:
    ``x`` and ``y`` must lie in [1, order), and ``u`` and ``v`` must be the
    keyfile text of ``g^x`` and ``g^y``, spelled as :func:`write_keyfile`
    spells them."""
    data = _read_json_object("keyfile", path)
    if data.get("group") != group.name:
        raise ConfigError(
            f"keyfile group {data.get('group')!r} does not match {group.name!r}")
    entries = data.get("keypairs", [])
    if not isinstance(entries, list):
        raise ConfigError("keyfile keypairs must be a list")
    if len(entries) < n:
        raise ConfigError(f"keyfile holds {len(entries)} keypairs, need {n}")
    keypairs = []
    for entry in entries[:n]:
        try:
            ecu_id = entry["ecu_id"]
            x, y = (int(entry[k], 16) for k in "xy")
            u, v = entry["u"], entry["v"]
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"malformed keyfile entry: {exc}") from exc
        if not (0 < x < group.order and 0 < y < group.order):
            raise ConfigError(
                f"keyfile entry {ecu_id} has exponents outside [1, order)")
        pub_key = group.exp(group.generator, x)
        pub_bind = group.exp(group.generator, y)
        if group.element_hex(pub_key) != u or group.element_hex(pub_bind) != v:
            raise ConfigError(
                f"keyfile entry {ecu_id} has inconsistent public values")
        keypairs.append(kem.EcuKeyPair(ecu_id, x, y, pub_key, pub_bind))
    # Unit ids become node and CAN ids: they must be exactly 0..n-1.
    ids = [kp.ecu_id for kp in keypairs]
    if any(type(i) is not int for i in ids) or sorted(ids) != list(range(n)):
        raise ConfigError(f"keyfile unit ids {ids} must be the ints 0..{n - 1}")
    return keypairs


# -- scenario execution -------------------------------------------------------

def _honest_frame_count(group: Group, n: int) -> int:
    per_kind = {
        MsgKind.PAIRWISE_CIPHER: n,
        MsgKind.GROUP_SECRET: n,
        MsgKind.SEED_BROADCAST: 1,
    }
    return sum(count * fragment_count(body_length(group, kind))
               for kind, count in per_kind.items())


def expected_phase_times(group: Group, n: int, latency: dict[str, dict[str, int]],
                         bus: BusConfig) -> dict[str, dict[str, int]]:
    """The ``phase_times`` of an honest run, in closed form.

    Per stage, a max-plus recurrence: the sender charges each message's
    ``SEND_CHARGES`` in turn; a message's frames start once it is ready and
    the previous message has left the bus, and go back to back; the stage
    ends when the last message has been received, after the slowest
    receiver's ``RECV_CHARGES``. The seed reaches the SECU and every unit
    but its sender, so at n = 1 only the SECU's charge counts.
    """
    stages = (("pairwise", "secu", MsgKind.PAIRWISE_CIPHER, n, ("ecu",)),
              ("group_secret", "secu", MsgKind.GROUP_SECRET, n, ("ecu",)),
              ("session", "ecu", MsgKind.SEED_BROADCAST, 1,
               ("secu", "ecu") if n > 1 else ("secu",)))
    times, start = {}, 0
    for name, sender, kind, count, receivers in stages:
        msg = WireMessage(kind, SECU_ID, None, bytes(body_length(group, kind)))
        wire = sum(frame_time_us(f, bus) for f in fragment(msg, 0, 0))
        ready = end = start
        for _ in range(count):
            ready += sum(latency[sender][op] for op in SEND_CHARGES[kind])
            end = max(ready, end) + wire
        end += max(sum(latency[node][op] for op in RECV_CHARGES[kind])
                   for node in receivers)
        times[name] = {"start_us": start, "end_us": end, "elapsed_us": end - start}
        start = end
    return times


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
    profile_name, latency = load_latency_profile(cfg.latency_profile)
    proto_rng = Random(f"canvault:{cfg.rng_seed}:protocol")
    adversary_rng = Random(f"canvault:{cfg.rng_seed}:adversary")

    if cfg.keyfile is not None:
        keypairs = load_keyfile(cfg.keyfile, group, cfg.n_ecus)
    else:
        keypairs = generate_keypairs(group, cfg.n_ecus, cfg.rng_seed)

    secu = Secu(group, [(kp.ecu_id, kp.public) for kp in keypairs])
    ecus = [Ecu(group, kp, ctr_max=cfg.ctr_max,
                replay_cache_size=cfg.replay_cache_size) for kp in keypairs]
    by_id = {e.ecu_id: e for e in ecus}

    net = Network(BusConfig(cfg.bitrate_bps, cfg.frame_overhead_bits), latency)
    net.add_secu(secu)
    for ecu in ecus:
        net.add_ecu(ecu)
    actions = [_adversary_action(entry, group) for entry in cfg.adversary]
    for action in actions:
        if not isinstance(action, ForgeAction):
            net.inject_adversary(action)
    # Forgeries go out once every tamper and replay is registered, so those
    # hit a forgery whichever entry is listed first.
    for action in actions:
        if isinstance(action, ForgeAction):
            body = _forged_body(group, action.kind, adversary_rng)
            net.forge(WireMessage(action.kind, SECU_ID, action.receiver, body),
                      action.at_us)

    phase_times = {}

    def run_stage(name: str, sender_id: int, msgs) -> None:
        start = net.now
        net.schedule_protocol_send(sender_id, msgs)
        end = net.run_to_quiescence()
        phase_times[name] = {"start_us": start, "end_us": end,
                             "elapsed_us": end - start}

    run_stage("pairwise", SECU_ID, secu.run_phase2(proto_rng))
    run_stage("group_secret", SECU_ID, secu.run_phase3(proto_rng))

    sender_id = min(by_id) if cfg.phase4_sender is None else cfg.phase4_sender
    sender = by_id[sender_id]
    stalled = sender.group_secret is None
    if not stalled:
        run_stage("session", sender_id, [sender.run_phase4(proto_rng)])

    for i in range(cfg.post_ticks):
        net.schedule_data_frame(ecus[i % len(ecus)].ecu_id)
    net.run_to_quiescence()

    # -- assemble the report ------------------------------------------------
    report = SimReport(group=cfg.group, n_ecus=cfg.n_ecus, rng_seed=cfg.rng_seed,
                       latency_profile=profile_name)
    report.logical_messages = net.logical_messages
    report.frames = net.frames
    report.data_frames = net.data_frames
    report.phase_times = phase_times
    report.rejections = list(net.rejections)
    report.refresh_events = max(
        (e.session.round_index for e in ecus if e.session is not None), default=0)

    pairwise_ok = all(e.pairwise == secu.pairwise[e.ecu_id] and
                      e.pairwise is not None for e in ecus)
    group_ok = secu.group_secret is not None and \
        all(e.group_secret == secu.group_secret for e in ecus)
    sessions = [e.session for e in ecus]
    session_ok = all(s is not None for s in sessions) and len(
        {(s.session_key, s.round_index) for s in sessions}) == 1
    report.converged = {"pairwise": pairwise_ok, "group_secret": group_ok,
                        "session": session_ok}
    report.partially_keyed = not (pairwise_ok and group_ok and session_ok)

    report.expected_messages = expected_messages(Scheme.OURS, cfg.n_ecus)
    # A tamper flips bits and adds no frames; forgeries and replay copies
    # are sent under the adversary's origin.
    honest_frames = sum(f.kind is not None and f.origin != ADVERSARY_ID
                        for f in net.sent)
    checks = {
        "message_count": net.logical_messages == report.expected_messages,
        "frame_accounting": honest_frames == _honest_frame_count(group, cfg.n_ecus),
        "convergence": not report.partially_keyed or (
            bool(cfg.adversary) and len(net.rejections) > 0),
    }
    report.checks = checks
    report.comparison = comparison_table([cfg.n_ecus])
    report.computation_tally_us = {
        scheme.value: tally
        for scheme in Scheme
        if (tally := computation_tally_us(scheme, latency["secu"])) is not None
    }

    if trace_path is not None:
        net.write_trace_csv(trace_path)
    if stalled:
        raise DeadlockError(f"seed sender ecu{sender_id} holds no group secret; "
                            "the session phase could not start", report=report)
    if not all(checks.values()):
        failed = sorted(name for name, ok in checks.items() if not ok)
        raise RunCheckError(f"run checks failed: {failed}", report=report)
    return report
