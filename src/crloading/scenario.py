"""Scenario configuration: SU link parameters, PU descriptors, path loss.

Everything downstream (caps, solver, experiments) consumes the frozen
dataclasses defined here.  All internal quantities are SI: watts, seconds,
hertz, metres.  The JSON loader accepts power values either as bare numbers
(watts) or as ``{"value": x, "unit": "W"|"mW"|"uW"}`` objects and rejects
unknown keys so that typos fail loudly.  Each field's rule is written once,
in its ``_spec``; only the rules that tie fields together are hand-written.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace

from .errors import ConfigError

_UNIT_SCALE = {"W": 1.0, "mW": 1e-3, "uW": 1e-6, "µW": 1e-6}
# b bits cost (2^b - 1) * -ln(5 BER) / (1.6 C), finite at C = 1 to b = 1014
# as -ln(5 BER) <= 743; 2^32 tones or trials fit numpy's array size limit.
_MAX_BITS, _MAX_COUNT = 1014, 1 << 32

# Parameters that `apply_parameter` / the sweep machinery know how to vary,
# each with the field it sets in the SU ("su"), the PUs of one kind or all.
_SWEEP = {"psi": ("probability", None), "alpha": ("alpha", "su"),
          "p_cci": ("interference_cap", "cochannel"),
          "p_aci": ("interference_cap", "adjacent")}
SWEEPABLE = tuple(_SWEEP)


class _Bad(ValueError):
    """A JSON value that breaks its field's spec (the caller adds the path)."""


def _unknown(obj, allowed):
    """The message for the keys of ``obj`` outside the set ``allowed``."""
    return f"unknown key(s): {', '.join(sorted(obj.keys() - allowed))}"


def _number(raw):
    """A JSON number, or "inf", as a float; never NaN."""
    if isinstance(raw, float) or (isinstance(raw, int)
                                  and type(raw) is not bool):
        if raw == raw:
            try:
                return float(raw)
            except OverflowError:
                raise _Bad("number too large for a float") from None
    elif isinstance(raw, str) and raw.lower() in ("inf", "infinity"):
        return math.inf
    raise _Bad(f"expected a number, got {raw!r}")


def _power(raw):
    """Watts from a bare number or a ``{"value": x, "unit": u}`` object."""
    scale = 1.0
    if isinstance(raw, dict):
        if not {"value", "unit"}.issuperset(raw):
            raise _Bad(_unknown(raw, {"value", "unit"}))
        if "value" not in raw:
            raise _Bad("power object needs a 'value'")
        unit = raw.get("unit", "W")
        scale = _UNIT_SCALE.get(unit) if isinstance(unit, str) else None
        if scale is None:
            raise _Bad(f"unknown power unit {unit!r} (use W, mW or uW)")
        raw = raw["value"]
    return _number(raw) * scale


def _spec(kind, ok, msg, tones=False, **default):
    """A config field: ``kind`` reads its JSON value (as is if None; a list
    of them, one per tone, if ``tones``), which must pass ``ok`` or fail
    with ``msg``.  ``default`` is the dataclass default, if any."""
    def read(raw):
        v = raw if kind is None else kind(raw)
        if ok(v):
            return v
        raise _Bad(f"{msg}, got {v!r}")

    def read_tones(raw):
        if isinstance(raw, (list, tuple)):
            return tuple(map(read, raw))
        return read(raw)
    return field(metadata={"read": read_tones if tones else read}, **default)


def _positive(**default):
    return _spec(_number, lambda v: 0 < v < math.inf,
                 "must be finite and positive", **default)


def _count(low, msg, high=math.inf, **default):
    return _spec(None, lambda n: type(n) is int and low <= n <= high,
                 f"{msg}, at most {high}" if high < math.inf else msg,
                 **default)


@dataclass(frozen=True)
class SuParams:
    """Secondary-user OFDM link parameters.

    ``ber_threshold`` and ``pu_interference`` may be scalars or per-subcarrier
    tuples of length ``num_subcarriers``.
    """

    num_subcarriers: int = _count(1, "must be a positive integer", _MAX_COUNT)
    symbol_duration: float = _positive()        # T_s, seconds
    subcarrier_spacing: float = _positive()     # delta-f, Hz
    noise_variance: float = _spec(              # sigma_n^2, watts
        _power, lambda p: 0 < p < math.inf, "power must be finite and positive")
    ber_threshold: float | tuple[float, ...] = _spec(
        _number, lambda b: 0.0 < b < 0.2, "BER threshold must lie in (0, 0.2)",
        tones=True)
    alpha: float = _spec(               # power-vs-rate trade-off weight
        _number, lambda a: 0.0 < a < 1.0, "must lie strictly inside (0, 1)",
        default=0.5)
    power_threshold: float = _spec(     # hard total-power limit P_th, watts
        _power, lambda p: p > 0, "power must be positive", default=math.inf)
    # largest constellation exponent b_max
    max_bits: int = _count(2, "must be an integer >= 2", _MAX_BITS, default=16)
    su_link_gain: float = _positive(default=1.0)  # SU tx->rx gain multiplier
    pu_interference: float | tuple[float, ...] = _spec(  # J, watts at SU rx
        _power, lambda p: 0 <= p < math.inf,
        "power must be finite and non-negative", tones=True, default=0.0)


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance path loss model parameters."""

    exponent: float = _positive()               # gamma
    wavelength: float = _positive()             # carrier wavelength, metres
    reference_distance: float = _positive()     # d_0, metres


@dataclass(frozen=True)
class PuDescriptor:
    """One primary user: either co-channel or spectrally adjacent.

    ``probability`` is the confidence level the statistical interference
    constraint must hold with; ``fading_rate`` is the rate (inverse mean) of
    the exponential power gain of the SU->PU fading channel.
    ``bandwidth``/``center_offset`` describe the occupied band of an adjacent
    PU; the offset is measured from the nearest SU band edge to the PU band
    centre.
    """

    kind: str = _spec(None, lambda k: k in ("cochannel", "adjacent"),
                      "must be 'cochannel' or 'adjacent'")
    distance: float = _positive()       # SU tx -> PU rx, metres
    interference_cap: float = _spec(    # P_CCI or P_ACI, watts (may be inf)
        _power, lambda p: p >= 0, "power must be non-negative")
    probability: float = _spec(         # Psi
        _number, lambda p: 0.0 < p <= 1.0, "must lie in (0, 1]", default=0.9)
    fading_rate: float = _positive(default=1.0)     # nu
    bandwidth: float = _positive(default=0.0)       # adjacent only, Hz
    center_offset: float = _spec(       # adjacent only, Hz from nearest SU edge
        _number, lambda f: 0 <= f < math.inf, "must be finite and non-negative",
        default=0.0)


@dataclass(frozen=True)
class ExperimentParams:
    """Monte Carlo harness knobs."""

    trials: int = _count(1, "must be a positive integer", _MAX_COUNT,
                         default=10000)
    seed: int = _count(0, "must be a non-negative integer", default=1234)
    sweep_param: str | None = None
    sweep_values: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    su: SuParams
    path_loss: PathLossParams
    pus: tuple[PuDescriptor, ...] = ()
    experiment: ExperimentParams = field(default_factory=ExperimentParams)

    def cochannel_pus(self) -> tuple[PuDescriptor, ...]:
        return tuple(p for p in self.pus if p.kind == "cochannel")

    def adjacent_pus(self) -> tuple[PuDescriptor, ...]:
        return tuple(p for p in self.pus if p.kind == "adjacent")


def path_loss_db(distance, params: PathLossParams) -> float:
    """Log-distance path loss in dB at ``distance`` metres.

    L(d) = 20 log10(4 pi d_0 / wavelength) + 10 gamma log10(d / d_0),
    valid only at or beyond the reference distance d_0.
    """
    d0 = params.reference_distance
    if distance < d0:
        raise ConfigError(
            f"path loss undefined below the reference distance: "
            f"d={distance} < d_0={d0}"
        )
    l0 = 20.0 * math.log10(4.0 * math.pi * d0 / params.wavelength)
    return l0 + 10.0 * params.exponent * math.log10(distance / d0)


# ---------------------------------------------------------------------------
# JSON loading
# ---------------------------------------------------------------------------


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _object(obj, allowed, path):
    """Fail unless ``obj`` is a JSON object with keys only from ``allowed``."""
    if not isinstance(obj, dict):
        _fail(path, "must be an object")
    if not allowed.issuperset(obj):
        _fail(path, _unknown(obj, allowed))


def _table(cls, drop=(), need=(), free=(), extra=()):
    """(name, read, required) of the spec'd fields of ``cls`` but ``drop``,
    and the keys its section may hold (those and ``extra``)."""
    table = tuple(
        (f.name, f.metadata["read"],
         f.name in need or (f.default is MISSING and f.name not in free))
        for f in fields(cls) if "read" in f.metadata and f.name not in drop)
    return table, {name for name, _, _ in table}.union(extra)


def _read(section, obj, path):
    """The fields of ``section`` (a ``_table``) that the JSON object ``obj``
    gives, each read by its spec."""
    table, allowed = section
    _object(obj, allowed, path)
    out = {}
    for name, read, required in table:
        if name in obj:
            try:
                out[name] = read(obj[name])
            except _Bad as exc:
                _fail(f"{path}.{name}", exc)
        elif required:
            _fail(path, f"missing required key '{name}'")
    return out


# Either of T_s and delta-f may be given: _parse_su derives the other.
_SU = _table(SuParams, free=("symbol_duration", "subcarrier_spacing"))
_PATH_LOSS = _table(PathLossParams)
# A PU's kind selects its fields: only an adjacent PU has a band.
_COCHANNEL = _table(PuDescriptor, drop=("bandwidth", "center_offset"))
_ADJACENT = _table(PuDescriptor, need=("bandwidth",))
_EXPERIMENT = _table(ExperimentParams, extra=("sweep",))
_READ = {name: read for t, _ in (_SU, _ADJACENT) for name, read, _ in t}


def _parse_su(obj):
    v = _read(_SU, obj, "su")
    ts, df = v.get("symbol_duration"), v.get("subcarrier_spacing")
    if ts is None and df is None:
        _fail("su", "need symbol_duration and/or subcarrier_spacing")
    if ts is None:
        v["symbol_duration"] = 1.0 / df
    elif df is None:
        v["subcarrier_spacing"] = 1.0 / ts
    elif abs(ts * df - 1.0) > 1e-9:
        _fail("su", f"symbol_duration * subcarrier_spacing = {ts * df!r}, "
                    "must equal 1 within 1e-9 relative")
    n = v["num_subcarriers"]
    for name in ("ber_threshold", "pu_interference"):
        if isinstance(v.get(name), tuple) and len(v[name]) != n:
            _fail(f"su.{name}",
                  f"vector length {len(v[name])} != num_subcarriers {n}")
    return SuParams(**v)


def _parse_pu(obj, idx):
    cochannel = isinstance(obj, dict) and obj.get("kind") == "cochannel"
    return PuDescriptor(**_read(_COCHANNEL if cochannel else _ADJACENT, obj,
                                f"pus[{idx}]"))


def _parse_experiment(obj):
    if obj is None:
        return ExperimentParams()
    v = _read(_EXPERIMENT, obj, "experiment")
    sw = obj.get("sweep")
    if sw is not None:
        path = "experiment.sweep"
        _object(sw, {"param", "values"}, path)
        param = sw.get("param")
        if param not in SWEEPABLE:
            _fail(f"{path}.param",
                  f"must be one of {SWEEPABLE}, got {param!r}")
        vals = sw.get("values")
        if not isinstance(vals, list) or not vals:
            _fail(f"{path}.values", "must be a non-empty list")
        read, parsed = _READ[_SWEEP[param][0]], []
        for k, raw in enumerate(vals):
            try:
                parsed.append(read(_number(raw)))
            except _Bad as exc:
                _fail(f"{path}.values[{k}]", exc)
        v.update(sweep_param=param, sweep_values=tuple(parsed))
    return ExperimentParams(**v)


def load_scenario(source) -> ScenarioConfig:
    """Load and validate a scenario from a dict or a JSON file's path."""
    if isinstance(source, dict):
        data = source
    elif isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}")
        except ValueError as exc:   # also an integer past Python's digit cap
            raise ConfigError(f"config is not valid JSON: {exc}")
    else:
        raise ConfigError(f"cannot load a scenario from {type(source)}")
    _object(data, {"su", "path_loss", "pus", "experiment"}, "config")
    for section in ("su", "path_loss"):
        if section not in data:
            _fail("config", f"missing required section '{section}'")
    su = _parse_su(data["su"])
    pl = PathLossParams(**_read(_PATH_LOSS, data["path_loss"], "path_loss"))
    raw_pus = data.get("pus", [])
    if not isinstance(raw_pus, list):
        _fail("pus", "must be an array")
    pus = tuple(_parse_pu(p, i) for i, p in enumerate(raw_pus))
    exp = _parse_experiment(data.get("experiment"))
    return ScenarioConfig(su=su, path_loss=pl, pus=pus, experiment=exp)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


def apply_parameter(cfg: ScenarioConfig, param: str, value) -> ScenarioConfig:
    """Return a copy of ``cfg`` with one sweepable parameter replaced.

    psi    -> confidence level of every PU constraint
    alpha  -> SU power-vs-rate weight
    p_cci  -> interference cap (watts) of every co-channel PU
    p_aci  -> interference cap (watts) of every adjacent PU
    ``value`` must pass the spec of the field it sets, as in a config file,
    and a PU parameter needs a PU it applies to (``ConfigError`` otherwise).
    """
    if param not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter {param!r}; "
                          f"choose from {SWEEPABLE}")
    name, owner = _SWEEP[param]
    value = float(value)
    try:
        value = _READ[name](value)
    except _Bad as exc:
        _fail(f"{param} sweep value {value}", exc)
    if owner == "su":
        return replace(cfg, su=replace(cfg.su, **{name: value}))
    if not any(owner in (None, p.kind) for p in cfg.pus):
        raise ConfigError(f"{param} sets nothing: the config has no PU it "
                          "applies to")
    pus = tuple(replace(p, **{name: value}) if owner in (None, p.kind) else p
                for p in cfg.pus)
    return replace(cfg, pus=pus)
