"""Scenario configuration: SU link parameters, PU descriptors, path loss.

Everything downstream (caps, solver, experiments) consumes the frozen
dataclasses defined here.  All internal quantities are SI: watts, seconds,
hertz, metres.  The JSON loader accepts power values either as bare numbers
(watts) or as ``{"value": x, "unit": "W"|"mW"|"uW"}`` objects and rejects
unknown keys so that typos fail loudly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

from .errors import ConfigError

_UNIT_SCALE = {"W": 1.0, "mW": 1e-3, "uW": 1e-6, "µW": 1e-6}

# Parameters that `apply_parameter` / the sweep machinery know how to vary.
SWEEPABLE = ("psi", "alpha", "p_cci", "p_aci")


@dataclass(frozen=True)
class SuParams:
    """Secondary-user OFDM link parameters.

    ``ber_threshold`` and ``pu_interference`` may be scalars or per-subcarrier
    tuples of length ``num_subcarriers``.
    """

    num_subcarriers: int
    symbol_duration: float          # T_s, seconds
    subcarrier_spacing: float       # delta-f, Hz
    noise_variance: float           # sigma_n^2, watts
    ber_threshold: float | tuple[float, ...]
    alpha: float = 0.5              # power-vs-rate trade-off weight, in (0, 1)
    power_threshold: float = math.inf   # hard total-power limit P_th, watts
    max_bits: int = 16              # largest constellation exponent b_max
    su_link_gain: float = 1.0       # deterministic SU tx->rx gain multiplier
    pu_interference: float | tuple[float, ...] = 0.0  # J, watts at SU receiver

    @property
    def band_width(self) -> float:
        """Total SU band width in Hz."""
        return self.num_subcarriers * self.subcarrier_spacing


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance path loss model parameters."""

    exponent: float                 # gamma
    wavelength: float               # carrier wavelength, metres
    reference_distance: float       # d_0, metres


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

    kind: str                       # "cochannel" | "adjacent"
    distance: float                 # SU tx -> PU rx, metres
    interference_cap: float         # P_CCI or P_ACI, watts (may be inf)
    probability: float = 0.9        # Psi, in (0, 1]
    fading_rate: float = 1.0        # nu > 0
    bandwidth: float = 0.0          # adjacent only, Hz
    center_offset: float = 0.0      # adjacent only, Hz from nearest SU edge


@dataclass(frozen=True)
class ExperimentParams:
    """Monte Carlo harness knobs."""

    trials: int = 10000
    seed: int = 1234
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


def _reject_unknown(obj, allowed, path):
    unknown = set(obj) - set(allowed)
    if unknown:
        _fail(path, f"unknown key(s): {', '.join(sorted(unknown))}")


def _get_number(obj, key, path, *, required=True, default=None):
    if key not in obj:
        if required:
            _fail(path, f"missing required key '{key}'")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{path}.{key}", f"expected a number, got {v!r}")
    return float(v)


def _parse_power(raw, path, *, allow_inf=True, allow_zero=True):
    """Parse a power field: bare watts, "inf", or {value, unit}."""
    if isinstance(raw, str):
        if raw.lower() in ("inf", "infinity") and allow_inf:
            return math.inf
        _fail(path, f"bad power value {raw!r}")
    if isinstance(raw, dict):
        _reject_unknown(raw, ("value", "unit"), path)
        if "value" not in raw:
            _fail(path, "power object needs a 'value'")
        unit = raw.get("unit", "W")
        if unit not in _UNIT_SCALE:
            _fail(path, f"unknown power unit {unit!r} (use W, mW or uW)")
        inner = raw["value"]
        if isinstance(inner, str):
            if inner.lower() in ("inf", "infinity") and allow_inf:
                return math.inf
            _fail(path, f"bad power value {inner!r}")
        if isinstance(inner, bool) or not isinstance(inner, (int, float)):
            _fail(path, f"bad power value {inner!r}")
        val = float(inner) * _UNIT_SCALE[unit]
    elif isinstance(raw, bool) or not isinstance(raw, (int, float)):
        _fail(path, f"expected a power (number or {{value, unit}}), got {raw!r}")
    else:
        val = float(raw)
    if math.isinf(val) and not allow_inf:
        _fail(path, "infinite power not allowed here")
    if val < 0 or (val == 0 and not allow_zero):
        _fail(path, f"power must be {'non-negative' if allow_zero else 'positive'}")
    return val


def _parse_scalar_or_vector(raw, n, path, check):
    if isinstance(raw, (list, tuple)):
        if len(raw) != n:
            _fail(path, f"vector length {len(raw)} != num_subcarriers {n}")
        vals = []
        for k, v in enumerate(raw):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                _fail(f"{path}[{k}]", f"expected a number, got {v!r}")
            check(float(v), f"{path}[{k}]")
            vals.append(float(v))
        return tuple(vals)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        _fail(path, f"expected number or list, got {raw!r}")
    check(float(raw), path)
    return float(raw)


def _check_ber(v, path):
    if not 0.0 < v < 0.2:
        _fail(path, f"BER threshold must lie in (0, 0.2), got {v}")


def _check_nonneg(v, path):
    if v < 0:
        _fail(path, f"must be non-negative, got {v}")


def _parse_su(obj):
    path = "su"
    if not isinstance(obj, dict):
        _fail(path, "must be an object")
    allowed = (
        "num_subcarriers", "symbol_duration", "subcarrier_spacing",
        "noise_variance", "ber_threshold", "alpha", "power_threshold",
        "max_bits", "su_link_gain", "pu_interference",
    )
    _reject_unknown(obj, allowed, path)

    n_raw = obj.get("num_subcarriers")
    if not isinstance(n_raw, int) or isinstance(n_raw, bool) or n_raw < 1:
        _fail("su.num_subcarriers", f"must be a positive integer, got {n_raw!r}")
    n = n_raw

    ts = _get_number(obj, "symbol_duration", path, required=False)
    df = _get_number(obj, "subcarrier_spacing", path, required=False)
    if ts is None and df is None:
        _fail(path, "need symbol_duration and/or subcarrier_spacing")
    if ts is not None and ts <= 0:
        _fail("su.symbol_duration", "must be positive")
    if df is not None and df <= 0:
        _fail("su.subcarrier_spacing", "must be positive")
    if ts is None:
        ts = 1.0 / df
    elif df is None:
        df = 1.0 / ts
    elif abs(ts * df - 1.0) > 1e-9:
        _fail(path, f"symbol_duration * subcarrier_spacing = {ts * df!r}, "
                    "must equal 1 within 1e-9 relative")

    if "noise_variance" not in obj:
        _fail(path, "missing required key 'noise_variance'")
    sigma2 = _parse_power(obj["noise_variance"], "su.noise_variance",
                          allow_inf=False, allow_zero=False)

    if "ber_threshold" not in obj:
        _fail(path, "missing required key 'ber_threshold'")
    ber = _parse_scalar_or_vector(obj["ber_threshold"], n, "su.ber_threshold",
                                  _check_ber)

    alpha = _get_number(obj, "alpha", path, required=False, default=0.5)
    if not 0.0 < alpha < 1.0:
        _fail("su.alpha", f"must lie strictly inside (0, 1), got {alpha}")

    if "power_threshold" in obj:
        pth = _parse_power(obj["power_threshold"], "su.power_threshold",
                           allow_zero=False)
    else:
        pth = math.inf

    bmax_raw = obj.get("max_bits", 16)
    if not isinstance(bmax_raw, int) or isinstance(bmax_raw, bool) or bmax_raw < 2:
        _fail("su.max_bits", f"must be an integer >= 2, got {bmax_raw!r}")

    gain = _get_number(obj, "su_link_gain", path, required=False, default=1.0)
    if gain <= 0:
        _fail("su.su_link_gain", "must be positive")

    if "pu_interference" in obj:
        raw_j = obj["pu_interference"]
        if isinstance(raw_j, (list, tuple)):
            j = tuple(
                _parse_power(v, f"su.pu_interference[{k}]", allow_inf=False)
                for k, v in enumerate(raw_j)
            )
            if len(j) != n:
                _fail("su.pu_interference",
                      f"vector length {len(j)} != num_subcarriers {n}")
        else:
            j = _parse_power(raw_j, "su.pu_interference", allow_inf=False)
    else:
        j = 0.0

    return SuParams(
        num_subcarriers=n, symbol_duration=ts, subcarrier_spacing=df,
        noise_variance=sigma2, ber_threshold=ber, alpha=alpha,
        power_threshold=pth, max_bits=bmax_raw, su_link_gain=gain,
        pu_interference=j,
    )


def _parse_path_loss(obj):
    path = "path_loss"
    if not isinstance(obj, dict):
        _fail(path, "must be an object")
    _reject_unknown(obj, ("exponent", "wavelength", "reference_distance"), path)
    gamma = _get_number(obj, "exponent", path)
    wl = _get_number(obj, "wavelength", path)
    d0 = _get_number(obj, "reference_distance", path)
    if gamma <= 0:
        _fail("path_loss.exponent", "must be positive")
    if wl <= 0:
        _fail("path_loss.wavelength", "must be positive")
    if d0 <= 0:
        _fail("path_loss.reference_distance", "must be positive")
    return PathLossParams(exponent=gamma, wavelength=wl, reference_distance=d0)


def _parse_pu(obj, idx):
    path = f"pus[{idx}]"
    if not isinstance(obj, dict):
        _fail(path, "must be an object")
    kind = obj.get("kind")
    if kind not in ("cochannel", "adjacent"):
        _fail(f"{path}.kind", f"must be 'cochannel' or 'adjacent', got {kind!r}")
    common = ("kind", "distance", "interference_cap", "probability",
              "fading_rate")
    if kind == "adjacent":
        _reject_unknown(obj, common + ("bandwidth", "center_offset"), path)
    else:
        _reject_unknown(obj, common, path)

    d = _get_number(obj, "distance", path)
    if d <= 0:
        _fail(f"{path}.distance", "must be positive")
    if "interference_cap" not in obj:
        _fail(path, "missing required key 'interference_cap'")
    cap = _parse_power(obj["interference_cap"], f"{path}.interference_cap")
    psi = _get_number(obj, "probability", path, required=False, default=0.9)
    if not 0.0 < psi <= 1.0:
        _fail(f"{path}.probability", f"must lie in (0, 1], got {psi}")
    nu = _get_number(obj, "fading_rate", path, required=False, default=1.0)
    if nu <= 0:
        _fail(f"{path}.fading_rate", "must be positive")

    bw = off = 0.0
    if kind == "adjacent":
        bw = _get_number(obj, "bandwidth", path)
        if bw <= 0:
            _fail(f"{path}.bandwidth", "must be positive")
        off = _get_number(obj, "center_offset", path, required=False,
                          default=0.0)
        _check_nonneg(off, f"{path}.center_offset")

    return PuDescriptor(kind=kind, distance=d, interference_cap=cap,
                        probability=psi, fading_rate=nu, bandwidth=bw,
                        center_offset=off)


def _parse_experiment(obj):
    path = "experiment"
    if obj is None:
        return ExperimentParams()
    if not isinstance(obj, dict):
        _fail(path, "must be an object")
    _reject_unknown(obj, ("trials", "seed", "sweep"), path)
    trials = obj.get("trials", 10000)
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        _fail("experiment.trials", f"must be a positive integer, got {trials!r}")
    seed = obj.get("seed", 1234)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        _fail("experiment.seed", f"must be a non-negative integer, got {seed!r}")
    sweep_param = None
    sweep_values = None
    if "sweep" in obj and obj["sweep"] is not None:
        sw = obj["sweep"]
        if not isinstance(sw, dict):
            _fail("experiment.sweep", "must be an object")
        _reject_unknown(sw, ("param", "values"), "experiment.sweep")
        sweep_param = sw.get("param")
        if sweep_param not in SWEEPABLE:
            _fail("experiment.sweep.param",
                  f"must be one of {SWEEPABLE}, got {sweep_param!r}")
        vals = sw.get("values")
        if not isinstance(vals, list) or not vals:
            _fail("experiment.sweep.values", "must be a non-empty list")
        parsed = []
        for k, v in enumerate(vals):
            if isinstance(v, str) and v.lower() in ("inf", "infinity"):
                parsed.append(math.inf)
            elif isinstance(v, bool) or not isinstance(v, (int, float)):
                _fail(f"experiment.sweep.values[{k}]",
                      f"expected a number, got {v!r}")
            else:
                parsed.append(float(v))
        sweep_values = tuple(parsed)
    return ExperimentParams(trials=trials, seed=seed, sweep_param=sweep_param,
                            sweep_values=sweep_values)


def load_scenario(source) -> ScenarioConfig:
    """Load and validate a scenario from a dict, JSON text, or file path."""
    if isinstance(source, dict):
        data = source
    else:
        if hasattr(source, "read"):
            text = source.read()
        elif isinstance(source, (str, os.PathLike)):
            s = os.fspath(source)
            if s.lstrip().startswith("{"):
                text = s
            else:
                try:
                    with open(s) as fh:
                        text = fh.read()
                except OSError as exc:
                    raise ConfigError(f"cannot read config file {s!r}: {exc}")
        else:
            raise ConfigError(f"cannot load a scenario from {type(source)}")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    _reject_unknown(data, ("su", "path_loss", "pus", "experiment"), "config")
    if "su" not in data:
        _fail("config", "missing required section 'su'")
    if "path_loss" not in data:
        _fail("config", "missing required section 'path_loss'")
    su = _parse_su(data["su"])
    pl = _parse_path_loss(data["path_loss"])
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
    """
    value = float(value)
    if param == "alpha":
        if not 0.0 < value < 1.0:
            raise ConfigError(f"alpha sweep value {value} outside (0, 1)")
        return replace(cfg, su=replace(cfg.su, alpha=value))
    if param == "psi":
        if not 0.0 < value <= 1.0:
            raise ConfigError(f"psi sweep value {value} outside (0, 1]")
        pus = tuple(replace(p, probability=value) for p in cfg.pus)
        return replace(cfg, pus=pus)
    if param in ("p_cci", "p_aci"):
        if value < 0:
            raise ConfigError(f"{param} sweep value must be non-negative")
        kind = "cochannel" if param == "p_cci" else "adjacent"
        pus = tuple(
            replace(p, interference_cap=value) if p.kind == kind else p
            for p in cfg.pus
        )
        return replace(cfg, pus=pus)
    raise ConfigError(f"unknown sweep parameter {param!r}; "
                      f"choose from {SWEEPABLE}")
