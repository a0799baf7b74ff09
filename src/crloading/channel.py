"""Fading channels, PU interference, and spectral-overlap factors.

The SU->PU and SU-link channels are Rayleigh, so their power gains are
exponential.  The spectral-overlap factor of subcarrier i into an adjacent
PU band is the fraction of that subcarrier's (sinc^2-shaped) PSD falling
inside the PU band, attenuated by path loss:

    w = T_s * 10^(-L/10) * integral_{fc-B/2}^{fc+B/2} sinc^2(T_s f) df

with sinc(x) = sin(pi x)/(pi x) and fc the spectral distance between the
subcarrier centre and the PU band centre.  ``_sinc2_windows`` integrates
it by one composite Gauss-Legendre rule in stacked panel slabs, evaluating
each distinct panel about once per band; tests check it against the Si form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .scenario import ScenarioConfig, SuParams, path_loss_db

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
# Widest window (sin^2 periods), starts per chunk and table, starts per slab.
_PANELS, _CHUNK, _SLAB = 512, 1 << 14, 1 << 10


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the SU link: per-subcarrier CNIR and its ingredients."""

    gains: np.ndarray           # |H_i|^2, unit-mean exponential
    pu_interference: np.ndarray  # J_i, watts
    cnir: np.ndarray            # C_i = |H_i|^2 g / (sigma^2 + J_i)


@dataclass(frozen=True)
class AciFactors:
    """Spectral-overlap matrix, shape (num_subcarriers, num_adjacent_pus)."""

    omega: np.ndarray


def pu_interference_to_su(su: SuParams) -> np.ndarray:
    """Per-subcarrier PU->SU interference power J (constant unless a vector
    was configured)."""
    j = su.pu_interference
    if isinstance(j, tuple):
        out = np.asarray(j, dtype=float)
    else:
        out = np.full(su.num_subcarriers, float(j))
    if np.count_nonzero(out < 0):
        raise ConfigError("pu_interference must be non-negative")
    return out


def _cnir(su: SuParams, gains, floor) -> np.ndarray:
    """C = |H|^2 g / floor of one row or a block of SU-link gains, where
    floor = sigma^2 + J per tone."""
    return gains * su.su_link_gain / floor


def _sp_mean(fading_rate: float) -> float:
    """Mean 1/rate of an SU->PU power gain; the rate must be positive."""
    if fading_rate <= 0:
        raise ConfigError(f"fading rate must be positive, got {fading_rate}")
    return 1.0 / fading_rate


def sample_su_channel(su: SuParams, rng: np.random.Generator) -> ChannelRealization:
    """Draw one Rayleigh realization of the SU link and form the CNIR."""
    gains = rng.exponential(1.0, su.num_subcarriers)
    j = pu_interference_to_su(su)
    return ChannelRealization(gains=gains, pu_interference=j,
                              cnir=_cnir(su, gains, su.noise_variance + j))


def sample_sp_gain(fading_rate: float, rng: np.random.Generator) -> float:
    """Power gain |H_sp|^2 of one SU->PU channel: exponential with the given
    rate (mean 1/rate)."""
    return rng.exponential(_sp_mean(fading_rate))


def _sinc2_tail(x):
    """Integral of sinc^2 over [x, inf), x >= _PANELS / 2: the sidelobes'
    mean 1/(2 pi^2 t^2) and two terms of their oscillation, to 1e-3 / x^4."""
    z = 2.0 * np.pi * x
    return (1.0 + np.sin(z) / z - np.cos(z) / (np.pi * z * x)) / (np.pi * z)


def _sinc2_windows(shift, start, width, gain=1.0):
    """``gain`` times the integral of sinc^2 over [x, x + width] for each
    window start x = shift + start (``shift`` an array, the rest scalars).

    The window is split into ceil(width) equal panels, none wider than one
    period of sin^2(pi x), each integrated by a 12-node Gauss-Legendre rule
    as one (len(shift) x 12) product, stacked in slabs of about _SLAB
    starts and summed panel by panel.  A window over _PANELS periods takes
    panels only within _PANELS / 2 of the main lobe and ``_sinc2_tail``
    beyond.  Panels repeat on whole-panel tone spacings and in windows
    clipped alike; sinc^2 is evaluated once per distinct (start, h) in a
    chunk of _CHUNK starts (at least two panels) and, with one h, across
    chunks via a carried table; a chunk that repeats no start, its own or a
    carried one, is evaluated directly.
    """
    tails, panels = 0.0, math.ceil(width)
    if width > _PANELS:
        r, lo, hi = 0.5 * _PANELS, shift + start, shift + start + width
        tails = (_sinc2_tail(np.maximum(lo, r))
                 - _sinc2_tail(np.maximum(hi, r))
                 + _sinc2_tail(-np.minimum(hi, -r))
                 - _sinc2_tail(-np.minimum(lo, -r)))
        shift, start = np.clip(lo, -r, r), 0.0
        width = np.clip(hi, -r, r) - shift          # one width per window
        panels = max(math.ceil(width.max()), 1)
    n, h, total = len(shift), width / panels, np.zeros(len(shift))
    offsets = np.multiply.outer(0.5 * np.broadcast_to(h, n), _GL_NODES + 1.0)
    keys, rows = np.empty(0), np.empty((0, 12))     # sorted starts, sinc^2
    step, slab = max(_CHUNK // n, 2), max(_SLAB // n, 1)
    for p in np.split(np.arange(panels)[:, None], range(step, panels, step)):
        m = 0 if keys.size > max(_CHUNK, 2 * n) or np.ndim(h) else keys.size
        ka = np.concatenate([keys[:m], (shift + (start + p * h)).ravel()])
        a, order = ka[m:].reshape(len(p), n), np.argsort(ka, kind="stable")
        new = np.concatenate([[True], np.diff(ka.take(order)) != 0])
        if np.ndim(h):
            new[1:] |= np.diff(np.broadcast_to(h, a.shape).take(order)) != 0
        if not (direct := new.all()):
            head = order[new]
            fresh = head[head >= m] - m
            rows = np.concatenate([rows[:m], *(
                np.sinc(a.take(f)[:, None] + offsets[f % n]) ** 2
                for f in np.split(fresh, range(_SLAB, fresh.size, _SLAB)))
            ])[np.where(head < m, head, m - 1 + np.cumsum(head >= m))]
            keys, idx = ka.take(head), np.empty_like(order)
            idx[order] = np.cumsum(new) - 1
            idx = idx[m:].reshape(a.shape)
        for s in range(0, len(p), slab):
            prod = (np.sinc(a[s:s + slab, :, None] + offsets) ** 2 if direct
                    else rows.take(idx[s:s + slab], axis=0)) @ _GL_WEIGHTS
            total = (np.add.accumulate(np.vstack([total, prod]))[-1]
                     if slab > 8 else sum(prod, total))  # > 8 rows: one call
    return gain * 0.5 * h * total + gain * tails


def aci_overlap_matrix(cfg: ScenarioConfig) -> AciFactors:
    """Spectral-overlap factors of every subcarrier into every adjacent PU.

    The adjacent PU band centre sits ``center_offset`` Hz beyond the nearest
    (upper) SU band edge, so subcarrier i (0-based, N total) is
    ``center_offset + (N - i - 1/2) * delta_f`` away from it; its window is
    W = T_s * B wide in x = T_s f.  A bandwidth that is not finite and
    positive raises ``ConfigError``.
    """
    su = cfg.su
    adj = cfg.adjacent_pus()
    n = su.num_subcarriers
    ts = su.symbol_duration
    from_edge = ts * (np.arange(n, 0, -1) - 0.5) * su.subcarrier_spacing
    omega = np.zeros((n, len(adj)))
    for col, pu in enumerate(adj):
        width = ts * pu.bandwidth
        if not 0.0 < width < math.inf:
            raise ConfigError(f"adjacent PU bandwidth must be finite and "
                              f"positive, got {pu.bandwidth}")
        omega[:, col] = _sinc2_windows(
            from_edge, ts * pu.center_offset - 0.5 * width, width,
            10.0 ** (-0.1 * path_loss_db(pu.distance, cfg.path_loss)))
    return AciFactors(omega=omega)
