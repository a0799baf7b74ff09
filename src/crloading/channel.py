"""Fading channels, PU interference, and spectral-overlap factors.

The SU->PU and SU-link channels are Rayleigh, so their power gains are
exponential.  The spectral-overlap factor of subcarrier i into an adjacent
PU band is the fraction of that subcarrier's (sinc^2-shaped) PSD falling
inside the PU band, attenuated by path loss:

    w = T_s * 10^(-L/10) * integral_{fc-B/2}^{fc+B/2} sinc^2(T_s f) df

with sinc(x) = sin(pi x)/(pi x) and fc the spectral distance between the
subcarrier centre and the PU band centre.  The overlap matrix integrates
it by composite Gauss-Legendre; adaptive Simpson below is the test reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, QuadratureError
from .scenario import ScenarioConfig, SuParams, path_loss_db

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


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


def sample_su_channel(su: SuParams, rng: np.random.Generator) -> ChannelRealization:
    """Draw one Rayleigh realization of the SU link and form the CNIR."""
    gains = rng.exponential(1.0, su.num_subcarriers)
    j = pu_interference_to_su(su)
    cnir = gains * su.su_link_gain / (su.noise_variance + j)
    return ChannelRealization(gains=gains, pu_interference=j, cnir=cnir)


def sample_sp_gain(fading_rate: float, rng: np.random.Generator) -> float:
    """Power gain |H_sp|^2 of one SU->PU channel: exponential with the given
    rate (mean 1/rate)."""
    if fading_rate <= 0:
        raise ConfigError(f"fading rate must be positive, got {fading_rate}")
    return rng.exponential(1.0 / fading_rate)


# ---------------------------------------------------------------------------
# Adaptive Simpson quadrature
# ---------------------------------------------------------------------------


def _sinc2(x):
    if x == 0.0:
        return 1.0
    px = math.pi * x
    s = math.sin(px) / px
    return s * s


def _simpson(f, a, fa, b, fb, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, fa, b, fb, fm, whole, tol, depth, max_depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(f, a, fa, m, fm, flm)
    right = _simpson(f, m, fm, b, fb, frm)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0, abs(err) / 15.0
    if depth >= max_depth:
        # Give up on this panel but report how far we got.
        raise QuadratureError(
            f"adaptive Simpson exceeded depth {max_depth}",
            value=left + right + err / 15.0,
            achieved_tol=abs(err) / 15.0,
        )
    lv, le = _adapt(f, a, fa, m, fm, flm, left, 0.5 * tol, depth + 1, max_depth)
    rv, re = _adapt(f, m, fm, b, fb, frm, right, 0.5 * tol, depth + 1, max_depth)
    return lv + rv, le + re


def adaptive_simpson(f, a, b, rel_tol=1e-10, max_depth=60):
    """Integrate ``f`` over [a, b] to the requested relative tolerance.

    Returns the integral estimate.  The tolerance is interpreted relative to
    a first-pass estimate of the integral magnitude (with a small absolute
    floor so integrals near zero terminate).  Raises ``QuadratureError``
    carrying the partial value and achieved tolerance if the depth budget
    runs out.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    # Seed with a composite pass to get a magnitude scale.  The integrands
    # here oscillate with period ~1, so the seed grid keeps panels below
    # that scale; otherwise the Simpson error estimate can alias on wide
    # windows and accept spuriously.
    npts = int(min(max(16, 2 * math.ceil(b - a)), 1 << 14))
    npts += npts % 2
    xs = np.linspace(a, b, npts + 1)
    fs = [f(x) for x in xs]
    scale = abs(
        (b - a) / npts / 3.0
        * (fs[0] + fs[-1] + 4.0 * sum(fs[1:-1:2]) + 2.0 * sum(fs[2:-2:2]))
    )
    abs_tol = rel_tol * max(scale, 1e-300)
    total = 0.0
    for k in range(0, npts, 2):
        x0, x1, x2 = xs[k], xs[k + 1], xs[k + 2]
        whole = _simpson(f, x0, fs[k], x2, fs[k + 2], fs[k + 1])
        v, _ = _adapt(f, x0, fs[k], x2, fs[k + 2], fs[k + 1], whole,
                      abs_tol * (x2 - x0) / (b - a), 0, max_depth)
        total += v
    return sign * total


def spectral_overlap_factor(center_distance, bandwidth, symbol_duration,
                            loss_db, rel_tol=1e-10):
    """Overlap factor of one subcarrier into one adjacent PU band.

    ``center_distance`` is the spectral distance (Hz) between the subcarrier
    centre and the PU band centre; ``bandwidth`` the PU band width (Hz);
    ``loss_db`` the SU->PU path loss.  Dimensionless, in [0, 10^(-L/10)].
    """
    if bandwidth <= 0:
        raise ConfigError(f"PU bandwidth must be positive, got {bandwidth}")
    ts = symbol_duration
    # Substitute x = T_s f: the factor T_s cancels against dx/T_s.
    lo = ts * (center_distance - 0.5 * bandwidth)
    hi = ts * (center_distance + 0.5 * bandwidth)
    integral = adaptive_simpson(_sinc2, lo, hi, rel_tol=rel_tol)
    return 10.0 ** (-0.1 * loss_db) * integral


def subcarrier_center_frequencies(su: SuParams) -> np.ndarray:
    """Subcarrier centres in Hz measured from the lower SU band edge:
    subcarrier i (0-based) sits at (i + 1/2) * subcarrier_spacing."""
    n = su.num_subcarriers
    return (np.arange(n) + 0.5) * su.subcarrier_spacing


def aci_overlap_matrix(cfg: ScenarioConfig) -> AciFactors:
    """Spectral-overlap factors of every subcarrier into every adjacent PU.

    The adjacent PU band centre sits ``center_offset`` Hz beyond the nearest
    (upper) SU band edge, so subcarrier i (0-based, N total) is
    ``center_offset + (N - i - 1/2) * delta_f`` away from it.  Each window,
    W = T_s * B wide in x = T_s f, is split into ceil(W) equal panels, none
    wider than one period of sin^2(pi x), and integrated by a 12-node
    Gauss-Legendre rule one (N x 12) panel at a time to keep memory small.
    """
    su = cfg.su
    adj = cfg.adjacent_pus()
    n = su.num_subcarriers
    ts = su.symbol_duration
    from_edge = ts * (np.arange(n, 0, -1) - 0.5) * su.subcarrier_spacing
    omega = np.zeros((n, len(adj)))
    for col, pu in enumerate(adj):
        loss = path_loss_db(pu.distance, cfg.path_loss)
        width = ts * pu.bandwidth
        panels = math.ceil(width)
        h = width / panels
        offsets = 0.5 * h * (_GL_NODES + 1.0)
        total = np.zeros(n)
        for p in range(panels):
            a = from_edge + (ts * pu.center_offset - 0.5 * width + p * h)
            total += np.sinc(a[:, None] + offsets) ** 2 @ _GL_WEIGHTS
        omega[:, col] = 10.0 ** (-0.1 * loss) * 0.5 * h * total
    return AciFactors(omega=omega)
