"""``channel._sinc2_windows`` as it stood when it evaluated sinc^2 at every
(tone, panel) pair, kept verbatim as the reference that
``test_overlap_reference.py`` requires the shipped quadrature to equal bit
for bit.  Every panel here takes its own (len(shift) x 12) evaluation,
whether or not an earlier tone or panel began at the same point."""

import math

import numpy as np

from crloading.channel import _GL_NODES, _GL_WEIGHTS, _PANELS, _sinc2_tail


def _sinc2_windows(shift, start, width, gain=1.0):
    """``gain`` times the integral of sinc^2 over [x, x + width] for each
    window start x = shift + start (``shift`` an array, the rest scalars).

    The window is split into ceil(width) equal panels, none wider than one
    period of sin^2(pi x), each integrated by a 12-node Gauss-Legendre rule
    one (len(shift) x 12) panel at a time to keep memory small.  A window
    wider than _PANELS periods takes panels only within _PANELS / 2 of the
    main lobe and ``_sinc2_tail`` beyond, so its cost stays bounded.
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
    h = width / panels
    offsets = np.multiply.outer(0.5 * h, _GL_NODES + 1.0)
    total = np.zeros(len(shift))
    for p in range(panels):
        a = shift + (start + p * h)
        total += np.sinc(a[:, None] + offsets) ** 2 @ _GL_WEIGHTS
    return gain * 0.5 * h * total + gain * tails
