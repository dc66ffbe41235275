"""Multiple access: time-hopping spread spectrum, co-slot masks and interference.

A backscatter node reflects every wave that hits it, so each co-slot tag
contributes a regenerated copy of every carrier it is illuminated by; with
K coexisting links each receiver sees (K - 1) * K first-order interference
components (every one of the K - 1 other tags reflects all K carriers),
quadratic in K instead of the linear count of conventional radios. Only
first-order reflections are modelled: each extra bounce costs another
free-space factor and is numerically negligible at these ranges.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import _check_integers

# Frames per draw block in the TH-SS Monte Carlo: about 1.8 MB of slots and
# comparisons at 50 links.
_FRAME_BLOCK = 1 << 12


def th_ss_assign(shape, frame_length, rng):
    """Slot index per node, each drawn uniformly from ``frame_length`` sub-slots.

    ``shape`` is the node count, or a tuple whose last axis is the nodes and
    whose leading axes index independent frames; a tuple must not be empty.
    """
    _check_integers(1, frame_length=frame_length)
    for size in shape if isinstance(shape, tuple) and shape else (shape,):
        _check_integers(1, shape=size)
    return rng.integers(0, frame_length, size=shape)


def co_slot_mask(slots):
    """mask[..., j, i] is true iff nodes j and i transmit in the same sub-slot."""
    return slots[..., :, None] == slots[..., None, :]


def th_ss_collision_probability(num_links, frame_length):
    """Probability that a given node shares its slot with anyone,
    1 - (1 - 1/N)^(K-1)."""
    _check_integers(1, num_links=num_links, frame_length=frame_length)
    if frame_length == 1:  # log1p(-1) raises; every other link collides
        return float(num_links > 1)
    # expm1 and log1p keep the digits that 1 - (1 - 1/N)^(K-1) cancels (all
    # of them at N = 1e17); 0.0 minus gives +0.0 at K = 1, not -0.0
    return 0.0 - math.expm1((num_links - 1) * math.log1p(-1.0 / frame_length))


def th_ss_collision_rate_mc(num_links, frame_length, trials, rng):
    """Empirical per-node collision frequency over independent frames.

    Frames are drawn ``_FRAME_BLOCK`` at a time, so memory stays bounded at
    any trial count; the blocks continue one ``rng.integers`` stream, and
    the collisions are counted exactly, so the rate does not depend on the
    block size.
    """
    _check_integers(1, num_links=num_links, frame_length=frame_length, trials=trials)
    collisions = 0
    for done in range(0, trials, _FRAME_BLOCK):
        slots = th_ss_assign((min(_FRAME_BLOCK, trials - done), num_links), frame_length, rng)
        collisions += int(np.count_nonzero((slots[:, 1:] == slots[:, :1]).any(axis=1)))
        del slots  # freed before the next block is drawn, so one block is live at a time
    return collisions / trials


def count_interference_components(num_links):
    """First-order interference components per receiver, (K - 1) * K.

    Each of the K - 1 other tags reflects all K carriers. The network-wide
    total is K times this, K^2 * (K - 1).
    """
    _check_integers(1, num_links=num_links)
    num_links = int(num_links)  # a fixed-width numpy integer would wrap
    return (num_links - 1) * num_links


def aggregate_interference(emitted_w, cross_gain):
    """Interference power at every receiver, in watts: ``emitted_w @ cross_gain``.

    ``emitted_w[..., j]`` is the power node j radiates in this slot (the
    beacon carrier reflected off a backscatter tag, the amplifier output of
    a traditional radio, zero for a silent node) and ``cross_gain[..., j, i]``
    the path gain from node j to link i's receiver, with a zero diagonal:
    receiver i sees every node's emission except its own link's. A 1-D
    ``emitted_w`` gives the per-receiver sum and broadcasts over stacked gain
    matrices. Otherwise the rows on axis -2 of ``emitted_w`` are independent
    populations that share one gain matrix, and the axes before them stack
    with those of ``cross_gain``: (T, P, N) emissions against (T, N, N)
    gains make one (P, N) @ (N, N) product per topology. The result is the
    incoherent power sum over j, first-order reflections only. Under TDMA or
    time hopping pass the cross gains times ``co_slot_mask(slots)`` so that
    only co-slot nodes count.
    """
    return emitted_w @ cross_gain
