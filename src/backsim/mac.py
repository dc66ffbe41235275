"""Multiple access: TDMA, time-hopping spread spectrum and interference.

A backscatter node reflects every wave that hits it, so each co-slot tag
contributes a regenerated copy of every carrier it is illuminated by; with
K coexisting links each receiver sees (K - 1) * K first-order interference
components (every one of the K - 1 other tags reflects all K carriers),
quadratic in K instead of the linear count of conventional radios. Only
first-order reflections are modelled: each extra bounce costs another
free-space factor and is numerically negligible at these ranges.
"""

from __future__ import annotations

import numpy as np


def tdma_schedule(num_nodes, frame_length):
    """Slot index per node: round-robin in node order, so collision-free."""
    if frame_length < num_nodes:
        raise ValueError(f"frame of {frame_length} slots cannot hold {num_nodes} nodes")
    return np.arange(num_nodes)


def th_ss_assign(shape, frame_length, rng):
    """Slot index per node, each drawn uniformly from ``frame_length`` sub-slots.

    ``shape`` is the node count, or a tuple whose last axis is the nodes and
    whose leading axes index independent frames.
    """
    if frame_length < 1:
        raise ValueError("frame_length must be at least 1")
    return rng.integers(0, frame_length, size=shape)


def co_slot_mask(slots):
    """mask[..., j, i] is true iff nodes j and i transmit in the same sub-slot."""
    return slots[..., :, None] == slots[..., None, :]


def th_ss_collision_probability(num_links, frame_length):
    """Probability that a given node shares its slot with anyone,
    1 - (1 - 1/N)^(K-1)."""
    if num_links < 1:
        raise ValueError("need at least one link")
    if frame_length < 1:
        raise ValueError("frame_length must be at least 1")
    return 1.0 - (1.0 - 1.0 / frame_length) ** (num_links - 1)


def th_ss_collision_rate_mc(num_links, frame_length, trials, rng):
    """Empirical per-node collision frequency over independent frames."""
    if trials < 1:
        raise ValueError("need at least one trial")
    slots = rng.integers(0, frame_length, size=(trials, num_links))
    collided = (slots[:, 1:] == slots[:, :1]).any(axis=1)
    return float(collided.mean())


def count_interference_components(num_links):
    """First-order interference components per receiver, (K - 1) * K.

    Each of the K - 1 other tags reflects all K carriers. The network-wide
    total is K times this, K^2 * (K - 1).
    """
    if num_links < 1:
        raise ValueError("need at least one coexisting link")
    return (num_links - 1) * num_links


def aggregate_interference(emitted_w, gain):
    """Interference power at every receiver, in watts.

    ``emitted_w[..., j]`` is the power node j radiates in this slot (the
    beacon carrier reflected off a backscatter tag, the amplifier output of
    a traditional radio, zero for a silent node) and ``gain[..., j, i]`` the
    path gain from node j to link i's receiver; leading axes index
    independent populations and broadcast. Receiver i sees every node's
    emission except its own link's: incoherent power sum over j != i,
    first-order reflections only. Under TDMA or time hopping pass the gain
    matrix times ``co_slot_mask(slots)`` so that only co-slot nodes
    count.
    """
    n = gain.shape[-1]
    cross = gain.copy()
    # zero the diagonal: every (n + 1)-th entry of each flattened matrix
    cross.reshape(*gain.shape[:-2], n * n)[..., ::n + 1] = 0.0
    return (emitted_w[..., None, :] @ cross)[..., 0, :]
