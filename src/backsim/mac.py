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

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SlotAssignment:
    """Map from node id to its sub-slot within a frame of length N."""

    frame_length: int
    assignments: dict

    def __post_init__(self):
        if self.frame_length < 1:
            raise ValueError("frame_length must be at least 1")
        for node_id, slot in self.assignments.items():
            if not 0 <= slot < self.frame_length:
                raise ValueError(f"slot {slot} of node {node_id} outside [0, {self.frame_length})")

    def co_slot_mask(self, node_ids):
        """mask[j, i] is true iff nodes j and i transmit in the same sub-slot."""
        missing = [nid for nid in node_ids if nid not in self.assignments]
        if missing:
            raise ValueError(f"nodes {missing} have no slot assignment")
        slots = np.array([self.assignments[nid] for nid in node_ids])
        return slots[:, None] == slots[None, :]


def tdma_schedule(node_ids, frame_length):
    """Pre-assign one slot per node, round-robin in id order; collision-free."""
    ids = sorted(node_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("node ids must be unique")
    if frame_length < len(ids):
        raise ValueError(f"frame of {frame_length} slots cannot hold {len(ids)} nodes")
    return SlotAssignment(frame_length=frame_length,
                          assignments={nid: i for i, nid in enumerate(ids)})


def th_ss_assign(node_ids, frame_length, rng):
    """Each node independently picks one of N sub-slots uniformly at random."""
    ids = list(node_ids)
    if frame_length < 1:
        raise ValueError("frame_length must be at least 1")
    slots = rng.integers(0, frame_length, size=len(ids))
    return SlotAssignment(frame_length=frame_length,
                          assignments={nid: int(s) for nid, s in zip(ids, slots)})


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
    matrix times ``SlotAssignment.co_slot_mask`` so that only co-slot nodes
    count.
    """
    n = gain.shape[-1]
    cross = gain.copy()
    # zero the diagonal: every (n + 1)-th entry of each flattened matrix
    cross.reshape(*gain.shape[:-2], n * n)[..., ::n + 1] = 0.0
    return (emitted_w[..., None, :] @ cross)[..., 0, :]
