"""The scheme's hard-decision channel is a discrete wiretap MAC.

With V_k uniform on [-Q, Q], the receiver's hard decision Y (the decision
cell of the M sorted received points) and the eavesdropper's binned output
Z_b, the integer-constellation scheme on the Gaussian MAC is itself a
finite-alphabet wiretap MAC with U_k = X_k = V_k.  Its table goes to
``achievable_region`` unchanged, so the paper's region theorem for the
discrete memoryless MAC is evaluated on its own Gaussian scheme with no
seed (Tekin and Yener, IEEE Trans. IT 54(6), 2008, for the Gaussian wiretap
MAC region).

- P(y = j | v) = Phi((b_{j+1} - x_v)/sd) - Phi((b_j - x_v)/sd), with b the
  midpoints of the points (open at both ends) and x_v the point of tuple v;
- P(z_b | v) depends on v only through S = sum v (alignment): the
  eavesdropper sees A * S plus noise, in bins sd/2 wide over
  [-A K Q - 8 sd, A K Q + 8 sd] with open end bins;
- the two noises are independent, so P(y, z_b | v) is their product.

The channel tables of the three configs below hold 220,000, 6,804 and
476,766 cells, well inside ``JOINT_TABLE_CAP``.
"""

import math

import numpy as np
import pytest

from secmac.channel import ChannelGains, normalize_gains
from secmac.constellation import mixed_radix_digits
from secmac.secrecy import (
    DiscreteMACSpec,
    achievable_region,
    composition_counts,
    mutual_information,
    sum_entropy,
)
from secmac.simulate import SimConfig, _grid_point
from test_simulate import exact_leakage_bits, exact_symbol_error

S2, S3 = math.sqrt(2), math.sqrt(3)

phi = np.vectorize(lambda x: 0.5 * math.erfc(-x / math.sqrt(2)))  # standard normal CDF


def cell_probabilities(edges, centres, sd):
    """P(cell | centre) for Gaussian noise of deviation ``sd`` around each
    centre, over the cells between consecutive ``edges``; shape
    (centres, cells)."""
    return np.diff(phi((edges[None, :] - centres[:, None]) / sd), axis=1)


def hard_decision_channel(K, h, P, variance):
    """The scheme at one grid point (epsilon 0.5, h_e all ones) as a
    discrete wiretap MAC: (Q, A, rc, pos, p_y, p_z, p_z_s, spec), with
    ``pos`` the rank of each mixed-radix tuple's point, ``p_y`` the (tuple,
    cell) decision table, and ``p_z`` and ``p_z_s`` the eavesdropper's
    (tuple, bin) and (sum, bin) tables."""
    gains = ChannelGains(h=h, h_e=(1.0,) * K)
    cfg = SimConfig(K=K, epsilon=0.5, P_grid=(P,), h=h, h_e=gains.h_e, variance=variance)
    g = normalize_gains(gains)
    _, Q, rc, A = _grid_point(cfg, gains, g, P)
    M, sd = (2 * Q + 1) ** K, math.sqrt(variance)
    assert rc.gamma_holds and rc.points.size == M
    tuples = mixed_radix_digits(np.arange(M), K, Q)
    pos = np.empty(M, dtype=np.int64)
    pos[rc.index] = np.arange(M)  # tuples in mixed-radix order -> their point's rank
    # each tuple's point is its own received value A * sum g_k v_k
    assert np.allclose(rc.points[pos], A * g.scale * (tuples @ g.as_floats()), rtol=1e-12, atol=0)
    cells = np.concatenate(([-math.inf], (rc.points[1:] + rc.points[:-1]) / 2, [math.inf]))
    p_y = cell_probabilities(cells, rc.points[pos], sd)

    width, reach = sd / 2, A * K * Q + 8 * sd
    bins = width * np.arange(math.floor(-reach / width), math.ceil(reach / width) + 1)
    bins[0], bins[-1] = -math.inf, math.inf
    p_z_s = cell_probabilities(bins, A * np.arange(-K * Q, K * Q + 1), sd)
    p_z = p_z_s[tuples.sum(axis=1) + K * Q]

    channel = (p_y[:, :, None] * p_z[:, None, :]).reshape((2 * Q + 1,) * K + (M, -1))
    uniform, identity = np.full(2 * Q + 1, 1 / (2 * Q + 1)), np.eye(2 * Q + 1)
    spec = DiscreteMACSpec(K=K, p_u=(uniform,) * K, p_x_given_u=(identity,) * K,
                           p_yz_given_x=channel)
    return Q, A, rc, pos, p_y, p_z, p_z_s, spec


# (K, h, P, variance, secrecy sum bound in bits)
CONFIGS = [
    (2, (S2, 1.0), 1e4, 4.0, 1.5093),
    (2, (S2, 1.0), 1e2, 1.0, 0.4826),  # low SNR
    (3, (S2, S3, 1.0), 1e4, 1.0, 2.1440),
]
IDS = ["k2-p1e4-var4", "k2-p1e2-var1", "k3-p1e4-var1"]


@pytest.mark.parametrize("K,h,P,variance,sum_bound", CONFIGS, ids=IDS)
def test_region_of_the_hard_decision_channel(K, h, P, variance, sum_bound):
    Q, A, rc, pos, p_y, p_z, p_z_s, spec = hard_decision_channel(K, h, P, variance)
    M = (2 * Q + 1) ** K

    # the eavesdropper's output depends on the tuple only through its sum
    p_s = np.array(composition_counts(K, Q), dtype=float) / M
    i_vz = mutual_information(p_z / M)
    assert abs(i_vz - mutual_information(p_s[:, None] * p_z_s)) <= 1e-12
    assert i_vz <= sum_entropy(K, Q) + 1e-12
    assert abs(i_vz - exact_leakage_bits(K, Q, A, variance, math.sqrt(variance) / 2)) <= 1e-9

    # the hard decision's error is nearest-point decoding's exact P_e
    p_correct = p_y[np.arange(M), pos].sum() / M
    assert abs(1 - p_correct - exact_symbol_error(rc.points, variance)) <= 1e-12

    region = achievable_region(spec)
    assert abs(region.sum_bound - (mutual_information(p_y / M) - i_vz)) <= 1e-9
    assert abs(region.sum_bound - sum_bound) <= 1e-4
    if K == 3:  # the decision recovers V_S given V_{S^c}: each bound is H(V_S)
        for mask, bound in region.constraints:
            assert abs(bound - bin(mask).count("1") * math.log2(2 * Q + 1)) <= 1e-9, mask
