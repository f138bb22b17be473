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

Past the table, the scheme's rate I(V;Y) - I(S;Z) takes M times a band of
cells for I(V;Y) and a Gauss-Hermite rule over the 2KQ+1 sums for the
leakage of the unbinned Z, so it reaches M = 100,489 tuples with no seed.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from secmac.channel import ChannelGains, normalize_gains
from secmac.constellation import mixed_radix_digits
from secmac.secrecy import (
    DiscreteMACSpec,
    achievable_region,
    composition_counts,
    mutual_information,
    sum_entropy,
)
from secmac.simulate import SimConfig, _constellation, _grid_point
from test_simulate import exact_leakage_bits, exact_symbol_error

S2, S3 = math.sqrt(2), math.sqrt(3)

phi = np.vectorize(lambda x: 0.5 * math.erfc(-x / math.sqrt(2)))  # standard normal CDF


def cell_probabilities(edges, centres, sd):
    """P(cell | centre) for Gaussian noise of deviation ``sd`` around each
    centre, over the cells between consecutive ``edges``; shape
    (centres, cells)."""
    return np.diff(phi((edges[None, :] - centres[:, None]) / sd), axis=1)


def grid_point(K, h, P, index=True):
    """(Q, A, rc, g) of the scheme at one grid point (epsilon 0.5, h_e all
    ones), with g the normalised gains."""
    gains = ChannelGains(h=h, h_e=(1.0,) * K)
    g = normalize_gains(gains)
    cfg = SimConfig(K=K, epsilon=0.5, P_grid=(P,), h=h, h_e=gains.h_e)
    point = _grid_point(cfg, gains, P)
    return point.Q, point.A, _constellation(g, point, index=index), g


def hard_decision_channel(K, h, P, variance):
    """The scheme at one grid point (epsilon 0.5, h_e all ones) as a
    discrete wiretap MAC: (Q, A, rc, pos, p_y, p_z, p_z_s, spec), with
    ``pos`` the rank of each mixed-radix tuple's point, ``p_y`` the (tuple,
    cell) decision table, and ``p_z`` and ``p_z_s`` the eavesdropper's
    (tuple, bin) and (sum, bin) tables."""
    Q, A, rc, g = grid_point(K, h, P)
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


def decision_information(points, variance, band=9.0):
    """I(V;Y) in bits for a uniform point of the sorted, distinct ``points``
    and its hard decision Y (the cells cut at the midpoints), keeping for each
    point only the cells that reach within ``band`` deviations of it."""
    M, sd = points.size, math.sqrt(variance)
    mids = (points[1:] + points[:-1]) / 2
    edges = np.concatenate(([-math.inf], mids, [math.inf]))
    lo = np.searchsorted(mids, points - band * sd)  # first and last cell of each band
    hi = np.searchsorted(mids, points + band * sd, side="right")
    n = hi - lo + 2  # edges per band
    ends = np.cumsum(n)
    edge = np.arange(ends[-1]) + np.repeat(lo - (ends - n), n)
    cdf = phi((edges[edge] - np.repeat(points, n)) / sd)
    cut = ends[:-1] - 1  # the last edge of a band starts no cell
    p = np.delete(np.diff(cdf), cut)  # P(cell | point)
    cell = np.delete(edge[:-1], cut)
    p_y = np.bincount(cell, weights=p, minlength=M) / M
    h_y = -np.sum(p_y[p_y > 0] * np.log2(p_y[p_y > 0]))
    h_y_given_v = -np.sum(p[p > 0] * np.log2(p[p > 0])) / M
    return float(h_y - h_y_given_v)


def sum_leakage(K, Q, A, variance, reach=40.0):
    """I(S;Z) in bits for the sum S of K uniform symbols on [-Q, Q] and
    Z = A*S plus noise of the given variance: a 64-node Gauss-Hermite rule
    over the noise at each sum, each mixture density taken over the sums
    within ``reach`` deviations of the node's z."""
    p = np.array(composition_counts(K, Q), dtype=float) / (2 * Q + 1) ** K
    c, span = A / math.sqrt(variance), 2 * K * Q  # span: the largest |s - t|
    nodes, weights = hermgauss(64)
    bits = 0.0
    for w, weight in zip(math.sqrt(2) * nodes, weights / math.sqrt(math.pi)):
        # offsets k = s - t of the sums t within reach of z = A*s + sd*w
        k = np.arange(max(-span, math.ceil((-reach - w) / c)),
                      min(span, math.floor((reach - w) / c)) + 1)
        ratio = np.exp(-w * c * k - (c * k) ** 2 / 2)  # phi(w + c*k) / phi(w)
        # f(z) / f(z | s) = sum_k p[s - k] * ratio[k], a full convolution from k[0] on
        mixture = np.convolve(p, ratio)[-k[0] : -k[0] + p.size]
        bits -= weight * float(p @ np.log2(mixture))
    return bits


@pytest.mark.parametrize("K,h,P,variance,sum_bound", CONFIGS, ids=IDS)
def test_banded_rate_against_the_table(K, h, P, variance, sum_bound):
    Q, A, rc, _, p_y, p_z, _, spec = hard_decision_channel(K, h, P, variance)
    M = (2 * Q + 1) ** K
    i_vy, i_sz = decision_information(rc.points, variance), sum_leakage(K, Q, A, variance)
    assert abs(i_vy - mutual_information(p_y / M)) <= 1e-9
    # Z_b is a function of Z, so binning can only lose information, and bins
    # sd/50 wide lose almost none (1.1e-6 bits at the low SNR)
    assert mutual_information(p_z / M) - 1e-12 <= i_sz <= sum_entropy(K, Q) + 1e-12
    fine = exact_leakage_bits(K, Q, A, variance, math.sqrt(variance) / 50)
    assert fine - 1e-12 <= i_sz <= fine + 1e-5
    assert i_vy - i_sz <= achievable_region(spec).sum_bound + 1e-9


def test_band_width_does_not_move_the_decision_information():
    _, _, rc, _ = grid_point(2, (S2, 1.0), 1e4, index=False)
    wide, narrow = (decision_information(rc.points, 4.0, band) for band in (40.0, 9.0))
    assert abs(wide - narrow) <= 1e-12


def test_banded_rate_past_the_table():
    # M = 100,489 tuples: the (tuple, cell) table alone would hold 1e10 cells
    K, h, P, variance = 2, (S2, 1.0), 1e22, 1e12
    Q, A, rc, _ = grid_point(K, h, P, index=False)
    M = (2 * Q + 1) ** K
    assert rc.gamma_holds and rc.points.size == M >= 3 * 10**4
    i_vy, i_sz = decision_information(rc.points, variance), sum_leakage(K, Q, A, variance)
    assert i_sz <= sum_entropy(K, Q) + 1e-12
    assert 0 < i_vy - i_sz and i_vy <= math.log2(M)
