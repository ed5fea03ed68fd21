"""Air-to-ground channel: urban-macro path loss, angular Rician K, outage.

All link math is deterministic. The mean channel gain follows the urban-macro
median path-loss formulas (LoS and NLoS branches, no shadowing term); small
scale fading enters only through the outage probability of a Rician (LoS)
or Rayleigh (NLoS) envelope, which is a noncentral chi-square CDF.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr

from .env import Environment, is_los, los_blocked_mask

SPEED_OF_LIGHT = 299792458.0
# 3D distance floor of the path-loss model's validity range, metres.
MIN_MODEL_DISTANCE = 10.0
# Effective environment height of the urban-macro model, metres.
_H_ENV = 1.0


class ModelValidityWarning(UserWarning):
    """A link was evaluated outside the path-loss model's validity range."""


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def linear_to_db(x):
    return 10.0 * np.log10(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget constants plus the angle-dependent Rician K model.

    K(theta) = a1 * exp(a2 * theta) with K(0) = k_min and K(pi/2) = k_max
    (both given in dB); ``a1`` and ``a2`` are derived from those bounds.
    """

    tx_power_dbm: float = 5.0
    noise_dbm: float = -112.0
    carrier_ghz: float = 2.0
    k_min_db: float = 0.0
    k_max_db: float = 30.0
    snr_threshold_db: float = 3.0
    outage_threshold: float = 0.1
    abs_alt: float = 90.0
    gu_alt: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.outage_threshold <= 1.0):
            raise ValueError(f"outage_threshold must be in (0, 1], got {self.outage_threshold}")
        if self.carrier_ghz <= 0.0:
            raise ValueError("carrier frequency must be positive")
        if not (self.abs_alt > self.gu_alt >= 0.0):
            raise ValueError("need abs_alt > gu_alt >= 0")
        if self.k_max_db < self.k_min_db:
            raise ValueError("k_max_db must be >= k_min_db")

    @property
    def a1(self) -> float:
        """K at the horizon (linear)."""
        return 10.0 ** (self.k_min_db / 10.0)

    @property
    def a2(self) -> float:
        """Growth rate of ln K per radian of elevation."""
        return math.log(10.0 ** (self.k_max_db / 10.0) / self.a1) / (math.pi / 2.0)

    @property
    def snr_gap_db(self) -> float:
        """Transmit power over noise floor, in dB."""
        return self.tx_power_dbm - self.noise_dbm


def _path_loss_db(params: ChannelParams, d2d, d3d, h_bs: float, h_ut: float, los):
    """Median urban-macro path loss in dB for broadcastable distance arrays."""
    d3d = np.asarray(d3d, dtype=float)
    d2d = np.asarray(d2d, dtype=float)
    below = d3d < MIN_MODEL_DISTANCE
    if np.any(below):
        warnings.warn(
            f"{int(np.count_nonzero(below))} link(s) below the {MIN_MODEL_DISTANCE:.0f} m "
            "3D distance floor; clamped",
            ModelValidityWarning,
            stacklevel=3,
        )
        d3d = np.maximum(d3d, MIN_MODEL_DISTANCE)
    fc = params.carrier_ghz
    log_d3d = np.log10(d3d)
    log_fc = math.log10(fc)
    # Breakpoint distance uses antenna heights above the effective environment.
    d_bp = (
        4.0
        * max(h_bs - _H_ENV, 0.0)
        * max(h_ut - _H_ENV, 0.0)
        * (fc * 1e9)
        / SPEED_OF_LIGHT
    )
    pl1 = 28.0 + 22.0 * log_d3d + 20.0 * log_fc
    pl2 = (
        28.0
        + 40.0 * log_d3d
        + 20.0 * log_fc
        - 9.0 * math.log10(d_bp**2 + (h_bs - h_ut) ** 2)
    )
    pl_los = np.where(d2d <= d_bp, pl1, pl2)
    los = np.asarray(los, dtype=bool)
    if los.all():
        return pl_los
    pl_nlos = np.maximum(
        pl_los, 13.54 + 39.08 * log_d3d + 20.0 * log_fc - 0.6 * (h_ut - 1.5)
    )
    return np.where(los, pl_los, pl_nlos)


def mean_gain(params: ChannelParams, env: Environment, p, q) -> float:
    """Mean channel gain (linear) between a transmitter p and receiver q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    los = is_los(env, p, q)
    d2d = math.hypot(p[0] - q[0], p[1] - q[1])
    d3d = float(np.linalg.norm(p - q))
    pl = _path_loss_db(params, d2d, d3d, float(p[2]), float(q[2]), los)
    return float(10.0 ** (-pl / 10.0))


def rician_k(params: ChannelParams, p, q) -> float:
    """LoS Rician K factor (linear) from the elevation angle of p above q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p[2] <= q[2]:
        raise ValueError("transmitter must be above the receiver")
    d2d = math.hypot(p[0] - q[0], p[1] - q[1])
    theta = math.atan2(p[2] - q[2], d2d)
    return params.a1 * math.exp(params.a2 * theta)


def snr(params: ChannelParams, gain):
    """Mean SNR (linear) from a linear mean gain."""
    return np.asarray(gain, dtype=float) * 10.0 ** (params.snr_gap_db / 10.0)


def marcum_q1(a, b):
    """First-order Marcum Q function, elementwise over broadcastable arrays.

    Q1(a, b) is the survival function at b^2 of a noncentral chi-square
    variable with two degrees of freedom and noncentrality a^2.
    """
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(a_arr < 0.0) or np.any(b_arr < 0.0) or np.any(~np.isfinite(a_arr)):
        raise ValueError("marcum_q1 requires finite a >= 0 and b >= 0")
    q = 1.0 - chndtr(b_arr * b_arr, 2.0, a_arr * a_arr)
    return float(q) if q.ndim == 0 else q


def outage_probability(params: ChannelParams, snr_mean, k):
    """Probability that instantaneous SNR falls below the service threshold.

    ``snr_mean`` and ``k`` are linear. A Rician envelope with factor k gives
    P_out = 1 - Q1(sqrt(2k), sqrt(2(k+1) g / g_mean)), the CDF at
    2(k+1) g / g_mean of a noncentral chi-square variable with two degrees of
    freedom and noncentrality 2k; k = 0 is the Rayleigh case
    1 - exp(-g / g_mean). Zero mean SNR is certain outage.
    """
    snr_v, k_v = np.broadcast_arrays(np.asarray(snr_mean, dtype=float), np.asarray(k, dtype=float))
    if np.any(snr_v < 0.0) or np.any(k_v < 0.0):
        raise ValueError("mean SNR and K factor must be non-negative")
    gamma_th = 10.0 ** (params.snr_threshold_db / 10.0)
    # Zero mean SNR puts the threshold at infinity, where the CDF is 1.
    with np.errstate(divide="ignore"):
        x = 2.0 * (k_v + 1.0) * gamma_th / snr_v
    p_out = chndtr(x, 2.0, 2.0 * k_v)
    return float(p_out) if p_out.ndim == 0 else p_out


def coverage_mask(params: ChannelParams, env: Environment, p, qs) -> np.ndarray:
    """Vectorized full-chain coverage test from one transmitter to many points.

    Chain per link: LoS geometry -> branch path loss -> mean SNR -> angular
    K factor (zero when blocked) -> outage, compared against the threshold.
    """
    p = np.asarray(p, dtype=float)
    qs = np.asarray(qs, dtype=float)
    if qs.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    if np.ptp(qs[:, 2]) != 0.0:
        raise ValueError("coverage_mask expects a uniform receiver altitude")
    blocked = los_blocked_mask(env, p, qs)
    dx = qs[:, 0] - p[0]
    dy = qs[:, 1] - p[1]
    dz = p[2] - qs[:, 2]
    d2d = np.hypot(dx, dy)
    d3d = np.sqrt(d2d * d2d + dz * dz)
    los = ~blocked
    pl = _path_loss_db(params, d2d, d3d, float(p[2]), float(qs[0, 2]), los)
    snr_v = 10.0 ** ((params.snr_gap_db - pl) / 10.0)
    theta = np.arctan2(dz, d2d)
    k_v = np.where(los, params.a1 * np.exp(params.a2 * theta), 0.0)
    p_out = outage_probability(params, snr_v, k_v)
    return p_out < params.outage_threshold


def is_covered(params: ChannelParams, env: Environment, p, q) -> bool:
    """True when the outage probability of the p->q link is below threshold."""
    q = np.asarray(q, dtype=float)
    return bool(coverage_mask(params, env, p, q[None, :])[0])


def sample_rician_power(k, rng: np.random.Generator, size=None) -> np.ndarray:
    """Draw |h|^2 for a unit-mean-power Rician fading coefficient.

    h = sqrt(k/(k+1)) + sqrt(1/(2(k+1))) * (x + jy) with x, y standard normal;
    k = 0 reduces to Rayleigh fading. Used by the Monte-Carlo outage checks.
    """
    k = float(k)
    mean = math.sqrt(k / (k + 1.0))
    sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    re = mean + sigma * rng.standard_normal(size)
    im = sigma * rng.standard_normal(size)
    return re * re + im * im
