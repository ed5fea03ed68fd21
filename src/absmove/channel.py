"""Air-to-ground channel: urban-macro path loss, angular Rician K, outage.

All link math is deterministic. The mean channel gain follows the urban-macro
median path-loss formulas (LoS and NLoS branches, no shadowing term); small
scale fading enters only through the outage probability of a Rician (LoS)
or Rayleigh (NLoS) envelope, which is a noncentral chi-square CDF. The
chain is written once: ``link_budget`` gives each link's mean SNR and K,
``outage_probability`` its outage, and ``coverage_mask`` the verdict. A
call takes one transmitter for every link, or one per link, and receivers
at one altitude. ``branch_verdicts`` gives each link's verdict for both LoS
bits without a sightline test; a map build takes its table of horizontal
offsets from it. With both altitudes fixed, each branch's verdict is a
function of the horizontal length alone, and ``coverage_radii`` finds the
length at which it switches: a trial reads most links' verdicts off the two
radii (``radius_verdicts``) and runs the chain only on the rest.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import chndtr

from .env import Environment, link_endpoints, los_blocked_mask

SPEED_OF_LIGHT = 299792458.0
# 3D distance floor of the path-loss model's validity range, metres.
MIN_MODEL_DISTANCE = 10.0
# Effective environment height of the urban-macro model, metres.
_H_ENV = 1.0
# Half-width (m) of the shell around each coverage radius whose links take
# their verdicts from the chain rather than from the radius.
RADIUS_SHELL = 0.01
# Spacing (m) of the scan that finds where each verdict switches, and the
# lengths it evaluates per chain call, which bounds its memory.
_RADIUS_SCAN = 0.01
_SCAN_BLOCK = 1 << 13


class ModelValidityWarning(UserWarning):
    """A link was evaluated outside the path-loss model's validity range."""


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
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


def _caller_stacklevel() -> int:
    """Warning stack level of the first frame outside this module, counted
    from the function that calls this one."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


def _distance_3d(d2d, dz):
    """3D length of links of horizontal length d2d and vertical drop dz."""
    return np.sqrt(d2d * d2d + dz * dz)


def _path_loss_db(params: ChannelParams, d2d, d3d, h_bs: float, h_ut: float):
    """Median urban-macro path loss in dB of the LoS and the NLoS branch, for
    broadcastable distance arrays."""
    d3d = np.asarray(d3d, dtype=float)
    d2d = np.asarray(d2d, dtype=float)
    below = d3d < MIN_MODEL_DISTANCE
    if np.any(below):
        # Attributed to the first caller outside this module.
        warnings.warn(
            f"{int(np.count_nonzero(below))} link(s) below the {MIN_MODEL_DISTANCE:.0f} m "
            "3D distance floor; clamped",
            ModelValidityWarning,
            stacklevel=_caller_stacklevel(),
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
    pl_nlos = np.maximum(
        pl_los, 13.54 + 39.08 * log_d3d + 20.0 * log_fc - 0.6 * (h_ut - 1.5)
    )
    return pl_los, pl_nlos


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


def _link_geometry(p, qs):
    """Horizontal length, vertical drop and both antenna heights of the links
    from p, one transmitter (3,) or one per link (n, 3), to the receivers qs.
    Transmitters share one altitude, and so do receivers. With no links
    there is no altitude to read: both heights are NaN, which the later
    stages carry through on their empty arrays."""
    p, qs = link_endpoints(p, qs)
    if qs.shape[0] == 0:
        return np.zeros(0), np.zeros(0), math.nan, math.nan
    if np.ptp(qs[:, 2]) != 0.0:
        raise ValueError("links need a uniform receiver altitude")
    if p.ndim == 2 and np.ptp(p[:, 2]) != 0.0:
        raise ValueError("links need a uniform transmitter altitude")
    d2d = np.hypot(qs[:, 0] - p[..., 0], qs[:, 1] - p[..., 1])
    dz = p[..., 2] - qs[:, 2]
    return d2d, dz, float(p.flat[2]), float(qs[0, 2])


def _branch_budgets(params: ChannelParams, d2d, dz, h_bs: float, h_ut: float):
    """Mean SNR of each link with LoS and without, and its LoS Rician K, all
    linear; K is zero without LoS."""
    pl_los, pl_nlos = _path_loss_db(params, d2d, _distance_3d(d2d, dz), h_bs, h_ut)
    snr_los = 10.0 ** ((params.snr_gap_db - pl_los) / 10.0)
    snr_nlos = 10.0 ** ((params.snr_gap_db - pl_nlos) / 10.0)
    k_los = params.a1 * np.exp(params.a2 * np.arctan2(dz, d2d))
    return snr_los, snr_nlos, k_los


def link_budget(params: ChannelParams, env: Environment, p, qs):
    """Mean SNR and Rician K (both linear) of each link from p to qs.

    Chain per link: LoS geometry -> branch path loss -> mean SNR -> angular
    K factor, zero on blocked links. ``p`` is one transmitter (3,) or one
    per link (n, 3); transmitters share one altitude, and so do receivers.
    """
    geometry = _link_geometry(p, qs)
    los = ~los_blocked_mask(env, p, qs)
    snr_los, snr_nlos, k_los = _branch_budgets(params, *geometry)
    return np.where(los, snr_los, snr_nlos), np.where(los, k_los, 0.0)


def branch_verdicts(params: ChannelParams, p, qs):
    """Coverage of each link from p to qs were it in LoS and were it not;
    two (n,) bool arrays, from the ``coverage_mask`` chain without its
    sightline test.

    Where the two agree, the LoS bit cannot change the verdict, so that
    verdict is the one ``coverage_mask`` gives.
    """
    snr_los, snr_nlos, k_los = _branch_budgets(params, *_link_geometry(p, qs))
    p_out = outage_probability(
        params, np.concatenate([snr_los, snr_nlos]), np.concatenate([k_los, np.zeros_like(k_los)])
    )
    covered = p_out < params.outage_threshold
    return covered[: snr_los.size], covered[snr_los.size :]


def _verdicts_at(params: ChannelParams, d):
    """``branch_verdicts`` of links of horizontal lengths d from an ABS at
    the origin; each link's length is the float d itself."""
    d = np.asarray(d, dtype=float)
    qs = np.column_stack([d, np.zeros_like(d), np.full(d.shape, params.gu_alt)])
    return branch_verdicts(params, (0.0, 0.0, params.abs_alt), qs)


# A batch or a sweep holds a few channels; each entry is two floats.
@functools.lru_cache(maxsize=64)
def coverage_radii(params: ChannelParams, d_max: float) -> tuple[float, float] | None:
    """Horizontal lengths (r_los, r_nlos) up to which each branch verdict
    covers, found on the chain itself over lengths in [0, d_max]; or None.

    The chain runs on a scan of lengths _RADIUS_SCAN apart. Where a verdict
    switches from covered to not covered, bisection over the floats between
    the two scan points finds the last covered float, which is the radius.
    A verdict that covers every length gives +inf, and one that covers none
    -inf. A verdict that switches more than once on the scan, or from not
    covered to covered, gives None: then no radius describes it.
    """
    d = np.append(np.arange(0.0, d_max, _RADIUS_SCAN), d_max)
    radii = []
    with warnings.catch_warnings():
        # Lengths under the model floor warn wherever a caller evaluates them.
        warnings.simplefilter("ignore", ModelValidityWarning)
        scan = np.hstack([_verdicts_at(params, d[i : i + _SCAN_BLOCK])
                          for i in range(0, d.size, _SCAN_BLOCK)])
        for branch, covered in enumerate(scan):
            switch = np.flatnonzero(covered[1:] != covered[:-1])
            if switch.size == 0:
                radii.append(math.inf if covered[0] else -math.inf)
                continue
            if switch.size > 1 or not covered[0]:
                return None
            # Non-negative floats order as their bit patterns do.
            lo, hi = (int(b) for b in d[switch[0] : switch[0] + 2].view(np.int64))
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _verdicts_at(params, np.array([mid]).view(np.float64))[branch][0]:
                    lo = mid
                else:
                    hi = mid
            radii.append(float(np.array([lo]).view(np.float64)[0]))
    return radii[0], radii[1]


def radius_verdicts(params: ChannelParams, radii: tuple[float, float] | None, d2d,
                    d_max: float):
    """Both branch verdicts of links of horizontal lengths d2d, read off
    ``coverage_radii(params, d_max)``, and the mask of links whose verdicts
    must come from ``branch_verdicts`` instead.

    The chain decides a link longer than d_max, within RADIUS_SHELL of a
    radius, or under the model floor (so that the clamp warns for it), and
    every link when ``radii`` is None. Elsewhere a link is covered on a
    branch when its length is at most that branch's radius.
    """
    d2d = np.asarray(d2d, dtype=float)
    if radii is None:
        never = np.zeros(d2d.shape, dtype=bool)
        return never, never.copy(), ~never
    r_los, r_nlos = radii
    chain = (
        (d2d > d_max)
        | (np.abs(d2d - r_los) <= RADIUS_SHELL)
        | (np.abs(d2d - r_nlos) <= RADIUS_SHELL)
        | (_distance_3d(d2d, params.abs_alt - params.gu_alt) < MIN_MODEL_DISTANCE)
    )
    return d2d <= r_los, d2d <= r_nlos, chain


def coverage_mask(params: ChannelParams, env: Environment, p, qs) -> np.ndarray:
    """Full-chain coverage test of each link from p, one transmitter (3,) or
    one per link (n, 3), to qs: the ``link_budget`` of each link, then its
    outage against the threshold."""
    return outage_probability(params, *link_budget(params, env, p, qs)) < params.outage_threshold
