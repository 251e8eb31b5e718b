"""Reference computations the benchmark checks the program against.

Everything here is written from the definitions, not from the program's
code: explicit loops over rows and pairs, so that a vectorised rewrite of
the program is compared with something that shares none of its arithmetic.
"""

from __future__ import annotations

import math

import numpy as np


def percentile(values, q: float) -> float:
    """The q-th percentile (0 <= q <= 100), interpolating linearly between
    the two nearest order statistics (numpy's default method)."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def nce_oracle(z: np.ndarray, zp: np.ndarray, mask, tau: float) -> float:
    """Aggregate batch NCE over the masked-in rows, pair by pair:
    -log(matched / (matched + cross)), with exp(z_i . zp_j / tau) per pair."""
    rows = [i for i in range(len(z)) if mask[i]]
    pos = sum(math.exp(float(np.dot(z[i], zp[i])) / tau) for i in rows)
    neg = sum(math.exp(float(np.dot(z[i], zp[j])) / tau)
              for i in rows for j in rows if j != i)
    return -math.log(pos / (pos + neg))


def centroid_oracle(p_a: np.ndarray, p_v: np.ndarray, p_t: np.ndarray,
                    avail_a, avail_t) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample mean of the available tri-modal projections, renormalised.

    A row is valid when at least two modalities contributed and the mean is
    not (near) zero; invalid rows are returned as zeros and never used.
    """
    n, d = p_v.shape
    cents = np.zeros((n, d))
    valid = np.zeros(n, dtype=bool)
    for i in range(n):
        members = [p_v[i]]
        if avail_a[i]:
            members.append(p_a[i])
        if avail_t[i]:
            members.append(p_t[i])
        mean = sum(members) / len(members)
        norm = math.sqrt(float(np.dot(mean, mean)))
        if len(members) >= 2 and norm > 1e-9:
            cents[i] = mean / norm
            valid[i] = True
    return cents, valid


def nce_upper_bound(n_eff: int, tau: float) -> float:
    """No NCE value over n_eff unit rows exceeds log(n_eff) + 2 / tau."""
    return math.log(n_eff) + 2.0 / tau


def loss_terms_oracle(proj: dict, avail_a, avail_t, tau: float,
                      weights: dict) -> tuple[dict[str, float], list[tuple[str, float, float]]]:
    """The weighted av, vt and avt terms of one batch from its projections.

    Returns the terms and, for every NCE evaluated, (name, value, bound) so
    the caller can check each lies in [0, log n_eff + 2 / tau].
    """
    avail_a = np.asarray(avail_a, dtype=bool)
    avail_t = np.asarray(avail_t, dtype=bool)
    avail_v = np.ones(len(avail_a), dtype=bool)
    parts: list[tuple[str, float, float]] = []

    def term(name, z, zp, mask):
        value = nce_oracle(z, zp, mask, tau)
        parts.append((name, value, nce_upper_bound(int(mask.sum()), tau)))
        return value

    terms = {"av": 0.0, "vt": 0.0, "avt": 0.0}
    if avail_a.any():
        terms["av"] = term("av", proj[("av", "a")], proj[("av", "v")], avail_a)
    if avail_t.any():
        terms["vt"] = term("vt", proj[("vt", "v")], proj[("vt", "t")], avail_t)
    cents, valid = centroid_oracle(proj[("avt", "a")], proj[("avt", "v")],
                                   proj[("avt", "t")], avail_a, avail_t)
    for m, avail in (("a", avail_a), ("v", avail_v), ("t", avail_t)):
        mask = avail & valid
        if mask.any():
            terms["avt"] += term(f"avt.{m}", proj[("avt", m)], cents, mask)
    return {k: v * weights[k] for k, v in terms.items()}, parts
