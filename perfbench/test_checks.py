"""Hand-computed cases for the benchmark's own reference code.

    python3 -m pytest perfbench/test_checks.py
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))
from checks import (centroid_oracle, loss_terms_oracle, nce_oracle,  # noqa: E402
                    nce_upper_bound, percentile)


def test_percentile_interpolates_between_order_statistics():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([3, 1, 2], 50) == 2.0
    assert percentile(range(1, 11), 90) == pytest.approx(9.1)
    assert percentile([7.0], 90) == 7.0
    assert percentile([1, 2], 0) == 1.0 and percentile([1, 2], 100) == 2.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_nce_single_row_is_zero():
    e = np.eye(3)
    assert nce_oracle(e, e, [True, False, False], 0.07) == 0.0


def test_nce_identical_rows_is_log_n():
    v = np.tile([0.0, 1.0, 0.0], (4, 1))
    assert nce_oracle(v, v, [True] * 4, 0.5) == pytest.approx(math.log(4.0), abs=1e-12)


def test_nce_orthonormal_pair():
    # matched pairs exp(1/tau), cross pairs exp(0): -log(2e / (2e + 2)) at tau = 1
    e = np.eye(2)
    assert nce_oracle(e, e, [True, True], 1.0) == pytest.approx(
        math.log(1.0 + math.exp(-1.0)), abs=1e-12)


def test_nce_mask_drops_rows():
    e = np.eye(3)
    z = np.vstack([e[:2], [[0.0, 0.0, 1.0]]])
    assert nce_oracle(z, z, [True, True, False], 1.0) == nce_oracle(e[:2], e[:2], [True, True], 1.0)


def test_nce_bound():
    assert nce_upper_bound(4, 0.5) == pytest.approx(math.log(4) + 4.0)
    # matched pairs anti-aligned, cross pairs aligned: log(1 + e^(2 / tau)) at tau = 0.5
    z = np.array([[1.0, 0.0], [-1.0, 0.0]])
    zp = -z
    value = nce_oracle(z, zp, [True, True], 0.5)
    assert value == pytest.approx(math.log(1.0 + math.exp(4.0)), abs=1e-12)
    assert 0.0 <= value <= nce_upper_bound(2, 0.5)


def test_centroids_need_two_modalities():
    p_v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    p_a = np.array([[0.0, 1.0], [0.0, 0.0], [-1.0, 0.0]])
    p_t = np.zeros((3, 2))
    cents, valid = centroid_oracle(p_a, p_v, p_t, [True, False, True], [False, False, False])
    s = 1.0 / math.sqrt(2.0)
    assert valid.tolist() == [True, False, False]  # row 1 alone; row 2 cancels to zero
    assert np.allclose(cents[0], [s, s])


def test_loss_terms_skip_missing_modalities():
    e = np.eye(2)
    proj = {(sp, m): e for sp, ms in (("av", "av"), ("vt", "vt"), ("avt", "avt")) for m in ms}
    terms, parts = loss_terms_oracle(proj, [False, False], [True, True], 1.0,
                                     {"av": 1.0, "vt": 2.0, "avt": 1.0})
    one = math.log(1.0 + math.exp(-1.0))
    assert terms["av"] == 0.0
    assert terms["vt"] == pytest.approx(2.0 * one)
    # centroids of (v, t) equal the shared unit rows, so each avt part is `one`
    assert terms["avt"] == pytest.approx(2.0 * one)
    assert [name for name, _, _ in parts] == ["vt", "avt.v", "avt.t"]


def test_trace_summary_self_times_and_ops():
    from tracing import TraceSummary
    spans = [  # name, start, end, parent, ops, graph_ops
        ["round", 0.0, 10.0, -1, 1, 0],
        ["a", 1.0, 4.0, 0, 2, 2],
        ["b", 2.0, 3.0, 1, 3, 1],
        ["c", 5.0, 9.0, 0, 0, 0],
        ["b", 6.0, 8.0, 3, 4, 4],
    ]
    s = TraceSummary(spans)
    assert s.self_time("round") == 3.0
    assert s.self_time("a") == 2.0
    assert s.self_time("b") == 3.0
    assert s.total_time("b") == 3.0
    assert s.total_time("b", under="a") == 1.0
    assert s.ops("a") == (5, 3)
    assert s.ops("round") == (10, 7)
    assert s.self_shares("round") == pytest.approx({"c": 0.2, "round": 0.3, "b": 0.3, "a": 0.2})
