"""Working memory of a replicate's stages, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak
counts every n x n array a stage holds at once. W below is the byte
size of one n x n float64 matrix, the size of the sampled weights.
"""

import tracemalloc

import numpy as np
import pytest

from dataclasses import replace

from mmdf.generator import Family, sample_adjacency
from mmdf.modularity import estimate_k
from mmdf.spectral import top_k_eigen

from conftest import standard_spec

N = 400
W = N * N * 8


def traced_peak(f):
    """f's result, and the most bytes it held at once beyond what was
    live when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - base


@pytest.fixture
def spec():
    return standard_spec(Family.SIGNED, rho=0.5, n=N, pure=100, seed=4)


def test_a_spec_checks_its_means_in_blocks(spec):
    # one block of 64 rows of the means and their masks, 0.16 W and
    # 0.02 W each at n = 400; the whole n x n means alone would be W
    built, peak = traced_peak(lambda: replace(spec, rho=0.6))
    assert built.rho == 0.6
    assert peak <= 0.5 * W


def test_sampling_holds_one_matrix_and_a_block(spec):
    # the result and one block of 64 rows: its means, their transposed
    # half and its draws, 0.16 W each at n = 400. Whole-triangle means
    # and draws (0.5 W each) would exceed this
    graph, peak = traced_peak(lambda: sample_adjacency(spec))
    assert graph.weights.nbytes == W
    assert peak <= 1.6 * W


def test_scan_forms_no_dense_part(spec):
    # this counts the one sign split that scores every k; a dense
    # positive or negative part alone would be W
    graph = sample_adjacency(spec)
    spectrum = top_k_eigen(graph.weights, 5)
    scan, peak = traced_peak(lambda: estimate_k(graph, k_max=5, eigen=spectrum))
    assert all(p.ok for p in scan.curve)
    assert peak <= 0.5 * W
