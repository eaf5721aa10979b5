import tracemalloc

import numpy as np

from ptscatter import LayerPotential, kernels


def _random_stacks(rng, n_cases):
    for _ in range(n_cases):
        n = int(rng.integers(1, 8))
        values = rng.normal(scale=2.0, size=n) + 1j * rng.normal(scale=2.0, size=n)
        widths = rng.uniform(0.05, 1.0, size=n)
        x_left = float(rng.uniform(-2.0, 1.0))
        ks = np.sort(rng.uniform(0.2, 5.0, size=int(rng.integers(1, 40))))
        yield values, widths, x_left, ks


def test_stack_transfer_has_unit_determinant():
    rng = np.random.default_rng(22)
    for values, widths, x_left, ks in _random_stacks(rng, 20):
        mats = kernels.stack_transfer(values, widths, x_left, ks)
        dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        scale = np.maximum(1.0, np.max(np.abs(mats), axis=(1, 2)) ** 2)
        assert np.max(np.abs(dets - 1.0) / scale) <= 1e-11


def test_stack_transfer_output_shape():
    assert kernels.stack_transfer is not None
    out = kernels.stack_transfer(np.array([1j]), np.array([1.0]), 0.0, np.array([1.0]))
    assert out.shape == (1, 2, 2)


def test_kernel_puts_the_right_face_where_layer_potential_edges_does(monkeypatch):
    """The kernel's right edge is LayerPotential.edges[-1], a running sum of the widths.

    np.sum adds pairwise and misses that edge by an ulp on most 64-layer stacks,
    so the backends would reference different stacks.
    """
    layer_edges, faces = kernels.layer_edges, []

    def spy(widths, x_left):
        faces.append(layer_edges(widths, x_left))
        return faces[-1]

    monkeypatch.setattr(kernels, "layer_edges", spy)
    rng = np.random.default_rng(48)
    pairwise_misses = 0
    for _ in range(20):
        values = rng.normal(size=64) + 1j * rng.normal(size=64)
        widths = rng.uniform(0.05, 1.0, size=64)
        p = LayerPotential(tuple(values), tuple(widths), float(rng.uniform(-3.0, 0.0)))
        kernels.stack_transfer(values, widths, p.x_left, np.array([1.0]))
        assert faces.pop()[-1] == p.edges[-1]
        pairwise_misses += p.x_left + float(np.sum(widths)) != p.edges[-1]
    assert pairwise_misses > 0


def test_stack_transfer_peak_memory_stays_bounded():
    """One 64-layer, 20,000-k call peaks near 8 MB; a factor array over all 64 layers
    at once would take about 20 MB per temporary."""
    rng = np.random.default_rng(7)
    values = rng.normal(size=64) + 1j * rng.normal(size=64)
    widths = rng.uniform(0.05, 0.4, size=64)
    ks = np.linspace(0.3, 5.0, 20000)
    tracemalloc.start()
    try:
        kernels.stack_transfer(values, widths, -1.0, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6, f"peak {peak / 1e6:.1f} MB"
