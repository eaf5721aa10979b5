import numpy as np

from ptscatter import kernels


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
