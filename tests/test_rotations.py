import numpy as np
import pytest

from animrig.rotations import (
    rotation_matrices,
    rotation_matrix_derivatives,
    rotation_vector_gradient,
)

# |v| = 0.99e-4 and 1.01e-4 straddle the switch to the small-angle series
MAGNITUDES = [0.0, 1e-9, 1e-5, 0.99e-4, 1.01e-4, 1e-2, 0.5, 3.0]
STEP = 1e-6


def random_rotvecs(rng, magnitude, count):
    axes = rng.normal(size=(count, 3))
    return magnitude * axes / np.linalg.norm(axes, axis=1, keepdims=True)


def central_difference(f, v):
    """d f / d v_c of a function of one 3-vector, stacked on a leading c axis."""
    return np.stack([(f(v + STEP * e) - f(v - STEP * e)) / (2 * STEP) for e in np.eye(3)])


@pytest.mark.parametrize("magnitude", MAGNITUDES)
def test_derivative_matches_central_differences(rng, magnitude):
    v = random_rotvecs(rng, magnitude, 4)
    dR = rotation_matrix_derivatives(v, rotation_matrices(v))
    assert dR.shape == (4, 3, 3, 3)
    for k in range(4):
        expected = central_difference(rotation_matrices, v[k])
        np.testing.assert_allclose(dR[k], expected, rtol=0, atol=1e-9)


def test_vector_gradient_single(rng):
    v = rng.normal(size=3)
    G = rng.normal(size=(3, 3))
    got = rotation_vector_gradient(G, v, rotation_matrices(v))
    assert got.shape == (3,)
    expected = central_difference(lambda x: np.sum(G * rotation_matrices(x)), v)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


def test_vector_gradient_batch(rng):
    v = np.vstack([rng.normal(size=(3, 3)), random_rotvecs(rng, 1e-6, 2)])
    G = rng.normal(size=(5, 3, 3))
    got = rotation_vector_gradient(G, v, rotation_matrices(v))
    assert got.shape == (5, 3)
    for k in range(5):
        expected = central_difference(lambda x: np.sum(G[k] * rotation_matrices(x)), v[k])
        np.testing.assert_allclose(got[k], expected, rtol=0, atol=1e-9)
