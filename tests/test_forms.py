import numpy as np
import pytest

from magweyl import (AntisymmetricForm, DegenerateFormError, MetricForm,
                     symplectic_frame, williamson_eigenvalues)


def normal_form_energy(frame, xi):
    """sum_j B_j (s_j^2 + sig_j^2)/2 in the frame coordinates (s, sig) = xi S."""
    d = frame.dim // 2
    co = np.asarray(xi) @ frame.matrix
    return 0.5 * np.sum(np.asarray(frame.frequencies) * (co[..., :d] ** 2 + co[..., d:] ** 2),
                        axis=-1)


def test_antisymmetric_validation():
    with pytest.raises(ValueError):
        AntisymmetricForm(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        AntisymmetricForm(2, np.zeros((3, 3)))
    a = AntisymmetricForm.standard(2)
    assert a.dim == 4
    assert not a.entries.flags.writeable


def test_metric_validation():
    with pytest.raises(ValueError):
        MetricForm(2, np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        MetricForm(2, np.diag([1.0, -1.0]))
    MetricForm(3, np.diag([2.0, 1.0, 0.5]))


def test_williamson_identity_pair(eye2, J2):
    assert np.allclose(williamson_eigenvalues(eye2, J2), [1.0])


def test_williamson_anisotropic():
    G = MetricForm(2, np.diag([1.0, 4.0]))
    B = williamson_eigenvalues(G, AntisymmetricForm.standard(1))
    assert np.allclose(B, [0.5], atol=1e-14)


def test_williamson_scaling(rng):
    m = rng.standard_normal((4, 4))
    W = AntisymmetricForm(4, m - m.T)
    g = rng.standard_normal((4, 4))
    G = MetricForm(4, g @ g.T + 4.0 * np.eye(4))
    B = williamson_eigenvalues(G, W)
    assert np.all(np.diff(B) >= 0) and np.all(B > 0)
    for t in (0.5, 3.0):
        assert np.allclose(williamson_eigenvalues(G, AntisymmetricForm(4, t * W.entries)), t * B)


def test_williamson_errors(eye2):
    with pytest.raises(ValueError):
        williamson_eigenvalues(MetricForm(3, np.eye(3)), AntisymmetricForm.zero(3))
    with pytest.raises(DegenerateFormError):
        williamson_eigenvalues(eye2, AntisymmetricForm.zero(2))


def _frame_invariants(G, W, frame):
    S = frame.matrix
    d = G.dim // 2
    J = AntisymmetricForm.standard(d).entries
    B = np.asarray(frame.frequencies)
    assert np.max(np.abs(S.T @ W.entries @ S - J)) < 1e-10
    # dual quadratic form in frame coordinates: G^{-1} = S diag(B, B) S^T
    lhs = S @ np.diag(np.concatenate([B, B])) @ S.T
    assert np.max(np.abs(lhs - np.linalg.inv(G.entries))) < 1e-10


def test_frame_identity_pair(eye2, J2):
    frame = symplectic_frame(eye2, J2)
    _frame_invariants(eye2, J2, frame)
    assert np.allclose(frame.frequencies, [1.0])


def test_frame_compatible_pair(rng):
    # a random pair with all Williamson eigenvalues 1: S^T G S = I and
    # S^T W S = J hold simultaneously (the orthosymplectic case)
    d = 2
    q = np.linalg.qr(rng.standard_normal((2 * d, 2 * d)))[0]
    J = AntisymmetricForm.standard(d).entries
    W = AntisymmetricForm(2 * d, q @ J @ q.T)
    G = MetricForm(2 * d, q @ q.T)
    frame = symplectic_frame(G, W)
    assert np.allclose(frame.frequencies, np.ones(d), atol=1e-10)
    S = frame.matrix
    assert np.max(np.abs(S.T @ G.entries @ S - np.eye(2 * d))) < 1e-10
    assert np.max(np.abs(S.T @ W.entries @ S - J)) < 1e-10


def test_frame_anisotropic(J2):
    G = MetricForm(2, np.diag([1.0, 4.0]))
    frame = symplectic_frame(G, J2)
    _frame_invariants(G, J2, frame)
    # quadratic-form identity: (1/2) xi G^{-1} xi = sum B (s^2+sig^2)/2
    xi = np.random.default_rng(3).standard_normal((50, 2))
    direct = 0.5 * np.einsum("ni,ij,nj->n", xi, np.linalg.inv(G.entries), xi)
    assert np.max(np.abs(normal_form_energy(frame, xi) - direct)) < 1e-12


def test_frame_random_pair_invariants(rng):
    for dim in (2, 4):
        m = rng.standard_normal((dim, dim))
        W = AntisymmetricForm(dim, m - m.T)
        g = rng.standard_normal((dim, dim))
        G = MetricForm(dim, g @ g.T + 3.0 * np.eye(dim))
        _frame_invariants(G, W, symplectic_frame(G, W))


def test_frame_choice_independence(rng):
    # two independently randomized frames of the same pair: pullbacks of
    # any radial function of the normal-form energy agree on a grid
    m = rng.standard_normal((4, 4))
    W = AntisymmetricForm(4, m - m.T)
    g = rng.standard_normal((4, 4))
    G = MetricForm(4, g @ g.T + 3.0 * np.eye(4))
    f1 = symplectic_frame(G, W, rng=np.random.default_rng(1))
    f2 = symplectic_frame(G, W, rng=np.random.default_rng(2))
    assert not np.allclose(f1.matrix, f2.matrix)
    xi = rng.standard_normal((200, 4))
    v1 = np.exp(-normal_form_energy(f1, xi))
    v2 = np.exp(-normal_form_energy(f2, xi))
    assert np.max(np.abs(v1 - v2)) < 1e-8
