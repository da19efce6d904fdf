"""The manufactured fields, evaluated one coordinate at a time, equal their
textbook formulas bit for bit: the plain per-point formulas below (stacked
columns, a C-ordered (n, 3, 3) gradient, strain 0.5 (g + g^T)) are the
oracle, for points given C-ordered and as the transpose of a (3, n) array."""

import numpy as np
import pytest

from polyelast.analysis import AFFINE_MATRIX, AFFINE_OFFSET, manufactured_case


def trig_parts(p, k):
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    return (np.sin(k * x), np.sin(k * y), np.sin(k * z),
            np.cos(k * x), np.cos(k * y), np.cos(k * z))


def field_a(parts):
    sx, sy, sz, cx, cy, cz = parts
    return np.column_stack([-2.0 * sx * cy * cz, cx * sy * cz, cx * cy * sz])


def grad_a(parts, k):
    sx, sy, sz, cx, cy, cz = parts
    g = np.empty((len(sx), 3, 3))
    g[:, 0, 0] = -2.0 * k * cx * cy * cz
    g[:, 0, 1] = 2.0 * k * sx * sy * cz
    g[:, 0, 2] = 2.0 * k * sx * cy * sz
    g[:, 1, 0] = -k * sx * sy * cz
    g[:, 1, 1] = k * cx * cy * cz
    g[:, 1, 2] = -k * cx * sy * sz
    g[:, 2, 0] = -k * sx * cy * sz
    g[:, 2, 1] = -k * cx * sy * sz
    g[:, 2, 2] = k * cx * cy * cz
    return g


def oracle(name, lam, mu=1.0):
    """displacement, gradient, divergence and body force of a case."""
    if name == "example1":
        k = np.pi
        return (lambda p: field_a(trig_parts(p, k)),
                lambda p: grad_a(trig_parts(p, k), k),
                lambda p: np.zeros(len(p)),
                lambda p: 3.0 * k * k * mu * field_a(trig_parts(p, k)))
    if name in ("example2", "example3"):
        k = 2.0 * np.pi

        def disp(p):
            parts = trig_parts(p, k)
            return field_a(parts) + np.column_stack(parts[:3]) / lam

        def grad(p):
            parts = trig_parts(p, k)
            g = grad_a(parts, k)
            g[:, np.arange(3), np.arange(3)] += (k / lam) * np.column_stack(parts[3:])
            return g

        def force(p):
            parts = trig_parts(p, k)
            return (3.0 * k * k * mu * field_a(parts)
                    + (k * k / lam) * (2.0 * mu + lam) * np.column_stack(parts[:3]))

        return (disp, grad, lambda p: (k / lam) * np.cos(k * p).sum(axis=1), force)
    return (lambda p: p @ AFFINE_MATRIX.T + AFFINE_OFFSET,
            lambda p: np.broadcast_to(AFFINE_MATRIX, (len(p), 3, 3)).copy(),
            lambda p: np.full(len(p), float(np.trace(AFFINE_MATRIX))),
            lambda p: np.zeros((len(p), 3)))


def oracle_strain(grad, p):
    g = grad(p)
    return 0.5 * (g + g.transpose(0, 2, 1))


def oracle_traction(grad, div, lam, mu, p, normal):
    stress = 2.0 * mu * oracle_strain(grad, p)
    stress[:, np.arange(3), np.arange(3)] += lam * div(p)[:, None]
    return (stress @ np.asarray(normal, dtype=float)[..., None])[..., 0]


def layouts(points):
    """The points C-ordered and as the transpose of a (3, n) array, both read-only."""
    transposed = np.ascontiguousarray(points.T).T
    for p in (points.copy(), transposed):
        p.flags.writeable = False
        yield p


@pytest.mark.parametrize("n", [1, 1001])
@pytest.mark.parametrize("lam", [1.0, 1e8])
@pytest.mark.parametrize("name", ["example1", "example2", "example3", "affine"])
def test_fields_equal_the_textbook_formulas(name, lam, n):
    rng = np.random.default_rng(n)
    points = rng.uniform(-0.25, 1.25, (n, 3))
    normals = rng.standard_normal((n, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    case = manufactured_case(name, lam=lam)
    disp, grad, div, force = oracle(name, lam)
    expected = {
        "displacement": disp(points),
        "gradient": grad(points),
        "strain": oracle_strain(grad, points),
        "divergence": div(points),
        "body_force": force(points),
    }
    one_normal = oracle_traction(grad, div, lam, 1.0, points, normals[0])
    per_point = oracle_traction(grad, div, lam, 1.0, points, normals)
    for p in layouts(points):
        for what, value in expected.items():
            got = getattr(case, what)(p)
            assert got.shape == value.shape, what
            assert np.array_equal(got, value), what
        assert np.array_equal(case.traction(p, normals[0]), one_normal)
        assert np.array_equal(case.traction(p, normals), per_point)
        assert np.all(p == points)
