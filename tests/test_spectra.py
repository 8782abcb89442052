import numpy as np
import pytest

from grid_concentrator import graph_core as gc
from grid_concentrator import spectra

E12 = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_operator_norm_identity():
    assert spectra.operator_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_elementary():
    assert spectra.operator_norm(E12) == pytest.approx(2.0, abs=1e-12)


def test_operator_norm_p3_laplacian():
    # eigenvalues {0, 1, 3}
    lap = gc.weighted_laplacians(gc.path_topology(3), np.ones(2))
    assert spectra.operator_norm(lap) == pytest.approx(3.0, abs=1e-10)


def test_operator_norm_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        spectra.operator_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="NaN"):
        spectra.operator_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_operator_norm_accepts_non_contiguous_views():
    rng = np.random.default_rng(20)
    a = _random_complex(rng, 5)
    assert spectra.operator_norm(a.T) == pytest.approx(
        float(np.linalg.svd(a.T, compute_uv=False)[0]))


def test_operator_norm_hermitian_vs_svd_paths():
    rng = np.random.default_rng(21)
    for _ in range(50):
        for h in (_random_complex(rng, 6), rng.standard_normal((6, 6))):
            h = (h + h.conj().T) / 2
            by_eig = spectra.operator_norm(h)
            by_svd = float(np.linalg.svd(h, compute_uv=False)[0])
            assert by_eig == pytest.approx(by_svd, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("kind", ["real_symmetric", "real", "complex"])
def test_operator_norm_stack_bit_equal_per_matrix(kind):
    rng = np.random.default_rng(26)
    stack = rng.standard_normal((4, 3, 5, 5))
    if kind == "real_symmetric":
        stack = stack + np.swapaxes(stack, -1, -2)
    elif kind == "complex":
        stack = stack + 1j * rng.standard_normal(stack.shape)
    norms = spectra.operator_norm(stack)
    assert norms.shape == (4, 3)
    per_matrix = [[spectra.operator_norm(m) for m in row] for row in stack]
    np.testing.assert_array_equal(norms, per_matrix)
    np.testing.assert_allclose(norms, np.linalg.norm(stack, ord=2, axis=(-2, -1)),
                               rtol=1e-12)


def test_operator_norm_empty_and_non_finite_stacks():
    assert spectra.operator_norm(np.zeros((0, 0))) == 0.0
    np.testing.assert_array_equal(spectra.operator_norm(np.zeros((3, 0, 0))), np.zeros(3))
    assert spectra.operator_norm(np.zeros((0, 4, 4))).shape == (0,)
    for dtype in (float, complex):
        stack = np.ones((3, 4, 4), dtype=dtype)
        stack[2, 1, 3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            spectra.operator_norm(stack)
    with pytest.raises(ValueError):
        spectra.operator_norm(np.ones(3))


def test_operator_norm_triangle_and_submultiplicative():
    rng = np.random.default_rng(22)
    for _ in range(50):
        a = _random_complex(rng, 5)
        b = _random_complex(rng, 5)
        na, nb = spectra.operator_norm(a), spectra.operator_norm(b)
        assert spectra.operator_norm(a + b) <= na + nb + 1e-10
        assert spectra.operator_norm(a @ b) <= na * nb + 1e-10


def test_operator_norm_blockdiag_is_max():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = _random_complex(rng, 4)
        b = _random_complex(rng, 3)
        blk = np.zeros((7, 7), dtype=complex)
        blk[:4, :4] = a
        blk[4:, 4:] = b
        expected = max(spectra.operator_norm(a), spectra.operator_norm(b))
        assert spectra.operator_norm(blk) == pytest.approx(expected, rel=1e-9)


def test_intrinsic_dimension_identity():
    assert spectra.intrinsic_dimension(np.eye(7)) == pytest.approx(7.0)


def test_intrinsic_dimension_rank_one():
    v = np.array([[1.0], [2.0], [-1.0]])
    assert spectra.intrinsic_dimension(v @ v.T) == pytest.approx(1.0)


def test_intrinsic_dimension_weighted_triangle():
    # K3 Laplacian at uniform weight 0.5: eigenvalues {0, 1.5, 1.5},
    # trace 3, norm 1.5.
    lap = gc.weighted_laplacians(gc.complete_topology(3), np.full(3, 0.5))
    assert spectra.intrinsic_dimension(lap) == pytest.approx(2.0, abs=1e-10)


def test_intrinsic_dimension_zero_matrix_errors():
    with pytest.raises(ValueError, match="zero"):
        spectra.intrinsic_dimension(np.zeros((3, 3)))


def test_intrinsic_dimension_psd_flag_violation():
    with pytest.raises(ValueError, match="PSD"):
        spectra.intrinsic_dimension(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="Hermitian"):
        spectra.intrinsic_dimension(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        spectra.intrinsic_dimension(np.ones((2, 3)))


def test_intrinsic_dimension_within_rank_bound():
    rng = np.random.default_rng(24)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        v = rng.standard_normal((6, k))
        mat = v @ v.T
        idim = spectra.intrinsic_dimension(mat)
        assert 1.0 - 1e-9 <= idim <= np.linalg.matrix_rank(mat) + 1e-9


def test_kron_norm_admittance_block():
    # 2 * sqrt(g^2 + b^2) with g = 3, b = 4
    upsilon = np.array([[3.0, -4.0], [-4.0, -3.0]])
    assert spectra.operator_norm(np.kron(upsilon, E12)) == pytest.approx(10.0, abs=1e-9)


def _stack(kind, shape, k=6, seed=27):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal(shape + (k, k))
    if kind == "symmetric":
        return stack + np.swapaxes(stack, -1, -2)
    return stack + 1j * rng.standard_normal(stack.shape)


@pytest.mark.parametrize("kind", ["symmetric", "complex"])  # eigvalsh and SVD
@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("shape", [(1,), (7,), (2, 7)])
def test_split_norms_bit_equal_per_matrix(kind, parts, shape):
    # A stack cut along its leading axis, as the harness cuts a run into chunks, and
    # normed part by part gives every matrix the bytes of its own call and of the whole.
    stack = _stack(kind, shape)
    per_matrix = np.array([spectra.operator_norm(m) for m in stack.reshape(-1, 6, 6)])
    norms = np.concatenate([spectra.operator_norm(part) for part in np.array_split(stack, parts)])
    assert norms.shape == shape
    assert norms.tobytes() == per_matrix.reshape(shape).tobytes()
    assert norms.tobytes() == spectra.operator_norm(stack).tobytes()
