import struct

import numpy as np
import pytest

from sgnode import mlp
from sgnode.errors import FormatError


def test_same_seed_identical_params():
    a = mlp.init_params(4, 4, seed=9)
    b = mlp.init_params(4, 4, seed=9)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_different_seed_differs():
    a = mlp.init_params(4, 4, seed=9)
    b = mlp.init_params(4, 4, seed=10)
    assert not np.array_equal(a.weights[0], b.weights[0])


def test_param_count_100_to_100():
    # 100*128+128 + 2*(128*128+128) + 128*100+100
    p = mlp.init_params(100, 100, seed=0)
    assert sum(a.size for a in mlp.param_list(p)) == 58852


def test_biases_zero_at_init():
    p = mlp.init_params(7, 3, seed=1)
    for b in p.biases:
        assert np.all(b == 0.0)


def test_glorot_limits():
    p = mlp.init_params(10, 10, seed=2)
    lim1 = np.sqrt(6.0 / (10 + 128))
    assert np.max(np.abs(p.weights[0])) <= lim1
    lim2 = np.sqrt(6.0 / 256)
    assert np.max(np.abs(p.weights[1])) <= lim2


def test_zero_net_outputs_zero():
    p = mlp.zero_params(5, 5)
    x = np.random.default_rng(0).normal(size=(3, 5))
    assert np.array_equal(mlp.forward(p.weights, p.biases, x), np.zeros((3, 5)))


def test_hand_computed_single_path():
    # one active path: relu chain 0.3 -> 0.4 -> 0.8 -> 0.4 -> output 1.0
    p = mlp.zero_params(1, 1)
    p.weights[0][0, 0] = 1.0
    p.biases[0][0] = 0.1
    p.weights[1][0, 0] = 2.0
    p.weights[2][0, 0] = 0.5
    p.weights[3][0, 0] = 3.0
    p.biases[3][0] = -0.2
    assert mlp.forward(p.weights, p.biases, np.array([0.3]))[0] == pytest.approx(1.0, abs=1e-15)
    # negative input dies at the first relu; only the output bias survives
    assert mlp.forward(p.weights, p.biases, np.array([-1.0]))[0] == pytest.approx(-0.2, abs=1e-15)


def test_piecewise_linearity_away_from_kinks():
    p = mlp.init_params(6, 6, seed=3)
    rng = np.random.default_rng(4)
    u = rng.normal(size=6)
    v = rng.normal(size=6)
    f = lambda x: mlp.forward(p.weights, p.biases, x)
    # difference quotient is constant in epsilon while no relu crosses zero
    d1 = (f(u + 1e-4 * v) - f(u)) / 1e-4
    d2 = (f(u + 5e-5 * v) - f(u)) / 5e-5
    assert np.max(np.abs(d1 - d2)) < 1e-9


def test_zero_bias_hidden_stack_positive_homogeneity():
    p = mlp.init_params(4, 4, seed=5)
    x = np.abs(np.random.default_rng(6).normal(size=(1, 4))) + 0.1

    def hidden3(xx):
        h = xx
        for w, b in zip(p.weights[:-1], p.biases[:-1]):
            h = np.maximum(h @ w.T, 0.0)  # biases are zero at init
        return h

    alpha = 3.7
    assert np.max(np.abs(hidden3(alpha * x) - alpha * hidden3(x))) < 1e-12


def test_forward_batch_matches_single():
    # batched and single-row matmuls take different BLAS paths, so agreement
    # is to rounding, not bitwise
    p = mlp.init_params(5, 2, seed=7)
    xs = np.random.default_rng(8).normal(size=(4, 5))
    batch = mlp.forward(p.weights, p.biases, xs)
    for i in range(4):
        assert np.max(np.abs(batch[i] - mlp.forward(p.weights, p.biases, xs[i]))) < 1e-14


def test_per_component_matches_scalar_loop():
    p = mlp.init_params(1, 1, seed=11)
    x = np.random.default_rng(12).normal(size=(2, 6))
    out = mlp.forward_per_component(p.weights, p.biases, x)
    for i in range(2):
        for k in range(6):
            single = mlp.forward(p.weights, p.biases, np.array([x[i, k]]))[0]
            assert abs(out[i, k] - single) < 1e-14


def test_save_load_roundtrip_bit_exact(tmp_path):
    p = mlp.init_params(6, 6, seed=13)
    path = tmp_path / "p.sgnp"
    mlp.save_params(p, path)
    q = mlp.load_params(path)
    for a, b in zip(mlp.param_list(p), mlp.param_list(q)):
        assert np.array_equal(a, b)
    assert q.seed == 13
    x = np.random.default_rng(1).normal(size=(3, 6))
    assert np.array_equal(mlp.forward(p.weights, p.biases, x), mlp.forward(q.weights, q.biases, x))


def test_load_truncated_file(tmp_path):
    p = mlp.init_params(4, 4, seed=0)
    path = tmp_path / "p.sgnp"
    mlp.save_params(p, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(FormatError):
        mlp.load_params(path)


def test_load_bad_magic(tmp_path):
    path = tmp_path / "p.sgnp"
    path.write_bytes(b"WHAT" + b"\x00" * 32)
    with pytest.raises(FormatError):
        mlp.load_params(path)


def test_require_dims_names_both_sides(tmp_path):
    p = mlp.init_params(4, 4, seed=0)
    with pytest.raises(FormatError) as e:
        mlp.require_dims(p, 10, 10)
    assert "4" in str(e.value) and "10" in str(e.value)


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        mlp.init_params(0, 4, seed=0)


def test_load_huge_layer_shape_is_format_error(tmp_path):
    # rows = cols = 0xFFFFFFFF: the header claims far more bytes than the file has
    p = mlp.init_params(2, 2, seed=0)
    path = tmp_path / "p.sgnp"
    mlp.save_params(p, path)
    raw = bytearray(path.read_bytes())
    raw[12:20] = struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        mlp.load_params(path)
