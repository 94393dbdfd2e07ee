import numpy as np
import numpy.testing as npt
import pytest

from funcnet.activations import Activation


def test_values_match_reference_formulas():
    z = np.linspace(-4.0, 4.0, 33)
    npt.assert_allclose(Activation("tanh")(z), np.tanh(z), rtol=1e-15)
    npt.assert_allclose(Activation("relu")(z), np.maximum(z, 0.0), rtol=1e-15)
    npt.assert_allclose(Activation("sigmoid")(z), 1.0 / (1.0 + np.exp(-z)),
                        rtol=1e-12)
    npt.assert_array_equal(Activation("identity")(z), z)


def test_derivatives_match_finite_differences():
    # stay away from relu's kink, where the derivative is not defined
    z = np.linspace(-3.0, 3.0, 41) + 0.0123
    eps = 1e-6
    for name in ("tanh", "relu", "sigmoid", "identity"):
        act = Activation(name)
        numeric = (act(z + eps) - act(z - eps)) / (2.0 * eps)
        # deriv takes the activated output, not the input
        npt.assert_allclose(act.deriv(act(z)), numeric, atol=1e-8)


def _input_derivatives(z):
    """act'(z) computed from the input, operation by operation as the
    derivatives were written before they took the output."""
    t = np.tanh(z)
    s = Activation("sigmoid")(z)
    return {
        "relu": np.greater(z, 0.0).astype(float),
        "tanh": 1.0 - t * t,
        "sigmoid": s * (1.0 - s),
        "identity": np.ones_like(z),
    }


def test_output_derivatives_repeat_input_derivatives_bit_for_bit():
    rng = np.random.default_rng(0)
    z = np.concatenate([rng.normal(scale=3.0, size=200), [0.0, -0.0, 1e-300, -1e-300,
                                                          1e4, -1e4, 30.0, -30.0]])
    for name, expected in _input_derivatives(z).items():
        act = Activation(name)
        h = act(z)
        assert act.deriv(h).tobytes() == expected.tobytes(), name
        out = np.empty_like(z)
        assert act.deriv(h, out=out) is out
        assert out.tobytes() == expected.tobytes(), name


def test_relu_subgradient_at_zero_is_zero():
    relu = Activation("relu")
    assert relu.deriv(relu(np.array([0.0])))[0] == 0.0


def test_sigmoid_survives_extreme_inputs():
    out = Activation("sigmoid")(np.array([-1e4, 1e4]))
    assert np.all(np.isfinite(out))
    npt.assert_allclose(out, [0.0, 1.0], atol=1e-12)


def test_unknown_name_is_rejected():
    with pytest.raises(ValueError, match="softmax"):
        Activation("softmax")
