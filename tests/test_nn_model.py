"""Tests for repro.nn.model.Sequential."""

import numpy as np
import pytest

from repro.nn.layers import Dense, Flatten, ReLU, Softmax
from repro.nn.model import PrefixCache, Sequential, predict_classes
from repro.utils.errors import ConfigurationError
from repro.zoo.architectures import compact_cnn

RNG = np.random.default_rng(0)


def small_model(seed=0):
    return Sequential(
        [
            Flatten(name="flatten"),
            Dense(16, 12, seed=seed, name="fc1"),
            ReLU(name="relu1"),
            Dense(12, 4, seed=seed + 1, name="fc_logits"),
            Softmax(name="softmax"),
        ],
        name="small",
    )


class TestConstruction:
    def test_requires_layers(self):
        with pytest.raises(ConfigurationError):
            Sequential([])

    def test_duplicate_names_are_uniquified(self):
        model = Sequential([ReLU(name="act"), ReLU(name="act"), ReLU(name="act")])
        names = [layer.name for layer in model.layers]
        assert len(set(names)) == 3

    def test_n_params(self):
        model = small_model()
        assert model.n_params == (16 * 12 + 12) + (12 * 4 + 4)

    def test_summary_mentions_layers(self):
        text = small_model().summary()
        assert "fc_logits" in text and "Dense" in text


class TestForward:
    def test_forward_shape(self):
        model = small_model()
        out = model.forward(RNG.random((5, 4, 4, 1)))
        assert out.shape == (5, 4)
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_logits_excludes_softmax(self):
        model = small_model()
        x = RNG.random((3, 4, 4, 1))
        logits = model.logits(x)
        assert not np.allclose(logits.sum(axis=1), 1.0)
        probs = model.forward(x)
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(probs, shifted / shifted.sum(axis=1, keepdims=True))

    def test_logits_end_without_softmax(self):
        model = Sequential([Dense(3, 2, seed=0)])
        assert model.logits_end == 1

    def test_forward_between_composes(self):
        model = small_model()
        x = RNG.random((2, 4, 4, 1))
        mid = model.forward_between(x, 0, 3)
        full = model.forward_between(mid, 3, len(model.layers))
        np.testing.assert_allclose(full, model.forward(x))

    def test_forward_between_invalid_slice(self):
        model = small_model()
        with pytest.raises(ConfigurationError):
            model.forward_between(RNG.random((1, 16)), 3, 2)

    def test_predict_labels(self):
        model = small_model()
        labels = model.predict(RNG.random((7, 4, 4, 1)))
        assert labels.shape == (7,)
        assert labels.min() >= 0 and labels.max() < 4

    def test_predict_batching_consistent(self):
        model = small_model()
        x = RNG.random((23, 4, 4, 1))
        np.testing.assert_array_equal(
            model.predict(x, batch_size=5), model.predict(x, batch_size=100)
        )

    def test_predict_proba_rows_sum_to_one(self):
        model = small_model()
        probs = model.predict_proba(RNG.random((6, 4, 4, 1)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_evaluate_range(self):
        model = small_model()
        x = RNG.random((20, 4, 4, 1))
        y = RNG.integers(0, 4, 20)
        acc = model.evaluate(x, y)
        assert 0.0 <= acc <= 1.0


class TestParameters:
    def test_named_parameters_complete(self):
        model = small_model()
        names = [(l, p) for l, p, _ in model.named_parameters()]
        assert ("fc1", "W") in names and ("fc_logits", "b") in names
        assert len(names) == 4

    def test_get_layer(self):
        model = small_model()
        assert model.get_layer("fc1").name == "fc1"
        with pytest.raises(KeyError):
            model.get_layer("missing")

    def test_layer_index(self):
        model = small_model()
        assert model.layer_index("fc_logits") == 3
        with pytest.raises(KeyError):
            model.layer_index("missing")

    def test_trainable_layers(self):
        assert [l.name for l in small_model().trainable_layers()] == ["fc1", "fc_logits"]

    def test_snapshot_restore(self):
        model = small_model()
        x = RNG.random((4, 4, 4, 1))
        before = model.forward(x)
        snapshot = model.snapshot()
        model.get_layer("fc1").params["W"][...] += 1.0
        assert not np.allclose(model.forward(x), before)
        model.restore(snapshot)
        np.testing.assert_allclose(model.forward(x), before)

    def test_restore_missing_key_raises(self):
        model = small_model()
        snapshot = model.snapshot()
        del snapshot["fc1/W"]
        with pytest.raises(KeyError):
            model.restore(snapshot)

    def test_restore_shape_mismatch_raises(self):
        model = small_model()
        snapshot = model.snapshot()
        snapshot["fc1/W"] = np.zeros((2, 2))
        with pytest.raises(ConfigurationError):
            model.restore(snapshot)

    def test_copy_is_independent(self):
        model = small_model()
        clone = model.copy()
        clone.get_layer("fc1").params["W"][...] = 0.0
        assert not np.allclose(model.get_layer("fc1").params["W"], 0.0)

    def test_copy_preserves_outputs(self):
        model = small_model()
        clone = model.copy()
        x = RNG.random((3, 4, 4, 1))
        np.testing.assert_allclose(model.forward(x), clone.forward(x))


class TestBackward:
    def test_backward_shapes(self):
        model = small_model()
        x = RNG.random((6, 4, 4, 1))
        logits = model.forward_between(x, 0, model.logits_end)
        grad_in = model.backward_between(np.ones_like(logits), 0, model.logits_end)
        assert grad_in.shape == x.shape
        assert model.get_layer("fc1").grads["W"].shape == (16, 12)

    def test_zero_grads(self):
        model = small_model()
        x = RNG.random((2, 4, 4, 1))
        logits = model.forward_between(x, 0, model.logits_end)
        model.backward_between(np.ones_like(logits), 0, model.logits_end)
        model.zero_grads()
        assert np.all(model.get_layer("fc_logits").grads["W"] == 0)


class TestConfig:
    def test_config_roundtrip_structure(self):
        model = small_model()
        rebuilt = Sequential.from_config(model.get_config())
        assert [l.name for l in rebuilt.layers] == [l.name for l in model.layers]
        assert rebuilt.n_params == model.n_params


class TestPrefixCache:
    """Suffix-only re-measurement equals a full-network pass bit for bit."""

    BATCH = 8

    @pytest.fixture(scope="class")
    def cnn(self):
        return compact_cnn((12, 12, 1), 6, seed=4, hidden=(20, 16), conv_channels=(4, 8))

    @pytest.mark.parametrize("layer", ["fc_logits", "fc1", "conv1"])
    @pytest.mark.parametrize("count", [5, BATCH, 19])  # below, equal, not a multiple
    def test_logits_match_predict_logits(self, cnn, layer, count):
        images = np.random.default_rng(count).random((count, 12, 12, 1))
        start = cnn.layer_index(layer)
        if layer == "conv1":
            assert start == 0
        cache = PrefixCache(cnn, images, start, batch_size=self.BATCH)
        attacked = cnn.copy()
        weights = attacked.get_layer(layer).params["W"]
        weights += np.random.default_rng(1).normal(0.0, 0.3, weights.shape)
        for model in (cnn, attacked):
            expected = model.predict_logits(images, batch_size=self.BATCH)
            np.testing.assert_array_equal(cache.logits(model), expected)
            np.testing.assert_array_equal(cache.predict(model), np.argmax(expected, axis=1))

    def test_non_finite_rows_predict_no_class(self):
        logits = np.array(
            [[0.1, 2.0, -1.0], [np.nan, 0.0, 1.0], [0.0, np.inf, 1.0], [3.0, 0.0, -np.inf]]
        )
        np.testing.assert_array_equal(predict_classes(logits), [1, -1, -1, -1])

    def test_nan_weights_predict_no_class(self, cnn):
        images = np.random.default_rng(2).random((6, 12, 12, 1))
        cache = PrefixCache(cnn, images, cnn.layer_index("fc_logits"))
        broken = cnn.copy()
        broken.get_layer("fc_logits").params["W"][0, 0] = np.nan
        # Plain argmax would report class 0, the first NaN, for every image.
        assert np.all(np.argmax(broken.predict_logits(images), axis=1) == 0)
        np.testing.assert_array_equal(cache.predict(broken), np.full(6, -1))
