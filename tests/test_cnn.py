"""Tests for the tiny CNN and the logistic frame classifier."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from conftest import make_pixel_records

from safetymap.cnn import (
    CnnConfig,
    TrainConfig,
    cnn_forward,
    cnn_load,
    cnn_loss_and_grads,
    cnn_save,
    cnn_train,
    extract_features,
    frame_predict,
    frame_train,
    init_cnn,
    init_frame_classifier,
)
from safetymap.modelio import load_tensors, save_tensors
from safetymap.nn import grad_check

SMALL = CnnConfig(input_shape=(3, 8, 8), stage_channels=(2,), feature_dim=4)
DESK = CnnConfig(input_shape=(3, 32, 32), stage_channels=(4, 8), feature_dim=16)


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute difference over the largest magnitude of want."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestCnnForward:
    def test_zero_weights(self):
        model = init_cnn(SMALL, seed=0)
        for k in model.params:
            model.params[k][:] = 0.0
        probs, features = cnn_forward(model, np.random.default_rng(0).random((2, 3, 8, 8)))
        assert probs.tolist() == [[0.5, 0.5, 0.5]] * 2
        assert np.all(features == 0.0)

    def test_probs_in_open_interval(self):
        model = init_cnn(SMALL, seed=1)
        rng = np.random.default_rng(2)
        probs, _ = cnn_forward(model, rng.random((5, 3, 8, 8)))
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_deterministic_given_seed(self):
        images = np.random.default_rng(3).random((2, 3, 8, 8))
        a = cnn_forward(init_cnn(SMALL, seed=5), images)
        b = cnn_forward(init_cnn(SMALL, seed=5), images)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_features_nonnegative(self):
        model = init_cnn(SMALL, seed=4)
        _, features = cnn_forward(model, np.random.default_rng(5).random((3, 3, 8, 8)))
        assert np.all(features >= 0.0)

    def test_shape_mismatch(self):
        model = init_cnn(SMALL, seed=0)
        with pytest.raises(ValueError, match="shape"):
            cnn_forward(model, np.zeros((1, 3, 16, 16)))
        with pytest.raises(ValueError, match="shape"):
            cnn_forward(model, np.zeros((3, 8, 8)))


class TestCnnGradients:
    def test_full_model_gradient_check(self):
        model = init_cnn(SMALL, seed=7)
        rng = np.random.default_rng(8)
        images = rng.random((2, 3, 8, 8)) + 0.05  # jitter keeps preactivations off kinks
        labels = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])

        def loss_and_grads(params):
            model.params = params
            loss, grads, _ = cnn_loss_and_grads(model, images, labels)
            return loss, grads

        assert grad_check(loss_and_grads, model.params) < 1e-4

    def test_input_gradient(self):
        model = init_cnn(SMALL, seed=9)
        rng = np.random.default_rng(10)
        images = rng.random((2, 3, 8, 8)) + 0.05
        labels = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])

        def loss_and_grads(params):
            loss, _, grad_img = cnn_loss_and_grads(model, params["img"], labels)
            return loss, {"img": grad_img}

        assert grad_check(loss_and_grads, {"img": images}) < 1e-4

    def test_batch_mean_matches_single_image_calls(self):
        model = init_cnn(CnnConfig(input_shape=(3, 8, 8), stage_channels=(2, 3), feature_dim=6), 11)
        rng = np.random.default_rng(12)
        images = rng.random((5, 3, 8, 8))
        labels = (rng.random((5, 3)) < 0.5).astype(np.float64)
        loss, grads, grad_images = cnn_loss_and_grads(model, images, labels)
        singles = [
            cnn_loss_and_grads(model, images[n : n + 1], labels[n : n + 1]) for n in range(5)
        ]
        assert loss == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12)
        for key in model.params:
            want = np.mean([s[1][key] for s in singles], axis=0)
            assert relative_error(grads[key], want) <= 1e-12, key
        # the batch-mean loss weighs each image's own loss by 1/N
        want = np.concatenate([s[2] for s in singles]) / 5
        assert relative_error(grad_images, want) <= 1e-12


class TestCnnTrain:
    def test_converges_on_separable_set(self):
        rng = np.random.default_rng(0)
        records = make_pixel_records(200, rng)
        model = init_cnn(DESK, seed=1)
        history = cnn_train(model, records, TrainConfig(lr=1e-3, batch_size=32, epochs=30, seed=2))
        assert history[-1]["train_loss"] < 0.1

    def test_batch_size_one_also_converges(self):
        rng = np.random.default_rng(0)
        records = make_pixel_records(200, rng)
        model = init_cnn(DESK, seed=1)
        # batch-1 Adam at lr 1e-3 has transient loss spikes (epoch 8 on this
        # data reads 0.17 between 0.08 and 0.04), so read the loss after 10
        history = cnn_train(model, records, TrainConfig(lr=1e-3, batch_size=1, epochs=10, seed=2))
        assert history[-1]["train_loss"] < 0.1

    def test_zero_epochs_unchanged(self):
        rng = np.random.default_rng(1)
        records = make_pixel_records(4, rng, height=8, width=8)
        model = init_cnn(SMALL, seed=3)
        before = copy.deepcopy(model.params)
        history = cnn_train(model, records, TrainConfig(epochs=0))
        assert history == []
        for k in before:
            assert np.array_equal(model.params[k], before[k])

    def test_same_seed_same_history(self):
        rng = np.random.default_rng(2)
        records = make_pixel_records(12, rng, height=8, width=8)
        cfg = TrainConfig(lr=1e-3, batch_size=4, epochs=3, seed=11)
        h1 = cnn_train(init_cnn(SMALL, seed=5), records, cfg)
        h2 = cnn_train(init_cnn(SMALL, seed=5), records, cfg)
        assert h1 == h2

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cnn_train(init_cnn(SMALL, seed=0), [], TrainConfig(epochs=1))

    def test_missing_pixels_rejected(self):
        rng = np.random.default_rng(4)
        records = make_pixel_records(2, rng, height=8, width=8)
        from dataclasses import replace

        records[1] = replace(records[1], pixels=None)
        with pytest.raises(ValueError, match="pixels"):
            cnn_train(init_cnn(SMALL, seed=0), records, TrainConfig(epochs=1))


class TestExtractFeatures:
    def test_attaches_feature_vectors(self):
        rng = np.random.default_rng(5)
        records = make_pixel_records(3, rng, height=8, width=8)
        model = init_cnn(SMALL, seed=7)
        out = extract_features(model, records, batch_size=2)
        assert [r.image_id for r in out] == [r.image_id for r in records]
        assert all(r.features is not None and r.features.shape == (4,) for r in out)
        assert all(np.all(r.features >= 0.0) for r in out)

    def test_order_independent(self):
        rng = np.random.default_rng(6)
        records = make_pixel_records(7, rng, height=8, width=8)
        model = init_cnn(SMALL, seed=8)
        fwd = {r.image_id: f for r, f in zip(records, extract_features(model, records, 3))}
        shuffled = [records[i] for i in (3, 6, 0, 5, 1, 4, 2)]
        for order in (records[::-1], shuffled):
            out = {r.image_id: f for r, f in zip(order, extract_features(model, order, 3))}
            for key in fwd:
                assert np.array_equal(fwd[key].features, out[key].features)

    def test_matches_single_forward(self):
        rng = np.random.default_rng(7)
        records = make_pixel_records(2, rng, height=8, width=8)
        model = init_cnn(SMALL, seed=9)
        out = extract_features(model, records, batch_size=2)
        for r_in, r_out in zip(records, out):
            image = r_in.pixels.transpose(2, 0, 1) / 255.0
            _, features = cnn_forward(model, image[None])
            assert relative_error(r_out.features, features[0]) <= 1e-12


class TestCnnSerialization:
    def test_round_trip(self, tmp_path):
        model = init_cnn(SMALL, seed=10)
        path = tmp_path / "cnn.bin"
        cnn_save(model, str(path), seed=10)
        loaded = cnn_load(str(path))
        assert loaded.config == model.config
        image = np.random.default_rng(11).random((1, 3, 8, 8))
        a = cnn_forward(model, image)
        b = cnn_forward(loaded, image)
        assert np.array_equal(a[0], b[0])

    def _resave(self, tmp_path, edit):
        """Save a SMALL model, let edit(tensors, meta) alter what was written,
        and write the result back; returns the path."""
        path = tmp_path / "cnn.bin"
        cnn_save(init_cnn(SMALL, seed=10), str(path))
        tensors, meta = load_tensors(str(path))
        edit(tensors, meta)
        save_tensors(str(path), tensors, meta)
        return str(path)

    def test_missing_meta_key_rejected(self, tmp_path):
        path = self._resave(tmp_path, lambda t, m: m.pop("kernel_size"))
        with pytest.raises(ValueError, match=r"invalid cnn meta: KeyError\('kernel_size'\)"):
            cnn_load(path)

    def test_feature_dim_disagreeing_with_tensors_rejected(self, tmp_path):
        path = self._resave(tmp_path, lambda t, m: m.update(feature_dim=5))
        with pytest.raises(ValueError, match=r"feat.w \(4, 32\), meta implies \(5, 32\)"):
            cnn_load(path)


class TestFrameClassifier:
    def _separable_records(self, n, rng):
        from dataclasses import replace

        from conftest import make_pixel_records

        records = make_pixel_records(n, rng, height=8, width=8)
        out = []
        for r in records:
            feats = rng.normal(0.0, 0.3, size=8)
            feats[:3] = np.where(np.array(r.labels), 1.0, -1.0)
            out.append(replace(r, pixels=None, features=feats))
        return out

    def test_trains_and_separates(self):
        rng = np.random.default_rng(12)
        records = self._separable_records(300, rng)
        model = init_frame_classifier(8, seed=13)
        frame_train(model, records, TrainConfig(lr=1e-2, batch_size=32, epochs=30, seed=14))
        feats = np.stack([r.features for r in records])
        labels = np.array([r.labels for r in records])
        preds = frame_predict(model, feats) > 0.5
        assert (preds == labels).mean() > 0.97

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        records = self._separable_records(50, rng)
        cfg = TrainConfig(lr=1e-2, batch_size=8, epochs=3, seed=16)
        m1 = init_frame_classifier(8, seed=17)
        m2 = init_frame_classifier(8, seed=17)
        assert frame_train(m1, records, cfg) == frame_train(m2, records, cfg)
