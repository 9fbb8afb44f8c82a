"""Tests for the tiny CNN and the frame baseline, its class head trained alone."""

from __future__ import annotations

import copy
import tracemalloc

import numpy as np
import pytest
from conftest import grad_check, make_pixel_records

from safetymap import nn
from safetymap.cnn import (
    CnnConfig,
    _conv_forward,
    _forward,
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

SMALL = CnnConfig(input_shape=(3, 8, 8), stage_channels=(2,), feature_dim=4)
DESK = CnnConfig(input_shape=(3, 32, 32), stage_channels=(4, 8), feature_dim=16)


def loss_and_grads(model, images, labels):
    """cnn_loss_and_grads into fresh gradient arrays: (loss, grads)."""
    grads = {key: np.empty_like(p) for key, p in model.params.items()}
    return cnn_loss_and_grads(model, images, labels, grads), grads


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

    def test_pooled_outputs_are_rows_of_the_dense_input(self):
        model = init_cnn(DESK, seed=4)
        stages, head = _forward(model, np.random.default_rng(6).random((3, 3, 32, 32)))
        for row, image_stages in zip(head["flat"], stages):
            pooled = image_stages[-1][2]
            assert np.shares_memory(pooled, row)
            assert np.array_equal(pooled.reshape(-1), row)

    def test_stage_records_match_allocating_calls_bitwise(self):
        # the conv's bias and the ReLU run in place on the GEMM output; the
        # reference forms each with a new array
        model = init_cnn(DESK, seed=12)
        image = np.random.default_rng(13).random((3, 32, 32)) - 0.3
        row = np.empty(DESK.flat_dim())
        stages = _conv_forward(model, image, row)
        x = image
        for s, (got_x, got_idx, got_pooled) in enumerate(stages):
            kernels, bias = model.params[f"conv{s}.k"], model.params[f"conv{s}.b"]
            z = kernels.reshape(len(kernels), -1) @ nn._im2col(x, 3, 3, 1) + bias[:, None]
            pooled, idx = nn.maxpool2d_forward(np.maximum(0.0, z).reshape(-1, *x.shape[1:]))
            assert got_x.tobytes() == x.tobytes()
            assert got_idx.tobytes() == idx.tobytes()
            assert got_pooled.tobytes() == pooled.tobytes()
            x = pooled
        assert row.tobytes() == x.tobytes()

    def test_inference_keeps_no_stage_records(self):
        # the training forward keeps every image's argmax caches and pooled
        # outputs for the backward pass; cnn_forward drops each image's
        model = init_cnn(DESK, seed=14)
        images = np.random.default_rng(15).random((64, 3, 32, 32))

        def traced(forward):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                result = forward(model, images)
                return result, tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        (stages, head), training_peak = traced(_forward)
        (probs, features), peak = traced(cnn_forward)
        # the last stage's pooled output is a view of the dense input
        record_bytes = sum(
            idx.nbytes + (pooled.nbytes if s < len(image_stages) - 1 else 0)
            for image_stages in stages
            for s, (_, idx, pooled) in enumerate(image_stages)
        )
        assert training_peak - peak > 0.9 * record_bytes
        assert probs.tobytes() == head["probs"].tobytes()
        assert features.tobytes() == head["features"].tobytes()

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

        def fn(params):
            model.params = params
            return loss_and_grads(model, images, labels)

        assert grad_check(fn, model.params) < 1e-4

    def test_two_stage_gradient_check(self):
        # stage 1's kernels reach the loss only through the input gradient
        # that stage 1 passes back to stage 0
        model = init_cnn(
            CnnConfig(input_shape=(3, 8, 8), stage_channels=(2, 3), feature_dim=4), seed=9
        )
        rng = np.random.default_rng(10)
        images = rng.random((2, 3, 8, 8)) + 0.05
        labels = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])

        def fn(params):
            model.params = params
            return loss_and_grads(model, images, labels)

        assert grad_check(fn, model.params) < 1e-4

    def test_batch_mean_matches_single_image_calls(self):
        model = init_cnn(CnnConfig(input_shape=(3, 8, 8), stage_channels=(2, 3), feature_dim=6), 11)
        rng = np.random.default_rng(12)
        images = rng.random((5, 3, 8, 8))
        labels = (rng.random((5, 3)) < 0.5).astype(np.float64)
        loss, grads = loss_and_grads(model, images, labels)
        singles = [loss_and_grads(model, images[n : n + 1], labels[n : n + 1]) for n in range(5)]
        assert loss == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12)
        for key in model.params:
            want = np.mean([s[1][key] for s in singles], axis=0)
            assert relative_error(grads[key], want) <= 1e-12, key


class TestCnnTrain:
    def test_converges_on_separable_set(self):
        rng = np.random.default_rng(0)
        records, pixels = make_pixel_records(200, rng)
        model = init_cnn(DESK, seed=1)
        history = cnn_train(model, records, pixels, lr=1e-3, batch_size=32, epochs=30, seed=2)
        assert history[-1]["train_loss"] < 0.1

    def test_batch_size_one_also_converges(self):
        rng = np.random.default_rng(0)
        records, pixels = make_pixel_records(200, rng)
        model = init_cnn(DESK, seed=1)
        # batch-1 Adam at lr 1e-3 has transient loss spikes (epoch 8 on this
        # data reads 0.17 between 0.08 and 0.04), so read the loss after 10
        history = cnn_train(model, records, pixels, lr=1e-3, batch_size=1, epochs=10, seed=2)
        assert history[-1]["train_loss"] < 0.1

    def test_zero_epochs_unchanged(self):
        rng = np.random.default_rng(1)
        records, pixels = make_pixel_records(4, rng, height=8, width=8)
        model = init_cnn(SMALL, seed=3)
        before = copy.deepcopy(model.params)
        history = cnn_train(model, records, pixels, lr=1e-3, batch_size=32, epochs=0, seed=0)
        assert history == []
        for k in before:
            assert np.array_equal(model.params[k], before[k])

    def test_same_seed_same_history(self):
        rng = np.random.default_rng(2)
        records, pixels = make_pixel_records(12, rng, height=8, width=8)
        cfg = dict(lr=1e-3, batch_size=4, epochs=3, seed=11)
        h1 = cnn_train(init_cnn(SMALL, seed=5), records, pixels, **cfg)
        h2 = cnn_train(init_cnn(SMALL, seed=5), records, pixels, **cfg)
        assert h1 == h2

    def test_matches_fresh_arrays_per_step(self):
        # cnn_train reuses one image batch and one gradient array per
        # parameter; a step that allocates them anew must give the same
        # bits, a short last batch (10 = 4 + 4 + 2) included
        rng = np.random.default_rng(3)
        records, pixels = make_pixel_records(10, rng, height=8, width=8)
        config = CnnConfig(input_shape=(3, 8, 8), stage_channels=(2, 3), feature_dim=4)
        lr, batch_size, epochs, seed = 1e-2, 4, 2, 12
        model = init_cnn(config, seed=6)
        history = cnn_train(
            model, records, pixels, lr=lr, batch_size=batch_size, epochs=epochs, seed=seed
        )

        want = init_cnn(config, seed=6)
        labels = np.array([r.labels for r in records], dtype=np.float64)
        order_rng = np.random.default_rng(seed)
        state = nn.adam_init(want.params, lr=lr)
        for epoch in range(epochs):
            order = order_rng.permutation(10)
            for start in range(0, 10, batch_size):
                batch = order[start : start + batch_size]
                images = pixels[batch].transpose(0, 3, 1, 2) / 255.0
                _, grads = loss_and_grads(want, images, labels[batch])
                nn.adam_step(want.params, grads, state)
        assert len(history) == 2
        for key in want.params:
            assert np.array_equal(model.params[key], want.params[key]), key

    def test_memory_peak_below_three_and_a_half_parameter_copies(self):
        # feat.w (4096 x 512) is 99% of the parameters. Training holds the
        # gradients and Adam's two moments, three copies; a fourth, such as
        # a tensor-sized Adam scratch, would cross the bound.
        rng = np.random.default_rng(7)
        records, pixels = make_pixel_records(16, rng)
        config = CnnConfig(input_shape=(3, 32, 32), stage_channels=(4, 8), feature_dim=4096)
        model = init_cnn(config, seed=8)
        param_bytes = sum(p.nbytes for p in model.params.values())
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cnn_train(model, records, pixels, lr=1e-3, batch_size=8, epochs=1, seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 3.5 * param_bytes

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cnn_train(
                init_cnn(SMALL, seed=0), [], np.empty((0, 8, 8, 3), np.uint8),
                lr=1e-3, batch_size=32, epochs=1, seed=0,
            )


class TestExtractFeatures:
    def test_attaches_feature_vectors(self):
        rng = np.random.default_rng(5)
        records, pixels = make_pixel_records(3, rng, height=8, width=8)
        model = init_cnn(SMALL, seed=7)
        out = extract_features(model, records, pixels, batch_size=2)
        assert out.shape == (3, 4) and out.dtype == np.float64
        assert np.all(out >= 0.0)

    def test_order_independent(self):
        rng = np.random.default_rng(6)
        records, pixels = make_pixel_records(7, rng, height=8, width=8)
        model = init_cnn(SMALL, seed=8)
        want = extract_features(model, records, pixels, 3)
        for order in (np.arange(7)[::-1], np.array([3, 6, 0, 5, 1, 4, 2])):
            out = extract_features(model, [records[i] for i in order], pixels[order], 3)
            assert np.array_equal(out, want[order])

    def test_batches_match_allocating_division_bitwise(self):
        # the reused float buffer holds what pixels[batch] / 255.0 would,
        # the last, shorter batch included
        rng = np.random.default_rng(8)
        records, pixels = make_pixel_records(7, rng, height=8, width=8)
        model = init_cnn(SMALL, seed=10)
        out = extract_features(model, records, pixels, batch_size=3)
        order = sorted(range(7), key=lambda i: records[i].image_id)
        for start in range(0, 7, 3):
            batch = order[start : start + 3]
            _, want = cnn_forward(model, pixels[batch].transpose(0, 3, 1, 2) / 255.0)
            assert out[batch].tobytes() == want.tobytes()

    def test_matches_single_forward(self):
        rng = np.random.default_rng(7)
        records, pixels = make_pixel_records(2, rng, height=8, width=8)
        model = init_cnn(SMALL, seed=9)
        out = extract_features(model, records, pixels, batch_size=2)
        for image, row in zip(pixels, out):
            _, features = cnn_forward(model, image.transpose(2, 0, 1)[None] / 255.0)
            assert relative_error(row, features[0]) <= 1e-12


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

    @pytest.mark.parametrize("value", [4.9, "4", True], ids=["float", "string", "bool"])
    @pytest.mark.parametrize(
        "key, index",
        [("kernel_size", None), ("feature_dim", None), ("input_shape", 1), ("stage_channels", 0)],
    )
    def test_non_integer_meta_rejected(self, tmp_path, key, index, value):
        def edit(tensors, meta):
            if index is None:
                meta[key] = value
            else:
                meta[key][index] = value

        path = self._resave(tmp_path, edit)
        with pytest.raises(ValueError) as info:
            cnn_load(path)
        assert str(info.value).startswith(f"{path}: incomplete or invalid cnn meta: ValueError(")
        assert f"{key} must be an integer, got {value!r}" in str(info.value)

    def test_feature_dim_disagreeing_with_tensors_rejected(self, tmp_path):
        path = self._resave(tmp_path, lambda t, m: m.update(feature_dim=5))
        with pytest.raises(ValueError, match=r"feat.w \(4, 32\), meta implies \(5, 32\)"):
            cnn_load(path)


class TestFrameClassifier:
    def _separable_records(self, n, rng):
        records, _ = make_pixel_records(n, rng, height=8, width=8)
        feats = np.empty((n, 8))
        for r, row in zip(records, feats):
            row[:] = rng.normal(0.0, 0.3, size=8)
            row[:3] = np.where(np.array(r.labels), 1.0, -1.0)
        return records, feats

    def test_trains_and_separates(self):
        rng = np.random.default_rng(12)
        records, feats = self._separable_records(300, rng)
        model = init_frame_classifier(8, seed=13)
        frame_train(model, records, feats, lr=1e-2, batch_size=32, epochs=30, seed=14)
        labels = np.array([r.labels for r in records])
        preds = frame_predict(model, feats) > 0.5
        assert (preds == labels).mean() > 0.97

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        records, feats = self._separable_records(50, rng)
        cfg = dict(lr=1e-2, batch_size=8, epochs=3, seed=16)
        m1 = init_frame_classifier(8, seed=17)
        m2 = init_frame_classifier(8, seed=17)
        assert frame_train(m1, records, feats, **cfg) == frame_train(m2, records, feats, **cfg)
