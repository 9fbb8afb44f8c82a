"""Tests for the tiny CNN, whose class head over its features is the frame baseline."""

from __future__ import annotations

import copy
import dataclasses
import logging
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (
    assert_no_child_left, grad_check, make_pixel_records, materialize, store_feat_w, write_ppm,
)

from safetymap import SchemaError, cnn, nn
from safetymap.cnn import (
    CnnConfig,
    _conv_forward,
    _conv_rows,
    cnn_forward,
    cnn_load,
    cnn_loss_and_grads,
    cnn_save,
    cnn_train,
    extract_features,
    frame_predict,
    init_cnn,
)
from safetymap.data import load_pixels
from safetymap.modelio import load_tensors, save_tensors

SMALL = CnnConfig(input_shape=(3, 8, 8), stage_channels=(2,), feature_dim=4)
DESK = CnnConfig(input_shape=(3, 32, 32), stage_channels=(4, 8), feature_dim=16)


def loss_and_grads(model, images, labels):
    """cnn_loss_and_grads into fresh gradient arrays and batch buffers,
    feat.w's factor pair stored under its name: (loss, grads)."""
    grads = {key: np.empty_like(p) for key, p in model.params.items()}
    buffers = np.empty((2, len(labels), model.config.flat_dim()))
    return cnn_loss_and_grads(model, images, labels, grads, store_feat_w(grads), buffers), grads


def uint8_images(rng: np.random.Generator, n: int, size: int, low: int = 0) -> np.ndarray:
    """n random size x size x 3 uint8 images of levels low to 255."""
    return rng.integers(low, 256, (n, size, size, 3), dtype=np.uint8)


def reference_features(model, images: np.ndarray) -> np.ndarray:
    """cnn_forward's features from the float batch images / 255.0, divided
    before any conv stage runs, through nn's kernels one image at a time."""
    pad = model.config.kernel_size // 2
    flat = []
    for x in images.transpose(0, 3, 1, 2) / 255.0:
        for s in range(len(model.config.stage_channels)):
            z = nn.conv2d_forward(x, model.params[f"conv{s}.k"], model.params[f"conv{s}.b"], pad)
            x, _ = nn.maxpool2d_forward(nn.relu(z))
        flat.append(x.reshape(-1))
    return nn.relu(nn.dense_forward(np.array(flat), model.params["feat.w"], model.params["feat.b"]))


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute difference over the largest magnitude of want."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestCnnForward:
    def test_zero_weights(self):
        model = init_cnn(SMALL, seed=0)
        for k in model.params:
            model.params[k][:] = 0.0
        features = cnn_forward(model, uint8_images(np.random.default_rng(0), 2, 8))
        assert frame_predict(model.params, features).tolist() == [[0.5, 0.5, 0.5]] * 2
        assert np.all(features == 0.0)

    def test_probs_in_open_interval(self):
        model = init_cnn(SMALL, seed=1)
        rng = np.random.default_rng(2)
        probs = frame_predict(model.params, cnn_forward(model, uint8_images(rng, 5, 8)))
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_deterministic_given_seed(self):
        images = uint8_images(np.random.default_rng(3), 2, 8)
        a = cnn_forward(init_cnn(SMALL, seed=5), images)
        b = cnn_forward(init_cnn(SMALL, seed=5), images)
        assert np.array_equal(a, b)

    def test_features_nonnegative(self):
        model = init_cnn(SMALL, seed=4)
        features = cnn_forward(model, uint8_images(np.random.default_rng(5), 3, 8))
        assert np.all(features >= 0.0)

    def test_pooled_outputs_are_rows_of_the_dense_input(self):
        model = init_cnn(DESK, seed=4)
        flat = np.empty((3, DESK.flat_dim()))
        stages = _conv_rows(model, uint8_images(np.random.default_rng(6), 3, 32), flat)
        for row, image_stages in zip(flat, stages):
            pooled = image_stages[-1][2]
            assert np.shares_memory(pooled, row)
            assert np.array_equal(pooled.reshape(-1), row)

    def test_stage_records_match_allocating_calls_bitwise(self):
        # the conv's bias and the ReLU run in place on the GEMM output; the
        # reference forms each with a new array. Stage 0 keeps the uint8
        # image, whose floats the reference divides up front.
        model = init_cnn(DESK, seed=12)
        image = uint8_images(np.random.default_rng(13), 1, 32)[0]
        row = np.empty(DESK.flat_dim())
        stages = _conv_forward(model, image, row)
        x = image.transpose(2, 0, 1) / 255.0
        for s, (got_x, got_idx, got_pooled) in enumerate(stages):
            kernels, bias = model.params[f"conv{s}.k"], model.params[f"conv{s}.b"]
            z = kernels.reshape(len(kernels), -1) @ nn._im2col(x, 3, 3, 1) + bias[:, None]
            pooled, idx = nn.maxpool2d_forward(np.maximum(0.0, z).reshape(-1, *x.shape[1:]))
            assert got_x.tobytes() == (image if s == 0 else x).tobytes()
            assert got_idx.tobytes() == idx.tobytes()
            assert got_pooled.tobytes() == pooled.tobytes()
            x = pooled
        assert row.tobytes() == x.tobytes()

    def test_inference_keeps_no_stage_records(self):
        # the training forward keeps every image's argmax caches and pooled
        # outputs for the backward pass; cnn_forward drops each image's
        model = init_cnn(DESK, seed=14)
        images = uint8_images(np.random.default_rng(15), 64, 32)

        def traced(forward):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                result = forward(model, images)
                return result, tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        def training_forward(model, images):
            flat = np.empty((len(images), DESK.flat_dim()))
            stages = _conv_rows(model, images, flat)
            feat_z = nn.dense_forward(flat, model.params["feat.w"], model.params["feat.b"])
            return stages, nn.relu(feat_z)

        (stages, want), training_peak = traced(training_forward)
        features, peak = traced(cnn_forward)
        # the last stage's pooled output is a view of the dense input
        record_bytes = sum(
            idx.nbytes + (pooled.nbytes if s < len(image_stages) - 1 else 0)
            for image_stages in stages
            for s, (_, idx, pooled) in enumerate(image_stages)
        )
        assert training_peak - peak > 0.9 * record_bytes
        assert features.tobytes() == want.tobytes()

    def test_shape_mismatch(self):
        model = init_cnn(SMALL, seed=0)
        with pytest.raises(ValueError, match="shape"):
            cnn_forward(model, np.zeros((1, 16, 16, 3), np.uint8))
        with pytest.raises(ValueError, match="shape"):
            cnn_forward(model, np.zeros((8, 8, 3), np.uint8))
        with pytest.raises(ValueError, match="of float64 != uint8"):
            cnn_forward(model, np.zeros((1, 8, 8, 3)))


class TestCnnGradients:
    def test_full_model_gradient_check(self):
        model = init_cnn(SMALL, seed=7)
        rng = np.random.default_rng(8)
        images = uint8_images(rng, 2, 8, low=13)  # jitter keeps preactivations off kinks
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
        images = uint8_images(rng, 2, 8, low=13)
        labels = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])

        def fn(params):
            model.params = params
            return loss_and_grads(model, images, labels)

        assert grad_check(fn, model.params) < 1e-4

    def test_batch_mean_matches_single_image_calls(self):
        model = init_cnn(CnnConfig(input_shape=(3, 8, 8), stage_channels=(2, 3), feature_dim=6), 11)
        rng = np.random.default_rng(12)
        images = uint8_images(rng, 5, 8)
        labels = (rng.random((5, 3)) < 0.5).astype(np.float64)
        loss, grads = loss_and_grads(model, images, labels)
        grads = materialize(grads)
        singles = [loss_and_grads(model, images[n : n + 1], labels[n : n + 1]) for n in range(5)]
        assert loss == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12)
        for key in model.params:
            want = np.mean([materialize(s[1])[key] for s in singles], axis=0)
            assert relative_error(grads[key], want) <= 1e-12, key


class TestCnnTrain:
    def test_converges_on_separable_set(self):
        rng = np.random.default_rng(0)
        records, pixels = make_pixel_records(200, rng)
        model = init_cnn(DESK, seed=1)
        history = cnn_train(model, records, pixels, lr=1e-3, batch_size=32, epochs=30, seed=2)
        assert history[-1] < 0.1

    def test_batch_size_one_also_converges(self):
        rng = np.random.default_rng(0)
        records, pixels = make_pixel_records(200, rng)
        model = init_cnn(DESK, seed=1)
        # batch-1 Adam at lr 1e-3 has transient loss spikes (epoch 8 on this
        # data reads 0.17 between 0.08 and 0.04), so read the loss after 10
        history = cnn_train(model, records, pixels, lr=1e-3, batch_size=1, epochs=10, seed=2)
        assert history[-1] < 0.1

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
        # cnn_train reuses one gradient array per parameter, and Adam forms the dense weights' gradients from their
        # factor pairs a block of rows at a time; a step that allocates
        # every gradient anew as a whole array must give the same bits, a
        # short last batch (10 = 4 + 4 + 2) included
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
                _, grads = loss_and_grads(want, pixels[batch], labels[batch])
                nn.adam_step(want.params, materialize(grads), state)
        assert len(history) == 2
        for key in want.params:
            assert np.array_equal(model.params[key], want.params[key]), key

    def test_memory_peak_below_two_and_a_half_parameter_copies(self):
        # feat.w (4096 x 512) is 99% of the parameters. Training holds
        # Adam's two moments, two copies, and one row block of feat.w's
        # gradient; a third copy, such as the whole gradient or a
        # tensor-sized Adam scratch, would cross the bound.
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
        assert peak - start < 2.5 * param_bytes


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
        # each conv stage divides its own image; the features are those of
        # the batch's floats pixels[batch] / 255.0 divided up front, the
        # last, shorter batch included
        rng = np.random.default_rng(8)
        records, pixels = make_pixel_records(7, rng, height=8, width=8)
        model = init_cnn(SMALL, seed=10)
        out = extract_features(model, records, pixels, batch_size=3)
        order = sorted(range(7), key=lambda i: records[i].image_id)
        for start in range(0, 7, 3):
            batch = order[start : start + 3]
            want = reference_features(model, pixels[batch])
            assert out[batch].tobytes() == want.tobytes()

    def test_matches_single_forward(self):
        rng = np.random.default_rng(7)
        records, pixels = make_pixel_records(2, rng, height=8, width=8)
        model = init_cnn(SMALL, seed=9)
        out = extract_features(model, records, pixels, batch_size=2)
        for image, row in zip(pixels, out):
            features = cnn_forward(model, image[None])
            assert relative_error(row, features[0]) <= 1e-12


class TestWorkers:
    """cnn_train's and extract_features' `workers`: each batch's images, or
    the run of batches, split into contiguous slices, the first here and
    each other in a forked worker."""

    # at 8 x 8 the conv gradients' sum gave the same bits in any image order
    CONFIG = CnnConfig(input_shape=(3, 16, 16), stage_channels=(2, 3), feature_dim=4)

    def inputs(self):
        # 10 images: batches of 4, 4 and 2 in training, of 3, 3, 3 and 1 in extraction
        records, pixels = make_pixel_records(10, np.random.default_rng(31), height=16, width=16)
        return init_cnn(self.CONFIG, seed=32), records, pixels

    def train(self, **kw):
        model, records, pixels = self.inputs()
        history = cnn_train(model, records, pixels, lr=1e-2, batch_size=4, epochs=2, seed=33, **kw)
        return model, history

    def extract(self, **kw):
        return extract_features(*self.inputs(), batch_size=3, **kw)

    def test_training_split_changes_no_bit(self):
        model, history = self.train()
        for workers in (2, 3, 5):  # 5: more processes than a batch has images
            split, split_history = self.train(workers=workers)
            assert_no_child_left()
            assert split_history == history, workers
            for key, value in model.params.items():
                assert np.array_equal(split.params[key], value), (workers, key)

    @pytest.mark.parametrize(
        "feature_dim, runs",
        [
            # blocks of 2, 2 and 3 rows (a 1-row remainder joins the last);
            # the command's share, 7 * 2 / 5 = 2.8 rows with two processes and
            # 7 / 7 = 1 with three, goes to the nearest edge, the smaller of
            # two as near
            pytest.param(7, ["0-7 here, none in 0 workers", "0-2 here, 2-7 in 1 worker",
                             "0-0 here, 0-4, 4-7 in 2 workers"], id="three-blocks"),
            # blocks of 2 and 3 rows; the command's share, 2 and 5 / 7 rows
            pytest.param(5, ["0-5 here, none in 0 workers", "0-2 here, 2-5 in 1 worker",
                             "0-0 here, 0-2, 2-5 in 2 workers"], id="two-blocks"),
        ],
    )
    def test_feature_weight_shards_change_no_bit(self, monkeypatch, caplog, feature_dim, runs):
        # each process updates its run of feat.w's row blocks with moments of
        # those rows alone; blocks of 2 rows at the 48 inputs of CONFIG's
        # dense layer. With three processes the command's process owns no
        # row and updates none.
        monkeypatch.setattr(nn, "ADAM_BLOCK", 96)
        config = dataclasses.replace(self.CONFIG, feature_dim=feature_dim)
        records, pixels = make_pixel_records(10, np.random.default_rng(31), height=16, width=16)
        results = []
        for workers, plan in zip((1, 2, 3), runs):
            model = init_cnn(config, seed=32)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="safetymap.cnn"):
                history = cnn_train(
                    model, records, pixels, lr=1e-2, batch_size=4, epochs=2, seed=33,
                    workers=workers,
                )
            assert_no_child_left()
            assert f"feat.w rows: {plan}" in caplog.messages
            results.append((history, {key: p.tobytes() for key, p in model.params.items()}))
        assert results[1] == results[0]
        assert results[2] == results[0]

    @pytest.mark.parametrize(
        "processes, plan",
        [
            (1, ["0-250"]),
            # 250 * 2 / 5 = 100 rows, nearest the edge at 96
            (2, ["0-96", "96-250"]),
            # 250 / 7 = 35.7 rows, nearest the edge at 32
            (3, ["0-32", "32-144", "144-250"]),
            (4, ["0-0", "0-96", "96-176", "176-250"]),
        ],
    )
    def test_feature_rows_balance_the_bytes_each_process_maps(self, processes, plan):
        # 16 blocks of 16 rows at 16384 inputs, the last of 10; the command's
        # process maps every row of feat.w and the moments of its own, a
        # worker its rows and their moments: with two, 250 + 2 * 96 = 442
        # rows against 3 * 154 = 462
        runs = cnn._feature_row_runs((250, 16384), processes)
        assert [f"{rows.start}-{rows.stop}" for rows in runs] == plan

    def test_extraction_split_changes_no_bit(self):
        features = self.extract()
        for workers in (2, 3, 5):  # 5: more processes than there are batches
            assert self.extract(workers=workers).tobytes() == features.tobytes(), workers
            assert_no_child_left()

    @pytest.mark.parametrize("run", ["train", "extract"])
    def test_one_process_forks_nothing(self, monkeypatch, run):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        getattr(self, run)(workers=1)
        if run == "train":  # one image a batch leaves no image to split
            model, records, pixels = self.inputs()
            cnn_train(model, records, pixels, lr=1e-2, batch_size=1, epochs=1, seed=33, workers=3)

    @pytest.mark.parametrize("run", ["train", "extract"])
    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_exception_reaches_caller(self, monkeypatch, run, where):
        parent, conv_forward = os.getpid(), cnn._conv_forward
        calls = []

        def failing_conv_forward(model, image, out):
            calls.append(image)
            if (os.getpid() == parent) == (where == "caller") and len(calls) == 2:
                raise ValueError(f"conv failed in the {where}")
            return conv_forward(model, image, out)

        monkeypatch.setattr(cnn, "_conv_forward", failing_conv_forward)
        with pytest.raises(ValueError, match=f"^conv failed in the {where}$"):
            getattr(self, run)(workers=2)
        assert_no_child_left()

    @pytest.mark.parametrize("run", ["train", "extract"])
    def test_worker_warning_reaches_caller(self, monkeypatch, run):
        parent, conv_forward = os.getpid(), cnn._conv_forward

        def warning_conv_forward(model, image, out):
            if os.getpid() != parent:
                warnings.warn("from a worker", RuntimeWarning)
            return conv_forward(model, image, out)

        monkeypatch.setattr(cnn, "_conv_forward", warning_conv_forward)
        with pytest.warns(RuntimeWarning, match="^from a worker$"):
            getattr(self, run)(workers=2)
        assert_no_child_left()


class TestImageChangedAfterCheck:
    """load_pixels checks every file up front and each image is read when its
    batch runs, here or in a worker: a file changed in between fails there
    with the loader's own exception and message (the CLI's exit 4, 5 or 3,
    never 1)."""

    CONFIG = CnnConfig(input_shape=(3, 8, 8), stage_channels=(2,), feature_dim=4)

    @pytest.mark.parametrize("change", ["truncated", "resized", "removed"])
    @pytest.mark.parametrize("changed", [0, 1])  # with 2 processes, one image is read in the worker
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("run", ["train", "extract"])
    def test_fails_at_its_batch(self, tmp_path, run, workers, changed, change):
        records, images = make_pixel_records(2, np.random.default_rng(40), height=8, width=8)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "image_id,path\n" + "".join(f"{r.image_id},{r.image_id}.ppm\n" for r in records)
        )
        for r, image in zip(records, images):
            write_ppm(str(tmp_path / f"{r.image_id}.ppm"), image)
        pixels = load_pixels(records, str(manifest))
        path = tmp_path / f"{records[changed].image_id}.ppm"
        if change == "truncated":
            path.write_bytes(path.read_bytes()[:50])
            kind, message = SchemaError, f"{path}: pixel block truncated, 39 of 192 bytes"
        elif change == "resized":
            write_ppm(str(path), np.zeros((8, 12, 3), np.uint8))
            image_id = records[changed].image_id
            kind, message = ValueError, f"{path}: image {image_id} is 12 x 8 pixels, expected 8 x 8"
        else:
            path.unlink()
            kind, message = FileNotFoundError, str(path)
        model = init_cnn(self.CONFIG, seed=41)
        with pytest.raises(Exception) as info:
            if run == "train":  # one batch of both images, one in each process
                cnn_train(
                    model, records, pixels, lr=1e-2, batch_size=2, epochs=1, seed=42,
                    workers=workers,
                )
            else:  # two batches of one image, one in each process
                extract_features(model, records, pixels, batch_size=1, workers=workers)
        assert type(info.value) is kind
        assert (info.value.filename if kind is FileNotFoundError else str(info.value)) == message
        assert_no_child_left()


class TestCnnSerialization:
    def test_round_trip(self, tmp_path):
        model = init_cnn(SMALL, seed=10)
        path = tmp_path / "cnn.bin"
        cnn_save(model, str(path), seed=10)
        loaded = cnn_load(str(path))
        assert loaded.config == model.config
        image = uint8_images(np.random.default_rng(11), 1, 8)
        a = frame_predict(model.params, cnn_forward(model, image))
        b = frame_predict(loaded.params, cnn_forward(loaded, image))
        assert np.array_equal(a, b)

    def test_tensors_are_written_and_read_without_a_copy(self, tmp_path):
        # A 4 MB tensor is written from its own buffer and read straight
        # into its array, and the finite check counts over slices: a bytes
        # copy, a tensor-sized mask or a second array would cross a bound.
        path = str(tmp_path / "t.bin")
        tensor = np.random.default_rng(12).normal(size=(512, 1024))
        tracemalloc.start()
        try:
            save_tensors(path, {"w": tensor})
            saving = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded, _ = load_tensors(path)
            loading = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert saving < 0.25 * tensor.nbytes, saving
        assert loading < 1.25 * tensor.nbytes, loading
        assert loaded["w"].tobytes() == tensor.tobytes()

    def test_zero_size_tensors_round_trip(self, tmp_path):
        path = str(tmp_path / "t.bin")
        tensors = {"a": np.empty((0,)), "b": np.arange(3.0), "c": np.empty((2, 0, 3)), "d": np.ones(())}
        save_tensors(path, tensors)
        loaded, _ = load_tensors(path)
        assert {k: (v.shape, v.tobytes()) for k, v in loaded.items()} == {
            k: (v.shape, v.tobytes()) for k, v in tensors.items()
        }

    def test_short_read_is_a_truncated_tensor(self, tmp_path, monkeypatch):
        # the file loses its last tensor's last value after its size is read
        path = str(tmp_path / "t.bin")
        save_tensors(path, {"a": np.arange(4.0), "b": np.arange(6.0)})
        size = os.path.getsize(path)
        os.truncate(path, size - 8)
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 6 + (size,) + (0,) * 3))
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: truncated tensor 'b'$"):
            load_tensors(path)

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
