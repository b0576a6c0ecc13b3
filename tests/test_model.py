"""Scaling plans, model construction, training behavior, dumps, sidecars."""

import dataclasses
import functools
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphlens import model as model_module
from morphlens.checkpoint import decode_params, encode_params
from morphlens.config import CONFIG_KEYS, RunConfig, parse_config
from morphlens.data import MAX_RESOLUTION, build_corpus, generate_face, preprocess
from morphlens.errors import (
    DataError,
    FormatError,
    LayerIndexError,
    PlanConstraintError,
    ResolutionMismatchError,
    TrainingError,
)
from morphlens.model import (
    MAX_DEPTH,
    PLAN_KEYS,
    CnnModel,
    ScalingPlan,
    build_model,
    dump_layer_activations,
    load_plan_sidecar,
    model_shapes,
    plan_scaling,
    predict,
    save_plan_sidecar,
    train,
)


def default_plan():
    return plan_scaling(0.0)


def named_arrays(model):
    return [(name, tensor.data) for name, tensor in model.parameters()]


def layer_structure(layer):
    """A layer's kind with its conv stride and padding or its dropout rate."""
    return layer.kind, getattr(layer, "stride", None), getattr(layer, "padding", None), getattr(layer, "rate", None)


# plan_scaling


def test_plan_phi_zero_is_baseline():
    plan = plan_scaling(0.0, 1.2, 1.1, 1.15)
    assert plan.depth_mult == plan.width_mult == plan.resolution_mult == 1.0


def test_plan_defaults_are_the_run_config_defaults():
    assert plan_scaling(0.0) == RunConfig().plan()


def test_plan_alpha_two_doubles_depth():
    plan = plan_scaling(1.0, alpha=2.0, beta=1.0, gamma=1.0, tau=0.0)
    assert plan.depth_mult == 2.0
    assert plan.width_mult == 1.0
    assert plan.resolution_mult == 1.0


def test_plan_default_coefficients_accepted():
    plan = plan_scaling(1.0)
    product = plan.alpha * plan.beta**2 * plan.gamma**2
    assert product == pytest.approx(1.2 * 1.1**2 * 1.15**2)
    assert abs(product - 2.0) <= 0.15


def test_plan_constraint_violation():
    with pytest.raises(PlanConstraintError) as info:
        plan_scaling(1.0, alpha=3.0, beta=1.0, gamma=1.0)
    assert "3.0" in str(info.value)
    with pytest.raises(PlanConstraintError):
        plan_scaling(-0.5)
    with pytest.raises(PlanConstraintError):
        plan_scaling(1.0, alpha=0.9, beta=1.3, gamma=1.1)


@pytest.mark.parametrize("phi", [float("nan"), float("inf"), -float("inf")])
def test_plan_rejects_non_finite_phi(phi):
    with pytest.raises(PlanConstraintError, match="finite"):
        plan_scaling(phi)


@pytest.mark.parametrize("phi", [10000.0, 1e300])
def test_plan_refuses_a_phi_whose_multipliers_overflow(phi):
    with pytest.raises(PlanConstraintError, match="overflows"):
        plan_scaling(phi)


def test_plan_accepts_a_huge_phi_whose_multipliers_stay_finite():
    plan = plan_scaling(1e300, alpha=1.0, beta=1.0, gamma=1.0, tau=1.0)
    assert (plan.depth_mult, plan.width_mult, plan.resolution_mult) == (1.0, 1.0, 1.0)


def test_plan_multipliers_exact_powers():
    plan = plan_scaling(2.0, 1.2, 1.1, 1.15)
    assert plan.depth_mult == 1.2**2.0
    assert plan.width_mult == 1.1**2.0
    assert plan.resolution_mult == 1.15**2.0


# build_model


def test_build_default_structure():
    model = build_model(default_plan(), 1)
    assert model.input_resolution == 64
    assert model.conv_blocks() == 2
    kinds = [layer.kind for layer in model.layers]
    assert kinds == ["conv", "relu", "conv", "relu", "gap", "dropout", "dense"]
    conv0 = model.layers[0]
    assert conv0.kernels.shape == (8, 3, 3, 3)
    conv1 = model.layers[2]
    assert conv1.kernels.shape == (16, 8, 3, 3)
    head = model.layers[-1]
    assert head.weights.shape == (16, 2)
    assert (head.weights.data == 0).all() and (head.bias.data == 0).all()


def test_build_twice_byte_identical():
    a = encode_params(named_arrays(build_model(default_plan(), 9)))
    b = encode_params(named_arrays(build_model(default_plan(), 9)))
    assert a == b


def test_build_seeds_differ():
    a = build_model(default_plan(), 1)
    b = build_model(default_plan(), 2)
    assert not np.array_equal(a.layers[0].kernels.data, b.layers[0].kernels.data)


def test_build_phi_one_alpha_two_has_four_blocks():
    plan = plan_scaling(1.0, alpha=2.0, beta=1.0, gamma=1.0, tau=0.0)
    model = build_model(plan, 1)
    assert model.conv_blocks() == 4


def test_build_stage_widths_double():
    model = build_model(default_plan(), 3)
    widths = [layer.kernels.shape[0] for layer in model.layers if layer.kind == "conv"]
    assert widths == [8, 16]


def test_build_resolution_multiple_of_four_and_minimum():
    plan = plan_scaling(1.0, alpha=1.0, beta=1.0, gamma=1.3, tau=0.5)
    model = build_model(plan, 1)
    assert model.input_resolution % 4 == 0
    tiny = plan_scaling(0.0, base_resolution=9, tau=0.15)
    assert build_model(tiny, 1).input_resolution == 8
    with pytest.raises(PlanConstraintError):
        build_model(plan_scaling(0.0, base_resolution=2), 1)


@pytest.mark.parametrize("phi", [0.0, 1.0, 2.0, 3.0])
def test_the_size_caps_count_the_planned_parameters_exactly(monkeypatch, phi):
    plan = plan_scaling(phi)
    parameters = sum(tensor.size for _, tensor in model_shapes(plan).parameters())
    monkeypatch.setattr(model_module, "MAX_PARAMETERS", parameters)
    assert sum(tensor.size for _, tensor in model_shapes(plan).parameters()) == parameters
    monkeypatch.setattr(model_module, "MAX_PARAMETERS", parameters - 1)
    with pytest.raises(PlanConstraintError, match="parameter maximum"):
        model_shapes(plan)


def test_the_depth_cap_is_checked_before_any_width():
    # at the depth cap the doubling widths already break the parameter cap
    with pytest.raises(PlanConstraintError, match="parameter maximum at conv"):
        model_shapes(plan_scaling(0.0, base_depth=MAX_DEPTH, base_width=1))
    with pytest.raises(PlanConstraintError, match=f"{MAX_DEPTH}-block maximum"):
        model_shapes(plan_scaling(0.0, base_depth=MAX_DEPTH + 1))
    with pytest.raises(PlanConstraintError, match="block maximum"):
        model_shapes(plan_scaling(0.0, base_depth=10**400))
    with pytest.raises(PlanConstraintError, match="parameter maximum"):
        model_shapes(plan_scaling(0.0, base_width=10**400))


def test_build_resolution_maximum():
    assert build_model(plan_scaling(0.0, base_resolution=MAX_RESOLUTION), 1).input_resolution == MAX_RESOLUTION
    with pytest.raises(PlanConstraintError, match="maximum"):
        build_model(plan_scaling(0.0, base_resolution=MAX_RESOLUTION + 4), 1)
    # 1025 still rounds to 1024; a base no multiplier >= 1 brings under the cap is refused unmultiplied
    assert model_shapes(plan_scaling(0.0, base_resolution=MAX_RESOLUTION + 1)).input_resolution == MAX_RESOLUTION
    for base in (MAX_RESOLUTION + 2, 10**400):
        with pytest.raises(PlanConstraintError, match="1024-pixel maximum"):
            model_shapes(plan_scaling(0.0, base_resolution=base))


def test_first_stage_kernels_ignore_tone_and_ramps():
    # structured probes: zero sum and zero first moments, channel-replicated
    model = build_model(default_plan(), 4)
    kernels = model.layers[0].kernels.data
    coords = np.arange(3.0) - 1.0
    for f in range(kernels.shape[0]):
        assert np.allclose(kernels[f, 0], kernels[f, 1])
        assert kernels[f].sum() == pytest.approx(0.0, abs=1e-12)
        assert (kernels[f, 0] * coords[None, :]).sum() == pytest.approx(0.0, abs=1e-12)
        assert (kernels[f, 0] * coords[:, None]).sum() == pytest.approx(0.0, abs=1e-12)


# predict


def test_untrained_predict_is_uniform_tie():
    model = build_model(default_plan(), 1)
    x = preprocess(generate_face(1, 0, 64).image, 64)
    result = predict(model, x)
    assert np.allclose(result.probabilities, [0.5, 0.5], atol=1e-15)
    assert result.predicted_class == 0


def test_predict_takes_the_larger_logit_where_the_probabilities_tie():
    model = build_model(default_plan(), 1)  # a zero head: the logits are its bias
    model.layers[-1].bias.data[:] = [0.0, 1e-17]
    result = predict(model, preprocess(generate_face(1, 0, 64).image, 64))
    assert result.scores.tolist() == [0.0, 1e-17]
    assert result.probabilities[0] == result.probabilities[1]
    assert result.predicted_class == 1  # train's rule, logits[:, 1] > logits[:, 0]


def test_predict_probabilities_sum_to_one():
    model = build_model(default_plan(), 2)
    rng = np.random.default_rng(1)
    for _, tensor in model.parameters():
        tensor.data = rng.normal(0.0, 0.4, size=tensor.data.shape)
    for trial in range(10):
        x = rng.uniform(0.0, 1.0, size=(3, 64, 64))
        result = predict(model, x)
        assert abs(result.probabilities.sum() - 1.0) < 1e-12


def test_predict_argmax_shift_invariant():
    model = build_model(default_plan(), 2)
    rng = np.random.default_rng(4)
    for _, tensor in model.parameters():
        tensor.data = rng.normal(0.0, 0.4, size=tensor.data.shape)
    x = rng.uniform(0.0, 1.0, size=(3, 64, 64))
    base = predict(model, x)
    model.layers[-1].bias.data += 3.75  # same constant on both logits
    shifted = predict(model, x)
    assert shifted.predicted_class == base.predicted_class
    assert np.allclose(shifted.scores, base.scores + 3.75)


def test_predict_resolution_mismatch():
    model = build_model(default_plan(), 1)
    with pytest.raises(ResolutionMismatchError):
        predict(model, np.zeros((3, 32, 32)))
    with pytest.raises(ResolutionMismatchError):
        predict(model, np.zeros((2, 3, 64, 64)))


# train


def test_train_zero_epochs_no_change():
    model = build_model(default_plan(), 1)
    before = encode_params(named_arrays(model))
    report = train(model, [generate_face(1, 0, 64)], epochs=0, seed=1)
    assert report.epoch_losses == ()
    assert encode_params(named_arrays(model)) == before


def test_train_single_sample_memorizes():
    model = build_model(default_plan(), 2)
    report = train(model, [generate_face(3, 0, 64)], epochs=200, batch_size=1, learning_rate=0.05, seed=2)
    assert report.epoch_losses[-1] < 0.01
    assert report.train_accuracy == 1.0


def test_train_deterministic_checkpoints():
    corpus = build_corpus(8, 8, seed=5, resolution=64)
    blobs = []
    for _ in range(2):
        model = build_model(default_plan(), 5)
        train(model, corpus, epochs=1, batch_size=4, learning_rate=0.05, seed=5)
        blobs.append(encode_params(named_arrays(model)))
    assert blobs[0] == blobs[1]


def test_train_report_fields():
    corpus = build_corpus(4, 4, seed=7, resolution=64)
    model = build_model(default_plan(), 7)
    report = train(model, corpus, epochs=2, batch_size=3, learning_rate=0.05, seed=7)
    assert len(report.epoch_losses) == 2
    assert 0.0 <= report.train_accuracy <= 1.0


def test_train_errors():
    model = build_model(default_plan(), 1)
    with pytest.raises(DataError):
        train(model, [], epochs=1, seed=1)
    face = generate_face(1, 0, 64)
    with pytest.raises(ValueError):
        train(model, [face], epochs=-1, seed=1)
    with pytest.raises(ValueError):
        train(model, [face], epochs=1, batch_size=0, seed=1)
    with pytest.raises(ValueError):
        train(model, [face], epochs=1, learning_rate=0.0, seed=1)


def test_train_frees_each_step_tape_before_the_next_forward(monkeypatch):
    model = build_model(default_plan(), 1)
    steps = []

    def forward(x, train=False, rng=None):
        if train:  # no earlier step's tape is still alive
            assert all(logits() is None for logits in steps)
        logits, activations = CnnModel.forward(model, x, train, rng)
        if train:
            steps.append(weakref.ref(logits))
        return logits, activations

    monkeypatch.setattr(model, "forward", forward)
    train(model, build_corpus(4, 4, seed=1, resolution=64), epochs=1, batch_size=2, seed=1)
    assert len(steps) == 4


@pytest.mark.parametrize("learning_rate", [math.nan, math.inf])
def test_train_refuses_a_non_finite_learning_rate_before_any_step(learning_rate):
    model = build_model(default_plan(), 1)
    before = [tensor.data.copy() for _, tensor in model.parameters()]
    with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
        train(model, build_corpus(4, 4, seed=1, resolution=64), epochs=1, learning_rate=learning_rate, seed=1)
    assert all(np.array_equal(tensor.data, old) for (_, tensor), old in zip(model.parameters(), before))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("epochs, reason", [(2, "parameter 'conv0.kernels' is not finite"), (3, "loss became nan")])
def test_train_refuses_to_finish_with_non_finite_values(epochs, reason):
    # one step per epoch: the second update overflows the kernels, the third forward yields NaN
    corpus = build_corpus(4, 4, seed=1, resolution=16)
    model = build_model(plan_scaling(0.0, base_resolution=16), 1)
    with pytest.raises(TrainingError, match=reason):
        train(model, corpus, epochs=epochs, batch_size=8, learning_rate=1e200, seed=1)


@functools.cache
def batch_one_pool(phi):
    """A model with a nonzero head, 40 inputs, and each input's batch-1 predict scores."""
    model = build_model(plan_scaling(phi), 2)
    rng = np.random.default_rng(4)
    for _, tensor in model.parameters():
        tensor.data = rng.uniform(-0.5, 0.5, size=tensor.data.shape)
    res = model.input_resolution
    inputs = rng.uniform(0.0, 1.0, size=(40, 3, res, res))
    return model, inputs, np.stack([predict(model, image).scores for image in inputs])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(phi=st.sampled_from([0.0, 1.0]), rows=st.integers(1, 40), chunk=st.integers(1, 40))
@example(phi=0.0, rows=13, chunk=5).via("a 13-row split in chunks of 5, 5 and 3")
@example(phi=1.0, rows=13, chunk=5).via("a 13-row split in chunks of 5, 5 and 3")
def test_a_rows_logits_are_its_batch_one_scores_at_any_batch_size_and_chunking(phi, rows, chunk):
    from morphlens.autodiff import Tensor, no_grad
    from morphlens.model import _eval_logits

    model, inputs, expected = batch_one_pool(phi)
    with no_grad():
        whole = model.forward(Tensor(inputs[:rows]))[0].data
    chunked = _eval_logits(model, inputs[:rows], chunk)
    assert whole.shape == chunked.shape == (rows, 2)
    for got in (whole, chunked):
        assert [row.tobytes() for row in got] == [row.tobytes() for row in expected[:rows]]


@pytest.mark.parametrize("seed", range(1, 11))
def test_train_accepts_every_criterion_7_seed(default_train, seed):
    _, report, _ = default_train(seed, traced=seed == 1)  # seed 1's run also serves the memory guard below
    assert report.epoch_losses[-1] < math.log(2)
    assert report.train_accuracy >= 0.95


def test_a_default_train_holds_its_split_as_uint8_pixels(default_train):
    # The 204-image split is 2.5 MB of uint8 pixels, where a float64 stack
    # of it took 20 MB: the traced peak went 52 MB -> 31 MB on 2 CPUs.
    _, _, peak = default_train(1, traced=True)
    assert peak < 40e6


def test_train_refuses_a_run_whose_logits_all_agree(monkeypatch):
    corpus = build_corpus(4, 4, seed=1, resolution=16)
    monkeypatch.setattr(model_module, "_eval_logits", lambda model, inputs, batch_size: np.zeros((len(inputs), 2)))
    plan = plan_scaling(0.0, base_resolution=16)
    with pytest.raises(TrainingError, match="every train sample is predicted class 0, though both classes"):
        train(build_model(plan, 1), corpus, epochs=1, batch_size=8, seed=1)
    # a split of one class, or no epoch at all, cannot show a collapse
    assert {sample.label for sample in corpus[:4]} == {0}
    assert len(train(build_model(plan, 1), corpus[:4], epochs=1, seed=1).epoch_losses) == 1
    assert train(build_model(plan, 1), corpus, epochs=0, seed=1).epoch_losses == ()


def test_train_batches_mix_classes():
    # the per-epoch order interleaves labels, so no batch is single-class
    corpus = build_corpus(16, 16, seed=9, resolution=16)
    from morphlens.model import _balanced_order

    labels = np.array([s.label for s in corpus])
    pools = [np.flatnonzero(labels == c).tolist() for c in (0, 1)]
    order = _balanced_order(pools)
    assert sorted(order) == list(range(32))
    for start in range(0, 32, 8):
        batch_labels = labels[order[start : start + 8]]
        assert 0 < batch_labels.sum() < len(batch_labels)


def greedy_balanced_order(pools):
    """The merge as a loop: each turn takes from the pool with the most of itself still to come."""
    taken = [0 for _ in pools]
    order = []
    while len(order) < sum(len(pool) for pool in pools):
        shares = [(len(pool) - taken[c]) / len(pool) if pool else -1.0 for c, pool in enumerate(pools)]
        c = int(np.argmax(shares))  # the first maximum: a tie goes to the lower class
        order.append(pools[c][taken[c]])
        taken[c] += 1
    return order


def test_balanced_order_sorts_by_the_share_still_to_come():
    from morphlens.model import _balanced_order

    # item k of a pool of n sits at share (n - k) / n: highest first, a tie to the lower class
    assert _balanced_order([[10, 11, 12], [20]]) == [10, 20, 11, 12]
    assert _balanced_order([[1, 2], [5, 6, 7, 8]]) == [1, 5, 6, 2, 7, 8]
    assert _balanced_order([[], [5, 6]]) == [5, 6]
    assert _balanced_order([[1, 2], []]) == [1, 2]
    assert _balanced_order([[], []]) == []
    rng = np.random.default_rng(12)
    for _ in range(300):
        sizes = rng.integers(0, 60, size=2)
        pools = [rng.permutation(1000)[:size].tolist() for size in sizes]
        assert _balanced_order(pools) == greedy_balanced_order(pools)


# dump_layer_activations


def test_dump_input_layer_is_preprocessed_input():
    model = build_model(default_plan(), 1)
    x = preprocess(generate_face(2, 0, 64).image, 64)
    activation, grid = dump_layer_activations(model, x, 0)
    assert np.array_equal(activation.data[0], x)
    assert grid.dtype == np.uint8


def test_dump_post_relu_nonnegative():
    model = build_model(default_plan(), 1)
    x = preprocess(generate_face(2, 1, 64).image, 64)
    activation, _ = dump_layer_activations(model, x, 2)
    assert model.layers[1].kind == "relu"
    assert (activation.data >= 0).all()


def test_dump_grid_dimensions():
    model = build_model(default_plan(), 1)
    x = preprocess(generate_face(2, 2, 64).image, 64)
    for index, channels, tile in ((1, 8, 32), (3, 16, 16)):
        _, grid = dump_layer_activations(model, x, index)
        side = int(np.ceil(np.sqrt(channels)))
        assert grid.shape == (side * tile, side * tile)


def test_dump_of_a_feature_vector_scales_it_by_its_own_range():
    model = build_model(default_plan(), 1)
    x = preprocess(generate_face(2, 6, 64).image, 64)
    activation, grid = dump_layer_activations(model, x, 5)
    vector = activation.data[0]
    assert model.layers[4].kind == "gap" and vector.shape == (16,)
    low, high = vector.min(), vector.max()
    assert high > low
    assert grid.shape == (4, 4)
    assert grid.reshape(-1).tolist() == np.floor(255.0 * (vector - low) / (high - low) + 0.5).tolist()


def test_dump_index_out_of_range():
    model = build_model(default_plan(), 1)
    x = preprocess(generate_face(2, 3, 64).image, 64)
    with pytest.raises(LayerIndexError):
        dump_layer_activations(model, x, len(model.layers) + 1)
    with pytest.raises(LayerIndexError):
        dump_layer_activations(model, x, -1)


def test_dump_refuses_a_batch_of_two():
    model = build_model(default_plan(), 1)
    pair = np.stack([preprocess(generate_face(2, k, 64).image, 64) for k in (4, 5)])
    with pytest.raises(ResolutionMismatchError):
        dump_layer_activations(model, pair, 2)


# model_shapes


@pytest.mark.parametrize("phi", [0.0, 1.0])
def test_model_shapes_is_build_model_with_zero_parameters(phi):
    plan = plan_scaling(phi)
    shapes = model_shapes(plan)
    built = build_model(plan, 5)
    assert shapes.input_resolution == built.input_resolution
    assert [layer_structure(layer) for layer in shapes.layers] == [layer_structure(layer) for layer in built.layers]
    assert [(n, t.shape) for n, t in shapes.parameters()] == [(n, t.shape) for n, t in built.parameters()]
    assert not any(tensor.data.any() for _, tensor in shapes.parameters())
    shapes.load_parameters(named_arrays(built))
    for (_, a), (_, b) in zip(shapes.parameters(), built.parameters()):
        assert a.data.tobytes() == b.data.tobytes()


# sidecar + load_parameters


def test_sidecar_round_trip(tmp_path):
    plan = plan_scaling(1.0, 1.2, 1.1, 1.15, base_depth=2, base_width=8, base_resolution=64)
    path = tmp_path / "model.ckpt.plan"
    save_plan_sidecar(path, plan)
    loaded = load_plan_sidecar(path)
    assert loaded == plan
    rebuilt = build_model(loaded, 42)
    original = build_model(plan, 42)
    assert encode_params(named_arrays(rebuilt)) == encode_params(named_arrays(original))


def test_sidecar_bytes_and_derived_multipliers(tmp_path):
    plan = plan_scaling(1.0)
    path = tmp_path / "model.ckpt.plan"
    save_plan_sidecar(path, plan)
    assert path.read_bytes() == (
        b"phi=1.0\nalpha=1.2\nbeta=1.1\ngamma=1.15\n"
        b"base_depth=2\nbase_width=8\nbase_resolution=64\n"
    )
    loaded = load_plan_sidecar(path)
    multipliers = (loaded.depth_mult, loaded.width_mult, loaded.resolution_mult)
    expected = (plan.depth_mult, plan.width_mult, plan.resolution_mult)
    assert [m.hex() for m in multipliers] == [m.hex() for m in expected]


def test_sidecar_errors(tmp_path):
    path = tmp_path / "missing.plan"
    with pytest.raises(FormatError):
        load_plan_sidecar(path)
    path.write_text("phi=0.0\nalpha=1.2\n", encoding="ascii")
    with pytest.raises(FormatError):
        load_plan_sidecar(path)
    path.write_text(
        "phi=x\nalpha=1.2\nbeta=1.1\ngamma=1.15\nbase_depth=2\nbase_width=8\nbase_resolution=64\n",
        encoding="ascii",
    )
    with pytest.raises(FormatError):
        load_plan_sidecar(path)


def test_sidecar_reads_like_a_config_file(tmp_path):
    path = tmp_path / "model.ckpt.plan"
    text = (
        "# trained by hand\n\n  phi = 0.5\nalpha=1.2\nbeta=1.1\n   \ngamma = 1.15\n"
        "base_depth=2\nbase_width=8\nbase_resolution=64\n# a later key wins\nphi=1.0\n"
    )
    path.write_text(text, encoding="ascii")
    plan = load_plan_sidecar(path)
    cfg = parse_config(text)
    assert plan == ScalingPlan(**{key: getattr(cfg, key) for key in PLAN_KEYS})
    assert plan.phi == 1.0


def test_sidecar_keys_are_the_plan_fields(tmp_path):
    path = tmp_path / "model.ckpt.plan"
    save_plan_sidecar(path, plan_scaling(0.0))
    keys = [line.partition("=")[0] for line in path.read_text(encoding="ascii").splitlines()]
    assert keys == [field.name for field in dataclasses.fields(ScalingPlan)]
    assert list(PLAN_KEYS) == keys
    assert set(keys) <= set(CONFIG_KEYS)


@pytest.mark.parametrize("key, value", [("phi", "x"), ("gamma", ""), ("base_depth", "2.5")])
def test_a_bad_sidecar_value_is_a_format_error_naming_its_key(tmp_path, key, value):
    path = tmp_path / "model.ckpt.plan"
    save_plan_sidecar(path, plan_scaling(0.0))
    text = path.read_text(encoding="ascii")
    lines = [f"{key}={value}" if line.startswith(f"{key}=") else line for line in text.splitlines()]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(FormatError, match=f"bad value for {key}:"):
        load_plan_sidecar(path)


@pytest.mark.parametrize("key, value", [("seed", "1"), ("seed", "one"), ("epochs", "5"), ("fingerprint", "ab")])
def test_a_sidecar_key_outside_the_plan_is_refused(tmp_path, key, value):
    # a sidecar from before the corpus fixed its own split still records seed=
    path = tmp_path / "model.ckpt.plan"
    save_plan_sidecar(path, plan_scaling(0.0))
    path.write_text(path.read_text(encoding="ascii") + f"{key}={value}\n", encoding="ascii")
    with pytest.raises(FormatError, match=f"has key '{key}', which is not a plan key; retrain the checkpoint"):
        load_plan_sidecar(path)


@pytest.mark.parametrize(
    "field, value",
    [("phi", "10000.0"), ("phi", "nan"), ("phi", "-1"), ("alpha", "nan"), ("gamma", "0.5"), ("base_width", "0")],
)
def test_sidecar_refuses_a_plan_no_model_can_be_built_from(tmp_path, field, value):
    path = tmp_path / "model.ckpt.plan"
    save_plan_sidecar(path, plan_scaling(0.0))
    text = path.read_text(encoding="ascii")
    start = text.index(f"{field}=")
    end = text.index("\n", start)
    path.write_text(f"{text[:start]}{field}={value}{text[end:]}", encoding="ascii")
    with pytest.raises(PlanConstraintError):
        load_plan_sidecar(path)


def test_load_parameters_round_trip_and_errors():
    model = build_model(default_plan(), 3)
    blob = encode_params(named_arrays(model))
    other = build_model(default_plan(), 8)
    other.load_parameters(decode_params(blob))
    assert encode_params(named_arrays(other)) == blob

    with pytest.raises(FormatError):
        other.load_parameters(decode_params(blob)[:-1])
    renamed = [("bogus" if i == 0 else name, values) for i, (name, values) in enumerate(decode_params(blob))]
    with pytest.raises(FormatError):
        other.load_parameters(renamed)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_parameters_rejects_non_finite_values_and_keeps_the_model(bad):
    model = build_model(default_plan(), 3)
    named = decode_params(encode_params(named_arrays(model)))
    name, values = named[-1]
    values.flat[0] = bad
    other = build_model(default_plan(), 8)
    before = encode_params(named_arrays(other))
    with pytest.raises(FormatError, match=f"parameter {name!r} holds non-finite values"):
        other.load_parameters(named)
    assert encode_params(named_arrays(other)) == before


def test_forward_activation_list_alignment():
    model = build_model(default_plan(), 1)
    x = preprocess(generate_face(5, 0, 64).image, 64)
    logits, activations = model.forward(np.asarray(x)[None])
    assert len(activations) == len(model.layers) + 1
    assert activations[-1] is logits
    assert model.conv_feature_index(1) == 4  # post-ReLU output of the last block
    assert isinstance(model, CnnModel)
