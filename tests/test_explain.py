"""Saliency, class activation maps, gradcam, the ensemble, and XHM1 files."""

import numpy as np
import pytest

from morphlens.autodiff import Tensor, backward, no_grad, select
from morphlens.config import RunConfig
from morphlens.errors import (
    ArchitectureError,
    ExplainError,
    FormatError,
    ResolutionMismatchError,
    ShapeMismatchError,
)
from morphlens.explain import (
    EnsembleResult,
    Heatmap,
    cam,
    decode_feature_vector,
    decode_heatmap,
    encode_feature_vector,
    encode_heatmap,
    ensemble,
    explain_all,
    gradcam,
    normalize_map,
    saliency_map,
    upsample,
    write_heatmap,
)
from morphlens.model import (
    ConvLayer,
    DenseLayer,
    DropoutLayer,
    GapLayer,
    CnnModel,
    ReluLayer,
    build_model,
    plan_scaling,
)
from morphlens.resample import bilinear_resize


def linear_model(head_weights, head_bias, channels, resolution):
    """gap -> dropout -> dense; the score is linear in every input pixel."""
    layers = [
        GapLayer(),
        DropoutLayer(0.0),
        DenseLayer(
            "head",
            Tensor(np.asarray(head_weights, dtype=np.float64), requires_grad=True),
            Tensor(np.asarray(head_bias, dtype=np.float64), requires_grad=True),
        ),
    ]
    return CnnModel(layers, resolution)


def passthrough_model(head_weights, head_bias, channels, resolution):
    """1x1 identity conv -> relu -> gap -> dropout -> dense.

    For non-negative inputs the maps entering the pool equal the input, so
    hand-written feature maps are just hand-written images.
    """
    eye = np.eye(channels, dtype=np.float64).reshape(channels, channels, 1, 1)
    layers = [
        ConvLayer(
            "conv0",
            Tensor(eye, requires_grad=True),
            Tensor(np.zeros(channels), requires_grad=True),
            stride=1,
            padding=0,
        ),
        ReluLayer(),
        GapLayer(),
        DropoutLayer(0.0),
        DenseLayer(
            "head",
            Tensor(np.asarray(head_weights, dtype=np.float64), requires_grad=True),
            Tensor(np.asarray(head_bias, dtype=np.float64), requires_grad=True),
        ),
    ]
    return CnnModel(layers, resolution)


def no_dropout_model():
    """1x1 identity conv -> relu -> gap -> dense: the head lacks its dropout."""
    eye = np.eye(1).reshape(1, 1, 1, 1)
    layers = [
        ConvLayer("conv0", Tensor(eye, requires_grad=True), Tensor(np.zeros(1), requires_grad=True), 1, 0),
        ReluLayer(),
        GapLayer(),
        DenseLayer("head", Tensor(np.zeros((1, 2)), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)),
    ]
    return CnnModel(layers, 2)


def small_trained_like_model(seed):
    """Default 2-block architecture at 8x8 with every parameter randomized.

    The factory head starts at zero, which makes map identities vacuous, so
    the tests that exercise gradients overwrite all parameters.
    """
    plan = plan_scaling(0.0, base_depth=2, base_width=4, base_resolution=8)
    model = build_model(plan, seed=seed)
    rng = np.random.default_rng(seed)
    for _, tensor in model.parameters():
        tensor.data = rng.uniform(-0.6, 0.6, size=tensor.data.shape)
    return model


def small_image(seed, resolution=8, channels=3):
    rng = np.random.default_rng(seed + 5000)
    return rng.uniform(0.0, 1.0, size=(channels, resolution, resolution))


# Heatmap type


def test_heatmap_rejects_unknown_method():
    with pytest.raises(ExplainError):
        Heatmap(np.zeros((2, 2)), "lime", normalized=False)


def test_heatmap_rejects_non_grid_values():
    with pytest.raises(ExplainError):
        Heatmap(np.zeros(4), "cam", normalized=False)
    with pytest.raises(ExplainError):
        Heatmap(np.zeros((0, 3)), "cam", normalized=False)


def test_heatmap_normalized_flag_checks_range():
    with pytest.raises(ExplainError):
        Heatmap(np.array([[0.0, 2.0]]), "cam", normalized=True)
    with pytest.raises(ExplainError):
        Heatmap(np.array([[-0.1, 1.0]]), "cam", normalized=True)
    with pytest.raises(ExplainError):
        Heatmap(np.array([[0.0, 0.5]]), "cam", normalized=True)
    Heatmap(np.array([[0.0, 1.0]]), "cam", normalized=True)
    Heatmap(np.zeros((2, 2)), "cam", normalized=True)


def test_heatmap_dimensions():
    h = Heatmap(np.zeros((3, 5)), "saliency", normalized=False, target_class=1)
    assert h.height == 3
    assert h.width == 5
    assert h.target_class == 1


# saliency


def test_saliency_linear_model_is_exact_head_weight():
    # One-pixel image: pooling is the identity, so d score / d pixel = weight.
    weights = np.array([[3.0, 0.5], [-4.0, 0.25]])
    model = linear_model(weights, [0.0, 0.0], channels=2, resolution=1)
    image = np.array([[[0.7]], [[0.2]]])
    heatmap = saliency_map(model, image, target_class=0)
    assert heatmap.values.shape == (1, 1)
    assert heatmap.values[0, 0] == 4.0
    assert heatmap.method == "saliency"
    assert heatmap.normalized is False
    assert heatmap.target_class == 0


def test_saliency_linear_model_scales_with_pool_size():
    # Pooling spreads each weight over the 16 pixels, with dyadic exactness.
    weights = np.array([[0.5, 0.0], [-1.0, 0.0]])
    model = linear_model(weights, [0.0, 0.0], channels=2, resolution=4)
    heatmap = saliency_map(model, np.full((2, 4, 4), 0.3), target_class=0)
    assert np.array_equal(heatmap.values, np.full((4, 4), 1.0 / 16.0))


def test_saliency_takes_max_abs_over_channels():
    # Channel gradients are 0.25/HW and -0.75/HW; the map keeps the bigger one.
    weights = np.array([[0.25, 0.0], [-0.75, 0.0]])
    model = linear_model(weights, [0.0, 0.0], channels=2, resolution=2)
    heatmap = saliency_map(model, np.full((2, 2, 2), 0.5), target_class=0)
    assert np.array_equal(heatmap.values, np.full((2, 2), 0.75 / 4.0))


def test_saliency_matches_finite_differences():
    model, image = _smooth_case(seed=0)
    heatmap = saliency_map(model, image, target_class=1)
    rng = np.random.default_rng(42)
    resolution = model.input_resolution
    eps = 1e-4
    for _ in range(10):
        i = int(rng.integers(resolution))
        j = int(rng.integers(resolution))
        best = 0.0
        for c in range(image.shape[0]):
            up = image.copy()
            up[c, i, j] += eps
            down = image.copy()
            down[c, i, j] -= eps
            fd = (_logit(model, up, 1) - _logit(model, down, 1)) / (2.0 * eps)
            best = max(best, abs(fd))
        denom = max(best, heatmap.values[i, j], 1e-12)
        assert abs(best - heatmap.values[i, j]) / denom < 1e-3


def test_saliency_ignores_head_bias():
    model = small_trained_like_model(seed=3)
    image = small_image(3)
    before = saliency_map(model, image, target_class=0).values
    model.layers[-1].bias.data = model.layers[-1].bias.data + 5.0
    after = saliency_map(model, image, target_class=0).values
    assert np.array_equal(before, after)


def test_saliency_input_validation():
    model = small_trained_like_model(seed=1)
    with pytest.raises(ExplainError):
        saliency_map(model, small_image(1), target_class=2)
    with pytest.raises(ResolutionMismatchError):
        saliency_map(model, small_image(1, resolution=9), target_class=0)
    with pytest.raises(ResolutionMismatchError):
        saliency_map(model, np.zeros((2, 3, 8, 8)), target_class=0)


def _logit(model, image, target_class):
    logits, _ = model.forward(Tensor(image[None]), train=False)
    return float(logits.data.reshape(-1)[target_class])


def _smooth_case(seed):
    """Model/image pair whose pre-relu margins keep the kinks away from the
    finite-difference probes. Screening keys on the forward state, never on
    the measured gradient error."""
    attempt = seed
    while True:
        model = small_trained_like_model(attempt)
        image = small_image(attempt)
        _, activations = model.forward(Tensor(image[None]), train=False)
        margin = min(
            np.abs(activations[i + 1].data).min()
            for i, layer in enumerate(model.layers)
            if layer.kind == "conv"
        )
        if margin > 1e-2:
            return model, image
        attempt += 7919


# cam


def test_cam_single_constant_map():
    model = passthrough_model([[2.0, 0.0]], [0.5, 0.0], channels=1, resolution=2)
    heatmap = cam(model, np.full((1, 2, 2), 3.0), target_class=0)
    assert np.array_equal(heatmap.values, np.full((2, 2), 6.0))
    assert heatmap.method == "cam"
    assert heatmap.target_class == 0
    assert _logit(model, np.full((1, 2, 2), 3.0), 0) == pytest.approx(6.5)


def test_cam_two_map_hand_example():
    # Maps A0 = [[1,0],[0,0]], A1 = [[0,0],[0,1]] with weights (1, -2):
    # M = A0 - 2 A1, mean(M) = -0.25 = the class score.
    image = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])
    model = passthrough_model([[1.0, 0.0], [-2.0, 0.0]], [0.0, 0.0], channels=2, resolution=2)
    heatmap = cam(model, image, target_class=0)
    assert np.array_equal(heatmap.values, np.array([[1.0, 0.0], [0.0, -2.0]]))
    assert _logit(model, image, 0) == pytest.approx(-0.25)


def test_cam_zero_head_gives_zero_map():
    plan = plan_scaling(0.0, base_depth=2, base_width=4, base_resolution=8)
    model = build_model(plan, seed=11)
    heatmap = cam(model, small_image(11), target_class=1)
    assert np.array_equal(heatmap.values, np.zeros_like(heatmap.values))


def test_cam_satisfies_score_identity():
    model = small_trained_like_model(seed=7)
    image = small_image(7)
    heatmap = cam(model, image, target_class=1)
    head = model.layers[-1]
    reconstructed = heatmap.values.mean() + head.bias.data[1]
    assert reconstructed == pytest.approx(_logit(model, image, 1), abs=1e-9)


def test_cam_requires_pool_dropout_dense_tail():
    with pytest.raises(ArchitectureError):
        cam(no_dropout_model(), np.zeros((1, 2, 2)), target_class=0)


def test_cam_input_validation():
    model = small_trained_like_model(seed=2)
    with pytest.raises(ExplainError):
        cam(model, small_image(2), target_class=-1)
    with pytest.raises(ResolutionMismatchError):
        cam(model, small_image(2, resolution=16), target_class=0)


# gradcam


def test_gradcam_preactivation_equals_cam_over_cells():
    for seed in range(5):
        model = small_trained_like_model(seed)
        image = small_image(seed)
        raw, _ = gradcam(model, image, target_class=1, apply_relu=False)
        reference = cam(model, image, target_class=1)
        cells = reference.values.size
        assert np.allclose(raw.values, reference.values / cells, atol=1e-9, rtol=0.0)


def test_gradcam_preactivation_is_cam_over_cells_on_hand_examples():
    # Dyadic weights and pixels over a 4-cell grid: every step is exact.
    image = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])
    two_maps = passthrough_model([[1.0, 0.0], [-2.0, 0.0]], [0.0, 0.0], channels=2, resolution=2)
    conv_less = linear_model([[3.0, 0.5], [-4.0, 0.25]], [0.0, 0.0], channels=2, resolution=2)
    pixels = np.array([[[0.75, 0.5], [0.25, 1.0]], [[0.125, 0.0], [0.5, 0.375]]])
    for model, x in ((two_maps, image), (conv_less, pixels)):
        for target in (0, 1):
            raw, _ = gradcam(model, x, target_class=target, apply_relu=False)
            reference = cam(model, x, target_class=target)
            assert np.array_equal(raw.values, reference.values / 4.0)
    raw, _ = gradcam(two_maps, image, target_class=0, apply_relu=False)
    assert np.array_equal(raw.values, np.array([[0.25, 0.0], [0.0, -0.5]]))


@pytest.mark.parametrize("make", [linear_model, passthrough_model])
def test_gradcam_preactivation_is_cam_over_cells_on_inexact_grids(make):
    # Nine cells and uniform draws round; the gap stays within criterion 3's 1e-9.
    rng = np.random.default_rng(17)
    model = make(rng.uniform(-1.0, 1.0, size=(3, 2)), rng.uniform(-1.0, 1.0, size=2), channels=3, resolution=3)
    image = rng.uniform(0.0, 1.0, size=(3, 3, 3))
    for target in (0, 1):
        raw, _ = gradcam(model, image, target_class=target, apply_relu=False)
        reference = cam(model, image, target_class=target)
        assert np.abs(raw.values - reference.values / 9.0).max() <= 1e-9


def test_gradcam_correlates_perfectly_with_cam():
    model = small_trained_like_model(seed=9)
    image = small_image(9)
    raw, _ = gradcam(model, image, target_class=0, apply_relu=False)
    reference = cam(model, image, target_class=0)
    r = np.corrcoef(raw.values.ravel(), reference.values.ravel())[0, 1]
    assert r == pytest.approx(1.0, abs=1e-9)


def test_gradcam_rectifies_negative_evidence_to_zero():
    model = passthrough_model([[-1.0, 0.0]], [0.0, 0.0], channels=1, resolution=2)
    heatmap, importance = gradcam(model, np.full((1, 2, 2), 0.8), target_class=0)
    assert np.array_equal(heatmap.values, np.zeros((2, 2)))
    assert importance[0] < 0.0


def test_gradcam_outputs_are_nonnegative():
    for seed in range(4):
        model = small_trained_like_model(seed)
        heatmap, _ = gradcam(model, small_image(seed), target_class=seed % 2)
        assert (heatmap.values >= 0.0).all()


def test_gradcam_importance_matches_finite_differences():
    # Identity conv on a strictly positive image: feature cells ARE pixels,
    # so pixel differences probe d score / d activation directly.
    weights = np.array([[0.6, -0.1], [-0.4, 0.3]])
    model = passthrough_model(weights, [0.1, -0.2], channels=2, resolution=2)
    image = np.array([[[0.9, 0.7], [0.8, 0.6]], [[0.5, 1.0], [0.7, 0.9]]])
    _, importance = gradcam(model, image, target_class=0)
    eps = 1e-4
    for k in range(2):
        grads = []
        for i in range(2):
            for j in range(2):
                up = image.copy()
                up[k, i, j] += eps
                down = image.copy()
                down[k, i, j] -= eps
                grads.append((_logit(model, up, 0) - _logit(model, down, 0)) / (2.0 * eps))
        fd = float(np.mean(grads))
        assert abs(fd - importance[k]) / max(abs(fd), 1e-12) < 1e-3


def test_gradcam_reads_the_last_block():
    model = small_trained_like_model(seed=5)
    heatmap, importance = gradcam(model, small_image(5), target_class=0)
    # 8 px halve twice: the last of the two blocks has 8 channels of 2 x 2
    assert heatmap.values.shape == (2, 2)
    assert importance.shape == (8,)


def test_gradcam_requires_pool_dropout_dense_tail():
    with pytest.raises(ArchitectureError):
        gradcam(no_dropout_model(), np.zeros((1, 2, 2)), target_class=0)


# explain_all: one pass for the three maps


def randomized_model(phi, seed, scale=0.3):
    """Default-scaled architecture at phi with every parameter drawn uniformly."""
    model = build_model(plan_scaling(phi), seed=seed)
    rng = np.random.default_rng(seed)
    for _, tensor in model.parameters():
        tensor.data = rng.uniform(-scale, scale, size=tensor.data.shape)
    image = rng.uniform(0.0, 1.0, size=(3, model.input_resolution, model.input_resolution))
    return model, image


def three_pass_maps(model, image, target_class):
    """The maps as three separate passes compute them: a saliency pass, a
    no-grad forward for cam, and a gradcam pass with the input off the tape."""
    x = Tensor(image[None], requires_grad=True)
    logits, _ = model.forward(x)
    backward(select(logits, target_class))
    saliency = np.abs(x.grad[0]).max(axis=0)
    with no_grad():
        _, activations = model.forward(Tensor(image[None]))
    column = model.layers[-1].weights.data[:, target_class]
    cam_values = np.tensordot(column, activations[-4].data[0], axes=([0], [0]))
    logits, activations = model.forward(Tensor(image[None]))
    last_conv = max(i for i, layer in enumerate(model.layers) if layer.kind == "conv")
    assert model.layers[last_conv + 1].kind == "relu"
    feature = activations[last_conv + 2]  # the last block's ReLU output
    backward(select(logits, target_class))
    importance = feature.grad[0].mean(axis=(1, 2))
    gradcam_values = np.maximum(np.tensordot(importance, feature.data[0], axes=([0], [0])), 0.0)
    return saliency, cam_values, gradcam_values


@pytest.mark.parametrize("phi", [0.0, 1.0])
@pytest.mark.parametrize("target_class", [0, 1])
def test_explain_all_equals_the_separate_maps_bit_for_bit(phi, target_class):
    model, image = randomized_model(phi, seed=21)
    together = explain_all(model, image, target_class)
    separate = (
        saliency_map(model, image, target_class),
        cam(model, image, target_class),
        gradcam(model, image, target_class)[0],
    )
    reference = three_pass_maps(model, image, target_class)
    for one, alone, values, method in zip(together, separate, reference, ("saliency", "cam", "gradcam")):
        assert (one.method, one.target_class, one.normalized) == (method, target_class, False)
        assert one.values.tobytes() == alone.values.tobytes()
        assert one.values.tobytes() == values.tobytes()
    assert together[0].values.any() and together[2].values.any()


def test_explain_all_validates_like_the_separate_maps():
    model = small_trained_like_model(seed=4)
    with pytest.raises(ExplainError):
        explain_all(model, small_image(4), target_class=2)
    with pytest.raises(ResolutionMismatchError):
        explain_all(model, small_image(4, resolution=16), target_class=0)
    with pytest.raises(ResolutionMismatchError):
        explain_all(model, np.zeros((2, 3, 8, 8)), target_class=0)
    with pytest.raises(ArchitectureError):
        explain_all(no_dropout_model(), np.zeros((1, 2, 2)), target_class=0)


def test_explain_all_on_a_conv_less_model_explains_the_input():
    # gap -> dropout -> dense: the maps entering the pool are the image itself.
    model = linear_model([[0.5, -1.0], [-0.25, 2.0]], [0.0, 0.0], channels=2, resolution=2)
    image = np.array([[[0.5, 1.0], [0.0, 0.25]], [[0.75, 0.5], [1.0, 0.0]]])
    saliency, cam_map, gradcam_map = explain_all(model, image, target_class=1)
    assert [m.method for m in (saliency, cam_map, gradcam_map)] == ["saliency", "cam", "gradcam"]
    assert np.array_equal(cam_map.values, -1.0 * image[0] + 2.0 * image[1])
    assert np.array_equal(gradcam_map.values, np.maximum(cam_map.values / 4.0, 0.0))
    assert np.array_equal(saliency.values, np.full((2, 2), 0.5))


def test_explain_all_maps_follow_a_redrawn_last_block():
    # Model-randomization sanity check: a map that ignores the weights it
    # explains (or reads a stale buffer) would not move.
    model, image = randomized_model(0.0, seed=8)
    saliency, _, gradcam_map = explain_all(model, image, 1)
    last = [layer for layer in model.layers if layer.kind == "conv"][-1]
    last.kernels.data = np.random.default_rng(99).uniform(-0.3, 0.3, size=last.kernels.shape)
    redrawn_saliency, _, redrawn_gradcam = explain_all(model, image, 1)
    assert not np.array_equal(saliency.values, redrawn_saliency.values)
    assert not np.array_equal(gradcam_map.values, redrawn_gradcam.values)


# normalize_map


def test_normalize_affine_rescale():
    heatmap = Heatmap(np.array([[0.0, 5.0], [10.0, 5.0]]), "cam", normalized=False, target_class=1)
    out = normalize_map(heatmap)
    assert np.array_equal(out.values, np.array([[0.0, 0.5], [1.0, 0.5]]))
    assert out.normalized is True
    assert out.method == "cam"
    assert out.target_class == 1


def test_normalize_constant_map_becomes_zeros():
    out = normalize_map(Heatmap(np.full((3, 3), 7.7), "gradcam", normalized=False))
    assert np.array_equal(out.values, np.zeros((3, 3)))
    assert out.normalized is True


def test_normalize_is_idempotent():
    heatmap = Heatmap(np.array([[2.0, -1.0], [0.5, 4.0]]), "saliency", normalized=False)
    once = normalize_map(heatmap)
    twice = normalize_map(once)
    assert np.array_equal(once.values, twice.values)


# upsample


def test_upsample_same_size_is_identity():
    heatmap = Heatmap(np.array([[0.0, 1.0], [0.5, 0.25]]), "cam", normalized=True)
    out = upsample(heatmap, 2, 2)
    assert np.array_equal(out.values, heatmap.values)
    assert out.normalized is True


def test_upsample_corner_aligned_midpoints():
    heatmap = Heatmap(np.array([[0.0, 1.0], [0.0, 1.0]]), "cam", normalized=True)
    out = upsample(heatmap, 2, 3)
    assert np.allclose(out.values, np.array([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]]))


def test_upsample_constant_stays_constant():
    out = upsample(Heatmap(np.full((2, 2), 0.3), "gradcam", normalized=False), 5, 7)
    assert out.values.shape == (5, 7)
    assert np.allclose(out.values, 0.3)


def test_upsample_enlargement_clears_normalized_flag():
    heatmap = Heatmap(np.array([[0.0, 1.0], [0.0, 1.0]]), "cam", normalized=True)
    assert upsample(heatmap, 4, 4).normalized is False


def test_upsample_rejects_shrinking():
    heatmap = Heatmap(np.zeros((4, 4)), "cam", normalized=False)
    with pytest.raises(ResolutionMismatchError):
        upsample(heatmap, 3, 8)
    with pytest.raises(ResolutionMismatchError):
        upsample(heatmap, 8, 3)


@pytest.mark.parametrize("shape", [(4, 4, 3), (4,)], ids=["rgb", "1-d"])
def test_bilinear_resize_takes_2d_maps_only(shape):
    # an input image is never resized, so (H, W, C) data has no path here
    with pytest.raises(ShapeMismatchError, match="expects 2-D data"):
        bilinear_resize(np.zeros(shape), 8, 8)


# ensemble

EQUAL = RunConfig().ensemble_weights  # the weights explain uses by default


def normalized_trio(seed):
    rng = np.random.default_rng(seed)
    maps = []
    for method in ("saliency", "cam", "gradcam"):
        raw = Heatmap(rng.uniform(-1.0, 1.0, size=(3, 3)), method, normalized=False, target_class=1)
        maps.append(normalize_map(raw))
    return maps


def test_ensemble_identical_maps_are_a_fixed_point():
    base = normalize_map(Heatmap(np.arange(9.0).reshape(3, 3), "cam", normalized=False))
    parts = [Heatmap(base.values, m, normalized=True) for m in ("saliency", "cam", "gradcam")]
    result = ensemble(*parts, EQUAL)
    assert np.allclose(result.combined.values, base.values, atol=1e-12)


def test_ensemble_degenerate_weights_select_one_slot():
    s, c, g = normalized_trio(0)
    for weights, expected in ([(1.0, 0.0, 0.0), s], [(0.0, 1.0, 0.0), c], [(0.0, 0.0, 1.0), g]):
        result = ensemble(s, c, g, weights)
        assert np.allclose(result.combined.values, expected.values, atol=1e-12)


def test_ensemble_combined_is_renormalized_weighted_mean():
    s, c, g = normalized_trio(1)
    weights = (0.5, 0.3, 0.2)
    result = ensemble(s, c, g, weights)
    mixed = 0.5 * s.values + 0.3 * c.values + 0.2 * g.values
    span = mixed.max() - mixed.min()
    assert np.allclose(result.combined.values, (mixed - mixed.min()) / span, atol=1e-12)
    assert result.combined.normalized is True
    assert result.combined.method == "ensemble"


def test_ensemble_combination_is_convex():
    for seed in range(5):
        s, c, g = normalized_trio(seed)
        result = ensemble(s, c, g, (0.2, 0.5, 0.3))
        assert result.combined.values.min() >= 0.0
        assert result.combined.values.max() == pytest.approx(1.0)


def test_ensemble_feature_vector_order():
    s, c, g = normalized_trio(2)
    result = ensemble(s, c, g, EQUAL)
    assert result.feature_vector.shape == (27,)
    assert np.array_equal(result.feature_vector[:9], g.values.ravel())
    assert np.array_equal(result.feature_vector[9:18], c.values.ravel())
    assert np.array_equal(result.feature_vector[18:], s.values.ravel())
    assert isinstance(result, EnsembleResult)


def test_ensemble_single_pixel_case():
    s = Heatmap(np.array([[1.0]]), "saliency", normalized=True)
    c = Heatmap(np.array([[0.0]]), "cam", normalized=True)
    g = Heatmap(np.array([[1.0]]), "gradcam", normalized=True)
    result = ensemble(s, c, g, (0.5, 0.25, 0.25))
    # The 0.75 mix is constant over its single cell, so it normalizes to zero.
    assert result.combined.values == pytest.approx(np.zeros((1, 1)))
    assert np.array_equal(result.feature_vector, np.array([1.0, 0.0, 1.0]))


def test_ensemble_target_class_propagation():
    s, c, g = normalized_trio(3)
    assert ensemble(s, c, g, EQUAL).combined.target_class == 1
    mixed = Heatmap(s.values, "saliency", normalized=True, target_class=0)
    assert ensemble(mixed, c, g, EQUAL).combined.target_class is None


def test_ensemble_rejects_bad_inputs():
    s, c, g = normalized_trio(4)
    small = normalize_map(Heatmap(np.arange(4.0).reshape(2, 2), "cam", normalized=False))
    with pytest.raises(ResolutionMismatchError):
        ensemble(s, small, g, EQUAL)
    with pytest.raises(ExplainError):
        ensemble(s, c, g, (0.5, 0.75, -0.25))
    with pytest.raises(ExplainError):
        ensemble(s, c, g, (0.5, 0.1, 0.1))
    with pytest.raises(ExplainError):
        ensemble(s, c, g, (0.25, 0.25, 0.25, 0.25))
    raw = Heatmap(np.arange(9.0).reshape(3, 3), "cam", normalized=False, target_class=1)
    with pytest.raises(ExplainError):
        ensemble(s, raw, g, EQUAL)


# XHM1 files


def test_heatmap_codec_round_trip():
    values = np.array([[0.5, -1.25, 3.0], [0.0, 2.5, -0.75]])
    heatmap = Heatmap(values, "gradcam", normalized=False)
    data = encode_heatmap(heatmap)
    assert data.startswith(b"XHM1 2 3 gradcam\n")
    assert len(data) == len(b"XHM1 2 3 gradcam\n") + 6 * 8
    out = decode_heatmap(data)
    assert np.array_equal(out.values, values)
    assert out.method == "gradcam"
    assert out.normalized is False


def test_heatmap_payload_is_little_endian_float64():
    heatmap = Heatmap(np.array([[1.0]]), "cam", normalized=False)
    data = encode_heatmap(heatmap)
    payload = data.split(b"\n", 1)[1]
    assert payload == np.array([1.0], dtype="<f8").tobytes()


def test_decode_rejects_malformed_headers():
    with pytest.raises(FormatError):
        decode_heatmap(b"XHM1 2 2 cam")  # no newline
    with pytest.raises(FormatError):
        decode_heatmap(b"XHM2 2 2 cam\n" + b"\x00" * 32)
    with pytest.raises(FormatError):
        decode_heatmap(b"XHM1 2 cam\n" + b"\x00" * 32)
    with pytest.raises(FormatError):
        decode_heatmap(b"XHM1 two 2 cam\n" + b"\x00" * 32)
    with pytest.raises(FormatError):
        decode_heatmap(b"XHM1 0 2 cam\n")
    with pytest.raises(FormatError):
        decode_heatmap(b"XHM1 2 2 lime\n" + b"\x00" * 32)


def test_decode_rejects_short_payload():
    with pytest.raises(FormatError):
        decode_heatmap(b"XHM1 2 2 cam\n" + b"\x00" * 31)
    with pytest.raises(FormatError):
        decode_heatmap(b"XHM1 2 2 cam\n" + b"\x00" * 33)


def test_feature_vector_codec_round_trip():
    values = np.arange(12.0)
    data = encode_feature_vector(values, 2, 2)
    assert data.startswith(b"XHM1 2 2 ensemble-vec\n")
    out, height, width = decode_feature_vector(data)
    assert (height, width) == (2, 2)
    assert np.array_equal(out, values)


def test_feature_vector_codec_validation():
    with pytest.raises(FormatError):
        encode_feature_vector(np.arange(11.0), 2, 2)
    heatmap_bytes = encode_heatmap(Heatmap(np.zeros((2, 2)), "cam", normalized=False))
    with pytest.raises(FormatError):
        decode_feature_vector(heatmap_bytes)
    vector_bytes = encode_feature_vector(np.arange(12.0), 2, 2)
    with pytest.raises(FormatError):
        decode_heatmap(vector_bytes)


def test_heatmap_file_round_trip(tmp_path):
    heatmap = Heatmap(np.array([[0.25, 0.5], [0.75, 1.0]]), "saliency", normalized=False)
    path = tmp_path / "map.xhm"
    write_heatmap(path, heatmap)
    out = decode_heatmap(path.read_bytes())
    assert np.array_equal(out.values, heatmap.values)
    assert out.method == "saliency"
