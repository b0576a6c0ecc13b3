"""Command-line interface: gen-data, train, eval, explain, dump-layer.

Every flag mirrors a config key (underscores become hyphens); precedence is
defaults < --config file < flags. All failures print one `error: ...` line
to stderr and exit nonzero; completed commands exit 0 with byte-deterministic
outputs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .checkpoint import load_params, save_params
from .config import CONFIG_KEYS, RunConfig, load_config, parse_value, read_file, write_file
from .data import ModelInputs, build_corpus, load_corpus, preprocess, save_corpus, split
from .errors import CliError, MorphLensError
from .explain import (
    encode_feature_vector,
    ensemble,
    explain_all,
    normalize_map,
    upsample,
    write_heatmap,
)
from .explain import cam, gradcam, saliency_map  # noqa: F401 -- names the benchmark tracer patches
from .metrics import compute_metrics, confusion, format_report
from .model import (
    CnnModel,
    architecture,
    build_model,
    dump_layer_activations,
    load_plan_sidecar,
    model_shapes,
    predicted_classes,
    save_plan_sidecar,
    train,
)
from .model import predict  # noqa: F401 -- names the benchmark tracer patches
from .viz import RgbImage, colorize, decode_ppm, encode_pgm, encode_ppm, superimpose


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="morphlens", description="Morphed-face detection and explanation")
    commands = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("gen-data", "generate the synthetic corpus", []),
        ("train", "train a detector on the corpus train split", []),
        ("eval", "score a checkpoint on the corpus test split", []),
        ("explain", "write heatmaps and overlays for one image", ["image", "target_class"]),
        ("dump-layer", "write one layer's activation grid as PGM", ["image", "layer_index"]),
    ]
    # --config and the config-key flags are built once and shared by every command.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value config file")
    for key in CONFIG_KEYS:
        common.add_argument(f"--{key.replace('_', '-')}", dest=f"opt_{key}", metavar="VALUE")
    for name, help_text, extras in specs:
        sub = commands.add_parser(name, help=help_text, parents=[common])
        if "image" in extras:
            sub.add_argument("--image", required=True, metavar="PATH", help="PPM image to explain")
        if "target_class" in extras:
            sub.add_argument("--target-class", type=int, default=1, choices=(0, 1))
        if "layer_index" in extras:
            sub.add_argument("--layer-index", required=True, type=int)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: built on the first `main` call, not at import.

    Parsing changes no parser state, so every later call reuses it.
    """
    return build_parser()


def resolve_config(ns: argparse.Namespace) -> RunConfig:
    cfg = load_config(ns.config) if ns.config else RunConfig()
    for key in CONFIG_KEYS:
        raw = getattr(ns, f"opt_{key}", None)
        if raw is not None:
            setattr(cfg, key, parse_value(key, raw))
    cfg.validate()
    return cfg


def _sidecar_path(checkpoint_path: str) -> Path:
    return Path(str(checkpoint_path) + ".plan")


def _check_checkpoint_writable(ckpt: Path) -> None:
    """Refuse, before training, a checkpoint path train could not write to."""
    for target in (ckpt, _sidecar_path(ckpt)):
        if target.is_dir():
            raise CliError(f"cannot write checkpoint {ckpt}: {target} is a directory")
        if target.exists() and not target.is_file():  # a FIFO, socket or device
            raise CliError(f"cannot write checkpoint {ckpt}: {target} is not a regular file")
    parent = next((p for p in ckpt.parents if p.exists()), ckpt.parent)
    if not parent.is_dir() or not os.access(parent, os.W_OK | os.X_OK):
        raise CliError(f"cannot write checkpoint {ckpt}: {parent} is not a writable directory")


def _load_model(cfg: RunConfig) -> CnnModel:
    ckpt = Path(cfg.checkpoint)
    if not ckpt.is_file():
        raise CliError(f"checkpoint not found: {ckpt} (run `morphlens train` first)")
    plan = load_plan_sidecar(_sidecar_path(cfg.checkpoint))
    model = model_shapes(plan)  # the checkpoint sets every parameter, so no init draws
    model.load_parameters(load_params(ckpt))
    return model


def _load_image(path: str) -> RgbImage:
    return decode_ppm(read_file(path, "image"))


def cmd_gen_data(cfg: RunConfig, ns: argparse.Namespace) -> int:
    side, _ = architecture(cfg.plan())  # the faces are drawn at the side the model takes
    corpus = build_corpus(cfg.n_bonafide, cfg.n_morphed, cfg.seed, side)
    save_corpus(cfg.corpus_dir, corpus)
    print(f"wrote {cfg.n_bonafide} bonafide + {cfg.n_morphed} morph images to {cfg.corpus_dir}")
    return 0


def cmd_train(cfg: RunConfig, ns: argparse.Namespace) -> int:
    ckpt = Path(cfg.checkpoint)
    _check_checkpoint_writable(ckpt)
    corpus = load_corpus(cfg.corpus_dir)
    plan = cfg.plan()
    model = build_model(plan, cfg.seed)
    part = split(corpus)
    report = train(model, part.train, cfg.epochs, cfg.batch_size, cfg.learning_rate, cfg.seed)
    if ckpt.parent != Path(""):
        ckpt.parent.mkdir(parents=True, exist_ok=True)
    save_params(ckpt, [(name, tensor.data) for name, tensor in model.parameters()])
    save_plan_sidecar(_sidecar_path(cfg.checkpoint), plan)
    for epoch, loss in enumerate(report.epoch_losses, 1):
        print(f"epoch {epoch} loss {loss!r}")
    print(f"train_accuracy={report.train_accuracy!r}")
    print(f"wrote checkpoint to {ckpt}")
    return 0


def cmd_eval(cfg: RunConfig, ns: argparse.Namespace) -> int:
    model = _load_model(cfg)
    part = split(load_corpus(cfg.corpus_dir))  # the test side of the split train held out
    inputs = ModelInputs([sample.image for sample in part.test], model.input_resolution)
    predictions = predicted_classes(model, inputs, cfg.batch_size).tolist()
    labels = [sample.label for sample in part.test]
    text = format_report(compute_metrics(confusion(predictions, labels)))
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_file(out_dir / "metrics.txt", text.encode("ascii"))
    print(text, end="")
    return 0


def cmd_explain(cfg: RunConfig, ns: argparse.Namespace) -> int:
    model = _load_model(cfg)
    image = _load_image(ns.image)
    tensor = preprocess(image, model.input_resolution)
    target = ns.target_class
    res = model.input_resolution

    sal, cam_n, gc_n = (normalize_map(upsample(raw, res, res)) for raw in explain_all(model, tensor, target))
    result = ensemble(sal, cam_n, gc_n, cfg.ensemble_weights)

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    maps = (sal, cam_n, gc_n, result.combined)
    overlays = superimpose(image, colorize(maps))
    for name, heatmap, overlay in zip(("saliency", "cam", "gradcam", "ensemble"), maps, overlays):
        write_heatmap(out_dir / f"{name}.xhm", heatmap)
        write_file(out_dir / f"{name}.ppm", encode_ppm(overlay))
    write_file(out_dir / "ensemble_vec.xhm", encode_feature_vector(result.feature_vector, res, res))
    print(f"wrote 4 overlays, 4 heatmaps, and the feature vector to {out_dir}")
    return 0


def cmd_dump_layer(cfg: RunConfig, ns: argparse.Namespace) -> int:
    model = _load_model(cfg)
    image = _load_image(ns.image)
    tensor = preprocess(image, model.input_resolution)
    activation, grid = dump_layer_activations(model, tensor, ns.layer_index)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"layer_{ns.layer_index:02d}.pgm"
    write_file(path, encode_pgm(grid))
    print(f"layer {ns.layer_index} activation shape {tuple(activation.shape)} -> {path}")
    return 0


_DISPATCH = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "explain": cmd_explain,
    "dump-layer": cmd_dump_layer,
}


def main(argv: list[str] | None = None) -> int:
    ns = _parser().parse_args(argv)
    try:
        cfg = resolve_config(ns)
        return _DISPATCH[ns.command](cfg, ns)
    except (MorphLensError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
