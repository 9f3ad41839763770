"""Command-line entry point.

Subcommands: ``phantom-gen`` (synthetic dataset), ``train``, ``eval``,
``xval`` (grouped cross-validation), ``ablate`` (cross-validated comparisons
along one axis: ``representation``, ``resolution``, ``combined_vs_separate``
or the loss-weight grid ``weights``), ``infer`` (checkpoint -> plane
annotation file), and ``mpr-export`` (plane annotation -> PGM slices).

Every run resolves its configuration from defaults, an optional ``--config``
file, and ``--set key=value`` overrides (unknown keys are rejected), then
writes the fully resolved values plus seed as a ``run.lock`` file next to its
artifacts; re-running the same command with ``--config run.lock`` reproduces
the artifacts bit for bit.  The ``phantom-gen`` config keys are
:func:`planereg.phantom.generate_dataset`'s keyword parameters, with its
defaults; the experiment keys are the fields of
:class:`planereg.harness.ExperimentConfig`, which checks them all before any
data is read or output written.  Exit codes: 0 success, 1 validation error,
2 runtime failure.  Validation errors (a malformed config, a key out of
range or not finite, a missing file, a manifest whose mode or patient count
does not fit the config, bad ``--folds`` or ``--jobs``) are found before the
command makes its output.
"""

from __future__ import annotations

import argparse
import inspect
import logging
import os
import sys

from .augmentation import center_input, decode_plane_vector
from .config import ConfigError, Field, read_config_file, resolve, schema, write_lock_file
from .geometry import GeometryError, read_plane_file, write_plane_file
from .harness import (
    ABLATION_AXES,
    EXPERIMENT_SCHEMA,
    ExperimentConfig,
    _check_modes,
    _fold_list,
    ablation_driver,
    cross_validate,
    evaluate,
    load_samples,
    load_trained,
    train,
)
from .loss_metrics import rows_to_csv, write_report
from .phantom import generate_dataset
from .volume import extract_mpr_slice, read_volume, write_pgm

_PHANTOM_HELP = {
    "n_patients": "number of distinct patients",
    "volumes_per_patient": "volumes generated per patient",
    "mode": "body region: ankle or calcaneus",
    "dims": "volume side length in voxels",
    "spacing": "voxel size in mm",
    "metal_fraction": "fraction of patients with implants (class metal)",
    "trunc_lo": "lower bound of the retained-volume fraction",
    "trunc_hi": "upper bound of the retained-volume fraction",
    "pose_rot_deg": "anatomy pose rotation range, +- degrees per axis",
    "pose_trans_mm": "anatomy pose translation range, +- mm per axis",
    "seed": "dataset generation seed",
}

PHANTOM_SCHEMA: dict[str, Field] = schema(
    {n: p.default for n, p in inspect.signature(generate_dataset).parameters.items() if n != "out_dir"},
    _PHANTOM_HELP,
)


class _Parser(argparse.ArgumentParser):
    # usage errors are validation errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _schema_epilog(schema: dict[str, Field]) -> str:
    lines = ["config keys (from a --config file or --set key=value):"]
    for key, f in schema.items():
        lines.append(f"  {key} ({f.type}, default {f.default}): {f.help}")
    return "\n".join(lines)


def _add_config_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override one config key")
    p.add_argument("--seed", type=int, help="override the seed config key")


def _resolve(schema: dict[str, Field], args) -> dict:
    file_values = read_config_file(args.config) if args.config else {}
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value
    return resolve(schema, file_values, overrides)


def _lock(out_path, values: dict, directory: bool) -> None:
    if directory:
        os.makedirs(out_path, exist_ok=True)
        write_lock_file(os.path.join(out_path, "run.lock"), values)
    else:
        write_lock_file(f"{os.fspath(out_path)}.run.lock", values)


def _parse_folds(text: str | None):
    if not text:
        return None
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--folds expects comma-separated fold numbers, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_phantom_gen(args) -> None:
    values = _resolve(PHANTOM_SCHEMA, args)
    entries = generate_dataset(args.out, **values)
    _lock(args.out, values, directory=True)
    print(f"wrote {len(entries)} volumes to {args.out}")


def _cmd_train(args) -> None:
    values = _resolve(EXPERIMENT_SCHEMA, args)
    cfg = ExperimentConfig(**values)
    samples = load_samples(args.manifest)
    _check_modes(cfg, samples)
    os.makedirs(args.out, exist_ok=True)
    result = train(cfg, samples, checkpoint_path=os.path.join(args.out, "checkpoint.bin"))
    with open(os.path.join(args.out, "loss_curve.csv"), "w", encoding="ascii") as fh:
        fh.write("epoch,mean_loss\n")
        for i, v in enumerate(result.loss_curve):
            fh.write(f"{i},{v:.8g}\n")
    _lock(args.out, values, directory=True)
    final = result.loss_curve[-1] if result.loss_curve else float("nan")
    print(f"trained {cfg.epochs} epochs, final mean loss {final:.5f}")


def _cmd_eval(args) -> None:
    net, cfg, plane = load_trained(args.checkpoint)
    samples = load_samples(args.manifest)
    ev = evaluate(net, samples, cfg, plane=plane)
    os.makedirs(args.out, exist_ok=True)
    write_report(os.path.join(args.out, "report.csv"), ev.rows())
    _lock(args.out, cfg.to_values(), directory=True)
    print(rows_to_csv(ev.rows()), end="")
    print(f"preprocessing time per volume: {ev.mean_preprocess_s:.4f} s")
    print(f"inference time per volume: {ev.mean_inference_s:.4f} s")


def _cmd_xval(args) -> None:
    values = _resolve(EXPERIMENT_SCHEMA, args)
    cfg = ExperimentConfig(**values)
    folds = _fold_list(_parse_folds(args.folds), cfg.k)
    rows = cross_validate(cfg, args.manifest, args.out, folds=folds, jobs=args.jobs)
    _lock(args.out, values, directory=True)
    for fold, row in zip(folds, rows):
        print(f"fold mean row {fold}: d={row.d:.3f} eps_n={row.eps_n:.3f} eps_i={row.eps_i:.3f} score={row.score:.3f}")


def _cmd_ablate(args) -> None:
    values = _resolve(EXPERIMENT_SCHEMA, args)
    cfg = ExperimentConfig(**values)
    path = ablation_driver(args.axis, cfg, args.manifest, args.out, folds=_parse_folds(args.folds), jobs=args.jobs)
    _lock(args.out, values, directory=True)
    with open(path, "r", encoding="ascii") as fh:
        print(fh.read(), end="")


def _cmd_infer(args) -> None:
    net, cfg, plane = load_trained(args.checkpoint)
    names = (plane,) if plane else cfg.plane_names
    vol = read_volume(args.volume)
    pred = net.predict(center_input(vol, cfg.out_dims, cfg.out_spacing))
    frames = decode_plane_vector(pred, cfg.representation, cfg.extent_mm)
    write_plane_file(args.out, dict(zip(names, frames)))
    _lock(args.out, cfg.to_values(), directory=False)
    print(f"wrote {len(frames)} planes to {args.out}")


def _cmd_mpr_export(args) -> None:
    vol = read_volume(args.volume)
    planes = read_plane_file(args.planes)
    if args.size <= 0:
        raise ConfigError(f"--size must be a positive integer, got {args.size}")
    px = args.px_spacing if args.px_spacing is not None else max(vol.extent_mm) / args.size
    # render before writing, so that a bad --px-spacing leaves no output behind
    images = {name: extract_mpr_slice(vol, frame, size=args.size, px_spacing=px) for name, frame in planes.items()}
    os.makedirs(args.out, exist_ok=True)
    for name, img in images.items():
        write_pgm(os.path.join(args.out, f"{name}.pgm"), img)
    _lock(args.out, {"size": args.size, "px_spacing": px}, directory=True)
    print(f"wrote {len(planes)} slices to {args.out}")


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="planereg", description="Standard-plane regression from 3D volumes")
    parser.add_argument("--verbose", action="store_true", help="log progress at INFO level")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    fmt = argparse.RawDescriptionHelpFormatter

    p = sub.add_parser(
        "phantom-gen", help="generate a synthetic dataset", epilog=_schema_epilog(PHANTOM_SCHEMA), formatter_class=fmt
    )
    _add_config_options(p)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=_cmd_phantom_gen)

    p = sub.add_parser(
        "train", help="train one network on a manifest", epilog=_schema_epilog(EXPERIMENT_SCHEMA), formatter_class=fmt
    )
    _add_config_options(p)
    p.add_argument("--manifest", required=True, help="dataset manifest file")
    p.add_argument("--out", required=True, help="output directory (checkpoint, loss curve)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output directory (report.csv)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "xval", help="grouped k-fold cross-validation", epilog=_schema_epilog(EXPERIMENT_SCHEMA), formatter_class=fmt
    )
    _add_config_options(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--folds", help="comma-separated fold subset, default all")
    p.add_argument("--jobs", type=int, default=1, help="parallel fold jobs")
    p.set_defaults(func=_cmd_xval)

    p = sub.add_parser(
        "ablate", help="run a comparison driver", epilog=_schema_epilog(EXPERIMENT_SCHEMA), formatter_class=fmt
    )
    _add_config_options(p)
    p.add_argument("--axis", required=True, choices=list(ABLATION_AXES))
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--folds", help="comma-separated fold subset, default all")
    p.add_argument("--jobs", type=int, default=1, help="parallel fold jobs")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("infer", help="predict planes for one volume")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--volume", required=True, help=".vhdr volume path")
    p.add_argument("--out", required=True, help="output plane annotation file")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("mpr-export", help="render plane annotations as PGM slices")
    p.add_argument("--volume", required=True, help=".vhdr volume path")
    p.add_argument("--planes", required=True, help="plane annotation file")
    p.add_argument("--size", type=int, default=256, help="output image side length in px")
    p.add_argument("--px-spacing", type=float, default=None, help="pixel size in mm (default: cover the volume)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_mpr_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args.func(args)
        return 0
    except (ConfigError, GeometryError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # diverged training, generation failures, ...
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
