"""Command-line entry points.

Subcommands: train, evaluate, stats, bound, simulate. Each takes
--config <json> and --out <dir>; --seed overrides the config's seed,
and a config with no seed (`bound`, an `equicorrelation` study) draws
no random numbers and rejects it.

One rule maps a failure to its exit code, whatever the command: 4 for a
file that cannot be read (OSError) or is not in the format advlab writes
(advlab.io.FormatError); 3 for diverged training (DivergedTraining); 2 for
any other request the library rejects (a ValueError, the
FloatingPointError of non-finite logits, or the MemoryError of an array
larger than memory, which numpy refuses before allocating). 0 is success.
A failure prints one line to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .attacks import pgd
from .bounds import evaluate_bound
from .data import Dataset
from .io import FormatError, write_json
from .linalg import NotPositiveDefinite
from .network import Network, load_checkpoint
from .train import (
    BoundConfig,
    DivergedTraining,
    EvaluateConfig,
    RunConfig,
    SIMULATE_CONFIGS,
    STATS_CONFIGS,
    build_config,
    build_variant,
    dataset_from_spec,
    evaluate,
    train,
    write_evaluation_csv,
)
from .weight_stats import (
    LayerCorrStats,
    check_perturbation_bound,
    corr_from_laplace,
    corr_from_samples,
    sample_weight_perturbations,
    simulate_correlation_study,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc


def _cmd_train(doc, out: Path, seed: int | None) -> int:
    config = RunConfig.from_dict(doc, seed)
    record = train(config, out)
    final = record.final
    print(f"trained {config.method} for {len(record.metrics)} epochs -> {out}")
    if final:
        print(f"final clean_test={final['clean_test']:.4f} pgd_test={final['pgd_test']:.4f} "
              f"penalty={final['penalty']:.4f}")
    return EXIT_OK


def _checked_dataset(net: Network, spec: dict, split: str) -> Dataset:
    """The dataset split, checked against the checkpoint's input width and class count."""
    (ds,) = dataset_from_spec(spec, split)
    if ds.dim != net.input_dim:
        raise ValueError(f"dataset has {ds.dim} features, checkpoint expects {net.input_dim}")
    if ds.num_classes != net.output_dim:
        raise ValueError(f"dataset has {ds.num_classes} classes, checkpoint expects {net.output_dim}")
    return ds


def _cmd_evaluate(doc, out: Path, seed: int | None) -> int:
    config = build_config(EvaluateConfig, doc, "evaluate", seed=seed)
    net = load_checkpoint(config.checkpoint)
    ds = _checked_dataset(net, config.dataset, config.split)
    rows = evaluate(net, ds, list(config.attacks), seed=config.seed)
    write_evaluation_csv(out / "evaluate.csv", rows)
    for row in rows:
        print(f"{row['attack'] or 'clean':>12s}  accuracy={row['accuracy']:.4f}")
    return EXIT_OK


def _cmd_stats(doc, out: Path, seed: int | None) -> int:
    config = build_variant(STATS_CONFIGS, "method", doc, "stats", seed)
    if "seed" in doc.get("sampling", {}):  # the dataclass keeps the field for in-process callers
        raise ValueError("stats sampling.seed is not accepted: the sampler draws from the run 'seed'")
    net = load_checkpoint(config.checkpoint)
    ds = _checked_dataset(net, config.dataset, config.split)
    depth = len(net.layers)
    layer = depth if config.layer is None else config.layer
    if not 1 <= layer <= depth:
        raise ValueError(f"stats layer {layer!r} outside 1..{depth}")
    if config.method == "sampling" and not all(1 <= l <= depth for l in config.sampling.layers or ()):
        raise ValueError(f"stats sampling.layers {list(config.sampling.layers)} outside 1..{depth}")
    if config.method == "sampling" and layer not in (config.sampling.layers or range(1, depth + 1)):
        raise ValueError(f"stats layer {layer} is not in sampling.layers "
                         f"{list(config.sampling.layers)}: its weights would never be perturbed")
    variants = [("clean", ds)]
    if config.attack is not None:
        adv = pgd(net, ds.inputs, ds.labels, config.attack, seed=config.seed)
        variants.append(("adversarial", Dataset(adv, ds.labels, ds.num_classes, f"{ds.name}-adv")))
    for tag, data in variants:
        if config.method == "laplace":
            try:
                stats = corr_from_laplace(net, data, layer, damping=config.damping)
            except NotPositiveDefinite as exc:
                raise ValueError(f"stats damping {config.damping!r} is too small: the {tag} "
                                 "Laplace factor is not positive definite") from exc
        else:
            sampling = dataclasses.replace(config.sampling, seed=config.seed)  # the run seeds the sampler
            stats = corr_from_samples(sample_weight_perturbations(net, data, sampling), layer)
        stats.data = tag
        path = out / f"stats_{layer}_{config.method}_{tag}.csv"
        stats.write_csv(path)
        print(f"{tag}: lamc={stats.lamc_max:.5f} lamr={stats.lamr_max:.5f} "
              f"frob_sq={stats.frob_sq:.5g} det_lb={stats.det_lb:.5g} -> {path}")
    return EXIT_OK


def _cmd_bound(doc, out: Path, seed: int | None) -> int:
    config = build_config(BoundConfig, doc, "bound", seed=seed)
    net = load_checkpoint(config.checkpoint)
    paths = config.stats if config.kind in ("corr", "corr_mixed") else ()  # the spectral kinds read none
    stats = [LayerCorrStats.read_csv(p) for p in paths] or None
    report = evaluate_bound(net, config.inputs, config.kind, stats)
    (out / "bound.json").write_text(report.to_json_text(), encoding="utf-8")
    report.write_csv(out / "bound.csv")
    print(f"{config.kind}: complexity_term={report.complexity_term:.6g} "
          f"(phi={report.phi:.6g}, logdet={report.logdet_term:.6g})")
    return EXIT_OK


def _rho_text(rho: float) -> str:
    return "undefined" if math.isnan(rho) else f"{rho:+.4f}"


def _cmd_simulate(doc, out: Path, seed: int | None) -> int:
    config = build_variant(SIMULATE_CONFIGS, "family", doc, "simulate", seed)
    if config.family == "perturbation":  # the ratios are scale-free: any sigma gives them
        report = check_perturbation_bound(config.h, 1.0, config.trials, seed=config.seed)
        report.write_csv(out / "simulate.csv")
        summary = {"h": report.h, "trials": report.trials,
                   "median": report.median, "p95": report.p95}
        print(f"perturbation h={report.h}: median={report.median:.4f} p95={report.p95:.4f}")
    else:
        study = simulate_correlation_study(**dataclasses.asdict(config))  # fields named as its parameters
        study.write_csv(out / "simulate.csv")
        summary = {"family": study.family, "dim": study.dim, "n_samples": int(study.rows.shape[0]),
                   "rho_frob_lam": study.rho_frob_lam, "rho_frob_det": study.rho_frob_det}  # NaN: null
        print(f"{config.family}: rho(frob, lam_proxy)={_rho_text(study.rho_frob_lam)} "
              f"rho(frob, det_lb)={_rho_text(study.rho_frob_det)}")
    write_json(out / "simulate_summary.json", summary)
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "stats": _cmd_stats,
    "bound": _cmd_bound,
    "simulate": _cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advlab",
        description="Adversarial training laboratory: training, attacks, "
        "weight statistics, complexity bounds, and matrix simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with np.errstate(all="ignore"):  # a non-finite value is reported once, by the check it fails
            return _COMMANDS[args.command](doc, out, args.seed)
    except (OSError, FormatError) as exc:  # before ValueError: a FormatError is one
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DivergedTraining as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    # FloatingPointError: network._forward's non-finite logits; MemoryError: an array numpy refuses
    except (ValueError, FloatingPointError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
