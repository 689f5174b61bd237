"""Command-line entry points.

Subcommands: train, evaluate, stats, bound, simulate. Each takes
--config <json> and --out <dir>; --seed overrides the config's seed.
Exit codes: 0 success, 2 configuration error, 3 diverged training,
4 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .attacks import AttackSpec, pgd
from .bounds import BOUND_KINDS, BoundInputs, evaluate_bound
from .data import BadMagic, CountMismatch, Dataset, Truncated
from .decorr import Unsupported
from .io import write_json
from .linalg import NotPositiveDefinite
from .network import CheckpointError, Network, load_checkpoint
from .train import (
    ConfigError,
    DivergedTraining,
    RunConfig,
    build_config,
    dataset_from_spec,
    evaluate,
    train,
    write_evaluation_csv,
)
from .weight_stats import (
    DegenerateVariance,
    LayerCorrStats,
    SamplingConfig,
    SamplingStalled,
    StatsFormatError,
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


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc


def _cmd_train(doc: dict, out: Path, seed: int | None) -> int:
    if seed is not None:
        doc = doc | {"seed": seed}
    config = RunConfig.from_dict(doc)
    record = train(config, out)
    final = record.final
    print(f"trained {config.method} for {len(record.metrics)} epochs -> {out}")
    if final:
        print(
            f"final clean_test={final['clean_test']:.4f} pgd_test={final['pgd_test']:.4f} "
            f"penalty={final['penalty']:.4f}"
        )
    return EXIT_OK


def _attacks_from_config(doc: dict) -> list[AttackSpec]:
    return [build_config(AttackSpec, e, f"attack spec {e}") for e in doc.get("attacks", [])]


def _check_compatible(net: Network, ds: Dataset):
    if ds.dim != net.input_dim:
        raise ConfigError(f"dataset has {ds.dim} features, checkpoint expects {net.input_dim}")
    if ds.num_classes != net.output_dim:
        raise ConfigError(f"dataset has {ds.num_classes} classes, checkpoint expects {net.output_dim}")


def _cmd_evaluate(doc: dict, out: Path, seed: int | None) -> int:
    try:
        net = load_checkpoint(doc["checkpoint"])
    except KeyError as exc:
        raise ConfigError(f"evaluate config lacks {exc}") from exc
    ds = dataset_from_spec(doc.get("dataset"), doc.get("split", "test"))
    _check_compatible(net, ds)
    rows = evaluate(net, ds, _attacks_from_config(doc), seed=seed if seed is not None else doc.get("seed", 0))
    write_evaluation_csv(out / "evaluate.csv", rows)
    for row in rows:
        print(f"{row['attack'] or 'clean':>12s}  accuracy={row['accuracy']:.4f}")
    return EXIT_OK


def _adversarial_copy(net, ds: Dataset, attack: AttackSpec, seed: int) -> Dataset:
    spec = attack.replace(seed=seed)
    adv = pgd(net, ds.inputs, ds.labels, spec)
    return Dataset(adv, ds.labels, ds.num_classes, name=f"{ds.name}-adv")


def _cmd_stats(doc: dict, out: Path, seed: int | None) -> int:
    try:
        net = load_checkpoint(doc["checkpoint"])
        method = doc["method"]
    except KeyError as exc:
        raise ConfigError(f"stats config lacks {exc}") from exc
    if method not in ("sampling", "laplace"):
        raise ConfigError(f"unknown stats method {method!r}")
    master = seed if seed is not None else doc.get("seed", 0)
    ds = dataset_from_spec(doc.get("dataset"), doc.get("split", "train"))
    _check_compatible(net, ds)
    layer = doc.get("layer", len(net.layers))
    if not (isinstance(layer, int) and 1 <= layer <= len(net.layers)):
        raise ConfigError(f"stats layer {layer!r} outside 1..{len(net.layers)}")
    damping = doc.get("damping", 1e-3)
    if not (type(damping) in (int, float) and 0 < damping < math.inf):  # bool is no number
        raise ConfigError(f"stats damping {damping!r} is not a finite number > 0")
    variants = [("clean", ds)]
    if doc.get("attack") is not None:
        attack = build_config(AttackSpec, doc["attack"], "attack spec")
        variants.append(("adversarial", _adversarial_copy(net, ds, attack, master)))
    for tag, data in variants:
        if method == "laplace":
            try:
                stats = corr_from_laplace(net, data, layer, damping=damping)
            except NotPositiveDefinite as exc:
                raise ConfigError(f"stats damping {damping!r} is too small: the {tag} Laplace "
                                  "factor is not positive definite") from exc
        else:
            sampling = doc.get("sampling", {}) | {"seed": master}
            cfg = build_config(SamplingConfig, sampling, "sampling config")
            deltas = sample_weight_perturbations(net, data, cfg)
            stats = corr_from_samples(deltas, layer)
        stats.data = tag
        path = out / f"stats_{layer}_{method}_{tag}.csv"
        stats.write_csv(path)
        print(
            f"{tag}: lamc={stats.lamc_max:.5f} lamr={stats.lamr_max:.5f} "
            f"frob_sq={stats.frob_sq:.5g} det_lb={stats.det_lb:.5g} -> {path}"
        )
    return EXIT_OK


def _cmd_bound(doc: dict, out: Path, seed: int | None) -> int:
    del seed  # bound evaluation is deterministic in its inputs
    try:
        net = load_checkpoint(doc["checkpoint"])
        kind = doc["kind"]
        inputs = build_config(BoundInputs, doc["inputs"], "bound inputs")
    except KeyError as exc:
        raise ConfigError(f"bound config lacks {exc}") from exc
    if kind not in BOUND_KINDS:
        raise ConfigError(f"unknown bound kind {kind!r} (choose from {BOUND_KINDS})")
    stats = None
    if doc.get("stats"):
        stats = [LayerCorrStats.read_csv(p) for p in doc["stats"]]
    try:
        report = evaluate_bound(net, inputs, kind, stats)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    (out / "bound.json").write_text(report.to_json_text(), encoding="utf-8")
    report.write_csv(out / "bound.csv")
    print(
        f"{kind}: complexity_term={report.complexity_term:.6g} "
        f"(phi={report.phi:.6g}, logdet={report.logdet_term:.6g})"
    )
    return EXIT_OK


def _cmd_simulate(doc: dict, out: Path, seed: int | None) -> int:
    master = seed if seed is not None else doc.get("seed", 0)
    family = doc.get("family", "random")
    for name in ("h", "trials", "dim", "n_samples"):
        if name in doc and type(doc[name]) is not int:  # bool is no number
            raise ConfigError(f"simulate {name} {doc[name]!r} is not an integer")
    if "sigma" in doc and type(doc["sigma"]) not in (int, float):
        raise ConfigError(f"simulate sigma {doc['sigma']!r} is not a number")
    kwargs = {}
    if "r_range" in doc:
        kwargs["r_range"] = tuple(doc["r_range"])
    try:
        if family == "perturbation":
            report = check_perturbation_bound(
                doc.get("h", 64), doc.get("sigma", 1.0), doc.get("trials", 200), seed=master
            )
            report.write_csv(out / "simulate.csv")
            summary = {"h": report.h, "sigma": report.sigma, "trials": report.trials,
                       "median": report.median, "p95": report.p95}
            print(f"perturbation h={report.h}: median={report.median:.4f} p95={report.p95:.4f}")
        else:
            study = simulate_correlation_study(
                doc.get("dim", 9), doc.get("n_samples", 10000), family, seed=master, **kwargs
            )
            study.write_csv(out / "simulate.csv")
            summary = {"family": study.family, "dim": study.dim,
                       "n_samples": int(study.rows.shape[0]),
                       "rho_frob_lam": study.rho_frob_lam, "rho_frob_det": study.rho_frob_det}
            print(
                f"{family}: rho(frob, lam_proxy)={study.rho_frob_lam:+.4f} "
                f"rho(frob, det_lb)={study.rho_frob_det:+.4f}"
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
        return _COMMANDS[args.command](doc, out, args.seed)
    except (ConfigError, Unsupported, SamplingStalled, DegenerateVariance) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergedTraining as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, BadMagic, Truncated, CountMismatch, CheckpointError, StatsFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
