"""Command-line orchestration.

Subcommands: ``gen-formation``, ``gen-flocking``, ``train``, ``eval``,
``baseline``.  Every run is driven by a JSON config plus a handful of flags;
rerunning any subcommand with the same config under the same
``OPENBLAS_NUM_THREADS`` reproduces its outputs (the BLAS thread count can
change the last bits of a matrix product).  The ``GRAPHIDENT_LOG``
environment variable sets log verbosity.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import typing
from pathlib import Path

from . import dataio, evaluate, training
from .datagen import (FlockingSpec, FormationSpec, SampleRecord,
                      generate_flocking_windows, sample_er_graph,
                      sample_smooth_signals)
from .encoder import flocking_params, formation_params
from .errors import (ConfigError, DimensionError, GraphIdentError,
                     InvariantError, NumericalFailure, OracleFailure,
                     SchemaError, SimulationError, TrainStepError)
from .graphcore import edge_density
from .solver import SolverConfig

log = logging.getLogger("graphident.cli")

# The sizes ``--full-scale`` sets; every other default is the dataclass's own.
FULL_SCALE = {
    FormationSpec: {"d": 10000},
    FlockingSpec: {"n": 50},
    evaluate.FormationGrid: {"n_values": (10, 20, 30, 40, 50, 60),
                             "p_values": (0.1, 0.2, 0.4), "d": 10000},
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return cfg


def _field(cfg: dict, name: str, default, kind=None, nullable=False):
    """Fetch a config field with a field-level error message.

    The value must be of ``kind``, the type of ``default`` unless given.
    Where a float is wanted a JSON integer passes, and where a tuple is
    wanted a JSON array; a boolean passes only where a boolean is wanted,
    and ``null`` only where ``nullable`` is set.
    """
    if name not in cfg:
        return default
    value = cfg[name]
    if value is None and nullable:
        return None
    kind = kind or type(default)
    if kind is float and type(value) is int:
        value = float(value)
    json_kind = list if kind is tuple else kind
    if (not isinstance(value, json_kind)
            or (isinstance(value, bool) and kind is not bool)):
        raise ConfigError(
            f"config field {name!r} must be {json_kind.__name__}, "
            f"got {type(value).__name__}", field=name)
    return tuple(value) if kind is tuple else value


def _spec(cls, cfg: dict, full_scale: bool = False, **flags):
    """Build the dataclass ``cls`` from a JSON config.

    Every field is read with ``_field`` against its default: the
    dataclass's own, or the ``FULL_SCALE`` size under ``--full-scale``.
    ``null`` passes only where the annotation admits None.  A flag that is
    not None, such as ``seed``, overrides the config.  A value the
    dataclass rejects, with ``InvariantError`` or ``DimensionError``, is a
    ``ConfigError``.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"a {cls.__name__} config must be a JSON object")
    hints = typing.get_type_hints(cls)
    sizes = FULL_SCALE.get(cls, {}) if full_scale else {}
    values = {}
    for f in dataclasses.fields(cls):
        if flags.get(f.name) is not None:
            values[f.name] = flags[f.name]
            continue
        values[f.name] = _field(
            cfg, f.name, sizes.get(f.name, f.default),
            nullable=type(None) in typing.get_args(hints[f.name]))
    try:
        return cls(**values)
    except (InvariantError, DimensionError) as exc:
        raise ConfigError(f"invalid {cls.__name__}: {exc}") from exc


def _ensure_out(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_summary(pairs):
    for key, value in pairs:
        print(f"{key}: {value}")


# --- subcommands ---------------------------------------------------------------


def cmd_gen_formation(args) -> int:
    cfg = _load_config(args.config)
    spec = _spec(FormationSpec, cfg, args.full_scale, seed=args.seed)
    windows = _field(cfg, "windows", 1)
    if windows < 1:
        raise ConfigError("config field 'windows' must be at least 1",
                          field="windows")

    W = sample_er_graph(spec.n, spec.p, spec.seed)
    records = []
    for k in range(windows):
        X = sample_smooth_signals(W, spec.sigma, spec.d, spec.seed + 1 + k)
        records.append(SampleRecord(X=X, W=W, meta=dict(spec.to_dict(), window=k)))

    out = _ensure_out(args.out)
    path = out / "dataset.gids"
    dataio.write_dataset(records, path, spec=spec.to_dict())
    _print_summary([
        ("dataset", path),
        ("kind", "formation"),
        ("n", spec.n), ("p", spec.p), ("sigma", spec.sigma), ("d", spec.d),
        ("windows", windows),
        ("edge_density", f"{edge_density(W):.6f}"),
    ])
    return EXIT_OK


def cmd_gen_flocking(args) -> int:
    cfg = _load_config(args.config)
    spec = _spec(FlockingSpec, cfg, args.full_scale, seed=args.seed)
    records = generate_flocking_windows(spec)
    densities = [edge_density(r.W) for r in records]

    out = _ensure_out(args.out)
    path = out / "dataset.gids"
    dataio.write_dataset(records, path, spec=spec.to_dict())
    _print_summary([
        ("dataset", path),
        ("kind", "flocking"),
        ("n", spec.n), ("rho", spec.rho), ("r_comm", spec.r_comm),
        ("windows", len(records)),
        ("density_min", f"{min(densities):.6f}"),
        ("density_max", f"{max(densities):.6f}"),
    ])
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    records, header = dataio.read_dataset(args.dataset)
    kind = header.get("kind", "formation")

    train_cfg = _spec(training.TrainConfig, cfg, seed=args.seed)

    out = _ensure_out(args.out)
    metrics_path = out / "metrics.csv"
    checkpoint_path = out / "checkpoint.json"

    if args.resume:
        state, _ = training.load_train_state(args.resume)
        params = None
    else:
        state = None
        encoder_seed = _field(cfg, "encoder_seed", 0)
        if kind == "flocking":
            params = flocking_params(seed=encoder_seed)
        else:
            params = formation_params(seed=encoder_seed)

    state, metrics = training.train(records, train_cfg, params=params,
                                    state=state, metrics_path=metrics_path)
    training.save_train_state(state, train_cfg, checkpoint_path)
    final = metrics[-1] if metrics else {"loss": float("nan"),
                                         "mae": float("nan")}
    _print_summary([
        ("checkpoint", checkpoint_path),
        ("metrics", metrics_path),
        ("kind", kind),
        ("steps", state.step),
        ("final_loss", f"{final['loss']:.6f}"),
        ("final_mae", f"{final['mae']:.6f}"),
    ])
    return EXIT_OK


def _eval_common(args, fixed: tuple[float, float] | None) -> int:
    cfg = _load_config(args.config)
    kind = _field(cfg, "kind", "formation")
    # Every solve of the sweep builds a SolverConfig; building one here
    # makes a bad value a config error before any output is written.
    alpha, beta = fixed or (SolverConfig.alpha, SolverConfig.beta)
    solver_cfg = _spec(SolverConfig, cfg, alpha=alpha, beta=beta)
    params = None
    if fixed is None:
        checkpoint = args.checkpoint or _field(cfg, "checkpoint", None, str)
        if checkpoint is None:
            raise ConfigError("eval needs --checkpoint or a checkpoint field",
                              field="checkpoint")
        state, _ = training.load_train_state(checkpoint)
        params = state.params
    out = _ensure_out(args.out)

    if args.dataset is not None or kind == "flocking":
        if args.dataset is not None:
            # Evaluate the stored windows directly, one report row per dataset.
            specs, stored = None, [dataio.read_dataset(args.dataset)[0]]
        else:
            specs, stored = [_spec(FlockingSpec, sd, args.full_scale)
                             for sd in _field(cfg, "configs", [{}])], None
        summary, detail = evaluate.flocking_sweep(
            specs, params=params, fixed=fixed,
            max_iters=solver_cfg.max_iters, tol=solver_cfg.tol,
            records_by_config=stored)
        evaluate.write_csv(summary, out / "report.csv",
                           evaluate.FLOCKING_SUMMARY_COLUMNS)
        evaluate.write_csv(detail, out / "windows.csv",
                           evaluate.FLOCKING_DETAIL_COLUMNS)
        if stored is not None:
            maes = [("mae", f"{summary[0]['mae_mean']:.6f}")]
        else:
            maes = [(f"mae[config={row['config']}]", f"{row['mae_mean']:.6f}")
                    for row in summary]
        _print_summary([("report", out / "report.csv")] + maes)
    elif kind == "formation":
        grid = _spec(evaluate.FormationGrid, cfg, args.full_scale,
                     seed=args.seed)
        summary, detail, matrices = evaluate.formation_sweep(
            grid, params=params, fixed=fixed)
        evaluate.write_csv(summary, out / "report.csv",
                           evaluate.FORMATION_SUMMARY_COLUMNS)
        evaluate.write_csv(detail, out / "details.csv",
                           evaluate.FORMATION_DETAIL_COLUMNS)
        mat_dir = out / "matrices"
        mat_dir.mkdir(exist_ok=True)
        for (n, p), (W, W_hat) in matrices.items():
            tag = f"n{n}_p{p}"
            evaluate.write_matrix_csv(W, mat_dir / f"{tag}_truth.csv")
            evaluate.write_matrix_csv(W_hat, mat_dir / f"{tag}_identified.csv")
        _print_summary([("report", out / "report.csv")] + [
            (f"mae[n={row['n']},p={row['p']}]", f"{row['mae_mean']:.6f}")
            for row in summary])
    else:
        raise ConfigError(f"unknown eval kind {kind!r}", field="kind")
    return EXIT_OK


def cmd_eval(args) -> int:
    return _eval_common(args, fixed=None)


def cmd_baseline(args) -> int:
    cfg = _load_config(args.config)
    alpha = (args.alpha if args.alpha is not None
             else _field(cfg, "alpha", None, float))
    beta = (args.beta if args.beta is not None
            else _field(cfg, "beta", None, float))
    if alpha is None or beta is None:
        raise ConfigError("baseline needs alpha and beta (flags or config)",
                          field="alpha")
    return _eval_common(args, fixed=(alpha, beta))


# --- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphident",
        description="Graph topology identification from node trajectories")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        return p

    def scaled(p):
        common(p)
        p.add_argument("--full-scale", action="store_true",
                       help="full-scale experiment defaults instead of desk-scale")
        return p

    def sweep(p):
        scaled(p)
        p.add_argument("--workers", type=int, default=1,
                       help="accepted and ignored: sweeps run in one thread")
        p.add_argument("--dataset", default=None,
                       help="evaluate stored windows instead of generating")
        return p

    p = scaled(sub.add_parser("gen-formation",
                              help="generate a formation dataset"))
    p.set_defaults(func=cmd_gen_formation)

    p = scaled(sub.add_parser("gen-flocking", help="simulate and window a flock"))
    p.set_defaults(func=cmd_gen_flocking)

    p = common(sub.add_parser("train", help="train the encoder on a dataset"))
    p.add_argument("--dataset", required=True, help="dataset file")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.set_defaults(func=cmd_train)

    p = sweep(sub.add_parser("eval", help="evaluate a trained checkpoint"))
    p.add_argument("--checkpoint", default=None,
                   help="trained checkpoint path")
    p.set_defaults(func=cmd_eval)

    p = sweep(sub.add_parser("baseline",
                             help="fixed-parameter identification sweep"))
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.set_defaults(func=cmd_baseline)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("GRAPHIDENT_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, OracleFailure, SimulationError,
            TrainStepError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GraphIdentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
