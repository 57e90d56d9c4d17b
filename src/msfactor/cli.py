"""Command-line surface.

Subcommands::

    msfactor simulate    --out DIR [--config FILE] [sim flags]
    msfactor estimate    --input CSV --out DIR [--k N|auto] [estimation flags]
    msfactor montecarlo  --out DIR --reps R [--jobs J] [sim + estimation flags]
    msfactor verify      [--instances N] [--seed S]

Every flag can also be given in a flat ``key = value`` config file passed
with ``--config``; explicit flags override file values. The simulation
and EM settings are the fields of :class:`~msfactor.simulate.SimConfig`
and :class:`~msfactor.em.EmConfig` with ``help`` metadata: field
``rho_f`` is the flag ``--rho-f`` and the file key ``rho_f``. An input the
library rejects (any :class:`~msfactor.exceptions.MsfactorError`) ends the
command with one line on stderr and exit status 2, as does a file that
cannot be read or written (any ``OSError``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .em import EmConfig, run_em
from .exceptions import InvalidArgumentError, MsfactorError
from .io import (
    load_panel_csv,
    parse_config_file,
    save_matrix_csv,
    save_panel_csv,
    write_json,
)
from .montecarlo import run_montecarlo
from .oracle import EQUIVALENCE_TOLERANCE, equivalence_suite
from .pca import demean_panel, estimate_factor_space, select_num_factors_er
from .simulate import SimConfig, simulate_panel
from .types import RngHandle, setting_fields, unconditional_probs

def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise InvalidArgumentError(f"cannot interpret {value!r} as a boolean")


def _cast(key: str, value: str, cast):
    """``cast(value)``; a value it cannot read is rejected with its key."""
    if cast is bool:
        return _parse_bool(value)
    try:
        return cast(value)
    except ValueError:
        raise InvalidArgumentError(
            f"{key} = {value!r} is not a valid {cast.__name__}"
        ) from None


def _setting(args, file_cfg: dict[str, str], key: str, cast, default):
    """CLI flag > config file > default."""
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    if key in file_cfg:
        return _cast(key, file_cfg[key], cast)
    return default


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    parser.add_argument("--out", help="output directory")


def _add_config_flags(parser: argparse.ArgumentParser, cls) -> None:
    for f in setting_fields(cls):
        parser.add_argument(
            "--" + f.name.replace("_", "-"),
            dest=f.name,
            type=type(f.default),
            help=f.metadata["help"],
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msfactor",
        description="Two-state Markov switching factor models: simulate, estimate, replicate.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    p_sim = sub.add_parser("simulate", help="draw one panel and write it with its truth")
    _add_common(p_sim)
    _add_config_flags(p_sim, SimConfig)

    p_est = sub.add_parser("estimate", help="estimate the model on a CSV panel")
    _add_common(p_est)
    _add_config_flags(p_est, EmConfig)
    p_est.add_argument("--input", help="input panel CSV")
    p_est.add_argument("--k", help="factor count of the linear representation, or 'auto'")
    p_est.add_argument("--k-max", dest="k_max", type=int, help="bound for auto selection")
    p_est.add_argument(
        "--demean",
        action="store_const",
        const=True,
        default=None,
        help="remove unconditional means before estimation",
    )

    p_mc = sub.add_parser("montecarlo", help="replicate the simulation study")
    _add_common(p_mc)
    _add_config_flags(p_mc, SimConfig)
    _add_config_flags(p_mc, EmConfig)
    p_mc.add_argument("--reps", type=int, help="number of replications")
    p_mc.add_argument("--jobs", type=int, help="parallel worker processes (default 1)")

    p_ver = sub.add_parser("verify", help="run the oracle-equivalence suite")
    p_ver.add_argument("--config", help="flat key=value config file")
    p_ver.add_argument("--seed", type=int, help="suite RNG seed (default 0)")
    p_ver.add_argument("--instances", type=int, help="number of random instances (default 200)")

    return parser


def _config(cls, args, file_cfg: dict[str, str], **fixed):
    """``cls`` with each setting read by :func:`_setting` and the ``fixed`` values."""
    values = {
        f.name: _setting(args, file_cfg, f.name, type(f.default), f.default)
        for f in setting_fields(cls)
    }
    return cls(**values, **fixed)


def _out_dir(args, file_cfg: dict[str, str]) -> Path:
    out = _setting(args, file_cfg, "out", str, None)
    if out is None:
        raise InvalidArgumentError("an output directory is required (--out or out= in the config)")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_simulate(args, file_cfg: dict[str, str]) -> int:
    seed = _setting(args, file_cfg, "seed", int, 0)
    cfg = _config(SimConfig, args, file_cfg, seed=seed)
    out = _out_dir(args, file_cfg)
    truth = simulate_panel(cfg, RngHandle(seed=cfg.seed, stream=0))

    save_panel_csv(out / "panel.csv", truth.panel)
    save_matrix_csv(
        out / "states.csv",
        np.column_stack([truth.states.astype(float), truth.xi]),
        ["state", "xi1", "xi2"],
    )
    save_matrix_csv(
        out / "factors.csv", truth.f, [f"f{i + 1}" for i in range(cfg.r)]
    )
    save_matrix_csv(
        out / "common.csv", truth.chi, [f"x{i + 1}" for i in range(cfg.n)]
    )
    save_matrix_csv(
        out / "idiosyncratic.csv", truth.e, [f"x{i + 1}" for i in range(cfg.n)]
    )
    write_json(
        out / "loadings.json",
        {
            "lambda1": truth.lambda1.tolist(),
            "lambda2": truth.lambda2.tolist(),
            "config": asdict(cfg),
        },
    )
    print(f"wrote simulated panel (T={cfg.t}, N={cfg.n}) to {out}")
    return 0


def _cmd_estimate(args, file_cfg: dict[str, str]) -> int:
    input_path = _setting(args, file_cfg, "input", str, None)
    if input_path is None:
        raise InvalidArgumentError("estimate mode needs --input (or input= in the config)")
    seed = _setting(args, file_cfg, "seed", int, 0)
    demean = _setting(args, file_cfg, "demean", bool, False)
    k_setting = _setting(args, file_cfg, "k", str, "auto")
    out = _out_dir(args, file_cfg)
    em_cfg = _config(EmConfig, args, file_cfg)

    panel = load_panel_csv(input_path)
    if demean:
        panel = demean_panel(panel)
    if str(k_setting).lower() == "auto":
        k_max = _setting(
            args, file_cfg, "k_max", int, min(8, min(panel.n_len, panel.t_len) - 1)
        )
        k = select_num_factors_er(panel, k_max)
    else:
        k = _cast("k", k_setting, int)
    fs = estimate_factor_space(panel, k)
    result = run_em(panel, fs, em_cfg)

    stationary = unconditional_probs(result.params.trans).values
    smoothed = result.path.smoothed
    write_json(
        out / "params.json",
        {
            "k": k,
            "demeaned": demean,
            "seed": seed,
            "iterations": result.iterations,
            "converged": result.converged,
            "loglik": result.path.loglik,
            "loglik_trace": list(result.loglik_trace),
            "transition": result.params.trans.p.tolist(),
            "stationary_probs": stationary.tolist(),
            "smoothed_time_average": smoothed.mean(axis=0).tolist(),
            "loadings_regime1": result.params.b1.tolist(),
            "loadings_regime2": result.params.b2.tolist(),
            "idio_variance_regime1": result.params.sigma_e1_diag.tolist(),
            "idio_variance_regime2": result.params.sigma_e2_diag.tolist(),
        },
    )
    g = fs.g_hat
    series = np.column_stack(
        [smoothed, g, smoothed[:, [0]] * g, smoothed[:, [1]] * g]
    )
    headers = (
        ["smoothed1", "smoothed2"]
        + [f"g{i + 1}" for i in range(k)]
        + [f"xi1_g{i + 1}" for i in range(k)]
        + [f"xi2_g{i + 1}" for i in range(k)]
    )
    save_matrix_csv(out / "series.csv", series, headers)
    print(
        f"estimated k={k} factors in {result.iterations} iterations "
        f"(converged={result.converged}); results in {out}"
    )
    return 0


def _cmd_montecarlo(args, file_cfg: dict[str, str]) -> int:
    seed = _setting(args, file_cfg, "seed", int, 0)
    reps = _setting(args, file_cfg, "reps", int, None)
    if reps is None:
        raise InvalidArgumentError("montecarlo mode needs --reps (or reps= in the config)")
    jobs = _setting(args, file_cfg, "jobs", int, 1)
    sim_cfg = _config(SimConfig, args, file_cfg, seed=seed)
    em_cfg = _config(EmConfig, args, file_cfg)
    out = _out_dir(args, file_cfg)

    report = run_montecarlo(sim_cfg, em_cfg, seed=seed, replications=reps, jobs=jobs)
    payload = {
        "config": {
            **{f.name: getattr(sim_cfg, f.name) for f in setting_fields(SimConfig)},
            **asdict(em_cfg),
            "seed": seed,
            "replications": reps,
        },
        **report.to_json_dict(),
    }
    write_json(out / "report.json", payload)
    print(report.format_table())
    print(f"report written to {out / 'report.json'}")
    return 0


def _cmd_verify(args, file_cfg: dict[str, str]) -> int:
    seed = _setting(args, file_cfg, "seed", int, 0)
    instances = _setting(args, file_cfg, "instances", int, 200)
    dev = equivalence_suite(instances=instances, seed=seed)
    print(f"oracle equivalence over {instances} random instances (seed {seed}):")
    for name, value in dev.items():
        print(f"  max |{name}| deviation: {value:.3e}")
    worst = max(dev.values())
    if worst < EQUIVALENCE_TOLERANCE:
        print(f"PASS (all deviations below {EQUIVALENCE_TOLERANCE:g})")
        return 0
    print(f"FAIL (tolerance {EQUIVALENCE_TOLERANCE:g})")
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "simulate": _cmd_simulate,
        "estimate": _cmd_estimate,
        "montecarlo": _cmd_montecarlo,
        "verify": _cmd_verify,
    }
    try:
        file_cfg = parse_config_file(args.config) if args.config else {}
        return commands[args.mode](args, file_cfg)
    except (MsfactorError, OSError) as exc:
        print(f"msfactor {args.mode}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
