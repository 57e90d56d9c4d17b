"""Command-line surface.

Subcommands::

    msfactor simulate    --out DIR [--config FILE] [sim flags]
    msfactor estimate    --input CSV --out DIR [--k N|auto] [estimation flags]
    msfactor montecarlo  --out DIR --reps R [--jobs J] [sim + estimation flags]
    msfactor verify      [--instances N] [--seed S]

Each subcommand's settings are declared once, in :data:`COMMANDS`: its own
(``seed``, ``out``, ...) and the fields of
:class:`~msfactor.types.SimConfig` and :class:`~msfactor.em.EmConfig`
with ``help`` metadata. Setting ``rho_f`` is the flag ``--rho-f`` and the
key ``rho_f`` of a flat ``key = value`` file passed with ``--config``. A
flag overrides the file and the file the default; either way the value is
the same raw string, cast by one reader, and a flag's value may start with
a dash (``--epsilon -1e-3``). A file key must be a setting of some
command, so one file can serve both ``simulate`` and ``montecarlo``. A bad
or missing value, an unknown file key, an input the library rejects (any
:class:`~msfactor.exceptions.MsfactorError`) and a file that cannot be
read or written (any ``OSError``) end the command with one line on stderr
and exit status 2; so does a command line argparse rejects.

The module imports what ``estimate`` runs; ``simulate``, ``montecarlo``
and ``verify`` import their own modules when they start.

Run as a program (``python -m msfactor.cli``, ``python -m msfactor`` or the
``msfactor`` script), the command starts numpy's OpenBLAS on one thread,
unless the caller set one of the variables OpenBLAS reads for its thread
count: the estimators run on one thread anyway, and a second thread would
only spin from numpy's import on. The program also keeps the cyclic
garbage collector off through its imports, whose objects live as long as
the process, then freezes them and turns it back on; it freezes again
when the command returns, so no collection walks the imports' objects and
the final one at exit walks nothing. Imported as a library, the module
leaves the environment and the collector alone.
"""

from __future__ import annotations

import gc
import os

if __name__ == "__main__":
    if not any(
        name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    ):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads OpenBLAS
    gc.disable()

import argparse
import errno
import sys
from collections.abc import Callable
from dataclasses import asdict
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .em import EmConfig, run_em
from .exceptions import InvalidArgumentError, MsfactorError
from .io import load_panel_csv, parse_config_file, save_matrix_csv, save_panel_csv, write_json
from .pca import demean_panel, estimate_factor_space, select_num_factors_er
from .types import RngHandle, SimConfig, setting_fields, unconditional_probs

if __name__ == "__main__":
    gc.freeze()
    gc.enable()


class Setting(NamedTuple):
    """Flag ``--name`` (dashes for underscores) and config-file key ``name``;
    a ``default`` of :data:`REQUIRED` marks a setting a command needs."""

    name: str
    cast: Callable[[str], Any]
    default: Any
    help: str


REQUIRED = object()
SEED = Setting("seed", int, 0, "base RNG seed")
OUT = Setting("out", str, REQUIRED, "output directory")


def _fields(cls) -> list[Setting]:
    """The settings of config dataclass ``cls``, typed by their defaults."""
    return [Setting(f.name, type(f.default), f.default, f.metadata["help"])
            for f in setting_fields(cls)]


def _cast(key: str, value: str, cast):
    """``cast(value)``; a value it cannot read is rejected with its key."""
    if cast is bool:
        lowered = value.strip().lower()
        if lowered in {"1", "true", "yes", "on"}:
            return True
        if lowered in {"0", "false", "no", "off"}:
            return False
        raise InvalidArgumentError(f"cannot interpret {value!r} as a boolean")
    try:
        return cast(value)
    except ValueError:
        raise InvalidArgumentError(
            f"{key} = {value!r} is not a valid {cast.__name__}"
        ) from None


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _read(settings: list[Setting], args, file_cfg: dict[str, str]) -> argparse.Namespace:
    """Each setting from its flag, else the config file, else its default;
    every given value is cast before a missing required one is reported."""
    values = {}
    for s in settings:
        raw = getattr(args, s.name)
        if raw is None:
            raw = file_cfg.get(s.name)
        values[s.name] = s.default if raw is None else _cast(s.name, raw, s.cast)
    for name, value in values.items():
        if value is REQUIRED:
            raise InvalidArgumentError(
                f"{name} is required ({_flag(name)} or {name}= in the config)"
            )
    return argparse.Namespace(**values)


def _config(cls, opts: argparse.Namespace, **fixed):
    """``cls`` from its settings in ``opts`` and the ``fixed`` values."""
    return cls(**{f.name: getattr(opts, f.name) for f in setting_fields(cls)}, **fixed)


def _out_dir(out: str) -> Path:
    """``out`` as a path, refused before any work if it or a parent names an
    existing file, with the error making it would raise; a command makes
    the directory only once it has results to write, so a refused run
    leaves nothing behind."""
    path = Path(out)
    existing = next((p for p in (path, *path.parents) if p.exists()), path)
    if existing.exists() and not existing.is_dir():
        code = errno.EEXIST if existing == path else errno.ENOTDIR
        raise OSError(code, os.strerror(code), out)
    return path


def _cmd_simulate(opts: argparse.Namespace) -> int:
    from .simulate import simulate_panel

    cfg = _config(SimConfig, opts, seed=opts.seed)
    out = _out_dir(opts.out)
    truth = simulate_panel(cfg, RngHandle(seed=cfg.seed, stream=0))

    out.mkdir(parents=True, exist_ok=True)
    save_panel_csv(out / "panel.csv", truth.panel)
    save_matrix_csv(
        out / "states.csv",
        np.column_stack([truth.states.astype(float), truth.xi]),
        ["state", "xi1", "xi2"],
    )
    save_matrix_csv(out / "factors.csv", truth.f, [f"f{i + 1}" for i in range(cfg.r)])
    series = [f"x{i + 1}" for i in range(cfg.n)]
    save_matrix_csv(out / "common.csv", truth.chi, series)
    save_matrix_csv(out / "idiosyncratic.csv", truth.e, series)
    loadings = {"lambda1": truth.lambda1.tolist(), "lambda2": truth.lambda2.tolist()}
    write_json(out / "loadings.json", {**loadings, "config": asdict(cfg)})
    print(f"wrote simulated panel (T={cfg.t}, N={cfg.n}) to {out}")
    return 0


def _cmd_estimate(opts: argparse.Namespace) -> int:
    auto = opts.k.lower() == "auto"
    k = None if auto else _cast("k", opts.k, int)
    em_cfg = _config(EmConfig, opts)
    out = _out_dir(opts.out)

    panel = load_panel_csv(opts.input)
    if opts.demean:
        panel = demean_panel(panel)
    if auto:
        k_max = opts.k_max
        if k_max is None:
            k_max = min(8, min(panel.n_len, panel.t_len) - 1)
        k = select_num_factors_er(panel, k_max)
    fs = estimate_factor_space(panel, k)
    result = run_em(panel, fs, em_cfg)

    stationary = unconditional_probs(result.params.trans).values
    smoothed = result.path.smoothed
    out.mkdir(parents=True, exist_ok=True)
    write_json(
        out / "params.json",
        {
            "k": k,
            "demeaned": opts.demean,
            "seed": opts.seed,
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
    series = np.column_stack([smoothed, g, smoothed[:, [0]] * g, smoothed[:, [1]] * g])
    headers = ["smoothed1", "smoothed2"] + [
        f"{block}g{i + 1}" for block in ("", "xi1_", "xi2_") for i in range(k)
    ]
    save_matrix_csv(out / "series.csv", series, headers)
    print(
        f"estimated k={k} factors in {result.iterations} iterations "
        f"(converged={result.converged}); results in {out}"
    )
    return 0


def _cmd_montecarlo(opts: argparse.Namespace) -> int:
    from .montecarlo import run_montecarlo

    seed, reps = opts.seed, opts.reps
    sim_cfg = _config(SimConfig, opts, seed=seed)
    em_cfg = _config(EmConfig, opts)
    out = _out_dir(opts.out)

    report = run_montecarlo(sim_cfg, em_cfg, seed=seed, replications=reps, jobs=opts.jobs)
    payload = {
        "config": {
            **{f.name: getattr(sim_cfg, f.name) for f in setting_fields(SimConfig)},
            **asdict(em_cfg),
            "seed": seed,
            "replications": reps,
        },
        **report.to_json_dict(),
    }
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", payload)
    print(report.format_table())
    print(f"report written to {out / 'report.json'}")
    return 0


def _cmd_verify(opts: argparse.Namespace) -> int:
    from .oracle import EQUIVALENCE_TOLERANCE, equivalence_suite

    seed, instances = opts.seed, opts.instances
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


#: mode -> (help, settings in flag order, handler).
COMMANDS: dict[str, tuple[str, list[Setting], Callable[[argparse.Namespace], int]]] = {
    "simulate": (
        "draw one panel and write it with its truth",
        [SEED, OUT, *_fields(SimConfig)],
        _cmd_simulate,
    ),
    "estimate": (
        "estimate the model on a CSV panel",
        [SEED, OUT, *_fields(EmConfig),
         Setting("input", str, REQUIRED, "input panel CSV"),
         Setting("k", str, "auto", "factor count of the linear representation, or 'auto'"),
         Setting("k_max", int, None, "bound for auto selection"),
         Setting("demean", bool, False, "remove unconditional means before estimation")],
        _cmd_estimate,
    ),
    "montecarlo": (
        "replicate the simulation study",
        [SEED, OUT, *_fields(SimConfig), *_fields(EmConfig),
         Setting("reps", int, REQUIRED, "number of replications"),
         Setting("jobs", int, 1, "parallel worker processes")],
        _cmd_montecarlo,
    ),
    "verify": (
        "run the oracle-equivalence suite",
        [SEED, Setting("instances", int, 200, "number of random instances")],
        _cmd_verify,
    ),
}


#: Every command's setting names: the keys a config file may hold.
_KEYS = {s.name for _, settings, _ in COMMANDS.values() for s in settings}


class _Parser(argparse.ArgumentParser):
    """An argparse parser, and through ``add_subparsers`` each subcommand's,
    that rejects a command line in one stderr line, without the usage."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """Flags from :data:`COMMANDS`. They keep raw strings, which
    :func:`_read` casts as it casts config-file values."""
    parser = _Parser(
        prog="msfactor",
        description="Two-state Markov switching factor models: simulate, estimate, replicate.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (summary, settings, _) in COMMANDS.items():
        p = sub.add_parser(mode, help=summary)
        p.add_argument("--config", help="flat key=value config file")
        for s in settings:
            shown = s.cast is not bool and s.default not in (None, REQUIRED)
            help_text = f"{s.help} (default {s.default})" if shown else s.help
            # a boolean is a switch: given, it reads "true"
            switch = {"action": "store_const", "const": "true"} if s.cast is bool else {}
            p.add_argument(_flag(s.name), dest=s.name, help=help_text, **switch)
    return parser


def _join_values(argv: list[str]) -> list[str]:
    """``argv`` with each value-taking flag of its subcommand joined to the
    next token, as ``--flag=value``: argparse alone takes a lone ``-1e-3`` or
    ``-inf`` for an unknown option. A flag may be abbreviated, as in argparse."""
    settings = COMMANDS[argv[0]][1] if argv and argv[0] in COMMANDS else []
    takes_value = {"--help": False, "--config": True}
    takes_value.update((_flag(s.name), s.cast is not bool) for s in settings)
    joined, tokens = [], iter(argv)
    for token in tokens:
        named = [f for f in takes_value if token.startswith("--") and f.startswith(token)]
        flag = token if token in takes_value else named[0] if len(named) == 1 else None
        value = next(tokens, None) if takes_value.get(flag) else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_values(sys.argv[1:] if argv is None else argv))
    _, settings, command = COMMANDS[args.mode]
    try:
        file_cfg = parse_config_file(args.config, _KEYS) if args.config else {}
        opts = _read(settings, args, file_cfg)
        RngHandle(seed=opts.seed)  # every command's seed, checked before any work
        return command(opts)
    except (MsfactorError, OSError) as exc:
        print(f"msfactor {args.mode}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    status = main()
    gc.freeze()
    sys.exit(status)
