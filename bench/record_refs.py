#!/usr/bin/env python3
"""Recompute ``refs.json``, the reference results every benchmark
operation is checked against.

Run it only when a change is meant to alter the estimates, and say so
in the change: the file pins the numbers of the commit that wrote it.

    python3 bench/record_refs.py
"""

import contextlib
import json
import sys
import tempfile
from pathlib import Path

from workloads import (
    BATCH_POOL,
    CLI_PANELS,
    REFS,
    TABLE1,
    TABLE1_POOL,
    WIDE,
    WIDE_POOL,
    empirical_panel,
    estimate_argv,
    replication_summary,
)

from msfactor import cli, montecarlo
from msfactor.em import EmConfig
from msfactor.io import save_panel_csv


def replication_refs(design, pool) -> dict:
    return {
        f"{rs}/{st}": replication_summary(
            montecarlo.run_replication(design, EmConfig(), rs, st)
        )
        for rs, st in pool
    }


def cli_refs() -> dict:
    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for panel_seed in CLI_PANELS:
            csv = Path(tmp) / "panel.csv"
            save_panel_csv(csv, empirical_panel(panel_seed))
            argv = estimate_argv(csv, Path(tmp))
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
            if code != 0:
                sys.exit(f"estimate failed on panel seed {panel_seed}")
            params = json.loads((Path(tmp) / "params.json").read_text())
            refs[str(panel_seed)] = {
                "p11": params["transition"][0][0],
                "p22": params["transition"][1][1],
                "loglik": params["loglik"],
                "iterations": params["iterations"],
                "k": params["k"],
            }
    return refs


def main() -> None:
    refs = {
        "mc_table1": replication_refs(TABLE1, TABLE1_POOL),
        "mc_wide": replication_refs(WIDE, WIDE_POOL),
        "mc_pool": replication_refs(TABLE1, BATCH_POOL),
        "cli_estimate": cli_refs(),
    }
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFS}")


if __name__ == "__main__":
    main()
