#!/usr/bin/env python3
"""Corruption-level sweep on synthetic data: trains the gated model, the
plain VAE and the marginal baseline at every row-corruption level and
prints the aggregate detection/repair table.

Example:
    python scripts/run_benchmark.py --out-dir runs/sweep --epochs 40 --hidden 128
"""

import argparse
import tempfile
from pathlib import Path

from rvae.cli import main as rvae_main
from rvae.data import write_table
from rvae.synthetic import mixture_table


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise", default="gauss:5,cat:0")
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--hidden", type=int, default=128)
    parser.add_argument("--latent", type=int, default=10)
    parser.add_argument("--embedding", type=int, default=25)
    parser.add_argument("--max-gmm-components", type=int, default=12)
    parser.add_argument("--out-dir", default="runs/sweep")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = mixture_table(args.rows, args.seed)
    with tempfile.TemporaryDirectory(prefix="rvae-bench-") as tmp:
        data_dir = Path(tmp)
        write_table(table, data_dir / "clean.csv")
        table.schema.save(data_dir / "schema.json")
        code = rvae_main([
            "experiment",
            "--input", str(data_dir / "clean.csv"),
            "--schema", str(data_dir / "schema.json"),
            "--noise", args.noise,
            "--seed", str(args.seed),
            "--epochs", str(args.epochs),
            "--hidden", str(args.hidden),
            "--latent", str(args.latent),
            "--embedding", str(args.embedding),
            "--max-gmm-components", str(args.max_gmm_components),
            "--out-dir", str(out_dir),
        ])
    if code != 0:
        raise SystemExit(code)
    print((out_dir / "aggregate.csv").read_text())


if __name__ == "__main__":
    main()
