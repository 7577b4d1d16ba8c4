"""Every output file of the desk reference run, with its sha256.

    python3 scripts/desk_outputs.py OUT [--src SRC]

Runs, into the directory OUT (missing or empty):

    liftrisk synth --profile desk --seed 42      -> OUT/data
    liftrisk train                               -> OUT/run/model.ckpt and its CSVs
    liftrisk eval --out                          -> OUT/run/eval.csv
    liftrisk saliency, each of the three classes -> OUT/run/saliency
    liftrisk tune over a two-cell grid           -> OUT/run/tune.csv and its histories

then prints one `sha256  path` line per file under OUT, sorted by path, to
stdout, and each command's wall time to stderr.
`--src` names the `src` directory whose liftrisk runs (default: the one
beside this script), so one copy of the script runs any checkout; two runs'
printouts diff line by line.  A desk run takes a few minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import time
from pathlib import Path

GRID = "lambdas = 1e-5\nalphas = 1e-3\ndropouts = 0.0,0.25\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to write into (missing or empty)")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the liftrisk package to run")
    args = parser.parse_args()
    out = args.out.resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    sys.path.insert(0, str(args.src.resolve()))
    from liftrisk import cli

    data, run = out / "data", out / "run"
    config, ckpt = data / "pipeline_config.txt", run / "model.ckpt"
    grid = out / "grid.txt"
    commands = [["synth", "--out", data, "--seed", 42, "--profile", "desk"],
                ["train", "--data", data, "--config", config, "--out", ckpt],
                ["eval", "--model", ckpt, "--data", data, "--out", run / "eval.csv"]]
    commands += [["saliency", "--model", ckpt, "--data", data, "--class", c,
                  "--out", run / "saliency"] for c in ("low", "medium", "high")]
    commands += [["tune", "--data", data, "--grid", grid, "--config", config,
                  "--out", run / "tune.csv"]]
    out.mkdir(parents=True, exist_ok=True)
    grid.write_text(GRID)
    for argv in commands:
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):  # stdout holds the hashes alone
            code = cli.main([str(a) for a in argv])
        print(f"liftrisk {argv[0]}: {time.perf_counter() - start:.2f} s wall", file=sys.stderr)
        if code != 0:
            print(f"liftrisk {argv[0]} exited with {code}", file=sys.stderr)
            return code
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
