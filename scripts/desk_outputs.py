"""Every output file of the desk reference run, with its sha256.

    python3 scripts/desk_outputs.py OUT [--src SRC] [--check FILE]

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
printouts diff line by line.  With `--check FILE`, a printout saved from
another checkout, it prints instead each line that differs ("-" for FILE's
line, "+" for this run's), ends with a count of the files changed, only in
this run and only in FILE, and exits 1 on any difference.  Hashes depend on
the BLAS thread count, so compare printouts made on one machine with the
same thread setting.  A desk run takes a few minutes.
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
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="compare this run's lines with a saved printout")
    args = parser.parse_args()
    out = args.out.resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    try:  # read first: a run takes minutes
        saved = None if args.check is None else args.check.read_text().splitlines()
    except OSError as exc:
        parser.error(f"cannot read --check file: {exc}")
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
    lines = [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}"
             for path in sorted(p for p in out.rglob("*") if p.is_file())]
    if saved is None:
        print("\n".join(lines))
        return 0
    ours, theirs = set(lines), set(saved)
    differ = [f"- {line}" for line in saved if line not in ours]
    differ += [f"+ {line}" for line in lines if line not in theirs]
    for line in differ:
        print(line)
    our_files, their_files = _by_path(lines), _by_path(saved)
    both = our_files.keys() & their_files.keys()
    changed = sum(our_files[path] != their_files[path] for path in both)
    print(f"{len(differ)} lines differ between {args.check} ({len(saved)} lines) and this run "
          f"({len(lines)} lines): {changed} files changed, "
          f"{len(our_files) - len(both)} only in this run, "
          f"{len(their_files) - len(both)} only in {args.check}", file=sys.stderr)
    return 1 if differ else 0


def _by_path(lines) -> dict[str, str]:
    """Each `sha256  path` line of a printout, keyed by its path."""
    return {line.partition("  ")[2]: line for line in lines}


if __name__ == "__main__":
    sys.exit(main())
