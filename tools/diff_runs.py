"""Byte-identity check: the files a fixed matrix of runs writes, under this
checkout's ``src`` and under another revision's.

    python tools/diff_runs.py --against REV

extracts ``git archive REV src`` into a temporary directory, runs the same
matrix once with each ``src`` (each in its own process), and prints one
line per run file and per verb transcript: ``equal``, or the sha256 under
REV and under this checkout's working tree. It exits 0 when every line reads equal and 1
otherwise. Run it from the root of a checkout.

The matrix: static_qa runs of 12 iterations over a pool of 200 (seed 11),
20 x 200 (seed 42) and 10 x 60 (seed 5), and sequential runs of 10 and 45
iterations over a pool of 40 (seeds 3 and 7), each with
``remeasure_after_update`` off and on. Each run is trained half way, then
resumed; then evaluated on every pool its environment has, with and
without retrieval; then audited. Each step goes through the ``evoloop``
command line, so a resume replays the log as ``evoloop run --resume``
does. Besides the run directory's files, two transcripts are compared per
run: ``audit``, the audit's output and exit code, and ``stdout``, those of
every other verb.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (env, iterations, pool, seed)
RUNS = [
    ("static_qa", 12, 200, 11),
    ("static_qa", 20, 200, 42),
    ("static_qa", 10, 60, 5),
    ("sequential", 10, 40, 3),
    ("sequential", 45, 40, 7),
]
POOLS = {"static_qa": ("held_out", "evolution"), "sequential": ("evolution",)}


def run_matrix(out: Path) -> None:
    """Run every case of the matrix under ``out`` with the ``evoloop`` on
    ``sys.path``: one run directory and two transcripts per case."""
    from evoloop.cli import main

    os.chdir(out)
    for env, iterations, pool_size, seed in RUNS:
        for remeasure in (False, True):
            case = f"{env}-{iterations}x{pool_size}" + ("-remeasure" if remeasure else "")
            config = Path(f"{case}.config.json")
            config.write_text(json.dumps({"remeasure_after_update": remeasure}))
            flags = ["--iterations", str(iterations), "--pool", str(pool_size), "--seed", str(seed)]
            verbs = [
                ["init", case, "--env", env, "--config", str(config), *flags],
                ["run", case, "--iterations", str(iterations // 2)],
                ["run", case, "--resume"],
            ]
            for pool in POOLS[env]:
                verbs.append(["eval", case, "--pool", pool])
                verbs.append(["eval", case, "--pool", pool, "--no-retrieval"])
            verbs.append(["stats", case])
            transcripts = {"stdout": [], "audit": []}
            for argv in verbs + [["audit", case]]:
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    status = main(argv)
                kind = "audit" if argv[0] == "audit" else "stdout"
                transcripts[kind].append(f"$ evoloop {' '.join(argv)}\n{buffer.getvalue()}exit {status}\n")
            for kind, text in transcripts.items():
                Path(f"{case}.{kind}").write_text("".join(text))


def digests(out: Path) -> dict[str, str]:
    """The sha256 of every file under ``out`` but the configs written for
    ``init``, by its path relative to ``out``."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and not path.name.endswith(".config.json")
    }


def run_tree(src: Path, out: Path) -> dict[str, str]:
    """Run the matrix in a fresh process that imports ``evoloop`` from ``src``."""
    out.mkdir()
    # both trees hash strs alike; the golden tests check seeds apart
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(src), str(out)], env=env, check=True
    )
    return digests(out)


def extract(rev: str, into: Path) -> Path:
    """``git archive REV src`` extracted under ``into``; returns its ``src``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=zip", rev, "src"], capture_output=True, check=True
    ).stdout
    with zipfile.ZipFile(io.BytesIO(archive)) as zipped:
        zipped.extractall(into)
    return into / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="git revision to compare this checkout's src with")
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        src, out = (Path(p).resolve() for p in args.worker)
        sys.path.insert(0, str(src))
        import evoloop

        if Path(evoloop.__file__).resolve().parent != src / "evoloop":
            raise SystemExit(f"diff_runs: imported evoloop from {evoloop.__file__}, not {src}")
        run_matrix(out)
        return 0
    if not args.against:
        parser.error("--against REV is required")
    with tempfile.TemporaryDirectory(prefix="diff_runs-") as tmp:
        tmp = Path(tmp)
        old = run_tree(extract(args.against, tmp / "rev"), tmp / "old")
        new = run_tree(ROOT / "src", tmp / "new")
    width = max(map(len, old.keys() | new.keys()))
    differ = 0
    for name in sorted(old.keys() | new.keys()):
        before, after = old.get(name, "missing"), new.get(name, "missing")
        if before == after:
            print(f"{name:{width}}  equal")
        else:
            differ += 1
            print(f"{name:{width}}  {before}  {after}")
    print(f"{len(old.keys() | new.keys()) - differ} equal, {differ} differ (against {args.against})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
