"""Drive a whole training run through the command line verbs.

Creates a run directory, trains for eight iterations on the synthetic QA
environment, evaluates against the held-out pool with the graph frozen,
audits the run record, and prints the growth table. Everything lands on
disk: an append-only event log, one report and one snapshot per
iteration, and the eval record. At the end the event log is replayed
into a fresh graph and compared byte for byte against the last snapshot,
which is the whole recovery story in two lines.
"""

import tempfile
from pathlib import Path

from evoloop import KnowledgeGraph, RunStore
from evoloop.cli import main as evoloop_cli
from evoloop.runner import read_committed


def main():
    with tempfile.TemporaryDirectory() as scratch:
        run_dir = str(Path(scratch) / "qa-run")

        print("$ evoloop init")
        evoloop_cli(["init", run_dir, "--env", "static_qa",
                     "--seed", "42", "--iterations", "8", "--pool", "80"])

        print("\n$ evoloop run")
        evoloop_cli(["run", run_dir])

        print("\n$ evoloop eval")
        evoloop_cli(["eval", run_dir, "--pool", "held_out"])

        print("\n$ evoloop audit")
        evoloop_cli(["audit", run_dir])

        print("\n$ evoloop stats")
        evoloop_cli(["stats", run_dir])

        store = RunStore(run_dir)
        config = store.load_config()
        replayed = KnowledgeGraph.replay(
            store.read_events(),
            principles_per_skill_cap=config["principles_per_skill_cap"],
            skill_growth_cap=config["skill_growth_cap"],
            snapshot_history_limit=config["snapshot_history_limit"],
        )
        last = read_committed(store)[0] - 1
        snapshot = (Path(run_dir) / f"snap-{last:05d}.json").read_bytes()
        print("\nevent log replay matches final snapshot:",
              replayed.canonical_bytes() == snapshot)


if __name__ == "__main__":
    main()
