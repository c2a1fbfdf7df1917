"""Trip the per-iteration rollback guard and watch what it saves.

The engine checkpoints mutable state at every committed boundary. When
an iteration's accuracy falls more than the guard threshold below the
last committed value, every mutable slot (masteries, strategies,
counters, bandit states) snaps back to that boundary, while protected
experience appended during the bad window stays. Here accuracy drops are
injected by hand so both the small-drop and the catastrophic paths fire.
"""

from evoloop import EngineConfig, make_env
from evoloop.runner import build_simulated_engine


def inject_drop(engine, drop):
    """Make the next evaluations report accuracy below the committed value."""
    real_eval = engine._evaluate_static

    def forced():
        out = real_eval()
        out["accuracy"] = engine.prev_accuracy - drop
        return out

    engine._evaluate_static = forced


def main():
    config = EngineConfig(pool_size=36, iterations=6, seed=42)
    env = make_env("static_qa", seed=config.seed, pool_size=config.pool_size)
    engine = build_simulated_engine(config, env)
    engine.bootstrap()

    for k in range(3):
        report = engine.run_iteration(k)
        print(f"iter {k}: accuracy {report.accuracy:.4f}  rollback {report.rollback}")

    healthy_masteries = dict(report.masteries_post)
    protected_before = report.protected_counts_post

    inject_drop(engine, 0.04)
    report = engine.run_iteration(3)
    print(f"iter 3: accuracy {report.accuracy:.4f}  rollback {report.rollback}  "
          f"committed stays {report.committed_accuracy:.4f}")

    # skills added during the window are structural, not mutable, so the
    # comparison covers the skills that existed at the boundary
    restored = all(
        report.masteries_post[sid] == healthy_masteries[sid]
        for sid in healthy_masteries
    )
    print("boundary masteries restored:", restored)
    grew = {
        cls: report.protected_counts_post[cls] - protected_before.get(cls, 0)
        for cls in report.protected_counts_post
    }
    print("protected nodes appended during the rolled-back window:", grew)

    # a drop below the catastrophic threshold is flagged differently but
    # takes the same restore path
    inject_drop(engine, 0.60)
    report = engine.run_iteration(4)
    print(f"iter 4: accuracy {report.accuracy:.4f}  rollback {report.rollback}")


if __name__ == "__main__":
    main()
