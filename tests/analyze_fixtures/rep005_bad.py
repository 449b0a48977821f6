"""Fixture: REP005 — mutating a frozen artifact record."""


def sneak_results(artifacts, placement):
    artifacts.placement = placement
    artifacts.curves["extra"] = None
    artifacts.flipped_macros.append(3)


def bump_counter(artifacts):
    artifacts.eval_counters["x"] = 1
