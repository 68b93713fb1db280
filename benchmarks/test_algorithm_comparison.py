"""Extension — Themis's win holds across allreduce algorithms.

The paper evaluates ring collectives; production stacks also run
halving-doubling (butterfly) allreduce, whose pairwise exchanges stress
different ToR pairs every step.  This bench checks that the Themis-vs-AR
ordering is algorithm-independent.
"""

import pytest

from repro.harness.collective_runner import (EvalScale, fig5_config,
                                             run_collective)
from repro.harness.report import format_table, percent

ALGORITHMS = ("allreduce", "hd_allreduce")
SCHEMES = ("ecmp", "ar", "themis")
TI_TD = (900, 4)


@pytest.mark.figure("algorithm-comparison")
def test_themis_wins_across_algorithms(benchmark):
    scale = EvalScale()
    results = benchmark.pedantic(
        lambda: {(a, s): run_collective(fig5_config(s, *TI_TD, scale=scale),
                                        a, scale=scale,
                                        deadline_ns=120_000_000_000)
                 for a in ALGORITHMS for s in SCHEMES},
        rounds=1, iterations=1)

    print(f"\n=== Allreduce algorithms x schemes at DCQCN{TI_TD} ===")
    rows = []
    for algorithm in ALGORITHMS:
        tails = {s: results[(algorithm, s)].tail_completion_ms
                 for s in SCHEMES}
        gain = 1 - tails["themis"] / tails["ar"]
        rows.append([algorithm] + [f"{tails[s]:.3f}" for s in SCHEMES]
                    + [percent(gain)])
    print(format_table(
        ["algorithm", "ECMP ms", "AR ms", "Themis ms", "Themis vs AR"],
        rows))

    assert all(r.completed for r in results.values())
    for algorithm in ALGORITHMS:
        tails = {s: results[(algorithm, s)].tail_completion_ms
                 for s in SCHEMES}
        assert tails["themis"] < tails["ar"], algorithm
        assert tails["themis"] < tails["ecmp"], algorithm
