"""Beyond the paper: the extension studies.

The paper ends with future work — non-sequential prefetching — and
leaves several cited alternatives unevaluated: CML buffers (§5.1),
compiler code placement (§2), and the multi-issue implications of the
CPIinstr floor (conclusion).  This example runs all of those studies
and prints the findings.

Every study runs through ``run_experiment``, the one way to run an
experiment: it compiles the module's plan, primes the shared traces
once, and executes the cells.  Keyword arguments narrow a study's
sweep (fewer cache sizes, a subset of workloads).

Run:  python examples/beyond_the_paper.py
"""

from repro.experiments import (
    ext_components,
    ext_conflict,
    ext_multiissue,
    ext_placement,
    ext_prefetch,
)
from repro.experiments.common import ExperimentSettings
from repro.plan.executor import run_experiment

SETTINGS = ExperimentSettings(n_instructions=200_000, seed=0)


def study(module, **overrides):
    """One extension study's result at the example's settings."""
    result, _timing = run_experiment(module, SETTINGS, **overrides)
    return result


def main() -> None:
    print(study(ext_prefetch).render())
    print(
        "\n-> Miss-correlation (Markov) prefetching helps, and helps "
        "*on top of* sequential fetch (hybrid), but plain sequential "
        "lookahead remains the strongest single mechanism on "
        "instruction streams.\n"
    )

    print(study(ext_conflict, sizes=(8192, 32768)).render())
    print(
        "\n-> Hardware associativity dominates; small victim caches "
        "help at the margin; reactive CML recoloring is near-neutral "
        "at these sizes - the quantitative version of the paper's "
        "Section 5.1 remark.\n"
    )

    placement = study(ext_placement, workload_names=("groff", "gs", "sdet"))
    print(placement.render())
    print(
        f"\n-> Software placement recovers ~{placement.mean_reduction():.0%} "
        "of the misses (the conflict share) - real, but it cannot touch "
        "the capacity misses that dominate bloated code.\n"
    )

    components = study(
        ext_components, workload_names=("mpeg_play", "sdet", "groff")
    )
    print(components.render())
    print(
        "\n-> OS and server components miss out of proportion to their "
        "execution time: short, scattered activations are the expensive "
        "kind of code.\n"
    )

    print(study(ext_multiissue).render())
    print(
        "\n-> The paper's conclusion, quantified: the optimized system's "
        "fetch floor costs a quad-issue machine about half its "
        "throughput on IBS, while SPEC barely notices - which is why "
        "'coping with code bloat' mattered for the superscalar era."
    )


if __name__ == "__main__":
    main()
