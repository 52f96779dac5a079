"""Z-scores of the crash Monte Carlo against its closed form, over many seeds.

Run from the root of a checkout:

    python3 scripts/mc_zscores.py --seeds 1-300 [--trials 100000] [--each]

Imports this checkout's ``src/`` and runs ``crash.monte_carlo_exposure`` in
this one interpreter, once per seed, at the configuration defaults
(``config.SCHEMA``) and again with the rider at the back of the peloton
(``model.position`` = ``crash.n_riders``).  For each of the two it prints the
mean, the standard deviation and the largest magnitude of
z = (estimate - exposure_simple_attack) / std_error over the seeds, as
``crash-mc`` computes its ``z_score``; ``--each`` also prints every seed's z.
For an unbiased estimator with a sound standard error the mean is near 0
and the standard deviation near 1.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

from ops import parse_seeds

SRC = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True, metavar="LO-HI")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per seed (default: mc.trials)")
    parser.add_argument("--each", action="store_true", help="print every seed's z too")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    from breakaway.config import SCHEMA
    from breakaway.crash import CrashModel, exposure_simple_attack, monte_carlo_exposure

    default = {key: spec[1] for key, spec in SCHEMA.items()}
    model = CrashModel(omega=default["crash.omega"], intensity=default["crash.intensity"],
                       n_riders=default["crash.n_riders"])
    x_attack = default["mc.attack_position"]
    trials = default["mc.trials"] if args.trials is None else args.trials
    for position in (default["model.position"], float(model.n_riders)):
        analytic = exposure_simple_attack(x_attack, position, model)
        zs = []
        for seed in args.seeds:
            estimate, stderr = monte_carlo_exposure(x_attack, position, trials, seed, model)
            zs.append(0.0 if stderr == 0.0 else (estimate - analytic) / stderr)
            if args.each:
                print(f"position {position:g} seed {seed}: z {zs[-1]:+.3f}")
        sd = statistics.stdev(zs) if len(zs) > 1 else float("nan")
        print(f"position {position:g}, x_attack {x_attack:g}, {trials} trials, "
              f"{len(zs)} seeds: mean z {statistics.fmean(zs):+.3f}, sd {sd:.3f}, "
              f"max |z| {max(map(abs, zs)):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
