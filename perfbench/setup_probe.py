"""Time bayenet's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py DESIGN SEED [SEED ...]

Prints the reference seconds (see speedometer.py) spent importing
bayenet.cli and generating and centring the dataset that
`bayenet fit --sim DESIGN --seed SEED` fits, once per seed.  numpy is
already loaded (the speedometer's probe uses it), so the figure is
bayenet's own import and set-up.
"""

import sys

from speedometer import Speedometer


def main(argv):
    design_id = int(argv[0])
    seeds = [int(s) for s in argv[1:]]
    with Speedometer() as meter, meter.measure() as block:
        import bayenet.cli  # noqa: F401  (the import is what is timed)
        from bayenet.model import RegressionData
        from bayenet.rng import RngStream
        from bayenet.simulate import design, generate_dataset
        for seed in seeds:
            # the stream `bayenet fit --sim` draws its dataset from
            y, X = generate_dataset(design(design_id),
                                    RngStream(seed, (0, design_id, 0)))
            RegressionData(y, X)
    print(f"{block.norm_s:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
