"""Map the certified quadratic-form constant over cone samples.

For each (n, eps_rw, level) cell: draw seeded samples on the sigma_{n-1}
level set, compute the smallest certified K per sample (in closed form,
see cones.ren_wang_min_k_batch), and tabulate the spread over the samples
with a finite K.  The max column is the constant a solver-wide
certificate would have to carry; the finite column counts the samples
that some K certifies at all.
"""

import argparse
import sys

import numpy as np

from hplateau import cones


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--dims", default="3,4")
    ap.add_argument("--eps-rw", dest="eps_rw", default="0.3,0.1,0.03,0.01")
    ap.add_argument("--levels", default="0.5,1.0,2.0")
    args = ap.parse_args(argv)

    dims = [int(s) for s in args.dims.split(",")]
    eps_list = [float(s) for s in args.eps_rw.split(",")]
    levels = [float(s) for s in args.levels.split(",")]

    print(f"{'n':>2} {'eps_rw':>7} {'level':>6} {'K low':>9} "
          f"{'K median':>9} {'K max':>9} {'finite':>8}")
    for n in dims:
        for level in levels:
            rows = cones.sample_cone(n, n - 1, args.samples,
                                     seed=args.seed + n, level=level)
            for eps_rw in eps_list:
                min_k = cones.ren_wang_min_k_batch(rows, eps_rw)
                finite = np.isfinite(min_k)
                vals = min_k[finite]
                print(f"{n:>2} {eps_rw:>7g} {level:>6g} "
                      f"{vals.min():>9.3f} {np.median(vals):>9.3f} "
                      f"{vals.max():>9.3f} {int(finite.sum()):>8d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
