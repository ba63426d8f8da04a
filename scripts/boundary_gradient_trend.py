"""Track the rim slope of radial solutions as the boundary height drops.

The solver's own one-sided slope at the rim is compared with the
closed-form cap slope at the same boundary height.  A bounded, settling
ratio is the numerical face of the boundary gradient estimate; the raw
slope itself steepens as sigma drops toward zero and the cap flattens
into a hemisphere meeting the boundary almost vertically.
"""

import argparse
import sys

from hplateau import domains, geometry, solver


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sigmas", default="0.5,1.5,2.5")
    ap.add_argument("--nodes", type=int, default=401)
    ap.add_argument("--radius", type=float, default=1.0)
    args = ap.parse_args(argv)

    ball = domains.make_ball(3, args.radius)
    print(f"{'sigma':>6} {'eps':>8} {'slope':>10} {'cap slope':>10} "
          f"{'ratio':>8}")
    for sigma in (float(s) for s in args.sigmas.split(",")):
        cfg = solver.SolveConfig(n=3, sigma_target=sigma,
                                 mesh=solver.RadialMesh(args.nodes))
        for f in solver.solve_radial_path(cfg, ball):
            eps = f.convergence.eps_bdry
            cap = geometry.exact_cap(3, sigma, args.radius, eps)
            measured = f.meta["du"][-1]
            exact = cap.height_d1(args.radius)
            print(f"{sigma:>6g} {eps:>8g} {measured:>10.5f} "
                  f"{exact:>10.5f} {measured / exact:>8.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
