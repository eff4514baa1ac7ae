"""Sweep the wedge-power identity defect across grades and scale factors.

For a homothet K = scale * K0 + shift of a fixed ellipsoid, the k-th compound
of the reverse Weingarten maps at antipodal directions satisfies

    wedge^k L(u) + wedge^k L(-u) = 2 * scale^k * wedge^k L0(u),

so every printed defect should sit at roundoff level.  A deliberately wrong
constant (--beta-off) shows what a genuine violation looks like.
"""

import argparse

import numpy as np

from brightlab.body import Ellipsoid, Homothet
from brightlab.sampling import haar_directions
from brightlab.weingarten import wedge_identity_defects


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=50, help="directions per cell")
    parser.add_argument("--scales", type=float, nargs="+", default=[0.5, 0.7, 1.3])
    parser.add_argument(
        "--beta-off",
        type=float,
        default=0.0,
        help="additive error applied to the proportionality constant",
    )
    args = parser.parse_args()

    base = Ellipsoid(np.diag([1.0, 1.69, 0.64, 1.21]))
    shift = (0.1, 0.0, -0.2, 0.0)
    grades = (1, 2, 3)

    print(f"max defect over {args.samples} directions (seed {args.seed})")
    print("scale   " + "".join(f"k={k}         " for k in grades))
    for scale in args.scales:
        body = Homothet(base, scale, shift)
        row = [f"{scale:<8.3f}"]
        for k in grades:
            beta = scale**k + args.beta_off
            dirs = haar_directions(base.dim, args.samples, seed=(args.seed, k))
            worst = wedge_identity_defects(body, base, k, beta, dirs).max()
            row.append(f"{worst:<12.3e}")
        print("".join(row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
