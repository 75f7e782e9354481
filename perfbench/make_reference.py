"""Write the reference prices the benchmark checks its outputs against.

Run once, from the repository root, at the commit whose prices are the
reference:

    python3 perfbench/make_reference.py

It prices every member of the closed-form box in both modes and every
point of the two sweep pools (P0 along r0 and along V0, corrected mode)
through the library, and stores the prices with digests of the inputs
in ``perfbench/data/reference.npz``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import dvbond  # noqa: E402
from run import git_sha  # noqa: E402
from scenarios import (R0_POOL, V0_POOL, box_inputs, box_pool,  # noqa: E402
                       p0_inputs, pool_digest)


def main() -> int:
    pool = box_pool()
    modes = (dvbond.PricingMode.CORRECTED, dvbond.PricingMode.PAPER_LITERAL)
    box = np.array([[dvbond.price_bond(box_inputs(dvbond, row), m).price
                     for m in modes] for row in pool])
    r0 = np.array([dvbond.price_bond(p0_inputs(dvbond, r0=x)).price
                   for x in R0_POOL])
    v0 = np.array([dvbond.price_bond(p0_inputs(dvbond, V0=x)).price
                   for x in V0_POOL])
    out = HERE / "data" / "reference.npz"
    out.parent.mkdir(exist_ok=True)
    np.savez(out, box_prices=box, r0_prices=r0, v0_prices=v0,
             box_digest=np.array(pool_digest(pool)),
             sweep_digest=np.array(pool_digest(R0_POOL, V0_POOL)),
             commit=np.array(git_sha()))
    print(f"wrote {out}: {box.shape[0]} box scenarios, "
          f"{r0.size}+{v0.size} sweep points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
