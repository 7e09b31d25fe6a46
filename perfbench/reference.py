"""Reference values computed independently of the program.

* `oracle()` reads `tools/oracle_tree_integrals.json` as it is checked in.
* `slit_field_mp(x, y)` evaluates the slit-plane field
  u = -e^{log^2 r - theta^2} sin(2 theta log r) at the tail-grid point
  (10 (x + 0.8), 10 y) with mpmath at 30 digits, together with its envelope
  e^{log^2 r - theta^2}.

Run as a command, it recomputes the oracle's tree integrals and legs
identity residuals anew at 50 digits, with the functions of
`tools/oracle_tree_integrals.py`, and prints how far each lies from the
checked-in JSON.  It writes nothing:

    python3 perfbench/reference.py --kmax 6
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

from mpmath import atan2, exp, log, mp, mpf, pi, sin, sqrt

ORACLE_JSON = Path("tools/oracle_tree_integrals.json")
ORACLE_SCRIPT = Path("tools/oracle_tree_integrals.py")
_TAIL_DIGITS = 30


def oracle(root: Path = Path(".")) -> dict:
    """K_star and the rows of the tree-integral oracle, by K, as strings."""
    doc = json.loads((root / ORACLE_JSON).read_text())
    return {"K_star": doc["K_star"], "rows": {r["K"]: r for r in doc["rows"]}}


def slit_field_mp(x: float, y: float):
    """(u, envelope) at (10 (x + 0.8), 10 y) as mpf numbers, where x and y
    are the exact doubles of a tail-grid node."""
    with mp.workdps(_TAIL_DIGITS):
        X = 10 * (mpf(x) + mpf("0.8"))
        Y = 10 * mpf(y)
        L = log(sqrt(X * X + Y * Y))
        theta = atan2(Y, X) % (2 * pi)
        env = exp(L * L - theta * theta)
        return -env * sin(2 * theta * L), env


def _load_oracle_script(root: Path):
    spec = importlib.util.spec_from_file_location("oracle_tree_integrals",
                                                  root / ORACLE_SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)  # sets mp.dps = 50; main() is not called
    return mod


def recompute(kmax: int, root: Path = Path(".")) -> list:
    """Fresh 50-digit tree values and identity residuals for K = 1..kmax
    next to the checked-in ones: (K, name, fresh, checked-in, rel. gap)."""
    ora = _load_oracle_script(root)
    rows = oracle(root)["rows"]
    out = []
    for K in range(1, kmax + 1):
        axis = ora.axis_integral_subst(K)
        arc_up, arc_lo = ora.arc_integrals(K)
        legs = (ora.slanted_leg_integral(K, lower=False)
                + ora.slanted_leg_integral(K, lower=True))
        rhs = 2 * axis + arc_up + arc_lo
        fresh = {"tree": legs + axis,
                 "identity_residual": abs(legs - rhs) / max(abs(legs), abs(rhs))}
        for name, value in fresh.items():
            stored = mpf(rows[K][name])
            out.append((K, name, value, stored, abs(value - stored) / abs(stored)))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--kmax", type=int, default=6)
    args = p.parse_args(argv)
    worst = 0.0
    for K, name, fresh, stored, gap in recompute(args.kmax):
        worst = max(worst, float(gap))
        print(f"K={K:2d} {name:18s} fresh={mp.nstr(fresh, 20):>26s} "
              f"checked-in={mp.nstr(stored, 20):>26s} rel.gap={float(gap):.1e}")
    print(f"largest relative gap: {worst:.1e}")
    # the JSON keeps 30 significant digits
    return 0 if worst <= 1e-25 else 1


if __name__ == "__main__":
    sys.exit(main())
