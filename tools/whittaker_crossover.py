"""Print the error table behind `specfun._asym_crossover`.

    python tools/whittaker_crossover.py [MAGNITUDES]

For the model's first Whittaker indices kappa(omega), kappa'(omega) and
their negatives, omega in {0.03, 0.05, 0.07, 0.1, 0.15, 0.25, 0.37, 0.5, 1,
1.3}, on both rays, prints the relative error of the large-argument
expansion (`_whittaker_asym_mp`) against 60-digit mpmath `whitw` at each
magnitude (comma-separated, default 30.01,40,45,48,50,55,60,65,70,75,80,
90,95,100), then `rule`, the crossover the package uses for that kappa,
and the error just past it.  The rule holds where that last error is at
double-precision rounding level on every row.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ptdilate.solutions import model_kappas  # noqa: E402
from ptdilate.specfun import Ray, _asym_crossover, _whittaker_asym_mp  # noqa: E402

OMEGAS = (0.03, 0.05, 0.07, 0.1, 0.15, 0.25, 0.37, 0.5, 1.0, 1.3)
DEFAULT_MAGNITUDES = "30.01,40,45,48,50,55,60,65,70,75,80,90,95,100"


def _whitw(kappa: float, mag: float, ray: Ray) -> complex:
    with mp.workdps(60):
        z = mp.mpc(-mag, 0) if ray is Ray.ROTATED else mp.mpf(mag)
        return complex(mp.whitw(mp.mpf(kappa), mp.mpf(0.25), z))


def main(argv: list[str]) -> None:
    mags = [float(m) for m in (argv[0] if argv else DEFAULT_MAGNITUDES).split(",")]
    print(f"{'omega':>5} {'kappa':>7} {'ray':8} " + " ".join(f"{m:>7g}" for m in mags) + "    rule at rule")
    for omega in OMEGAS:
        kap, kap_p = model_kappas(omega)
        for kappa in (kap, -kap, kap_p, -kap_p):
            for ray in Ray:
                rule = _asym_crossover(kappa)
                errs = []
                for mag in mags + [rule + 0.01]:
                    ref = _whitw(kappa, mag, ray)
                    errs.append(abs(complex(_whittaker_asym_mp(kappa, 0.25, mag, ray)) - ref) / abs(ref))
                print(
                    f"{omega:5g} {kappa:+7.4f} {ray.value:8} " + " ".join(f"{e:7.1e}" for e in errs[:-1])
                    + f" {rule:7.2f} {errs[-1]:7.1e}"
                )


if __name__ == "__main__":
    main(sys.argv[1:])
