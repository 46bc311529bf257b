"""Print the error table behind `specfun.ASYM_CROSSOVER`.

    python tools/whittaker_crossover.py [MAGNITUDES]

For the model's first Whittaker indices kappa(omega), kappa'(omega) and
their negatives, omega in {0.25, 0.37, 0.5, 1, 1.3}, on both rays, prints
the relative error of the large-argument expansion (`_whittaker_asym_mp`)
against 60-digit mpmath `whitw` at each magnitude (comma-separated,
default 30.01,33,37,40,43,45,47,48,50), then the largest error per ray.
The crossover is the smallest tabulated magnitude from which every error
stays at double-precision rounding level.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ptdilate.solutions import model_kappas  # noqa: E402
from ptdilate.specfun import Ray, _whittaker_asym_mp  # noqa: E402

OMEGAS = (0.25, 0.37, 0.5, 1.0, 1.3)
DEFAULT_MAGNITUDES = "30.01,33,37,40,43,45,47,48,50"


def _whitw(kappa: float, mag: float, ray: Ray) -> complex:
    with mp.workdps(60):
        z = mp.mpc(-mag, 0) if ray is Ray.ROTATED else mp.mpf(mag)
        return complex(mp.whitw(mp.mpf(kappa), mp.mpf(0.25), z))


def main(argv: list[str]) -> None:
    mags = [float(m) for m in (argv[0] if argv else DEFAULT_MAGNITUDES).split(",")]
    worst = {ray: [0.0] * len(mags) for ray in Ray}
    print(f"{'omega':>5} {'kappa':>7} {'ray':8} " + " ".join(f"{m:>7g}" for m in mags))
    for omega in OMEGAS:
        kap, kap_p = model_kappas(omega)
        for kappa in (kap, -kap, kap_p, -kap_p):
            for ray in Ray:
                errs = []
                for mag in mags:
                    ref = _whitw(kappa, mag, ray)
                    errs.append(abs(complex(_whittaker_asym_mp(kappa, 0.25, mag, ray)) - ref) / abs(ref))
                worst[ray] = [max(a, b) for a, b in zip(worst[ray], errs)]
                print(f"{omega:5g} {kappa:+7.4f} {ray.value:8} " + " ".join(f"{e:7.1e}" for e in errs))
    for ray in Ray:
        print(f"{'max':>13} {ray.value:8} " + " ".join(f"{e:7.1e}" for e in worst[ray]))


if __name__ == "__main__":
    main(sys.argv[1:])
