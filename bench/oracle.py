"""mpmath reference values for a workload pool.

    python3 bench/oracle.py WORKLOAD SEED

rebuilds the pool the benchmark runs for that seed and prints, as one JSON
list in pool order, either ``{"ref": [re, im]}`` (``[eta, cos_value]`` for
solve_eta), optionally with the magnitude ``scale`` of a quadrature
prefactor, or ``{"fails": true}`` where a stated precondition of the
function fails.  It runs in its own process, before timing starts, so mpmath
adds neither to the set-up time nor to the peak memory of the timed process.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

POLE_TOL = 1e-14  # complexfn: within this distance of 0, -1, ... is the pole
DBL_MAX = 1.7976931348623157e308


def _pole(z) -> bool:
    z = mp.mpc(z)
    n = mp.nint(z.real)
    return n <= 0 and abs(z - n) <= POLE_TOL


def _c(v) -> list:
    v = mp.mpc(v)
    return [float(v.real), float(v.imag)]


def _pref_scale(nu, mu):
    """|exp(i pi mu) Gamma(nu + 1) / Gamma(nu - mu + 1)|."""
    nu, mu = mp.mpc(nu), mp.mpc(mu)
    return float(abs(mp.exp(1j * mp.pi * mu) * mp.gamma(nu + 1) * mp.rgamma(nu - mu + 1)))


def reference(name: str, args: tuple) -> dict:
    if name in ("log_gamma", "gamma", "digamma", "trigamma"):
        (z,) = args
        if _pole(z):
            return {"fails": True}
        z = mp.mpc(z)
        if name == "log_gamma":
            return {"ref": _c(mp.loggamma(z))}
        if name == "gamma":
            g = mp.gamma(z)
            return {"fails": True} if abs(g) > DBL_MAX else {"ref": _c(g)}
        if name == "digamma":
            return {"ref": _c(mp.digamma(z))}
        return {"ref": _c(mp.psi(1, z))}
    if name == "beta_reg":
        tau, eps = args
        return {"ref": _c(mp.beta(mp.mpc(eps, tau), mp.mpc(eps, -tau)))}
    if name == "family_closed_form":
        tau, eps = map(mp.mpf, args)
        return {"ref": _c(mp.gamma(mp.mpc(2 * eps, 2 * tau)) * mp.gamma(mp.mpc(eps, -tau))
                          / (mp.gamma(2 * eps) * mp.gamma(mp.mpc(eps, tau))))}
    if name == "f_factor":
        eps, tau = map(mp.mpf, args)
        zp = mp.mpc(eps, tau)
        return {"ref": _c(mp.sqrt(mp.pi) * mp.power(4, zp) * mp.gamma(zp + 0.5)
                          * mp.gamma(mp.conj(zp) + 1) / mp.gamma(2 * eps + 1))}
    if name == "hyp2f1":
        return {"ref": _c(mp.hyp2f1(*map(mp.mpc, args)))}
    if name == "solve_eta":
        nu, tau = map(mp.mpf, args)
        if tau == 0:
            return {"ref": [0.0, 1.0]}
        cv = abs(mp.gamma(mp.mpc(nu + 1, tau))) ** 2 / mp.gamma(nu + 1) ** 2
        return {"ref": [float(mp.acos(cv) / abs(tau)), float(cv)]}
    if name == "q_nu":
        nu, z = args
        return {"ref": _c(mp.legenq(nu, 0, z, type=3))}
    if name == "q_nu_mu":
        nu, mu, z = args
        return {"ref": _c(mp.legenq(nu, mu, z, type=3)), "scale": _pref_scale(nu, mu)}
    if name == "q_nu_itau_direct":
        nu, tau, z = args
        mu = mp.mpc(0, tau)
        return {"ref": _c(mp.legenq(nu, mu, z, type=3)), "scale": _pref_scale(nu, mu)}
    if name in ("beta_semi_infinite", "beta_integral"):
        return {"ref": _c(mp.beta(*map(mp.mpc, args)))}
    if name == "mellin_reg_forward":
        tau, eps = args
        return {"ref": _c(mp.beta(mp.mpc(eps, tau), mp.mpc(eps, -tau)))}
    raise KeyError(name)


def main(argv) -> int:
    workload, seed = argv[1], int(argv[2])
    bench = Path(__file__).resolve().parent
    sys.path[:0] = [str(bench.parent / "src"), str(bench)]
    import workloads

    mp.mp.dps = 30
    refs = [reference(name, args) for name, args in workloads.make_pool(workload, seed)]
    json.dump(refs, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
