"""Write ``closed_form_reference.json``: 30-digit values of the closed form.

Run from the repository root with mpmath installed:

    python tests/data/make_closed_form_reference.py

Each point is a cat state, a target and elastic kinematics, with
d nu / d Omega (d sigma / d Omega on a wide target) evaluated in
mpmath at 40 working digits and stored to 30.  Nothing here imports
catscatter.  The integral is taken over the Schwinger parameter x itself,

    pref / (1 + s ov) * int_0^inf dx e^{-x g(x)} (x + x^2 + x^3/6) / h(x)
        * [bw + s off cos(2 r0 |Qperp| cos(phi_r0 - phi) (h - 1) / h)
                     * exp(-r0^2 / (2 sigma^2 h))],

with h = 1 + x / (8 sigma^2), g = 1 + (Qz^2 + Qperp^2 / h) / 4, parity
s = +1 (even) or -1 (odd) and packet overlap ov = exp(-r0^2 / (2 sigma^2)).
``mp.quad`` splits the domain at 0, 1, 4, 16, 64 and infinity, at the same
multiples of the weight's width 1 / g(0), and wherever the fringe phase
crosses a multiple of pi/2.  Neither a
truncation point nor a change of variables is shared with the library.  On a wide
target bw = off = 1 and pref = 1/4; on a finite target of width sigma_t
and offset b0, Sigma^2 = sigma_t^2 + sigma^2, E(d) = exp(-|d|^2 /
(2 Sigma^2)), bw = [E(b0 - r0) + E(b0 + r0)] / 2, off = E(b0) and
pref = 1 / (8 pi Sigma^2).

The points after the cats are the beams without a fringe: the Gaussian,
the incoherent mixture and the anisotropic beam, each with its own widths
(sigma_x, sigma_y).  Their momentum integral is done one axis at a time,
with h_j = 1 + x / (8 sigma_j^2) per axis and lab-frame Qperp = (Q_x, Q_y):

    pref * int_0^inf dx e^{-x (1 + Qz^2 / 4)} (x + x^2 + x^3/6)
        * exp(-x (Q_x^2 / h_x + Q_y^2 / h_y) / 4) / sqrt(h_x h_y) * bw,

with Sigma_j^2 = sigma_t^2 + sigma_j^2, E(d) = exp(-sum_j d_j^2 /
(2 Sigma_j^2)), bw as above (r0 = 0 for the single packets) and pref =
1 / (8 pi sqrt(Sigma_x^2 Sigma_y^2)) on a finite target.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import mpmath as mp

SEED = 20261018
N_RANDOM = 294
DIGITS = 30
OUT = Path(__file__).with_name("closed_form_reference.json")
BREAKS = (0, 1, 4, 16, 64)

# Points named in the project notes: the validity-band edge and the narrow
# beams whose Qperp leaves the 2-D route's momentum box.
FIXED = [
    dict(parity=1, sigma_perp=1.0, r0=10.0, phi_r0=0.0, target=None,
         p=10.0, theta=math.radians(30.0), phi=0.3),
    dict(parity=1, sigma_perp=1.0, r0=10.0, phi_r0=0.0, target=None,
         p=40.0, theta=math.radians(10.0), phi=0.3),
] + [
    dict(parity=s, sigma_perp=0.3, r0=3.0, phi_r0=0.4, target=t,
         p=30.0, theta=0.5, phi=1.0)
    for s in (1, -1) for t in (None, [20.0, 0.0, 0.0])
] + [
    # No fringe phase (r0 = 0, or phi perpendicular to the separation) on
    # wide packets with a large momentum transfer: the weight is narrow on
    # the scale 1/(8 sigma^2) of the Schwinger parameter.  The test also
    # evaluates each family sharing a state and target as one batch.
    dict(parity=1, sigma_perp=5.0, r0=0.0, phi_r0=0.0, target=None,
         p=40.0, theta=theta, phi=0.0)
    for theta in (0.05, 0.5, 3.0)
] + [
    dict(parity=-1, sigma_perp=50.0, r0=50.0, phi_r0=0.0, target=None,
         p=10.0, theta=theta, phi=math.pi / 2)
    for theta in (0.01, math.radians(45.0), 2.5)
] + [
    dict(parity=1, sigma_perp=20.0, r0=0.0, phi_r0=0.0, target=t,
         p=30.0, theta=math.radians(30.0), phi=0.0)
    for t in (None, [30.0, 5.0, -3.0])
]

# The beams without a fringe, appended after the cats: (beam, sigma_x,
# sigma_y, r0, phi_r0).  Wide packets at large momentum transfer give
# narrow weights; the anisotropic beams have either axis the narrower.
FIXED_BEAMS = [
    dict(beam=beam, sigma_x=sx, sigma_y=sy, r0=r0, phi_r0=phi_r0, target=t, p=p, theta=theta,
         phi=phi)
    for beam, sx, sy, r0, phi_r0 in (
        ("gaussian", 0.5, 0.5, 0.0, 0.0),
        ("gaussian", 2.0, 2.0, 0.0, 0.0),
        ("gaussian", 20.0, 20.0, 0.0, 0.0),
        ("mixture", 2.0, 2.0, 4.0, 0.7),
        ("mixture", 1.0, 1.0, 8.0, 2.0),
        ("anisotropic", 1.0, 2.5, 0.0, 0.0),
        ("anisotropic", 2.0, 1.2, 0.0, 0.0),
        ("anisotropic", 0.4, 6.0, 0.0, 0.0),
        ("anisotropic", 30.0, 10.0, 0.0, 0.0),
    )
    for t in (None, [20.0, 3.0, -2.0])
    for p, theta, phi in ((10.0, math.radians(10.0), 0.4), (30.0, 0.5, 2.0), (40.0, 3.0, 1.0))
]


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw(rng: random.Random, k: int) -> dict:
    sigma = log_uniform(rng, 0.3, 10.0)
    if k % 4 < 2:
        target = None
    else:
        st = log_uniform(rng, 3.0, 40.0)
        target = [st, rng.uniform(-st, st), rng.uniform(-st, st)]
    return dict(parity=1 if k % 2 == 0 else -1, sigma_perp=sigma,
                r0=sigma * log_uniform(rng, 0.05, 10.0), phi_r0=rng.uniform(0.0, math.pi),
                target=target, p=log_uniform(rng, 1.0, 40.0),
                theta=rng.uniform(0.0, 3.0), phi=rng.uniform(0.0, 2.0 * math.pi))


def reference(pt: dict) -> mp.mpf:
    if "beam" in pt:
        return reference_without_fringe(pt)
    s = pt["parity"]
    sig, r0, phi_r0 = (mp.mpf(pt[k]) for k in ("sigma_perp", "r0", "phi_r0"))
    p, theta, phi = (mp.mpf(pt[k]) for k in ("p", "theta", "phi"))
    qz, qp = p * mp.cos(theta) - p, p * mp.sin(theta)
    s8 = 1 / (8 * sig ** 2)
    fringe = 2 * r0 * qp * mp.cos(phi_r0 - phi)
    c_sep = r0 ** 2 / (2 * sig ** 2)
    if pt["target"] is None:
        bw = off = mp.mpf(1)
        pref = mp.mpf(1) / 4
    else:
        st, b0x, b0y = (mp.mpf(v) for v in pt["target"])
        ssq = st ** 2 + sig ** 2
        rx, ry = r0 * mp.cos(phi_r0), r0 * mp.sin(phi_r0)

        def e(dx, dy):
            return mp.exp(-(dx ** 2 + dy ** 2) / (2 * ssq))

        bw = (e(b0x - rx, b0y - ry) + e(b0x + rx, b0y + ry)) / 2
        off = e(b0x, b0y)
        pref = 1 / (8 * mp.pi * ssq)

    def f(x):
        h = 1 + s8 * x
        g = 1 + (qz ** 2 + qp ** 2 / h) / 4
        bracket = bw + s * off * mp.cos(fringe * (h - 1) / h) * mp.exp(-c_sep / h)
        return mp.exp(-x * g) * (x + x ** 2 + x ** 3 / 6) / h * bracket

    # The fringe phase |fringe| (1 - 1/h) reaches k pi/2 at x_k.
    quarters = int(abs(fringe) / (mp.pi / 2))
    u_k = [k * mp.pi / 2 / abs(fringe) for k in range(1, quarters + 1)]
    x_k = [u / (s8 * (1 - u)) for u in u_k]
    # The weight e^{-x g} x^3 peaks near x = 3 / g(0).
    g0 = 1 + (qz ** 2 + qp ** 2) / 4
    points = sorted(set(BREAKS) | {b / g0 for b in BREAKS[1:]} | set(x_k)) + [mp.inf]
    overlap = mp.exp(-c_sep)
    return pref * mp.quad(f, points) / (1 + s * overlap)


def reference_without_fringe(pt: dict) -> mp.mpf:
    sx, sy, r0, phi_r0 = (mp.mpf(pt[k]) for k in ("sigma_x", "sigma_y", "r0", "phi_r0"))
    p, theta, phi = (mp.mpf(pt[k]) for k in ("p", "theta", "phi"))
    qz, qp = p * mp.cos(theta) - p, p * mp.sin(theta)
    qx, qy = qp * mp.cos(phi), qp * mp.sin(phi)
    if pt["target"] is None:
        bw = mp.mpf(1)
        pref = mp.mpf(1) / 4
    else:
        st, b0x, b0y = (mp.mpf(v) for v in pt["target"])
        ssx, ssy = st ** 2 + sx ** 2, st ** 2 + sy ** 2
        rx, ry = r0 * mp.cos(phi_r0), r0 * mp.sin(phi_r0)

        def e(dx, dy):
            return mp.exp(-(dx ** 2 / ssx + dy ** 2 / ssy) / 2)

        bw = (e(b0x - rx, b0y - ry) + e(b0x + rx, b0y + ry)) / 2
        pref = 1 / (8 * mp.pi * mp.sqrt(ssx * ssy))

    def f(x):
        hx, hy = 1 + x / (8 * sx ** 2), 1 + x / (8 * sy ** 2)
        g = 1 + (qz ** 2 + qx ** 2 / hx + qy ** 2 / hy) / 4
        return mp.exp(-x * g) * (x + x ** 2 + x ** 3 / 6) / mp.sqrt(hx * hy)

    g0 = 1 + (qz ** 2 + qp ** 2) / 4
    points = sorted(set(BREAKS) | {b / g0 for b in BREAKS[1:]}) + [mp.inf]
    return pref * bw * mp.quad(f, points)


def main() -> None:
    rng = random.Random(SEED)
    pts = FIXED + [draw(rng, k) for k in range(N_RANDOM)] + FIXED_BEAMS
    with mp.workdps(DIGITS + 10):
        for pt in pts:
            pt["reference"] = mp.nstr(reference(pt), DIGITS, min_fixed=1, max_fixed=0)
    doc = {
        "about": "d nu / d Omega of cat states by the closed form at 30 digits; "
                 "target null = wide (d sigma / d Omega), else [sigma_t, b0x, b0y]; "
                 "parity +1 even, -1 odd; points with a 'beam' (gaussian, mixture, "
                 "anisotropic) follow the cats; written by make_closed_form_reference.py",
        "seed": SEED,
        "points": pts,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(pts)} points to {OUT}")


if __name__ == "__main__":
    main()
