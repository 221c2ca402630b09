"""Decay that rings: the spectral-singularity state oscillates instead of
dying exponentially.

k_c = 9 pi / 2 lands halfway between the resonance positions alpha_4 and
alpha_5, and on top of the real-axis pole k_-5. The initial state then splits
its strength between u_4 and u_5, whose interference beats at
(E_5 - E_4) / 2 pi - visible as an oscillating survival probability at
lifetime scales, something no single-exponential decay can produce.
"""
import math
import pathlib
import sys

import numpy as np

from deltashell import (DeltaShellPotential, SineInitialState, build_expansion,
                        lifetime, survival_series, two_pole_amplitude)
from deltashell.io import survival_to_csv

out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "demo_output")
out_dir.mkdir(parents=True, exist_ok=True)

pot = DeltaShellPotential(b=4.5 * math.pi, a=1.0)
init = SineInitialState.from_wavenumber(4.5 * math.pi)
ctx = build_expansion(pot, init, 40)
tau = lifetime(ctx.pole_set)

for p in (-5, 4, 5):
    c2 = ctx.overlaps.c(p) * ctx.overlaps.c(p)
    print(f"  C_{p}^2 = {c2.real:+.5f} {c2.imag:+.5f}i")
print("  (these three carry nearly all the closure weight)")

t = np.linspace(2 * tau / 2000, 2 * tau, 2000)
series = survival_series(pot, init, t, 40, context=ctx)
S = series.S
n_max = sum(1 for i in range(1, len(S) - 1) if S[i] > S[i - 1] and S[i] > S[i + 1])

e4 = ctx.pole_set.by_index(4).resonance_position
e5 = ctx.pole_set.by_index(5).resonance_position
f_ref = (e5 - e4) / (2 * math.pi)
print(f"\nlocal maxima of S on (0, 2 tau]: {n_max}")
print(f"two-pole beat prediction: (E5 - E4)/2pi = {f_ref:.3f} oscillations per unit time")

# measure the dominant frequency on the first lifetime
t1 = np.linspace(tau / 2000, tau, 2000)
S1 = survival_series(pot, init, t1, 40, context=ctx).S
resid = S1 / np.exp(np.polyval(np.polyfit(t1, np.log(S1), 1), t1))
sig = (resid - resid.mean()) * np.hanning(len(resid))
F = np.abs(np.fft.rfft(sig, n=32 * len(sig)))
freqs = np.fft.rfftfreq(32 * len(sig), d=t1[1] - t1[0])
mask = freqs >= 2 / (t1[-1] - t1[0])
print(f"measured dominant frequency on (0, 1 tau]: {freqs[mask][np.argmax(F[mask])]:.3f}")

two = np.abs([two_pole_amplitude(ctx.overlaps, ctx.pole_set, float(x)) for x in t]) ** 2
print(f"tail term share of |A| at t = tau: "
      f"{float(np.abs(series.A_tail)[np.argmin(abs(t - tau))] / np.abs(series.A)[np.argmin(abs(t - tau))]):.1e} "
      f"(the oscillation is pure pole interference)")

path = out_dir / "survival_singular_state_osc.csv"
path.write_text(survival_to_csv(series, {"b": pot.b, "a": pot.a, "k_c": init.k_c,
                                         "n_pole_pairs": 40}))
np.savetxt(out_dir / "two_pole_approximation.csv",
           np.column_stack([t, two]), delimiter=",",
           header="t,S_two_pole", comments="")
print(f"wrote {path} and two_pole_approximation.csv")
