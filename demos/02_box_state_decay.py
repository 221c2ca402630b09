"""Box states decay through the resonance ladder.

An initial box mode q overlaps almost entirely with the resonant state of the
same index (Re C_q^2 is close to 1), so S(t) first falls at the width
Gamma_q, then hands over to the slowest exponential Gamma_1, and eventually
to the universal t^-3 power law.
"""
import math
import pathlib
import sys

import numpy as np

from deltashell import (DeltaShellPotential, box_state, build_expansion, lifetime,
                        survival_series)
from deltashell.io import survival_to_csv

out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "demo_output")
out_dir.mkdir(parents=True, exist_ok=True)

pot = DeltaShellPotential(b=4.5 * math.pi, a=1.0)


def slope(t, S, lo, hi):
    m = (t >= lo) & (t <= hi)
    return np.polyfit(t[m], np.log(S[m]), 1)[0]


for q in (1, 2, 6):
    ctx = build_expansion(pot, box_state(q), 40)
    tau = lifetime(ctx.pole_set)
    gq = ctx.pole_set.by_index(q).width
    g1 = ctx.pole_set.by_index(1).width
    c2 = ctx.overlaps.c(q) * ctx.overlaps.c(q)
    t = np.linspace(0.01 * tau, 12 * tau, 6000)
    series = survival_series(pot, ctx.initial_state, t, 40, context=ctx)
    early = slope(t, series.S, 0.2 * tau, 0.8 * tau)
    late_window = (5 * tau, 8 * tau) if q == 2 else (3 * tau, 6 * tau)
    late = slope(t, series.S, *late_window)
    print(f"q = {q}: Re C_q^2 = {c2.real:.4f} (dominant), Gamma_{q} = {gq:.3f}")
    print(f"   early slope d(ln S)/dt on [0.2, 0.8] tau = {early:8.3f}"
          f"  vs -Gamma_{q} = {-gq:8.3f}")
    print(f"   late  slope on [{late_window[0] / tau:.0f}, {late_window[1] / tau:.0f}] tau"
          f"          = {late:8.3f}  vs -Gamma_1 = {-g1:8.3f}")
    config = {"b": pot.b, "a": pot.a, "q": q, "n_pole_pairs": 40}
    path = out_dir / f"survival_box_q{q}.csv"
    path.write_text(survival_to_csv(series, config))
    print(f"   wrote {path}")

print("\n(for q = 2 the Gamma_2 -> Gamma_1 handover happens near 4.2 tau, so the")
print(" clean Gamma_1 window starts later than for q = 6, whose handover is at 0.8 tau)")
