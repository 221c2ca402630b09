"""The expansion against the exact propagator, with no expansion in sight.

The reference computes A(t) = <psi(0)| g(t) |psi(0)> from the exact retarded
propagator: a residue sum over the fourth-quadrant poles plus a quadrature of
the closed-form resolvent along the ray k = e^{-i pi/4} z, where e^{-z^2 t}
makes everything converge. No resonant expansion, no t^{-3/2} asymptotics.
"""
import math
import pathlib
import sys

import numpy as np

from deltashell import (DeltaShellPotential, SineInitialState, box_state,
                        build_expansion, lifetime, survival_amplitude,
                        survival_amplitude_exact)

out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "demo_output")
out_dir.mkdir(parents=True, exist_ok=True)

pot = DeltaShellPotential(b=4.5 * math.pi, a=1.0)

print("delta-resolution check: applying g(t -> 0) returns the initial state")
for q in (1, 6):
    s = abs(survival_amplitude_exact(pot, box_state(q), 2e-4, N=80, t_min=1e-4)) ** 2
    print(f"  q = {q}: S_exact(2e-4) = {s:.6f}")

print("\nexpansion vs exact for the box mode q = 1 and the singular state:")
rows = []
for init, label in [(box_state(1), "q=1"),
                    (SineInitialState.from_wavenumber(4.5 * math.pi), "kc=9pi/2")]:
    ctx = build_expansion(pot, init, 40)
    tau = lifetime(ctx.pole_set)
    print(f"  {label}:")
    for t_tau in (0.5, 1.0, 2.0, 5.0):
        t = t_tau * tau
        s_exp = abs(survival_amplitude(ctx.overlaps, ctx.pole_set, t)[0]) ** 2
        s_or = abs(survival_amplitude_exact(pot, init, t, N=40)) ** 2
        rel = abs(s_exp - s_or) / s_or
        rows.append((label, t_tau, s_exp, s_or, rel))
        print(f"    t = {t_tau:3.1f} tau:  S_exp = {s_exp:.6e}  "
              f"S_exact = {s_or:.6e}  rel = {rel:.2e}")

print("\nlong-time law from the exact side alone (no t^-3/2 ansatz):")
init = SineInitialState.from_wavenumber(4.5 * math.pi)
ctx = build_expansion(pot, init, 40)
tau = lifetime(ctx.pole_set)
ts = np.geomspace(50 * tau, 100 * tau, 12)
Ss = [abs(survival_amplitude_exact(pot, init, float(t), N=10)) ** 2 for t in ts]
print(f"  log-log slope of S_exact on [50, 100] tau: "
      f"{np.polyfit(np.log(ts), np.log(Ss), 1)[0]:.4f}  (cube law: -3)")

with open(out_dir / "oracle_crosscheck.csv", "w") as fh:
    fh.write("state,t_over_tau,S_expansion,S_exact,rel_diff\n")
    for label, t_tau, s_exp, s_or, rel in rows:
        fh.write(f"{label},{t_tau},{s_exp!r},{s_or!r},{rel!r}\n")
print(f"wrote {out_dir / 'oracle_crosscheck.csv'}")
