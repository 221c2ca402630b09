"""Hunting the spectral singularity: track a pole until it hits the real axis.

The improper pole k_-5 moves as the shell intensity b varies. At one special
intensity it lands exactly on the real k axis, where the Jost function has a
real zero and the continuum solution blows up - a spectral singularity. The
crossing sits at b* = 9 pi / 2 with k* = -9 pi / 2 (an algebraic identity:
2k = b(e^{2ika} - 1) holds exactly there since e^{-9 i pi} = -1).
"""
import math
import pathlib
import sys

from deltashell import (DeltaShellPotential, find_poles, find_singularity,
                        jost_function, pole_equation_residual, track_pole)
from deltashell.io import singularity_report_json, trajectory_to_csv

out_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "demo_output")
out_dir.mkdir(parents=True, exist_ok=True)

pot0 = DeltaShellPotential(b=13.0, a=1.0)
pole0 = find_poles(pot0, 6, 6).by_index(-5)
print(f"family -5 starts at k = {pole0.k:.6f} for b = 13")

traj = track_pole(pot0, pole0, 13.0, 15.0, steps=21)
print("continuation in b (every 4th sample):")
for b, k in zip(traj.b[::4], traj.k[::4]):
    print(f"  b = {b:7.4f}:  k = {k.real:10.6f} {k.imag:+10.6f}i")

b_star, k_star = find_singularity(1.0, -5, 13.0, 15.0)
print(f"\ncrossing in [13, 15] (closed form) b* = {b_star!r}")
print(f"                                   k* = {k_star!r}")
print(f"9 pi / 2                              = {4.5 * math.pi!r}")
up = int((traj.k.imag > 0).argmax())  # the first sample above the axis
print(f"the traced Im k changes sign between b = {traj.b[up - 1]:.1f} and {traj.b[up]:.1f}")
pot_star = DeltaShellPotential(b=b_star)
F = jost_function(complex(k_star), pot_star)
print(f"|Jost(k*)| = {abs(F):.2e}: a real zero of the Jost function")
print("the proper family never crosses (no singularity there):")
pole1 = find_poles(pot0, 2, 2).by_index(1)
traj1 = track_pole(pot0, pole1, 13.0, 15.0, steps=21)
print(f"  Im k_1 stays in [{traj1.k.imag.min():.4f}, {traj1.k.imag.max():.4f}]")

(out_dir / "trajectory_family_m5.csv").write_text(trajectory_to_csv(traj))
(out_dir / "singularity_report.json").write_text(
    singularity_report_json(-5, 1.0, b_star, k_star,
                            {"pole_equation": abs(pole_equation_residual(complex(k_star),
                                                                         pot_star))}))
print(f"\nwrote trajectory_family_m5.csv and singularity_report.json in {out_dir}/")
