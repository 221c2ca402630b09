"""CSV/JSON serialization of the three output records: the pole table, the
survival series and the singularity trajectory.

Each record is built once as an ordered mapping of column name to cells, then
handed either to the one CSV writer or to that record's JSON layout, so both
formats carry the same columns in the same order. Cells are typed by their
column, not by their value: `index` and `family` are ints, every other cell
is a float. A float is written as repr(float), the shortest text that
round-trips the double, so serialize -> parse is bit-exact.
"""
from __future__ import annotations

import json

import numpy as np

from .basis import ResonantBasis
from .expansion import SurvivalSeries
from .poles import PoleSet
from .singularity import PoleTrajectory

SCHEMA_VERSION = 2
INT_COLUMNS = ("index", "family")


def _typed(columns: dict) -> dict:
    return {name: [int(v) for v in cells] if name in INT_COLUMNS
            else np.asarray(cells, dtype=float).tolist()
            for name, cells in columns.items()}


def _csv(header: dict, columns: dict) -> str:
    """`# key = value` lines, the column names, then one row per record entry."""
    lines = [f"# {key} = {value}" for key, value in header.items()]
    lines.append(",".join(columns))
    lines += (",".join(map(str, row)) for row in zip(*columns.values()))
    return "\n".join(lines) + "\n"


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _pole_columns(ps: PoleSet, basis: ResonantBasis | None) -> dict:
    k = np.concatenate((ps.k_improper, ps.k_proper))
    alpha, beta = k.real, -k.imag
    columns = {"index": np.concatenate((-np.arange(1, ps.k_improper.size + 1),
                                        np.arange(1, ps.n_proper + 1))),
               "re_k": k.real, "im_k": k.imag,
               "resonance_position": alpha ** 2 - beta ** 2, "width": 4.0 * alpha * beta}
    if basis is not None:  # the basis' A_p at the table's indices
        n = basis.n_proper
        if basis.potential != ps.potential or n < ps.n_proper or \
                basis.k.size - n < ps.k_improper.size:
            raise ValueError("the basis must be built on the pole set's potential and hold "
                             "at least its poles per family")
        A = np.concatenate((basis.A[n:n + ps.k_improper.size], basis.A[:ps.n_proper]))
        columns.update(re_A=A.real, im_A=A.imag)
    return _typed(columns)


def pole_set_to_csv(ps: PoleSet, basis: ResonantBasis | None = None) -> str:
    """CSV table of all poles, improper family first (most negative index last).

    Passing a basis of the same potential, with at least the table's poles
    per family, appends re_A, im_A columns of the state amplitudes; any other
    basis is a ValueError.
    """
    header = {"schema_version": SCHEMA_VERSION,
              "b": float(ps.potential.b), "a": float(ps.potential.a)}
    return _csv(header, _pole_columns(ps, basis))


def pole_set_to_json(ps: PoleSet, basis: ResonantBasis | None = None) -> str:
    columns = _pole_columns(ps, basis)
    return _json({"schema_version": SCHEMA_VERSION,
                  "potential": {"b": ps.potential.b, "a": ps.potential.a},
                  "poles": [dict(zip(columns, row)) for row in zip(*columns.values())]})


def _survival_columns(series: SurvivalSeries, oracle_S) -> dict:
    columns = {"t": series.t, "t_over_tau": series.t_over_tau,
               "re_A": series.A.real, "im_A": series.A.imag, "S": series.S,
               "S_exp_only": series.S_exp_only, "S_tail_only": series.S_tail_only}
    if oracle_S is not None:
        columns["S_oracle"] = oracle_S
    return _typed(columns)


def survival_to_csv(series: SurvivalSeries, config: dict, oracle_S=None) -> str:
    """Fixed-order survival table; oracle values, when given, append one column."""
    header = dict(sorted({"schema_version": SCHEMA_VERSION, **config}.items()))
    return _csv(header, _survival_columns(series, oracle_S))


def survival_to_json(series: SurvivalSeries, config: dict, oracle_S=None) -> str:
    return _json({"schema_version": SCHEMA_VERSION, "config": config,
                  "source": "expansion", "lifetime": series.lifetime,
                  "data": _survival_columns(series, oracle_S)})


def trajectory_to_csv(traj: PoleTrajectory) -> str:
    header = {"schema_version": SCHEMA_VERSION, "family": traj.family, "a": float(traj.a)}
    columns = {"b": traj.b, "re_k": traj.k.real, "im_k": traj.k.imag,
               "family": [traj.family] * traj.b.size}
    return _csv(header, _typed(columns))


def singularity_report_json(family: int, a: float, b_star: float, k_star: float,
                            residuals: dict) -> str:
    return _json({"schema_version": SCHEMA_VERSION, "family": family, "a": a,
                  "b_star": b_star, "k_star": k_star, "residuals": residuals})
