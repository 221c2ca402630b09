import json

import numpy as np
import pytest

from deltashell import DeltaShellPotential, box_state, build_basis, find_poles, survival_series
from deltashell import io as dsio

CONFIG = {"b": 14.137166941154069, "samples": 7, "source": "expansion"}


@pytest.fixture(scope="module")
def series(pot9, ctx_q1):
    return survival_series(pot9, box_state(1), np.linspace(0.1, 2.0, 7), 40, context=ctx_q1)


def _records(name, ps10, basis40, series):
    """(CSV text, JSON columns) of one record, both written from the same object."""
    if name.startswith("poles"):
        basis = basis40 if name == "poles_states" else None
        rows = json.loads(dsio.pole_set_to_json(ps10, basis))["poles"]
        return dsio.pole_set_to_csv(ps10, basis), {c: [r[c] for r in rows] for c in rows[0]}
    oracle_S = list(series.S * 0.999) if name == "survival_oracle" else None
    doc = json.loads(dsio.survival_to_json(series, CONFIG, oracle_S))
    return dsio.survival_to_csv(series, CONFIG, oracle_S), doc["data"]


@pytest.mark.parametrize("name", ["poles", "poles_states", "survival", "survival_oracle"])
def test_csv_and_json_carry_the_same_columns(name, ps10, basis40, series):
    """Same column names in the same order, and the same value in every cell.

    Comparing each CSV cell with the repr of the parsed JSON value checks the
    doubles bit for bit and the int columns as ints.
    """
    csv_text, json_columns = _records(name, ps10, basis40, series)
    lines = [line for line in csv_text.splitlines() if not line.startswith("#")]
    names, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    assert names == list(json_columns)
    assert names[-1] == {"poles": "width", "poles_states": "im_A", "survival": "S_tail_only",
                         "survival_oracle": "S_oracle"}[name]
    for i, column in enumerate(names):
        assert [r[i] for r in rows] == [repr(v) for v in json_columns[column]], column


@pytest.mark.parametrize("write", [dsio.pole_set_to_csv, dsio.pole_set_to_json],
                         ids=["csv", "json"])
@pytest.mark.parametrize("b,n_proper,n_improper", [(1.0, 10, 10), (None, 3, 3),
                                                   (None, 10, 3), (None, 3, 10)],
                         ids=["other_potential", "fewer_both", "fewer_improper",
                              "fewer_proper"])
def test_pole_table_rejects_a_basis_of_other_poles(write, pot9, ps10, b, n_proper, n_improper):
    """A basis of another potential, or with fewer states in a family than the
    table, would write amplitudes under other poles' rows: ValueError.
    """
    pot = pot9 if b is None else DeltaShellPotential(b=b)
    with pytest.raises(ValueError, match="basis"):
        write(ps10, build_basis(find_poles(pot, n_proper, n_improper)))
