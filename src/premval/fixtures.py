"""The bundled dread-disease example: its model, a SYNTHETIC companion life
table, the benefit builders priced on it and the demo's settings.

Both models are read from their one statement, the shipped files under
``data/``, which :func:`write_fixture_files` (``premval fixtures``) copies.

The model has ten states:

    1  healthy                       6  terminal stage, under 1 year left
    2  diagnosed, local disease      7  death payout due (from 1 or 2)
    3  terminal stage, under 4 years 8  dead (from 1 or 2)
    4  terminal stage, under 3 years 9  death payout due (terminal)
    5  terminal stage, under 2 years 10 dead (terminal)

Diagnosis can be local (state 2) or immediately terminal (state 3), terminal
illness walks down the remaining-lifetime states 3..6, and the two death
routes pass through the one-period payout states 7 and 9 before absorbing
in 8 and 10.  Each builder pays in a state from the state's earliest arrival
time on, the offset :func:`~premval.statemodel.shortest_arrival` gives it
from state 1: the rule :func:`~premval.cashflow.premium_selector` applies to
premiums.

The companion table is generated, not observed.  It evolves a closed cohort
of ten million lives from entry age 40 over 25 years under smooth synthetic
hazards, keeping every count an exact integer so that structural identities
(full drain of the terminal states, conservation of lives) hold exactly in
the shipped CSV.  Magnitudes are chosen to look like a middle-aged insured
population, nothing more; no real data went in.
"""

from __future__ import annotations

import functools
import importlib.resources
from pathlib import Path

import numpy as np

from .cashflow import CashflowMatrix, _periods
from .errors import ValidationError, _allocate, _integer, _real, read_text
from .statemodel import ModelFile, StateModel, load_model_file, shortest_arrival

ENTRY_AGE = 40
HORIZON = 25

_SEED_LIVES = {1: 9_600_000, 2: 240_000, 3: 70_000, 4: 45_000, 5: 28_000, 6: 17_000}

_TABLE_COLUMNS = [
    "l_1", "l_2", "l_3", "l_4", "l_5", "l_6",
    "d_1_2", "d_1_3", "d_1_7", "d_2_3", "d_2_7",
    "d_3_4", "d_3_9", "d_4_5", "d_4_9", "d_5_6", "d_5_9",
]

MODEL_FILE = "dread_disease.model"
BASE_MODEL_FILE = "dread_disease_base.model"
TABLE_FILE = "synthetic_table.csv"

#: Number of states in the model.
DREAD_DISEASE_STATES = 10

#: Its terminal-illness states.
TERMINAL_STATES = frozenset({3, 4, 5, 6})

#: The demo's yearly interest rate, accelerated shares, and premium-state sets with their column labels.
DEMO_RATE = 0.01
DEMO_LAMBDAS = (0.001, 0.25, 0.5, 0.75, 1.0)
DEMO_PAY_SETS = (("p{1}", frozenset({1})), ("p{1,2}", frozenset({1, 2})),
                 ("p{1-6}", frozenset({1, 2, 3, 4, 5, 6})))


def dread_disease_model() -> StateModel:
    """The ten-state model, read from the shipped extended file: the extension of
    :func:`base_dread_disease`."""
    return load_model_file(bundled_path(MODEL_FILE)).model


def base_dread_disease() -> ModelFile:
    """The eight-state model with its transition lump sums, pre-extension, read
    from the shipped base file.

    A unit death benefit is payable on every transition into either death
    state, and a unit diagnosis benefit on entry into the terminal stage.
    Its extension is :func:`dread_disease_model`.
    """
    return load_model_file(bundled_path(BASE_MODEL_FILE))


@functools.cache
def _first_rows() -> dict:
    """Each state's earliest arrival time in :func:`dread_disease_model`, from state 1:
    the first row in which a builder pays in the state."""
    return shortest_arrival(dread_disease_model()).offsets


def _paying(n: int, amounts: dict) -> np.ndarray:
    """(n+1) x 10 matrix paying ``amounts[state]`` in each state from its earliest arrival time on."""
    first = _first_rows()
    c = _allocate((_periods(n), DREAD_DISEASE_STATES), "cash-flow matrix")
    for state, amount in amounts.items():
        c[first[state]:, state - 1] = amount
    return c


def accelerated_benefit(acceleration: float, n: int) -> CashflowMatrix:
    """Inflows for a death benefit of 1 with an accelerated share.

    The share ``acceleration`` of the benefit is brought forward and paid on
    entry into the terminal stage (state 3); the remaining share is paid at
    death after a terminal illness (state 9).  Death without a preceding
    terminal stage (state 7) always pays the full benefit.  An acceleration
    of 0 is the plain death cover with a zero terminal-entry row kept in
    place; an acceleration of 1 is the stand-alone cover, where nothing is
    left to pay at state 9.
    """
    if not 0.0 <= (acceleration := _real("acceleration share", acceleration)) <= 1.0:
        raise ValidationError(f"acceleration share {acceleration!r} outside [0, 1]")
    c = _paying(n, {3: acceleration, 7: 1.0, 9: 1.0 - acceleration})
    return CashflowMatrix._of(c)  # amounts in [0, 1], n + 1 >= 1 periods


def ceased_cover_states(acceleration: float) -> frozenset[int]:
    """States where premium collection stops under stand-alone cover.

    With the whole benefit accelerated the contract ends at terminal
    diagnosis, so no premium can be collected in states 3..6.
    """
    return TERMINAL_STATES if _real("acceleration share", acceleration) >= 1.0 else frozenset()


def dread_disease_case(case: int, n: int) -> CashflowMatrix:
    """Inflows for three additional-benefit variants, each with a death
    benefit of 1.  Case 1 pays 1 on entry into the terminal stage.  Case 2
    pays instead a terminal-illness annuity of 0.25 a year in every terminal
    state.  Case 3 is case 1 plus a pure endowment of 1 paid at the horizon
    in every alive state (1..6).
    """
    case = _integer("case id", case)
    if case not in (1, 2, 3):
        raise ValidationError(f"unknown case id {case!r} (expected 1, 2 or 3)")
    amounts = {7: 1.0, 9: 1.0}
    if case in (1, 3):
        amounts[3] = 1.0
    else:
        amounts.update(dict.fromkeys(TERMINAL_STATES, 0.25))
    c = _paying(n, amounts)
    if case == 3:
        c[n, 0:6] += 1.0
    return CashflowMatrix._of(c)  # amounts in [0, 2], n + 1 >= 1 periods


def _hazards(k: int, decay_17: float, decay_27: float) -> dict[str, float]:
    return {
        "q12": 0.0018 + 0.00012 * k,
        "q13": 0.0009 + 0.00007 * k,
        "q17": 0.0055 * decay_17,
        "q23": 0.16 + 0.004 * k,
        "q27": 0.045 * decay_27,
        "q34": 0.62 - 0.002 * k,
        "q45": 0.55 - 0.0015 * k,
        "q56": 0.48 - 0.001 * k,
    }


def synthetic_table_text() -> str:
    """The synthetic life-table CSV, regenerated from first principles.

    Integer counts evolve a closed cohort: each period the terminal states
    3..5 split completely between progression and death, state 6 empties
    into the terminal death route, and remainders keep every row identity
    exact.  The shipped data file must equal this output byte for byte.
    """
    lives = dict(_SEED_LIVES)
    rows = []
    growth_17 = 1.0
    growth_27 = 1.0
    for k in range(HORIZON + 1):
        q = _hazards(k, growth_17, growth_27)
        d12 = round(lives[1] * q["q12"])
        d13 = round(lives[1] * q["q13"])
        d17 = round(lives[1] * q["q17"])
        d23 = round(lives[2] * q["q23"])
        d27 = round(lives[2] * q["q27"])
        d34 = round(lives[3] * q["q34"])
        d39 = lives[3] - d34
        d45 = round(lives[4] * q["q45"])
        d49 = lives[4] - d45
        d56 = round(lives[5] * q["q56"])
        d59 = lives[5] - d56
        rows.append([k, lives[1], lives[2], lives[3], lives[4], lives[5], lives[6],
                     d12, d13, d17, d23, d27, d34, d39, d45, d49, d56, d59])
        lives = {
            1: lives[1] - d12 - d13 - d17,
            2: lives[2] - d23 - d27 + d12,
            3: d13 + d23,
            4: d34,
            5: d45,
            6: d56,
        }
        growth_17 *= 1.065
        growth_27 *= 1.05
    header = "k," + ",".join(_TABLE_COLUMNS)
    body = "\n".join(",".join(str(v) for v in row) for row in rows)
    return f"# SYNTHETIC cohort table, entry age {ENTRY_AGE}, horizon {HORIZON} years\n{header}\n{body}\n"


def bundled_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    return Path(importlib.resources.files("premval").joinpath("data", name))


def write_fixture_files(directory) -> list[Path]:
    """Copy the bundled model and table files into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = [directory / name for name in (MODEL_FILE, BASE_MODEL_FILE, TABLE_FILE)]
    for path in written:
        path.write_text(read_text(bundled_path(path.name), "bundled"), encoding="utf-8")
    return written
