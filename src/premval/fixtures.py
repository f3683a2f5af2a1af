"""Bundled example model and a SYNTHETIC companion life table.

The model is the ten-state dread-disease layout described in
:mod:`premval.cashflow`: diagnosis can be local (state 2) or immediately
terminal (state 3), terminal illness walks down the remaining-lifetime
states 3..6, and the two death routes pass through one-period payout states
(7 and 9) before absorbing (8 and 10).

The companion table is generated, not observed.  It evolves a closed cohort
of ten million lives from entry age 40 over 25 years under smooth synthetic
hazards, keeping every count an exact integer so that structural identities
(full drain of the terminal states, conservation of lives) hold exactly in
the shipped CSV.  Magnitudes are chosen to look like a middle-aged insured
population, nothing more; no real data went in.
"""

from __future__ import annotations

import importlib.resources
from pathlib import Path

from .statemodel import ModelFile, StateModel, _extend_file, format_model

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


def dread_disease_model() -> StateModel:
    """The ten-state model: the extension of :func:`base_dread_disease`, as the plain
    model that the shipped extended file parses to."""
    extended, _ = _extend_file(base_dread_disease())
    return StateModel(extended.n_states, extended.transitions, extended.labels, extended.initial_state,
                      extended.reflex)


def base_dread_disease() -> ModelFile:
    """The eight-state model with its transition lump sums, pre-extension.

    A unit death benefit is payable on every transition into either death
    state, and a unit diagnosis benefit on entry into the terminal stage.
    Its extension is :func:`dread_disease_model`.
    """
    model = StateModel(
        n_states=8,
        transitions=frozenset({
            (1, 2), (1, 3), (1, 7), (2, 3), (2, 7),
            (3, 4), (3, 8), (4, 5), (4, 8), (5, 6), (5, 8), (6, 8),
        }),
        labels={
            1: "healthy", 2: "diagnosed local",
            3: "terminal e<4y", 4: "terminal e<3y", 5: "terminal e<2y", 6: "terminal e<1y",
            7: "dead other", 8: "dead terminal",
        },
        initial_state=1,
        reflex=frozenset({3, 4, 5, 6}),
    )
    lump_sums = {
        (1, 7): 1.0, (2, 7): 1.0,
        (3, 8): 1.0, (4, 8): 1.0, (5, 8): 1.0, (6, 8): 1.0,
        (1, 3): 1.0, (2, 3): 1.0,
    }
    return ModelFile(model=model, lump_sums=lump_sums, attachments={})


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
    base = base_dread_disease()
    extended, attachments = _extend_file(base)
    contents = {
        MODEL_FILE: format_model(extended, attachments=attachments),
        BASE_MODEL_FILE: format_model(base.model, base.lump_sums),
        TABLE_FILE: synthetic_table_text(),
    }
    written = []
    for name, text in contents.items():
        path = directory / name
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written
