"""The bundled synthetic cohort, its model files and its benefit builders."""

import ast
from pathlib import Path

import numpy as np
import pytest

import premval as pv
import premval.cashflow as cashflow
import premval.cli as cli
import premval.fixtures as fx
from chains import reference_accelerated_benefit, reference_dread_disease_case

SRC = Path(pv.__file__).parent

#: The modules that hold no fixture code.
GENERIC_MODULES = ("cashflow", "valuation", "lifetable", "statemodel", "oracle", "errors")

#: What builds a model; the fixture reads its models from the shipped files instead.
MODEL_BUILDERS = ("StateModel", "ModelFile", "extend_model", "_extend_file")


@pytest.fixture(scope="module")
def shipped():
    return {name: fx.bundled_path(name).read_text(encoding="utf-8")
            for name in (fx.MODEL_FILE, fx.BASE_MODEL_FILE, fx.TABLE_FILE)}


class TestShippedFiles:
    def test_writer_reproduces_bundled_bytes(self, shipped, tmp_path):
        for path in fx.write_fixture_files(tmp_path):
            assert path.read_text(encoding="utf-8") == shipped[path.name]

    def test_extended_file_is_the_extension_of_the_base_file(self, shipped):
        base = pv.parse_model_text(shipped[fx.BASE_MODEL_FILE])
        extended, attachments = pv.extend_model(base.model, base.lump_sums)
        assert pv.format_model(extended, attachments=attachments) == shipped[fx.MODEL_FILE]

    def test_table_text_matches_generator(self, shipped):
        assert fx.synthetic_table_text() == shipped[fx.TABLE_FILE]

    def test_table_is_labeled_synthetic(self, shipped):
        assert "SYNTHETIC" in shipped[fx.TABLE_FILE].splitlines()[0]

    def test_model_file_loads_to_builder_output(self, shipped):
        parsed = pv.parse_model_text(shipped[fx.MODEL_FILE])
        assert parsed.model == fx.dread_disease_model()
        assert parsed.attachments == {3: 1.0, 7: 1.0, 9: 1.0}


class TestSyntheticCohort:
    def test_cohort_is_closed(self, dread):
        """Occupancy plus accumulated dead is the starting population at all times."""
        table = dread.table
        alive = sum(table.occupancy[i] for i in range(1, 8)) + table.occupancy[9]
        dead = np.zeros(table.n + 1)
        for k in range(1, table.n + 1):
            dead[k] = dead[k - 1] + table.occupancy[7][k - 1] + table.occupancy[9][k - 1]
        np.testing.assert_array_equal(alive + dead, np.full(table.n + 1, 10_000_000.0))

    def test_population_starts_at_ten_million(self, dread):
        start = sum(dread.table.occupancy[i][0] for i in dread.table.occupancy)
        assert start == 10_000_000.0

    def test_terminal_stage_diagonals_are_exactly_zero(self, dread):
        for i in (3, 4, 5):
            assert (dread.seq.matrices[:, i - 1, i - 1] == 0.0).all()

    def test_one_period_state_diagonals_are_exactly_zero(self, dread):
        for i in (6, 7, 9):
            assert (dread.seq.matrices[:, i - 1, i - 1] == 0.0).all()

    def test_no_transition_outside_the_model_graph(self, dread):
        assert pv.pattern_violations(dread.seq, dread.model) == []

    def test_counts_are_integers(self, dread):
        for column in dread.table.occupancy.values():
            np.testing.assert_array_equal(column, np.round(column))
        for column in dread.table.decrements.values():
            np.testing.assert_array_equal(column, np.round(column))

    def test_entry_age_and_horizon(self, dread):
        assert dread.table.entry_age == fx.ENTRY_AGE == 40
        assert dread.table.n == fx.HORIZON == 25

    def test_earliest_arrivals(self, dread):
        got = [dread.offsets.offset(s) for s in range(1, 11)]
        assert got == [0, 1, 1, 2, 3, 4, 1, 2, 2, 3]


class TestBuilders:
    """The builders take each state's first payable row from the fixture model's earliest arrivals."""

    def test_builders_match_the_hard_coded_rows(self):
        for n in range(61):
            for share in (0.0, 0.001, 0.25, 0.5, 1.0):
                got, want = pv.accelerated_benefit(share, n).matrix, reference_accelerated_benefit(share, n).matrix
                assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
            for case in (1, 2, 3):
                got, want = pv.dread_disease_case(case, n).matrix, reference_dread_disease_case(case, n).matrix
                assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())

    def test_first_rows_are_the_cached_arrival_offsets(self):
        first = fx._first_rows()
        assert first is fx._first_rows()
        assert [first[s] for s in (3, 4, 5, 6, 7, 9)] == [1, 2, 3, 4, 1, 2]
        assert first == pv.shortest_arrival(fx.dread_disease_model()).offsets


def fixture_imports(src=SRC):
    """(module, enclosing function) of every import of ``fixtures`` in the generic modules."""
    for stem in GENERIC_MODULES:
        tree = ast.parse((src / f"{stem}.py").read_text(encoding="utf-8"))
        function = {}
        for node in ast.walk(tree):  # breadth first, so a parent comes before its children
            for child in ast.iter_child_nodes(node):
                function[child] = node.name if isinstance(node, ast.FunctionDef) else function.get(node)
            if isinstance(node, ast.Import):
                named = any(alias.name.split(".")[-1] == "fixtures" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                named = ((node.module or "").split(".")[-1] == "fixtures"
                         or any(alias.name == "fixtures" for alias in node.names))
            else:
                continue
            if named:
                yield stem, function.get(node)


def test_generic_modules_reach_the_fixture_only_through_the_cashflow_alias():
    assert list(fixture_imports()) == [("cashflow", "__getattr__")]
    assert not [name for name in vars(cli) if name.startswith("_DEMO")]


@pytest.mark.parametrize("source", [
    "from . import fixtures", "from .fixtures import accelerated_benefit", "import premval.fixtures as fx",
    "from premval import fixtures", "def f():\n    from .fixtures import TERMINAL_STATES",
])
def test_the_guard_sees_an_import_of_the_fixture(tmp_path, source):
    (tmp_path / "oracle.py").write_text(source + "\n", encoding="utf-8")
    for stem in GENERIC_MODULES:
        if stem != "oracle":
            (tmp_path / f"{stem}.py").write_text("", encoding="utf-8")
    assert [stem for stem, _ in fixture_imports(tmp_path)] == ["oracle"]


def test_the_cashflow_alias_resolves_only_the_two_builders():
    for name in ("accelerated_benefit", "dread_disease_case"):
        assert name not in vars(cashflow)
        assert getattr(cashflow, name) is getattr(fx, name)
    for name in ("ceased_cover_states", "DREAD_DISEASE_STATES", "TERMINAL_STATES", "DEMO_RATE"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(cashflow, name)


def model_builds(path=SRC / "fixtures.py"):
    """The name of each call of a :data:`MODEL_BUILDERS` function, by name or as an attribute, in the file."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in MODEL_BUILDERS:
                yield name


def test_the_fixture_builds_no_model():
    assert list(model_builds()) == []


@pytest.mark.parametrize("source, name", [
    ("StateModel(2, {(1, 2)})", "StateModel"), ("x = pv.ModelFile(model, {}, {})", "ModelFile"),
    ("def f(m):\n    return statemodel.extend_model(m, {})", "extend_model"),
    ("extended, _ = _extend_file(base)", "_extend_file"),
])
def test_the_guard_sees_a_model_built_in_the_fixture(tmp_path, source, name):
    (tmp_path / "fixtures.py").write_text(source + "\n", encoding="utf-8")
    assert list(model_builds(tmp_path / "fixtures.py")) == [name]
