"""One summation order, chosen by the library and not by the platform.

``distribution_matrix`` must equal ``chains.reference_distribution``, a
pure-Python loop over the edges in stored order, bit for bit on every chain
the pins cover and on one far too large for a dense Q.  No module of the
library may take a matrix product with ``@`` or name one of numpy's
BLAS-backed routines, whose summation order and use of fused multiply-adds
belong to the CPU's kernel.  And the chain pins must come out the same in a
child process that forces OpenBLAS onto another kernel.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import premval as pv
import premval.fixtures as fx
from chains import (THREE_STATE_TABLE, large_chain_case, make_three_state_model, random_table_case,
                    reference_distribution)
from test_chain_pins import DIGESTS, wide_table_case

SRC = Path(pv.__file__).parent
TESTS = Path(__file__).parent
#: Names of numpy's BLAS-backed products, and its linear-algebra module.
BLAS_NAMES = frozenset({"dot", "vdot", "inner", "matmul", "einsum", "tensordot", "linalg"})

#: Prints the chain pins as ``data/chain_digests.json`` holds them.
PINS_SCRIPT = """
import json
from pathlib import Path
import premval.fixtures as fx
from chains import THREE_STATE_TABLE, make_three_state_model
from test_chain_pins import chain_digests, random_case_digest, wide_table_case
fixture = Path(fx.bundled_path(fx.TABLE_FILE)).read_text(encoding="utf-8")
print(json.dumps({
    "fixture": chain_digests(fx.dread_disease_model(), fixture),
    "chain3": chain_digests(make_three_state_model(), THREE_STATE_TABLE),
    "wide": chain_digests(*wide_table_case()),
    "random": [random_case_digest(seed) for seed in range(200)],
}))
"""


def pin_cases():
    yield "fixture", fx.dread_disease_model(), Path(fx.bundled_path(fx.TABLE_FILE)).read_text(encoding="utf-8")
    yield "chain3", make_three_state_model(), THREE_STATE_TABLE
    yield "wide", *wide_table_case()
    for seed in range(200):
        yield f"random {seed}", *random_table_case(np.random.default_rng(seed))
    yield "large", *large_chain_case()


def test_distribution_matrix_is_the_edge_loop_bit_for_bit():
    for name, model, text in pin_cases():
        chain = pv.build_chain(model, text)
        want = reference_distribution(chain.seq, chain.initial)
        assert chain.dist.matrix.tobytes() == want.tobytes(), name


def blas_calls(tree: ast.AST) -> list[int]:
    """Lines that take a product with ``@`` or ``@=``, or name a BLAS-backed routine
    or ``linalg``: as an attribute, a bare name, or in an import."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES
              or isinstance(node, ast.Name) and node.id in BLAS_NAMES):
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            if any(BLAS_NAMES.intersection(name.split(".")) for name in names):
                lines.append(node.lineno)
    return sorted(set(lines))


def test_no_module_of_the_library_calls_blas():
    calls = {source.name: lines for source in sorted(SRC.glob("*.py"))
             if (lines := blas_calls(ast.parse(source.read_text(encoding="utf-8"))))}
    assert calls == {}


def test_the_guard_sees_every_form_but_not_a_decorator():
    forms = ["p = p @ q", "p @= q", "np.dot(p, q)", "p.dot(q)", "np.vdot(p, q)", "np.inner(p, q)",
             "np.matmul(p, q)", "np.einsum('i,i', p, q)", "np.tensordot(p, q, 1)", "np.linalg.norm(p)",
             "dot(p, q)", "from numpy import dot", "from numpy.linalg import solve", "import numpy.linalg",
             "from numpy import linalg as la", "f = np.matmul"]
    clean = ["@dataclass\nclass A:\n    x: int", "dotted = p.sum()", "'np.dot(p, q)'", "inner_sum = 0.0"]
    tree = ast.parse("\n".join(forms + clean))
    assert blas_calls(tree) == list(range(1, len(forms) + 1))


def test_chain_pins_hold_under_another_blas_kernel():
    """The pins, computed in a child that forces OpenBLAS onto its Haswell
    kernel, are the committed digests: no value the pins cover depends on it."""
    path = [str(SRC.parent), str(TESTS)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_CORETYPE="Haswell")
    done = subprocess.run([sys.executable, "-c", PINS_SCRIPT], capture_output=True, text=True, env=env,
                          timeout=300, cwd=TESTS)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == DIGESTS

