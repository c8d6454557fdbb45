"""What each entry point loads, and the package's lazily resolved names.

``validate`` runs only the construction and the arithmetic under it, so
a fresh ``validate`` start must not load the analysis layers; an
``analyze`` start loads them but not the audit suites.  The package
resolves its exported names on first use, and every name it has
exported stays reachable.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wittscaffold

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

GOLDEN_CFG = "p = 3\ne0 = 6\na1 = pi0^-1\nmu = pi0^-1\n"

# every name the package exported when its __init__ imported them all
EXPORTED = (
    "AnalysisContext", "Automorphism", "BaseField", "BoundNotSatisfied",
    "DivisionByIndeterminateZero", "ExtensionDesc", "FreenessBound",
    "GroupRingElement", "IndeterminateValuation", "InternalDisagreement",
    "InvariantViolation", "JobConfig", "K0Element", "K2Element",
    "MembershipUndecided", "ModuleStructureReport", "NoConvergence",
    "PrecisionExhausted", "RamificationData", "ScaffoldError",
    "ScaffoldTables", "ValidationFailure", "ValidationReport", "WittVector2",
    "associated_order_and_freeness", "build_context", "build_tables",
    "check_freeness_bound", "compute_sigma1", "compute_sigma2",
    "congruence_audit", "construct_extension", "d_poly", "hensel_lift",
    "psi_operators", "ramification_data", "rho_family", "scaffold_lambda",
    "scaffold_words", "truncated_exp", "uniformizer_exponents",
    "validate_choice1", "validate_choice2", "word_images",
    "wp_membership_guard",
)

# runs validate, then analyze, in one fresh interpreter and prints the
# wittscaffold modules loaded after each as one JSON object
LOADED_CODE = """\
import contextlib, io, json, sys
from wittscaffold.cli import main
loaded = {}
for command in ("validate", "analyze"):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main([command, "--json", "--config", sys.argv[1]])
    assert rc == 0, (command, rc)
    loaded[command] = sorted(m for m in sys.modules
                             if m.split(".")[0] == "wittscaffold")
print(json.dumps(loaded))
"""


def fresh_python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=300)
    return proc.stdout


def test_validate_loads_no_analysis_layer_and_analyze_no_audit(tmp_path):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(GOLDEN_CFG)
    loaded = json.loads(fresh_python(LOADED_CODE, str(cfg)))
    layers = {f"wittscaffold.{m}"
              for m in ("pipeline", "galois", "structure", "audit", "witt")}
    assert not layers & set(loaded["validate"]), loaded["validate"]
    assert "wittscaffold.construction" in loaded["validate"]
    assert "wittscaffold.pipeline" in loaded["analyze"]
    assert "wittscaffold.audit" not in loaded["analyze"]


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_name_resolves(name):
    value = getattr(wittscaffold, name)
    namespace = {}
    exec(f"from wittscaffold import {name}", namespace)
    assert namespace[name] is value
    # the name is defined by a module of the package, not a copy
    module = sys.modules[value.__module__]
    assert module.__name__.startswith("wittscaffold.")
    assert getattr(module, name) is value


def test_dir_lists_every_export():
    assert set(EXPORTED) <= set(dir(wittscaffold))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wittscaffold.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from wittscaffold import no_such_name", {})
    assert not hasattr(wittscaffold, "no_such_name")


def test_submodules_still_import_through_the_package():
    namespace = {}
    exec("from wittscaffold import pipeline, audit", namespace)
    assert namespace["pipeline"].__name__ == "wittscaffold.pipeline"
    assert namespace["audit"].__name__ == "wittscaffold.audit"
    # the names that moved to construction keep their pipeline names
    for name in ("JobConfig", "FAULT_NAMES", "GUARD_RETRIES",
                 "validation_report_dict"):
        assert getattr(namespace["pipeline"], name) is getattr(
            sys.modules["wittscaffold.construction"], name)


def test_readme_library_session():
    """The README's library session, run as written in a fresh
    interpreter, prints what its comments say."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    session = readme.split("A quick library session:", 1)[1]
    code = re.search(r"```python\n(.*?)```", session, re.S).group(1)
    expected = [m.group(1) for m in re.finditer(r"^print\(.*#\s*(.+)$",
                                                code, re.M)]
    assert expected
    assert fresh_python(code).splitlines() == [
        e.strip("'") for e in expected]
