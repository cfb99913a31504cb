"""The import contract: a fresh process runs only the modules its subcommand uses.

Each case starts a new interpreter with ``PYTHONDONTWRITEBYTECODE=1``, as
the command-line tool is run, and reports at exit which ``ncrkhs`` modules
ran.  ``ncrkhs.cli`` enters the modules a subcommand may use in
``sys.modules`` as lazy modules; one whose body never ran keeps the lazy
module type, so "ran" is ``type(module) is types.ModuleType``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncrkhs
from ncrkhs.serialize import (
    dumps_canonical,
    encode_cp_map,
    encode_kernel,
    encode_matrix,
    encode_series,
    encode_tuple,
)

SRC = Path(ncrkhs.__file__).resolve().parents[1]

# reports, as the last line on stderr, the ncrkhs modules in sys.modules and those that ran
REPORT = """
import atexit, json, sys, types

def report():
    present = {n: type(m) is types.ModuleType for n, m in sys.modules.items() if n.startswith("ncrkhs")}
    ran = sorted(n for n, r in present.items() if r)
    sys.stderr.write("\\n" + json.dumps({"present": sorted(present), "ran": ran}))

atexit.register(report)
"""

# the cli run as `python -m ncrkhs.cli ARGS` runs it: as __main__
RUN_CLI = REPORT + """
import runpy
sys.argv[0] = "ncrkhs"
runpy.run_module("ncrkhs.cli", run_name="__main__")
"""

ALL_MODULES = {f"ncrkhs.{m}" for m in (
    "core", "cpmaps", "formal", "kernels", "multipliers", "rkhs", "sampling", "serialize", "series")}


def fresh(code: str, *args: str, cwd) -> tuple[int, dict]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True)
    return proc.returncode, json.loads(proc.stderr.splitlines()[-1])


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(dumps_canonical(payload))
    return str(path)


def test_importing_the_package_runs_no_submodule(tmp_path):
    _, modules = fresh(REPORT + "import ncrkhs", cwd=tmp_path)
    assert modules == {"present": ["ncrkhs"], "ran": ["ncrkhs"]}


def test_eval_runs_core_series_serialize_and_cli(tmp_path):
    f = write(tmp_path, "f.json", encode_series(ncrkhs.NcSeries.monomial(2, (1, 2), [[1.0]])))
    z = write(tmp_path, "z.json", encode_tuple(ncrkhs.zero_tuple(2, 2)))
    for command in (["eval", "--series", f, "--point", z], ["nilp-eval", "--series", f, "--point", z],
                    ["extract-coeffs", "--series", f]):
        code, modules = fresh(RUN_CLI, *command, cwd=tmp_path)
        assert code == 0
        assert modules["ran"] == ["ncrkhs", "ncrkhs.core", "ncrkhs.serialize", "ncrkhs.series"], command
        # every module a subcommand may use is in sys.modules, ran or not
        assert set(modules["present"]) == {"ncrkhs", *ALL_MODULES}


def test_check_ncfun_runs_no_kernel_module(tmp_path):
    f = write(tmp_path, "f.json", encode_series(ncrkhs.NcSeries.monomial(2, (1, 2), [[1.0]])))
    code, modules = fresh(RUN_CLI, "check-ncfun", "--series", f, "--seed", "2", cwd=tmp_path)
    assert code == 0
    assert modules["ran"] == ["ncrkhs", "ncrkhs.core", "ncrkhs.sampling", "ncrkhs.serialize", "ncrkhs.series"]


@pytest.mark.parametrize("command", [
    ["stinespring"], ["cb-norm", "--seed", "1"], ["effros-ruan", "--seed", "1", "--samples", "2"]])
def test_cp_map_subcommands_run_no_kernel_or_series_module(tmp_path, command):
    phi = write(tmp_path, "phi.json", encode_cp_map(ncrkhs.CpMap(1, 2, {(0, 0): [[1.0, 0.0], [0.0, 2.0]]})))
    code, modules = fresh(RUN_CLI, command[0], "--map", phi, *command[1:], cwd=tmp_path)
    assert code == 0
    assert modules["ran"] == ["ncrkhs", "ncrkhs.core", "ncrkhs.cpmaps", "ncrkhs.sampling", "ncrkhs.serialize"]


def test_brangesian_runs_no_kernel_model_or_series_module(tmp_path):
    contraction = write(tmp_path, "a.json", {"a": encode_matrix(0.5 * np.eye(3))})
    code, modules = fresh(RUN_CLI, "brangesian", "--contraction", contraction, "--seed", "1", cwd=tmp_path)
    assert code == 0
    assert modules["ran"] == ["ncrkhs", "ncrkhs.core", "ncrkhs.multipliers", "ncrkhs.sampling", "ncrkhs.serialize"]


def test_a_kernel_certificate_runs_no_cp_map_formal_or_multiplier_module(tmp_path):
    kernel = write(tmp_path, "k.json", encode_kernel(ncrkhs.szego_kernel(2, 3)))
    code, modules = fresh(RUN_CLI, "cp-certify", "--kernel", kernel, "--seed", "3", cwd=tmp_path)
    assert code == 0
    assert modules["ran"] == ["ncrkhs", "ncrkhs.core", "ncrkhs.kernels", "ncrkhs.sampling", "ncrkhs.serialize",
                              "ncrkhs.series"]


# ---------------------------------------------------------------------------
# the lazy package
# ---------------------------------------------------------------------------

def test_every_export_resolves_by_attribute_by_from_import_and_in_dir():
    assert len(ncrkhs.__all__) == 111 and ncrkhs.__all__ == sorted(set(ncrkhs.__all__))
    listed = dir(ncrkhs)
    for name in ncrkhs.__all__:
        namespace = {}
        exec(f"from ncrkhs import {name}", namespace)
        assert namespace[name] is getattr(ncrkhs, name)
        assert name in listed
    assert ncrkhs.kernels.MomentKernel is ncrkhs.MomentKernel
    assert ncrkhs.series.evaluate is ncrkhs.evaluate
    assert ncrkhs.core.DEFAULT_TOL is ncrkhs.DEFAULT_TOL
    assert ncrkhs.__version__ == "0.1.0"


def test_star_import_gives_exactly_the_exports():
    namespace = {}
    exec("from ncrkhs import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == ncrkhs.__all__


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'ncrkhs' has no attribute 'no_such_name'"):
        ncrkhs.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from ncrkhs import no_such_name", {})


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "ncrkhs").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "dataclasses" for n in names), f"{path.name}:{node.lineno}"
