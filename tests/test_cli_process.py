"""How a CLI process starts: its collector policy and its BLAS thread count.

``python -m pfaffrep.cli`` and the ``pfaffrep`` script both run ``cli.py``
as ``__main__``.  Before numpy loads, such a process pauses the collector
and, unless the caller chose a thread count, sets
``OPENBLAS_NUM_THREADS=1``.  It then freezes the loaded objects, collects
during the problem, and freezes again before the interpreter finalizes.  A
library caller of ``import pfaffrep.cli`` or ``cli.main`` keeps its own
collector and environment.
"""

import ast
import inspect
import json
import os
import runpy
import subprocess
import sys
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pfaffrep import cli
from pfaffrep import jsonio as io
from conftest import random_pencil

ROOT = Path(__file__).resolve().parents[1]

# The variables OpenBLAS reads its thread count from, in its order.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _pf_problem() -> str:
    P = random_pencil(np.random.default_rng(3), 4)
    return json.dumps({"kind": "pf", "payload": {"pencil": io.enc_pencil(P)}})


def _env(**blas) -> dict:
    """This process's environment with no BLAS thread variable but ``blas``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    return {**env, **blas}


def _last_stderr_json(script: str, stdin: str, env: dict):
    """Run ``script`` in a fresh interpreter; the JSON it printed last on stderr."""
    proc = subprocess.run([sys.executable, "-c", script], input=stdin,
                          capture_output=True, text=True, env=env)
    return proc, json.loads(proc.stderr.strip().splitlines()[-1])


def _script_target() -> tuple[str, str]:
    """``(module, function)`` of ``[project.scripts] pfaffrep``."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pfaffrep"]
    module, _, name = target.partition(":")
    return module, name


# runpy runs the module as ``__main__``, exactly as ``python -m`` does
MODULE_RUN = "import runpy\nrunpy.run_module('pfaffrep.cli', run_name='__main__')\n"


def _console_script() -> str:
    # the wrapper an installer writes for a console script
    module, name = _script_target()
    return f"from {module} import {name}\nsys.exit({name}())\n"


def _process_start(entry: str, env: dict) -> dict:
    """Run a ``pf`` problem through ``entry``; what the process saw as it started.

    An audit hook records the collector state and ``OPENBLAS_NUM_THREADS``
    when numpy is imported; an exit handler records the collector state,
    the frozen object count and the number of threads.
    """
    script = (
        "import atexit, gc, json, os, sys\n"
        "seen = {}\n"
        "def hook(event, args):\n"
        "    if event == 'import' and args[0] == 'numpy' and 'numpy_import_gc' not in seen:\n"
        "        seen['numpy_import_gc'] = gc.isenabled()\n"
        "        seen['numpy_import_blas'] = os.environ.get('OPENBLAS_NUM_THREADS')\n"
        "sys.addaudithook(hook)\n"
        "def report():\n"
        "    tasks = '/proc/self/task'\n"
        "    threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
        "    print(json.dumps({**seen, 'exit_gc': gc.isenabled(), 'threads': threads,\n"
        "                      'exit_frozen': gc.get_freeze_count()}), file=sys.stderr)\n"
        "atexit.register(report)\n"
        "sys.argv = ['pfaffrep', 'pf', '-', '--format', 'json']\n" + entry)
    proc, seen = _last_stderr_json(script, _pf_problem(), env)
    assert proc.returncode == 0 and json.loads(proc.stdout)["command"] == "pf"
    return seen


@pytest.mark.parametrize("enabled", [True, False])
def test_library_calls_keep_the_callers_collector(enabled):
    script = (
        "import gc, json, os, sys\n"
        f"{'' if enabled else 'gc.disable()'}\n"
        "env = dict(os.environ)\n"
        "import pfaffrep.cli as cli\n"
        "seen = [[gc.isenabled(), gc.get_freeze_count(), dict(os.environ) == env]]\n"
        "code = cli.main(['pf', '-', '--format', 'json'])\n"
        "seen.append([gc.isenabled(), gc.get_freeze_count(), dict(os.environ) == env])\n"
        "print(json.dumps([code, seen]), file=sys.stderr)\n")
    proc, (code, seen) = _last_stderr_json(script, _pf_problem(), _env())
    assert code == 0 and json.loads(proc.stdout)["command"] == "pf"
    assert seen == [[enabled, 0, True], [enabled, 0, True]]


def _assert_process_policy(seen: dict):
    assert seen["numpy_import_gc"] is False
    assert seen["numpy_import_blas"] == "1"
    assert seen["exit_gc"] is True and seen["exit_frozen"] > 10000
    if Path("/proc/self/task").is_dir():
        assert seen["threads"] == 1


def test_module_run_pauses_the_collector_for_imports_and_freezes_at_exit():
    _assert_process_policy(_process_start(MODULE_RUN, _env()))


def test_console_script_starts_as_the_module_run_does():
    _assert_process_policy(_process_start(_console_script(), _env()))


@pytest.mark.parametrize("var", BLAS_VARS)
def test_a_callers_blas_thread_setting_wins(var):
    seen = _process_start(MODULE_RUN, _env(**{var: "2"}))
    assert seen["numpy_import_gc"] is False
    assert seen["numpy_import_blas"] == ("2" if var == "OPENBLAS_NUM_THREADS" else None)


@pytest.mark.parametrize("outcome", [3, SystemExit(1)])
def test_process_main_freezes_around_main(monkeypatch, outcome):
    calls = []
    fake_gc = SimpleNamespace(freeze=lambda: calls.append("freeze"),
                              enable=lambda: calls.append("enable"))

    def fake_main():
        calls.append("main")
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setattr(cli, "gc", fake_gc)
    monkeypatch.setattr(cli, "main", fake_main)
    if isinstance(outcome, BaseException):
        with pytest.raises(SystemExit):
            cli.process_main()
    else:
        assert cli.process_main() == outcome
    assert calls == ["freeze", "enable", "main", "freeze"]


def test_console_script_is_the_main_block_entry(monkeypatch):
    # the script runs cli.py as __main__, as ``python -m pfaffrep.cli`` does ...
    module, name = _script_target()
    signature = inspect.signature(runpy.run_module)
    runs = []
    monkeypatch.setattr(runpy, "run_module",
                        lambda *a, **kw: runs.append(signature.bind(*a, **kw).arguments))
    getattr(import_module(module), name)()
    assert runs == [{"mod_name": "pfaffrep.cli", "run_name": "__main__", "alter_sys": True}]
    # ... and the module's last statement hands the process to process_main
    last = ast.parse(Path(cli.__file__).read_text()).body[-1]
    assert ast.unparse(last) == (
        "if __name__ == '__main__':\n    raise SystemExit(process_main())")
