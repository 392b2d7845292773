"""The garbage-collector policy of a CLI process.

``python -m pfaffrep.cli`` and the ``pfaffrep`` script pause the collector
while the modules load, freeze the loaded objects, collect during the
problem, and freeze again before the interpreter finalizes.  A library
caller of ``import pfaffrep.cli`` or ``cli.main`` keeps its own collector.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pfaffrep import cli
from pfaffrep import jsonio as io
from conftest import random_pencil

ROOT = Path(__file__).resolve().parents[1]


def _pf_problem() -> str:
    P = random_pencil(np.random.default_rng(3), 4)
    return json.dumps({"kind": "pf", "payload": {"pencil": io.enc_pencil(P)}})


def _last_stderr_json(script: str, stdin: str):
    """Run ``script`` in a fresh interpreter; the JSON it printed last on stderr."""
    proc = subprocess.run([sys.executable, "-c", script], input=stdin,
                          capture_output=True, text=True)
    return proc, json.loads(proc.stderr.strip().splitlines()[-1])


@pytest.mark.parametrize("enabled", [True, False])
def test_library_calls_keep_the_callers_collector(enabled):
    script = (
        "import gc, json, sys\n"
        f"{'' if enabled else 'gc.disable()'}\n"
        "import pfaffrep.cli as cli\n"
        "seen = [[gc.isenabled(), gc.get_freeze_count()]]\n"
        "code = cli.main(['pf', '-', '--format', 'json'])\n"
        "seen.append([gc.isenabled(), gc.get_freeze_count()])\n"
        "print(json.dumps([code, seen]), file=sys.stderr)\n")
    proc, (code, seen) = _last_stderr_json(script, _pf_problem())
    assert code == 0 and json.loads(proc.stdout)["command"] == "pf"
    assert seen == [[enabled, 0], [enabled, 0]]


def test_module_run_pauses_the_collector_for_imports_and_freezes_at_exit():
    # runpy runs the module as ``__main__``, exactly as ``python -m`` does
    script = (
        "import atexit, gc, json, runpy, sys\n"
        "seen = {}\n"
        "def hook(event, args):\n"
        "    if event == 'import' and args[0] == 'numpy':\n"
        "        seen.setdefault('numpy_import_gc', gc.isenabled())\n"
        "sys.addaudithook(hook)\n"
        "atexit.register(lambda: print(json.dumps({**seen, 'exit_gc': gc.isenabled(),\n"
        "    'exit_frozen': gc.get_freeze_count()}), file=sys.stderr))\n"
        "sys.argv = ['pfaffrep', 'pf', '-', '--format', 'json']\n"
        "runpy.run_module('pfaffrep.cli', run_name='__main__')\n")
    proc, seen = _last_stderr_json(script, _pf_problem())
    assert proc.returncode == 0 and json.loads(proc.stdout)["command"] == "pf"
    assert seen["numpy_import_gc"] is False
    assert seen["exit_gc"] is True and seen["exit_frozen"] > 10000


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


def _main_guard_calls(tree: ast.Module) -> set:
    """Names called inside the module's ``if __name__ == "__main__":`` blocks."""
    calls = set()
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            calls |= {n.func.id for n in ast.walk(node)
                      if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    return calls - {"SystemExit"}


def test_console_script_is_the_main_block_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pfaffrep"]
    module, _, name = target.partition(":")
    assert module == "pfaffrep.cli"
    assert _main_guard_calls(ast.parse(Path(cli.__file__).read_text())) == {name}
    assert getattr(cli, name) is cli.process_main
