"""The lazy package surface and the modules each CLI process loads."""

import ast
import hashlib
import importlib.util
import json
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import pfaffrep
from pfaffrep import DetRep, SkewPencil, SymDetRep
from pfaffrep import jsonio as io
from pfaffrep.cli import COMMANDS, dispatch, parse_problem
from pfaffrep.tolerances import draws
from conftest import bench_problems, random_pencil

# Every public name of the package, by defining module.
EXPORTS = {
    "bridge": ["BridgeResult", "bridge_to_decomposable"],
    "canonical": ["CanonicalReport", "StructureReport", "gauge_action", "off_pattern_norm",
                  "second_canonical_transform", "structure_report", "to_canonical",
                  "to_second_canonical", "validate_canonical", "validate_second_canonical"],
    "errors": ["CorankNotOne", "DegenerateDenominator", "DegenerateHessian",
               "InconsistentPolarData", "MultipleMatches", "NoAdmissiblePartner", "NoMatch",
               "NotAProductOfLines", "NotAdmissible", "NotInCanonicalForm", "NotOnBaseLocus",
               "NotUnimodular", "NumericalError", "PfaffrepError", "PreconditionError",
               "RankDeficiency", "RepeatedRoots", "SamePoint", "SampleOnExceptionalLine",
               "SchemaError", "SingularGamma", "SingularTransform", "SkewSymmetryViolation",
               "SpanFailure", "TangencyCheckFailed", "VectorNotInKernel"],
    "incidence": ["CurvePoint", "PairClassification", "classify_pair", "curve_point",
                  "k_constant", "line_points", "line_through", "partner_points",
                  "sample_curve_points", "tangent_line"],
    "pencil": ["DetRep", "KernelBasis", "SkewPencil", "congruence", "decomposable_from",
               "kernel_at", "pfaffian_adjoint_at", "pfaffian_minor", "pfaffian_numeric",
               "wedge_to_matrix"],
    "poly": ["HomPoly", "LinearForm", "ProjPoint", "equal_up_to_scale", "univariate_roots"],
    "quartic": ["CubicCoeffs", "PolarTriangle", "ScorzaRelation", "SymDetRep",
                "ThetaIdentification", "aronhold_invariant", "aronhold_matrix",
                "bitangent_from_octad", "corank_one_kernel", "factor_three_lines",
                "hessian_det", "identify_theta", "integrate_polar", "polar_cubic",
                "polar_cubic_at", "polar_triangle", "scorza_map", "scorza_related"],
    "tolerances": ["DEFAULT_POLICY", "TolerancePolicy"],
    "transforms": ["BundleCheckReport", "TransformRecord", "apply_record", "bundle_maps_check",
                   "conint", "conint_rho_for_type2", "inverse_step", "type1", "type2",
                   "verify_replay"],
}

# Layers no command needs before its handler runs.
DEFERRED = ["pfaffrep.quartic", "pfaffrep.bridge", "pfaffrep.transforms",
            "pfaffrep.canonical", "pfaffrep.incidence", "concurrent.futures"]

# The commands checked for not loading numpy.random: those that make a seeded
# choice, and canon, classify-pair, k-const, type1 and conint, which once drew one.
NO_NUMPY_RANDOM = ["canon", "classify-pair", "k-const", "type1", "conint", "bundle-check",
                   "bridge", "triangle", "factor-lines", "identify-theta", "bitangent"]


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_public_names_resolve_to_defining_module(module):
    mod = import_module(f"pfaffrep.{module}")
    listing = dir(pfaffrep)
    for name in EXPORTS[module]:
        assert name in pfaffrep.__all__
        assert name in listing
        assert getattr(pfaffrep, name) is getattr(mod, name)


def test_all_lists_exactly_the_public_names():
    assert sorted(pfaffrep.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    assert pfaffrep.__version__ == "0.1.0"


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        pfaffrep.no_such_name
    with pytest.raises(ImportError):
        from pfaffrep import no_such_name  # noqa: F401


def _loaded_after(script: str, stdin: str = "") -> list:
    """Modules in ``sys.modules`` after running ``script`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", script + "\nimport sys, json\n"
         "print(json.dumps(sorted(sys.modules)), file=sys.stderr)"],
        input=stdin, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.strip().splitlines()[-1])


def test_cli_import_loads_no_deferred_layer():
    loaded = _loaded_after("import pfaffrep.cli")
    assert "pfaffrep.pencil" in loaded
    assert [m for m in DEFERRED if m in loaded] == []


def test_pf_command_loads_no_deferred_layer():
    P = random_pencil(np.random.default_rng(3), 4)
    doc = {"kind": "pf", "payload": {"pencil": io.enc_pencil(P)}}
    loaded = _loaded_after(
        "import pfaffrep.cli as cli\n"
        "assert cli.main(['pf', '-', '--format', 'json']) == 0",
        json.dumps(doc))
    assert [m for m in DEFERRED if m in loaded] == []


def test_polar_cubic_command_loads_no_incidence():
    """Of the quartic commands only ``identify-theta`` samples curve points."""
    doc = _first_cli_small_docs()["polar-cubic"]
    loaded = _loaded_after(
        "import pfaffrep.cli as cli\n"
        "assert cli.main(['polar-cubic', '-', '--format', 'json']) == 0",
        json.dumps(doc))
    assert "pfaffrep.quartic" in loaded
    assert "pfaffrep.incidence" not in loaded


def _first_cli_small_docs():
    """The first problem document of each kind in the cli-small workload, seed 1."""
    problems = bench_problems()
    docs = {}
    for index in range(len(problems.WORKLOADS["cli-small"])):
        doc = problems.problem("cli-small", 1, index)["doc"]
        docs.setdefault(doc["kind"], doc)
    return docs


def test_drawing_commands_load_no_numpy_random():
    """Seeded choices come from the standard library's ``random``, which
    numpy loads anyway: no command pays for importing ``numpy.random``."""
    docs = _first_cli_small_docs()
    batch = [docs[kind] for kind in NO_NUMPY_RANDOM]
    loaded = _loaded_after(
        "import pfaffrep.cli as cli\n"
        "assert cli.main(['batch', '-', '--format', 'json']) == 0",
        json.dumps(batch))
    assert "pfaffrep.quartic" in loaded and "pfaffrep.bridge" in loaded
    assert "numpy.random" not in loaded


def test_a_single_problem_runs_as_a_batch_of_one(tmp_path, capsys):
    """``main([kind, file])`` and ``main(["batch", file of [doc]])`` agree on the
    exit code, the report and the error message, up to the batch slot's ``$[0]``."""
    from pfaffrep.cli import COMMANDS, main
    docs = _first_cli_small_docs()
    pf = docs["pf"]
    malformed = [{"kind": "bogus", "payload": {}}, {**pf, "payload": {}}, {**pf, "seed": -1}]
    single, batch = tmp_path / "single.json", tmp_path / "batch.json"
    for doc in [*docs.values(), *malformed]:
        single.write_text(json.dumps(doc))
        batch.write_text(json.dumps([doc]))
        command = doc["kind"] if doc["kind"] in COMMANDS else "run"
        code = main([command, str(single), "--format", "json"])
        alone = capsys.readouterr()
        assert main(["batch", str(batch), "--format", "json"]) == code, doc["kind"]
        (entry,) = json.loads(capsys.readouterr().out)
        if "error" in entry:
            assert code == entry["error"]["exit_code"] and not alone.out
            message = entry["error"]["message"].replace("(at $[0]", "(at $")
            assert alone.err.split(": ", 2)[2] == message + "\n"
        else:
            assert json.loads(alone.out) == entry and not alone.err
    assert code == 2 and "seed must be a nonnegative integer (at $.seed)" in alone.err


# The commands whose reports the README promises do not depend on the seed:
# all but the bridge.
SEED_FREE = sorted(set(COMMANDS) - {"bridge"})


def test_seed_free_commands_report_the_same_for_every_seed(problems):
    for kind in SEED_FREE:
        texts = []
        for seed in (0, 7):
            report = dispatch(parse_problem({**problems[kind], "seed": seed}))
            del report["seed"], report["_wall_time_s"]
            texts.append(json.dumps(report))
        assert texts[0] == texts[1], kind


def test_draws_repeat_and_extend():
    a = draws(5)(3, 2)
    assert a.shape == (3, 2) and a.dtype == complex
    assert np.array_equal(a, draws(5)(3, 2))
    assert np.array_equal(draws(5)(4)[:2], draws(5)(2))
    assert not np.array_equal(draws(6)(2), draws(5)(2))
    draw = draws(5)
    assert np.array_equal(np.concatenate([draw(2), draw(2)]), draws(5)(4))


def test_importing_the_layers_generates_no_code():
    """No module builds methods from source text at import (as ``dataclasses``
    does): every compile and exec after numpy is of a source file."""
    script = (
        "import sys, json, importlib\n"
        "import numpy\n"
        "generated = []\n"
        "def hook(event, args):\n"
        "    if event in ('compile', 'exec'):\n"
        "        name = args[1] if event == 'compile' else args[0].co_filename\n"
        "        if not isinstance(name, str) or name.startswith('<'):\n"
        "            generated.append([event, str(name)])\n"
        "sys.addaudithook(hook)\n"
        "for m in ('cli', 'canonical', 'incidence', 'transforms', 'bridge', 'quartic'):\n"
        "    importlib.import_module('pfaffrep.' + m)\n"
        "print(json.dumps([generated, 'dataclasses' in sys.modules]), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    generated, dataclasses_loaded = json.loads(proc.stderr.strip().splitlines()[-1])
    assert generated == []
    assert not dataclasses_loaded


def test_cli_imports_no_private_library_name():
    """The CLI uses what the library offers: no ``_``-prefixed name is imported."""
    import ast
    tree = ast.parse((Path(pfaffrep.__file__).parent / "cli.py").read_text())
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_no_memoizing_cache():
    """No function result is kept across calls by a ``functools`` cache."""
    src = Path(pfaffrep.__file__).parent
    caches = re.compile(r"\bfunctools\.cache\b|\blru_cache\b|@cache\b")
    assert [p.name for p in sorted(src.glob("*.py")) if caches.search(p.read_text())] == []


def test_one_svd_call_site():
    """Every rank, kernel and full-rank decision goes through ``tolerances.null_space``."""
    src = Path(pfaffrep.__file__).parent
    sites = {p.name: p.read_text().count("np.linalg.svd") for p in sorted(src.glob("*.py"))}
    assert {name: n for name, n in sites.items() if n} == {"tolerances.py": 1}


def _functions_containing(path: Path, pattern: str) -> list[str]:
    """The top-level functions of ``path`` whose source matches ``pattern``."""
    import ast
    text = path.read_text()
    return [node.name for node in ast.parse(text).body if isinstance(node, ast.FunctionDef)
            and re.search(pattern, ast.get_source_segment(text, node))]


def test_one_canonical_shape_comparison():
    """Both canonical forms are checked by one residual against one shape."""
    path = Path(pfaffrep.__file__).parent / "canonical.py"
    assert _functions_containing(path, r"np\.abs\(P\.A[12]\b[^)]* - ") == ["_shape_residual"]


def test_one_root_separation_rule():
    """Roots count as distinct by one rule, ``poly.close_pair``, and the
    curve's points on a line (``incidence.line_points``), the three-line
    roots and the bridge's diagonal all use it."""
    src = Path(pfaffrep.__file__).parent
    sites = {p.name: _functions_containing(p, r"rank_tol \* float\(np\.max\(np\.abs")
             for p in sorted(src.glob("*.py"))}
    assert {name: f for name, f in sites.items() if f} == {"poly.py": ["close_pair"]}
    users = {p.name: _functions_containing(p, r"\bclose_pair\(") for p in sorted(src.glob("*.py"))}
    assert {name: f for name, f in users.items() if f} == {
        "bridge.py": ["bridge_to_decomposable"], "incidence.py": ["line_points"],
        "poly.py": ["close_pair"], "quartic.py": ["factor_three_lines"]}


def test_one_eigenproblem_for_curve_points():
    """Curve points on a line come from one ``eigvals`` in ``incidence.line_points``;
    no other function calls ``np.linalg.eig*``."""
    src = Path(pfaffrep.__file__).parent
    sites = {p.name: _functions_containing(p, r"np\.linalg\.eig") for p in sorted(src.glob("*.py"))}
    assert {name: f for name, f in sites.items() if f} == {"incidence.py": ["line_points"]}


def test_bridge_reads_points_and_kernels_off_the_pencil():
    """The bridge's sampled candidates come from ``incidence.line_points`` on the
    current pencil: no pfaffian polynomial, no polynomial sampling and no
    ``kernel_at`` of its own."""
    text = (Path(pfaffrep.__file__).parent / "bridge.py").read_text()
    assert "line_points(" in text
    assert [w for w in (".pfaffian(", "sample_curve_points", "kernel_at(") if w in text] == []


def test_line_points_reads_kernels_with_kernel_at():
    """``incidence.line_points`` reads each point's kernel with ``pencil.kernel_at``,
    the one ``null_space`` rule, and orthonormalizes no eigenvectors of its own."""
    path = Path(pfaffrep.__file__).parent / "incidence.py"
    assert ("incidence.py", "line_points") in {(f, fn) for f, fn, _ in _calls("kernel_at")}
    assert "line_points" not in _functions_containing(path, r"np\.linalg\.qr")


def test_partner_points_takes_no_roots():
    """``incidence.partner_points`` solves one equation linear in its line's parameter:
    it restricts no polynomial to the line and takes no roots."""
    path = Path(pfaffrep.__file__).parent / "incidence.py"
    assert "partner_points" not in _functions_containing(path, r"univariate_roots|restrict_line")


def test_partner_points_asks_for_no_pfaffian():
    """``incidence.partner_points`` reports its point's residual from the numeric
    pfaffian of ``A(mu)``: it builds no pfaffian polynomial."""
    path = Path(pfaffrep.__file__).parent / "incidence.py"
    assert "partner_points" not in _functions_containing(path, r"\.pfaffian\(")


def test_canonical_form_asks_for_no_pfaffian():
    """``to_canonical`` reads its roots off the pencil, as eigenvalues of
    ``-A1^-1 A2``: the canonical module computes no pfaffian polynomial."""
    text = (Path(pfaffrep.__file__).parent / "canonical.py").read_text()
    assert ".pfaffian(" not in text



def test_one_decomposability_threshold():
    """Decomposable is decided against one threshold, ``canonical.negligible_norm``,
    which ``structure_report`` and the bridge both read; ``bridge.py`` has none
    of its own."""
    src = Path(pfaffrep.__file__).parent
    sites = {p.name: p.read_text().count("0.1 * policy.match_tol")
             for p in sorted(src.glob("*.py"))}
    assert {name: n for name, n in sites.items() if n} == {"canonical.py": 1}
    assert _functions_containing(src / "canonical.py", r"0\.1 \* policy\.match_tol") == [
        "negligible_norm"]
    bridge = (src / "bridge.py").read_text()
    assert "negligible_norm(" in bridge
    assert not re.search(r"match_tol|\bdef stopping_target\b", bridge)


def test_one_affine_chart_rule():
    """Only ``ProjPoint.in_chart`` compares a point's ``x0`` with a tolerance, and the
    bridge, whose steps need only kernel vectors, asks for no chart at all."""
    src = Path(pfaffrep.__file__).parent
    x0_test = re.compile(r"abs\([\w.]+\[0\]\)\s*[<>]=?\s*policy\.\w+_tol")
    sites = {p.name: len(x0_test.findall(p.read_text())) for p in sorted(src.glob("*.py"))}
    assert {name: n for name, n in sites.items() if n} == {"poly.py": 1}
    assert "in_chart" not in (src / "bridge.py").read_text()

def test_bridge_computes_no_kernel_residual():
    """The bridge checks kernel membership with ``incidence._require_kernel``."""
    text = (Path(pfaffrep.__file__).parent / "bridge.py").read_text()
    assert "_require_kernel(" in text
    assert not re.search(r"norm\(A @|A @ v\b", text)


def _calls(name: str) -> list:
    """``(module file, innermost enclosing function, call)`` for every call of
    ``name`` in the package."""
    owner = {}
    for path in sorted(Path(pfaffrep.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):  # ast.walk reaches outer functions first
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name:
                        owner[node] = (path.name, fn.name)
    return [(*where, node) for node, where in owner.items()]


def test_only_the_bridge_draws_from_a_seed():
    """Every generic choice but the bridge's comes from the fixed stream
    ``draws(0)``: ``draws`` takes a variable only in ``sample_curve_points``
    and in the bridge's own line draws, and no module passes
    ``sample_curve_points`` a seed."""
    variable = [(f, fn) for f, fn, call in _calls("draws")
                if not (isinstance(call.args[0], ast.Constant) and call.args[0].value == 0)]
    assert sorted(variable) == [("bridge.py", "bridge_to_decomposable"),
                                ("incidence.py", "sample_curve_points")]
    seeded = {f for f, _, call in _calls("sample_curve_points")
              if len(call.args) > 2 or any(k.arg == "seed" for k in call.keywords)}
    assert seeded == set()


def test_canonical_form_draws_nothing():
    """``to_canonical`` takes no seed: the canonical module never draws."""
    import inspect
    from pfaffrep.canonical import to_canonical
    text = (Path(pfaffrep.__file__).parent / "canonical.py").read_text()
    assert "draws" not in text
    assert "seed" not in inspect.signature(to_canonical).parameters


def test_one_random_source():
    """Every seeded choice comes from ``tolerances.draws``, on ``random.Random``."""
    src = Path(pfaffrep.__file__).parent
    texts = {p.name: p.read_text() for p in sorted(src.glob("*.py"))}
    assert [name for name, text in texts.items() if "np.random" in text] == []
    streams = {name: text.count("random.Random(") for name, text in texts.items()}
    assert {name: n for name, n in streams.items() if n} == {"tolerances.py": 1}


def test_one_constant_part_update():
    """Every step's constant-part change is ``transforms._gamma_update``: neither
    the transforms nor the bridge build wedges or sigma products of their own."""
    src = Path(pfaffrep.__file__).parent
    texts = {name: (src / name).read_text() for name in ("transforms.py", "bridge.py")}
    for name, text in texts.items():
        assert "wedge_to_matrix" not in text, name
    assert texts["transforms.py"].count("sigma1 @") == 1
    assert "sigma1 @" not in texts["bridge.py"]
    assert "_gamma_update(" in texts["bridge.py"]


def test_one_linear_pencil_base():
    """Every pencil's value, scale, entries and pairings come from one base,
    and no module names the three coefficient matrices one by one."""
    for cls in (SkewPencil, DetRep, SymDetRep):
        assert {"__call__", "scale", "entry", "pairing"}.isdisjoint(vars(cls)), cls
    src = Path(pfaffrep.__file__).parent
    triples = re.compile(r"\.A0\b.*\.A1\b.*\.A2\b|\.M0\b.*\.M1\b.*\.M2\b")
    for path in sorted(src.glob("*.py")):
        assert not triples.search(path.read_text()), path.name


def test_cli_holds_no_threshold_literal():
    """The tolerances a report declares live in ``tolerances.py``; only the
    divide-by-zero guard ``1e-300`` stays in ``cli.py``."""
    text = (Path(pfaffrep.__file__).parent / "cli.py").read_text()
    assert set(re.findall(r"\b\d+(?:\.\d*)?e-\d+", text)) <= {"1e-300"}


def test_only_tolerances_holds_threshold_literals():
    """Every fixed threshold is named in ``tolerances.py``; elsewhere the only
    literal of that form is the divide-by-zero guard ``1e-300``."""
    src = Path(pfaffrep.__file__).parent
    found = {p.name: set(re.findall(r"\b\d+(?:\.\d*)?e-\d+", p.read_text())) - {"1e-300"}
             for p in sorted(src.glob("*.py")) if p.name != "tolerances.py"}
    assert {name: lits for name, lits in found.items() if lits} == {}


# The per-record encoders that ``jsonio.enc_value`` replaced.
REMOVED_ENCODERS = ["enc_kernel", "enc_canonical_report", "enc_structure", "enc_classification",
                    "enc_triangle", "enc_relation", "enc_theta", "enc_bundle_report",
                    "enc_cubic_coeffs", "enc_record", "enc_linear_form"]


def test_one_output_encoder():
    """Handlers return library values; ``dispatch`` encodes every report's
    outputs with its one ``jsonio.enc_value`` call."""
    text = (Path(pfaffrep.__file__).parent / "cli.py").read_text()
    assert re.findall(r"\bio\.enc_\w*\(.*", text) == ["io.enc_value(outputs)"]
    assert [name for name in REMOVED_ENCODERS if hasattr(io, name)] == []


def test_one_field_decoder():
    """Every payload and nested wire object is declared through ``jsonio.dec_fields``:
    the CLI keeps no field language of its own and ``jsonio`` no second one."""
    import pfaffrep.cli as cli
    assert [name for name in ("_decode", "_field", "_path") if hasattr(cli, name)] == []
    assert not hasattr(io, "_matrices")
    assert [c for c in io.dec_record.__code__.co_consts if hasattr(c, "co_code")] == []
    text = (Path(pfaffrep.__file__).parent / "cli.py").read_text()
    assert text.count("io.dec_fields(") == 1


@pytest.mark.skipif(not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
                    reason="this interpreter has no builtin sha256 module")
def test_pf_command_loads_no_openssl():
    """The inputs digest uses CPython's builtin sha256, not ``hashlib``'s OpenSSL."""
    P = random_pencil(np.random.default_rng(3), 4)
    doc = {"kind": "pf", "payload": {"pencil": io.enc_pencil(P)}}
    loaded = _loaded_after(
        "import pfaffrep.cli as cli\n"
        "assert cli.main(['pf', '-', '--format', 'json']) == 0",
        json.dumps(doc))
    assert "hashlib" not in loaded and "_hashlib" not in loaded


def test_inputs_digest_is_the_sha256_of_the_sorted_payload():
    from pfaffrep.cli import dispatch, parse_problem
    payload = {"pencil": io.enc_pencil(random_pencil(np.random.default_rng(3), 4))}
    report = dispatch(parse_problem({"kind": "pf", "payload": payload}))
    text = json.dumps(payload, sort_keys=True).encode()
    assert report["inputs_digest"] == hashlib.sha256(text).hexdigest()[:16]
