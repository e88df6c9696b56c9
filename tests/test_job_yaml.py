"""Job documents and reports go through one YAML loader and one dumper.

``ncres.cli`` picks libyaml's safe classes where PyYAML was built with them
and the pure-Python safe classes otherwise.  Both must read every job
document to the same job, print byte-identical canonical sections, refuse
malformed YAML and repeated keys with exit 2, and keep the ``print_job``
round trip.  A static check keeps every other YAML call out of
``src/ncres``, so that the pure-Python path cannot come back unnoticed.
"""

import ast

import pytest
import yaml

from ncres import cli
from ncres.cli import CANONICAL_MARK, main, parse_job, print_job
from ncres.ring import ParseError
from test_golden import (BENCHMARK_DIGESTS, GOLDEN, JOBS, ROOT,
                         benchmark_jobs, digest_lines, outcome)

SRC = ROOT / "src" / "ncres"


class _PureLoader(cli._UniqueKeys, yaml.SafeLoader):
    pass


BACKENDS = {"default": (cli._Loader, cli._Dumper),
            "pure": (_PureLoader, yaml.SafeDumper)}


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, monkeypatch):
    loader, dumper = BACKENDS[request.param]
    monkeypatch.setattr(cli, "_Loader", loader)
    monkeypatch.setattr(cli, "_Dumper", dumper)
    return request.param


def test_libyaml_is_used_when_present():
    if not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    assert issubclass(cli._Loader, yaml.CSafeLoader)
    assert cli._Dumper is yaml.CSafeDumper


@pytest.fixture(scope="module")
def benchmark_reports():
    """(name, outcome, report object) for every benchmark document at
    seed 1, run once with the default back end: the outcome is the
    canonical section, or the refusal text of a malformed document, whose
    report object is None; the report object is what ``run_job`` hands the
    dumper."""
    out = []
    real = cli._dump_yaml
    for name, doc in dict(benchmark_jobs(1)).items():
        seen = []

        def spy(value, **options):
            seen.append(value)
            return real(value, **options)

        cli._dump_yaml = spy
        try:
            text = outcome(doc)
        finally:
            cli._dump_yaml = real
        out.append((name, text, seen[0] if seen else None))
    assert sum(report is not None for _, _, report in out) >= 50
    return out


def _all_documents():
    return list(JOBS.items()) + benchmark_jobs(1)


def test_benchmark_canonical_sections_byte_identical(backend,
                                                     benchmark_reports):
    for name, canonical, report in benchmark_reports:
        if report is None:
            continue
        text = CANONICAL_MARK + "\n" + cli._dump_yaml(
            report, default_flow_style=None)
        assert text == canonical, name


def test_benchmark_outcomes_match_pinned_digests(benchmark_reports):
    """Each benchmark document's canonical section, or refusal text, hashes
    to its line of ``golden/benchmark-seed1.sha256``."""
    want = BENCHMARK_DIGESTS.read_text(encoding="utf-8")
    assert digest_lines((name, text) for name, text, _ in
                        benchmark_reports) == want


@pytest.mark.parametrize("name", sorted(JOBS))
def test_golden_canonical_sections_byte_identical(backend, name):
    """The golden report read back and printed again is the golden file;
    ``test_golden`` pins that the engine's report prints to it."""
    want = (GOLDEN / f"{name}.yml").read_text(encoding="utf-8")
    body = want[len(CANONICAL_MARK) + 1:]
    assert CANONICAL_MARK + "\n" + cli._dump_yaml(
        cli._load_yaml(body), default_flow_style=None) == want


def test_back_ends_read_and_print_alike(monkeypatch):
    """Every document reads to the same job under both back ends, prints
    to the same text, and reads back from that text to the same job."""
    printed = {}
    for label, (loader, dumper) in sorted(BACKENDS.items()):
        monkeypatch.setattr(cli, "_Loader", loader)
        monkeypatch.setattr(cli, "_Dumper", dumper)
        printed[label] = []
        for name, doc in _all_documents():
            job = parse_job(doc)
            text = print_job(job)
            assert parse_job(text) == job, (label, name)
            printed[label].append(text)
    assert printed["default"] == printed["pure"]


RING = "ring: {char: 101, vars: [x, y]}\n"
MODULES = ("module k: {gens: [0], relations: [[x], [y]]}\n"
           "module R: {gens: [0], relations: []}\n")


@pytest.mark.parametrize("doc", [
    "ring: [\ncommand: grade\n",
    RING + "module k: {gens: [0], relations: [[x], [y]]\ncommand: grade\n",
    RING + "command: grade\n  module: k\n bad: 1\n",
    RING + "command: grade\nmodule: k\n\tc: 1\n",
    RING + "command: *nowhere\n",
], ids=["open-flow", "unclosed-map", "bad-indent", "tab", "bad-alias"])
def test_malformed_yaml_exits_two(backend, tmp_path, capsys, doc):
    path = tmp_path / "job.yml"
    path.write_text(doc, encoding="utf-8")
    assert main(["--job", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: job document: ")


@pytest.mark.parametrize("doc,key,line", [
    (RING + MODULES + "command: grade\nmodule: k\nmodule: R\n", "module", 6),
    ("ring: {char: 101, vars: [x, y], char: 103}\n" + MODULES
     + "command: grade\nmodule: k\n", "char", 1),
    ("ring:\n  char: 101\n  vars: [x, y]\n  vars: [x]\n" + MODULES
     + "command: grade\nmodule: k\n", "vars", 4),
], ids=["top-level", "ring-flow", "ring-block"])
def test_duplicate_key_exits_two(backend, tmp_path, capsys, doc, key, line):
    """A repeated key would otherwise keep only its last value and run.
    The message names the job file, or the text handed to parse_job."""
    path = tmp_path / "job.yml"
    path.write_text(doc, encoding="utf-8")
    assert main(["--job", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: job document: duplicate key {key!r}\n")
    assert f"line {line}," in err
    assert f'  in "{path}", line {line},' in err
    with pytest.raises(ParseError, match=f'"<unicode string>", line {line},'):
        parse_job(doc)


def test_merge_and_value_keys_load_as_before(backend):
    """A key that overrides a merged one is not a repeat, and the special
    keys << and = read as PyYAML's safe loader reads them.  The merge sits
    in a module mapping: parse_job refuses a top-level key that the
    command does not read."""
    doc = (RING + "module k: &k {gens: [0], relations: [[x], [y]]}\n"
           "module m: {<<: *k, relations: [[x]]}\n"
           "command: grade\nmodule: m\n")
    m = parse_job(doc).modules["m"]
    assert (m.gen_degrees, m.relations.source_rank) == ((0,), 1)
    doc += "'=': 3\n"
    assert cli._load_yaml(doc) == yaml.safe_load(doc)
    assert cli._load_yaml("=: 1\n") == yaml.safe_load("=: 1\n") == {"=": 1}


# -- no other YAML entry point in src/ncres ----------------------------------

YAML_CALLS = {"load", "safe_load", "full_load", "unsafe_load", "load_all",
              "safe_load_all", "full_load_all", "unsafe_load_all", "dump",
              "safe_dump", "dump_all", "safe_dump_all"}
# the one loader/dumper pair: (file, function) -> the yaml call it may make
ALLOWED = {("cli.py", "_load_yaml"): "load", ("cli.py", "_dump_yaml"): "dump"}


def yaml_calls(source: str, filename: str):
    """(line, call) of every yaml load or dump outside the allowed pair,
    and of every such name imported from yaml."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "yaml"
                and node.func.attr in YAML_CALLS
                and ALLOWED.get((filename, func)) != node.func.attr):
            out.append((node.lineno, node.func.attr))
        if isinstance(node, ast.ImportFrom) and node.module == "yaml":
            out.extend((node.lineno, a.name) for a in node.names
                       if a.name in YAML_CALLS or a.name == "*")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return out


def test_yaml_calls_detects_stray_calls():
    src = ("import yaml\n"
           "from yaml import safe_load\n"
           "def _load_yaml(text):\n"
           "    return yaml.load(text, Loader=L)\n"
           "def _dump_yaml(doc):\n"
           "    return yaml.dump(doc), yaml.load(doc)\n"
           "def other(text):\n"
           "    return yaml.safe_load(text) or yaml.load(text)\n"
           "X = yaml.safe_dump({})\n")
    assert yaml_calls(src, "cli.py") == [
        (2, "safe_load"), (6, "load"), (8, "safe_load"), (8, "load"),
        (9, "safe_dump")]
    assert [call for _, call in yaml_calls(src, "ring.py")].count("load") == 3


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_src_has_one_yaml_loader_and_dumper(path):
    assert yaml_calls(path.read_text(encoding="utf-8"), path.name) == []
