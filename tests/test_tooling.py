"""Repository rules that are cheaper to check than to remember."""

import argparse
import ast
import builtins
import contextlib
import functools
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import umarfid
from umarfid import cli, harness
from umarfid.protocol import MSG_A, MSG_B, Bench, Channel

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "umarfid"
README = SRC.parent.parent / "README.md"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_correctness_check_in_an_assert(path):
    # python -O strips assert statements, so a check written as one would
    # silently vanish; raise an exception instead
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"{path.name}: assert at line(s) {found}"


def test_the_source_tree_is_found():
    assert len(list(SRC.glob("*.py"))) >= 7


def imported_modules(path):
    """Top-level names of every absolute import in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module != "__future__":  # a compiler directive
                yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_public_standard_library_modules(path):
    # the package has no runtime dependencies, and a private module such
    # as _random is an interpreter detail, not part of the library
    found = [
        (line, name)
        for line, name in imported_modules(path)
        if name not in sys.stdlib_module_names or name.startswith("_")
    ]
    assert not found, f"{path.name}: non-standard or private import(s) {found}"


def random_module_calls(path):
    """Lines of a source file that call into the random module: random.X(...),
    or a name bound by `from random import ...`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "random"
                for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id == "random") or (
                    isinstance(func, ast.Name) and func.id in imported):
                yield node.lineno


def test_only_word_builds_a_generator():
    # word.stream is the one place a generator is built, so a new kind of
    # stream replaces that function and nothing else
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if path.name != "word.py" and (lines := list(random_module_calls(path)))}
    assert not found, f"random module called outside word.py: {found}"
    assert list(random_module_calls(SRC / "word.py"))  # the check can see a call


# Modules a serial CLI run has no use for: the process pool and what it
# pulls in, and the two modules the records once needed for their types
# and their attempt statistics.
NOT_FOR_A_SERIAL_RUN = (
    "concurrent.futures", "multiprocessing", "statistics", "dataclasses", "inspect",
)


def modules_after(code: str) -> set[str]:
    """Names in sys.modules once a fresh interpreter has run code."""
    done = subprocess.run(
        [sys.executable, "-c", code + "\nprint(*sys.modules, sep='\\n')"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_a_serial_run_imports_no_pool_dataclasses_or_statistics():
    # each costs milliseconds at start-up, which a default run of a few
    # hundred trials pays again on every launch
    bare = modules_after("import sys")
    run = modules_after(
        "import contextlib, io, sys\n"
        "from umarfid import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = cli.main(['attack', 'clone', '--trials', '3'])\n"
        "if code != 0 or 'successes=3' not in out.getvalue():\n"
        "    sys.exit(f'the run failed with exit code {code}')\n"
    )
    loaded = [
        name for name in sorted(run - bare)
        if any(name == m or name.startswith(m + ".") for m in NOT_FOR_A_SERIAL_RUN)
    ]
    assert not loaded, f"a serial run imported {loaded}"


@pytest.mark.parametrize("argv", [
    ["attack", "clone"], ["attack", "desync-mitm", "--bits", "8"], ["game"], ["session"],
], ids=["AttackReport", "AttackReport-8bit", "GameOutcome", "TrialResult"])
def test_streamed_json_lines_builds_no_record_dict(monkeypatch, argv):
    # rendering through a dict and json.dumps per record once cost a fifth
    # of a clone trial; this fails if a run quietly goes back to it
    dumped = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: dumped.append(obj) or dumps(obj, **kw))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv + ["--trials", "50", "--format", "json-lines"])
    assert code == 0
    assert [list(obj) for obj in dumped] == [["summary"]]  # json.dumps ran once, for the summary
    lines = out.getvalue().splitlines()
    assert len(lines) == 51
    assert [json.loads(line)["trial"] for line in lines[:50]] == list(range(50))


def string_constants(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_experiment_names_live_only_in_the_table():
    # the CLI takes its subcommands, attack names and defaults from
    # harness.EXPERIMENTS; a name spelled in cli.py would be a second copy
    found = string_constants(SRC / "cli.py") & set(harness.EXPERIMENTS)
    assert not found, f"cli.py spells experiment name(s) {sorted(found)}"
    assert "clone" in string_constants(SRC / "harness.py")  # the check can see a name


def top_level_definitions(tree):
    """(name, statement) for each name a module's top level defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def loaded_definitions(module, tree):
    """(module, name) of each top-level name the module's code loads, outside
    the statement that defines it: a bare name (its own, or one bound by
    `from .other import name`) or an attribute of an imported sibling module."""
    defined = list(top_level_definitions(tree))
    names = {name: (module, name) for name, _ in defined}
    modules = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module:
                    names[alias.asname or alias.name] = (node.module, alias.name)
                else:
                    modules[alias.asname or alias.name] = alias.name
    for statement in tree.body:
        own = {name for name, node in defined if node is statement}
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in names and node.id not in own:
                    yield names[node.id]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    yield modules[node.value.id], node.attr


# benchmarks/workload.py traces it, though the CLI renders through render_records
UNUSED_BUT_TRACED = {("harness", "render")}


def test_every_public_name_is_exported_or_used_by_the_package():
    # a public name that only tests use is test code living in src; move
    # it into tests/, or let src use it (a docstring mention is not a use)
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    init = trees.pop("__init__")
    exported = {(node.module, alias.name) for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = {key for module, tree in trees.items() for key in loaded_definitions(module, tree)}
    public = {(module, name) for module, tree in trees.items()
              for name, _ in top_level_definitions(tree) if not name.startswith("_")}
    assert ("protocol", "Bench") in public and ("attacks", "recover_key") in exported
    unused = sorted(public - exported - used - UNUSED_BUT_TRACED)
    assert not unused, f"public names neither exported nor used in src: {unused}"


def test_readme_lists_exactly_the_package_exports():
    # README's Library section has a table, one row per module, of the
    # names `import umarfid` gives
    tree = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    library = README.read_text().split("\n## Library\n")[1].split("\n## ")[0]
    rows = [line for line in library.splitlines() if line.startswith("| `umarfid.")]
    listed = [name for row in rows for cell in row.split("|")[2:]
              for name in re.findall(r"`(\w+)`", cell)]
    assert len(rows) == 5
    assert sorted(listed) == sorted(exported)



def test_readme_command_lines_parse():
    # each `umarfid ...` line of README's Command line block, its comment
    # cut, parses: a flag renamed or removed in the CLI must not stay documented
    section = README.read_text().split("\n## Command line\n")[1].split("\n## ")[0]
    lines = [line.partition("#")[0].split()[1:]
             for line in section.split("```\n")[1].splitlines() if line.startswith("umarfid ")]
    assert len(lines) >= 9  # the block was found
    for argv in lines:
        cli.config_from_args(cli.build_parser().parse_args(argv))


def transcript_line_patterns():
    """README's documented transcript lines, each as a regex: <i> is a count,
    <hex> a word, <x|y> one of its choices and [...] an optional part."""
    text = README.read_text()
    forms = [" ".join(span.split()) for span in re.findall(r"`(session=[^`]*)`", text)]
    forms += [line.strip() for line in text.splitlines() if line.strip().startswith("session=")]
    patterns = []
    for form in forms:
        regex = ""
        for piece in re.split(r"(<(?:->|[^<>])+>|\[|\])", form):
            if piece in ("[", "]"):
                regex += "(?:" if piece == "[" else ")?"
            elif piece.startswith("<"):
                name = piece[1:-1]
                regex += {"i": r"\d+", "hex": "[0-9a-f]+"}.get(
                    name, "(?:" + "|".join(map(re.escape, name.split("|"))) + ")")
            else:
                regex += re.escape(piece)
        patterns.append(re.compile(regex))
    return patterns


def test_readme_states_the_transcript_line_format():
    # one session whose IDT is delivered, whose A is blocked and whose B is flipped
    bench = Bench(16, 0)
    channel = Channel()
    channel.block(0, MSG_A)
    channel.flip(0, MSG_B, 0x0101)
    lines = bench.run_honest(channel).lines(16)
    assert all(f"disposition={d}" in "\n".join(lines) for d in ("delivered", "blocked", "replaced"))
    patterns = transcript_line_patterns()
    for line in lines:
        assert any(p.fullmatch(line) for p in patterns), f"README does not state {line!r}"


# a backticked name, dotted or not, alone or called: `Bench.adv_rng`, `Bench(...)`
README_NAME = re.compile(r"`([A-Z]\w*(?:\.\w+)*)[`(]")


def resolves(owner, dotted):
    try:
        functools.reduce(getattr, dotted.split("."), owner)
    except AttributeError:
        return False
    return True


def test_readme_names_only_things_that_exist():
    # a capitalized name README puts in backticks is a builtin or lives in
    # the package, so a class or attribute removed from src must leave the
    # prose too; protocol symbols such as `IDT` or `K` have no lowercase letter
    owners = [builtins, umarfid, *(importlib.import_module(f"umarfid.{path.stem}")
                                   for path in sorted(SRC.glob("[!_]*.py")))]
    names = {name for name in README_NAME.findall(README.read_text()) if re.search("[a-z]", name)}
    assert {"Bench.adv_rng", "SessionTranscript.lines", "ValueError"} <= names  # all forms read
    missing = [name for name in sorted(names) if not any(resolves(o, name) for o in owners)]
    assert not missing, f"README names {missing}, which nothing in umarfid or builtins defines"


FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def test_readme_names_only_options_of_the_cli():
    # every --flag README names, in its prose too, is an option of some
    # umarfid subcommand: a flag removed from the CLI must not stay documented
    helps = []
    for words in {experiment.words for experiment in harness.EXPERIMENTS.values()}:
        with contextlib.redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit):
            cli.build_parser().parse_args([*words, "--help"])
        helps.append(out.getvalue())
    options = set(FLAG.findall("".join(helps)))
    named = set(FLAG.findall(README.read_text()))
    assert {"--out", "--followups", "--executes"} <= named & options  # both were read
    assert not named - options, f"README names {sorted(named - options)}"


def test_every_config_flag_states_its_trial_config_default():
    # a config flag that is not given leaves its field to TrialConfig, so its
    # help names that default; --trials is left out, as each experiment sets its own
    defaults = harness.TrialConfig._field_defaults
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)).choices
    checked = set()
    for parser in subcommands.values():
        for action in parser._actions:
            if action.dest in defaults and action.dest != "trials":
                shown = f"(default {defaults[action.dest]})"
                assert shown in action.help, f"{action.option_strings} help {action.help!r}"
                checked.add(action.dest)
    assert checked == set(defaults) - {"trials"}  # every config field has a flag


def outcome_identity_checks(source):
    """Line of each `is` / `is not` comparison with an outcome operand:
    Outcome.<NAME>, or any attribute named `outcome` (such as t.outcome)."""
    def is_outcome(node):
        return isinstance(node, ast.Attribute) and (
            node.attr == "outcome"
            or isinstance(node.value, ast.Name) and node.value.id == "Outcome"
            or isinstance(node.value, ast.Attribute) and node.value.attr == "Outcome")

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if isinstance(op, (ast.Is, ast.IsNot)) and (
                        is_outcome(operands[i]) or is_outcome(operands[i + 1])):
                    yield node.lineno


def test_the_outcome_check_sees_both_forms():
    source = "x is not protocol.Outcome.BLOCKED or Outcome.BLOCKED is y or x == Outcome.A"
    assert list(outcome_identity_checks(source)) == [1, 1]
    source = "t.outcome is expected[label]\ngot.outcome is want.outcome\nt.outcome == want.outcome"
    assert list(outcome_identity_checks(source)) == [1, 2]


@pytest.mark.parametrize("path", sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_outcomes_are_compared_by_value(path):
    # an outcome is a plain string, and one parsed back from a record is
    # equal to Outcome.X without being the same object
    found = list(outcome_identity_checks(path.read_text()))
    assert not found, f"{path.name}: `is` on an Outcome at line(s) {found}"
