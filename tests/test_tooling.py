"""Repository rules that are cheaper to check than to remember."""

import argparse
import ast
import builtins
import collections
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
from umarfid import cli, harness, protocol
from umarfid.protocol import MSG_A, MSG_B, Bench

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


def package_imports(path):
    """Lines of path that import umarfid or one of its modules."""
    return [line for line, name in imported_modules(path) if name == "umarfid"]


@pytest.mark.parametrize("name", ["oracle_bits.py", "oracle_render.py"])
def test_the_naive_oracles_import_nothing_of_the_package(name):
    # an oracle built on the package would agree with it by construction
    assert package_imports(TESTS / name) == []


def test_the_oracle_import_check_sees_a_package_import():
    assert package_imports(TESTS / "oracle_session.py")


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


# a %-format or str.format template with a hex conversion: "%04x", "{:x}"
HEX_TEMPLATE = re.compile(r"%[-#0 +]*\d*(\.\d+)?[xX]|\{[^{}]*:[^{}]*[xX]\}")


def spec_ends_in_hex(spec):
    """Does a format spec (a str constant or an f-string's parts) end in x or X?"""
    if isinstance(spec, ast.JoinedStr):
        spec = spec.values[-1] if spec.values else None
    return (isinstance(spec, ast.Constant) and isinstance(spec.value, str)
            and spec.value.endswith(("x", "X")))


def hex_conversions(source):
    """(line, expression) of each int-to-hex conversion: a .hex() or hex()
    call, an f-string or format() spec ending in x, or a hex template."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "hex"
                    or isinstance(func, ast.Name) and func.id == "hex"
                    or isinstance(func, ast.Name) and func.id == "format"
                    and len(node.args) > 1 and spec_ends_in_hex(node.args[1])):
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.FormattedValue) and spec_ends_in_hex(node.format_spec):
            yield node.lineno, ast.unparse(node.value)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and HEX_TEMPLATE.search(node.value)):
            yield node.lineno, node.value


def test_only_word_turns_an_int_into_hex():
    # README's word format lives in word.to_hex alone; records, transcript
    # lines and errors print words through it, so the format cannot split
    found = [(path.name, *conversion) for path in sorted(SRC.glob("*.py"))
             if path.name != "word.py" for conversion in hex_conversions(path.read_text())]
    assert not found, f"int to hex outside word.py: {found}"
    assert list(hex_conversions((SRC / "word.py").read_text()))  # the check can see word's
    seen = hex_conversions(
        'w.to_bytes(2, "big").hex(); hex(w); f"{a:02x}"; f"{b:0{n}X}"; format(c, "x")\n'
        '"%04x" % w; "{:x}".format(w); f"{w:>8}"; "%s" % w; format(w, "b"); "x, y"')
    assert {expression for _, expression in seen} == {
        "w.to_bytes(2, 'big').hex()", "hex(w)", "format(c, 'x')", "a", "b", "%04x", "{:x}"}


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


# a namedtuple's own API: its names start with an underscore only so that
# they cannot clash with a field's
NAMEDTUPLE_API = {"_fields", "_field_defaults", "_replace", "_make", "_asdict"}


def private_uses(source):
    """(line, expression) of each underscore attribute used on an object other
    than self or cls; a dunder name is the data model, not a private one."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not (node.attr.startswith("__") and node.attr.endswith("__"))
                and node.attr not in NAMEDTUPLE_API
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            yield node.lineno, ast.unparse(node)


def test_src_uses_no_private_attribute_of_another_object():
    # a caller that reaches into another object's private state should be
    # handed that state instead, and the wrapper around it deleted
    found = [(path.name, *use) for path in sorted(SRC.glob("*.py"))
             for use in private_uses(path.read_text())]
    assert not found, f"private attributes used from outside their object: {found}"
    seen = private_uses("channel._rules.get(0); self._seed; cls._x; s._replace(); f.__name__")
    assert list(seen) == [(1, "channel._rules")]


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

# SessionTranscript.lines waits for a replay command that prints it
UNUSED_METHODS = {("protocol", "SessionTranscript", "lines")}


def public_methods(trees):
    """(module, class, name) of each public function a src class body defines."""
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        yield module, cls.name, node.name


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
    # a public method counts as used when src loads an attribute of its name
    methods = set(public_methods(trees))
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert ("protocol", "TagState", "respond") in methods
    unused = sorted(m for m in methods - UNUSED_METHODS if m[2] not in loaded)
    assert not unused, f"public methods src never loads: {unused}"


# cli.main's argv is the console script's entry (None reads sys.argv);
# harness.render has no src caller at all (ROADMAP item 2)
DEFAULTS_NO_SRC_CALL_SETS = {("cli", "main", "argv"), ("harness", "render", "fmt")}


def src_functions(trees):
    """(call key, module, qualified name, def, whether its first parameter is
    bound) of each src function; a constructor's key is its class name, as
    `Cls(...)` calls it, and a method's first parameter is bound unless static."""
    for module, tree in trees.items():
        owner = {item: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                cls = owner.get(node)
                if cls is None:
                    yield node.name, module, node.name, node, False
                else:
                    decorators = {getattr(d, "id", None) for d in node.decorator_list}
                    key = cls.name if node.name == "__init__" else node.name
                    yield (key, module, f"{cls.name}.{node.name}", node,
                           "staticmethod" not in decorators)


def call_sites(trees):
    """(call key, call) of each src call: `f(...)` and `x.f(...)` by the name
    f, `super().__init__(...)` once per base class name of its class."""
    for tree in trees.values():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in ast.walk(cls):
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "__init__"
                            and isinstance(node.func.value, ast.Call)
                            and getattr(node.func.value.func, "id", None) == "super"):
                        for base in cls.bases:
                            yield getattr(base, "id", None), node
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                yield node.func.id, node
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                yield node.func.attr, node


def parameters_set(function, bound, call):
    """Names of function's parameters that call passes, by position or by
    keyword; a * or ** argument may pass any of them."""
    args = function.args
    positional = [a.arg for a in [*args.posonlyargs, *args.args]][bound:]
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return {*positional, *(a.arg for a in args.kwonlyargs)}
    return set(positional[:len(call.args)]) | {k.arg for k in call.keywords}


def defaulted_parameters(function):
    """Names of function's parameters that have a default."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    yield from (a.arg for a in positional[len(positional) - len(args.defaults):])
    yield from (a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def unset_defaults(src):
    """(module, function, parameter) of each defaulted parameter of a function
    in the src directory that no call in it passes."""
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    calls = collections.defaultdict(list)
    for key, call in call_sites(trees):
        calls[key].append(call)
    unset = set()
    for key, module, qualname, function, bound in src_functions(trees):
        passed = {name for call in calls[key] for name in parameters_set(function, bound, call)}
        unset |= {(module, qualname, name) for name in defaulted_parameters(function)
                  if name not in passed}
    return unset


def test_every_defaulted_parameter_is_set_by_src():
    # a default that every src call leaves alone is a constant dressed as an
    # option: it doubles what tests must cover for no caller's sake
    found = unset_defaults(SRC)
    assert ("cli", "main", "argv") in found  # an unset default is seen
    assert ("protocol", "Bench.__init__", "n_tags") not in found  # as is a super() call
    unset = sorted(found - DEFAULTS_NO_SRC_CALL_SETS)
    assert not unset, f"defaulted parameters no src call sets: {unset}"


def test_pyproject_names_the_package_its_script_and_version():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((SRC.parent.parent / "pyproject.toml").read_text())["project"]
    assert project["name"] == "umarfid"
    assert project["scripts"]["umarfid"] == "umarfid.cli:main"
    assert project["version"] == umarfid.__version__


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


def test_readme_python_blocks_run():
    # the Library example is code a reader copies; it must still run
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert any("attack_clone(Bench(word_len=128, seed=7))" in block for block in blocks)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


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
    lines = bench.run_honest({MSG_A: None, MSG_B: 0x0101}).lines(16)
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


BENCH_WORKLOAD = TESTS.parent / "benchmarks" / "workload.py"


def trace_targets():
    """The dotted names of the benchmark's TRACE_TARGETS, read from its
    source, so that the benchmark is neither imported nor run."""
    tree = ast.parse(BENCH_WORKLOAD.read_text(), filename=str(BENCH_WORKLOAD))
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACE_TARGETS":
            return [name for name, _ in ast.literal_eval(node.value)]
    raise LookupError(f"no TRACE_TARGETS in {BENCH_WORKLOAD}")


def test_the_names_the_benchmark_uses_exist():
    # benchmarks/run.py traces these names and calls the primitives below;
    # a refactor that drops one breaks the benchmark, which this suite does
    # not run
    targets = trace_targets()
    assert {"harness.render", "protocol.TagState.respond", "cli.main"} <= set(targets)
    missing = [name for name in [*targets, "attacks.Bench"] if not resolves(umarfid, name)]
    assert not missing, f"the benchmark uses {missing}, which umarfid no longer defines"
    # isolated_loops calls these with two arguments, on an honest session's words
    bench = umarfid.attacks.Bench(128, 0)
    used = bench.tag.current
    transcript = bench.run_honest()
    nonce = transcript.a ^ used.key
    assert protocol.compute_a(used.key, nonce) == transcript.a
    assert protocol.compute_b(used.key, nonce) == transcript.b
    assert protocol.compute_c(used.key, nonce) == transcript.c
    assert protocol.next_pair(used, nonce) == bench.tag.current


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
