"""Guards on the package's shape, read from its source.

Every public function and class has a caller outside the tests.  A
module-level name without a leading underscore is public.  It has to be
referenced by other package code, by the benchmark under ``bench/``, or be
exported in ``hgrc.__all__``; a helper that only tests call belongs in the
tests as an oracle.

Every config default is declared once, on its dataclass: no function gives
a default to a parameter named after a config field.

The architecture travels with the parameters (``ModelParams.config``), so no
function takes both a ``ModelParams`` and a ``ModelConfig``.

No name the package exports hides one of its modules: ``hgrc.train`` is the
module, and the function is ``hgrc.train.train``.
"""

import ast
import importlib
import types
from dataclasses import fields
from pathlib import Path

import hgrc

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hgrc"


def _references(node: ast.AST, strings: bool) -> set[str]:
    """Names, attribute names and (optionally) identifier strings under node."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            # the benchmark looks layer functions up by name
            refs.add(sub.value)
    return refs


def test_every_public_definition_has_a_non_test_caller():
    definitions = []  # (module, name, node)
    uses = []         # (node, names it references)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            uses.append((node, _references(node, strings=False)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                definitions.append((path.stem, node.name, node))
    for path in sorted((ROOT / "bench").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += [(node, _references(node, strings=True)) for node in tree.body]

    exported = set(hgrc.__all__)
    unused = [f"{module}.{name}" for module, name, node in definitions
              if name not in exported
              and not any(name in refs for user, refs in uses if user is not node)]
    assert unused == [], f"public but only tests use them: {unused}"


def _defaulted_parameters(node: ast.FunctionDef) -> list[str]:
    args = node.args
    positional = args.posonlyargs + args.args
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]
    return [arg.arg for arg in defaulted]


def test_no_function_redeclares_a_config_default():
    config_fields = {f.name for cls in (hgrc.TrainConfig, hgrc.ModelConfig, hgrc.SyntheticSpec)
                     for f in fields(cls)}
    redeclared = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                redeclared += [f"{path.stem}.{node.name}({name}=...)"
                               for name in _defaulted_parameters(node)
                               if name in config_fields]
    assert redeclared == [], f"config defaults declared again: {redeclared}"


def _annotation_name(annotation: ast.expr | None) -> str | None:
    """The class an annotation names: ``X``, ``module.X`` or ``"X"``."""
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.rpartition(".")[2]
    return None


def test_no_function_takes_both_parameters_and_their_config():
    both = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {_annotation_name(arg.annotation)
                         for arg in args.posonlyargs + args.args + args.kwonlyargs}
                if {"ModelParams", "ModelConfig"} <= names:
                    both.append(f"{path.stem}.{node.name}")
    assert both == [], f"read the architecture from params.config instead: {both}"


def test_every_module_is_reached_by_its_name_on_the_package():
    names = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    assert "train" in names
    for name in names:
        module = importlib.import_module(f"hgrc.{name}")
        assert isinstance(getattr(hgrc, name), types.ModuleType), name
        assert getattr(hgrc, name) is module, name
    assert hgrc.train.derive_rng_streams is hgrc.derive_rng_streams
